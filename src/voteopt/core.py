"""Shared domain types for the ensemble weighting toolkit.

Conventions used throughout the package:

* matrices are addressed (classifier row, class column);
* accuracies and weights are dimensionless reals in [0, 1];
* all types are immutable after construction and safe to share across
  workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from mmap import ACCESS_COPY, mmap
from typing import Iterable, Sequence

import numpy as np

class UndefinedRatioError(ValueError):
    """Imbalance ratio requested for a distribution with an empty class."""


class _Owned:
    """An array made for the one object it is passed to.

    ``_frozen_array`` freezes it in place instead of copying it, so a reader
    can hand over the arrays it built. Any other array is copied: the
    caller's stays writeable and shares no memory with the object.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


# score dtypes whose every value converts to float64 exactly
_EXACT_SCORES = frozenset(map(np.dtype, (
    bool, np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32,
    np.float16, np.float32, np.float64)))


def _frozen_array(values, dtype=np.float64, ndim=None) -> np.ndarray:
    nbytes = values.size * np.dtype(dtype).itemsize if isinstance(values, np.ndarray) else 0
    if isinstance(values, _Owned):
        arr = np.asarray(values.array, dtype=dtype)
    elif nbytes >= 1 << 20:
        # its own mapping: in malloc's heap a copy this large pins freed memory
        arr = np.ndarray(values.shape, dtype, mmap(-1, nbytes, access=ACCESS_COPY))
        np.copyto(arr, values, casting="unsafe")
    else:
        arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _check_unique(names: Sequence[str], what: str) -> None:
    if len(names) == 0:
        raise ValueError(f"{what} names must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {what} names: {sorted(names)}")


@dataclass(frozen=True)
class _NameSet:
    """Ordered, unique names; a subclass gives the ``noun`` its errors use."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        _check_unique(self.names, self.noun)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class ClassifierSet(_NameSet):
    """Ordered classifier identifiers; the canonical row order for matrices."""

    noun = "classifier"
    n = property(lambda self: len(self.names))


@dataclass(frozen=True)
class ClassSet(_NameSet):
    """Ordered class identifiers; the canonical column order for matrices."""

    noun = "class"
    m = property(lambda self: len(self.names))


@dataclass(frozen=True)
class AccuracyMatrix:
    """Mean validation accuracy per (classifier, class) pair."""

    values: np.ndarray
    classifiers: ClassifierSet
    classes: ClassSet

    def __post_init__(self):
        values = _frozen_array(self.values, ndim=2)
        object.__setattr__(self, "values", values)
        n, m = values.shape
        if n != self.classifiers.n or m != self.classes.m:
            raise ValueError(
                f"matrix shape {values.shape} does not match "
                f"{self.classifiers.n} classifiers x {self.classes.m} classes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("accuracy matrix contains non-finite entries")
        if values.min() < 0.0 or values.max() > 1.0:
            i, j = np.unravel_index(
                np.argmax(np.abs(values - 0.5)), values.shape
            )
            raise ValueError(
                f"accuracy out of [0, 1] at "
                f"({self.classifiers.names[i]}, {self.classes.names[j]}): "
                f"{values[i, j]}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class HyperParams:
    """Knobs of the weighting model.

    ``epsilon`` must stay well below the unit-scaled accuracies and weights.
    There is no big-M knob: (7) holds for an unselected classifier at any
    M >= eps, so ``validate_constraints`` checks it on the selected ones.
    """

    k: int
    lam: float = 0.95
    alpha: float = 0.85
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"ensemble size k must be >= 1, got {self.k}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.epsilon <= 1e-3:
            raise ValueError(f"epsilon must be in (0, 1e-3], got {self.epsilon}")


@dataclass(frozen=True)
class SelectionVector:
    """Binary per-classifier selection flags."""

    x: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.x, dtype=np.int64, ndim=1)
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("selection flags must be 0 or 1")
        object.__setattr__(self, "x", x)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "SelectionVector":
        x = np.zeros(n, dtype=np.int64)
        x[list(indices)] = 1
        return cls(x)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.x))

    @property
    def count(self) -> int:
        return int(self.x.sum())


@dataclass(frozen=True)
class WeightMatrix:
    """Non-negative weight per (classifier, class) pair.

    Column/overall mass conventions vary by weighting scheme; argmax voting
    is invariant to a single global scale, so mixed conventions are safe.
    """

    w: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.w, ndim=2)
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix contains non-finite entries")
        if w.min() < 0.0:
            i, j = np.unravel_index(np.argmin(w), w.shape)
            raise ValueError(f"negative weight at ({i}, {j}): {w[i, j]}")
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def m(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class PredictionSet:
    """Per-instance truth plus per-classifier per-class scores.

    ``scores`` has shape (instances, classifiers, classes); hard votes are
    represented as one-hot score rows. Scores keep their dtype where every
    value of it converts to float64 exactly (bool, integers of up to 32
    bits, float16, float32, float64); any other input is converted to
    float64. Scoring widens a narrow set a block at a time.
    """

    instance_ids: tuple[str, ...]
    true_classes: np.ndarray
    scores: np.ndarray
    classifiers: ClassifierSet
    classes: ClassSet

    def __post_init__(self):
        object.__setattr__(self, "instance_ids", tuple(self.instance_ids))
        truth = _frozen_array(self.true_classes, dtype=np.int64, ndim=1)
        given = self.scores.array if isinstance(self.scores, _Owned) else self.scores
        dtype = getattr(given, "dtype", None)
        scores = _frozen_array(self.scores, ndim=3,
                               dtype=dtype if dtype in _EXACT_SCORES else np.float64)
        if scores.shape != (len(self.instance_ids), self.classifiers.n, self.classes.m):
            raise ValueError(
                f"scores shape {scores.shape} does not match "
                f"({len(self.instance_ids)}, {self.classifiers.n}, {self.classes.m})"
            )
        if truth.shape[0] != len(self.instance_ids):
            raise ValueError("true_classes length does not match instance count")
        if truth.size and (truth.min() < 0 or truth.max() >= self.classes.m):
            raise ValueError("true class index out of range")
        # NaN propagates through min and max; integers hold no NaN or inf
        if scores.dtype.kind == "f" and not np.isfinite(
                [scores.min(initial=0), scores.max(initial=0)]).all():
            raise ValueError("scores contain non-finite entries")
        object.__setattr__(self, "true_classes", truth)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.instance_ids)


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class instance counts."""

    class_names: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_names", tuple(self.class_names))
        counts = _frozen_array(self.counts, dtype=np.int64, ndim=1)
        _check_unique(self.class_names, "class")
        if counts.shape[0] != len(self.class_names):
            raise ValueError("counts length does not match class names")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if counts.sum() <= 0:
            raise ValueError("distribution must contain at least one instance")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def m(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Regularized objective split into its accuracy and penalty parts."""

    accuracy_term: float
    l1_term: float
    l2_term: float
    total: float


def objective_terms(v: np.ndarray, w: np.ndarray, lam: float, alpha: float):
    """(accuracy, l1, l2, total) of (..., K, m) accuracies and weights.

    accuracy is the class-averaged weighted accuracy; the elastic-net
    penalty mixes the weight sum (L1) and squared sum (L2) by ``alpha`` and
    scales by ``lam``. Each term adds its per-row totals in sorted order, so
    the same rows in another order give the same bits. This one formula
    ranks the subsets, bounds the branch-and-bound nodes and reports the
    winner's objective.
    """
    def total(x):
        return np.sort(x.sum(axis=-1), axis=-1).sum(axis=-1)

    accuracy = total(v * w) / v.shape[-1]
    l1, l2 = total(w), total(w * w)
    return accuracy, l1, l2, accuracy - lam * (alpha * l1 + (1.0 - alpha) / 2.0 * l2)


def objective_value(
    v: AccuracyMatrix, weights: WeightMatrix, params: HyperParams
) -> ObjectiveBreakdown:
    """``objective_terms`` of a full weighting, over its rows that carry weight.

    All-zero rows, such as a solution's unselected classifiers, add nothing
    but would change the summation order, so they are left out: the result
    has the bits of the solver's objective for the selected subset.
    """
    if v.values.shape != weights.w.shape:
        raise ValueError(
            f"shape mismatch: accuracies {v.values.shape} vs weights {weights.w.shape}"
        )
    rows = weights.w.any(axis=1)
    terms = objective_terms(v.values[rows], weights.w[rows], params.lam, params.alpha)
    return ObjectiveBreakdown(*map(float, terms))


def imbalance_ratio(dist: ClassDistribution) -> float:
    """Majority-class count over minority-class count."""
    counts = dist.counts
    if counts.min() == 0:
        empty = dist.class_names[int(np.argmin(counts))]
        raise UndefinedRatioError(
            f"imbalance ratio undefined: class {empty!r} has zero instances"
        )
    return float(counts.max()) / float(counts.min())
