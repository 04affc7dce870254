"""Imbalance-aware evaluation metrics.

Balanced accuracy and the macro-averaged precision/recall/F1 family come
from a confusion matrix; the one-vs-rest macro AUPRC integrates each
class's precision-recall curve by the trapezoidal rule over recall.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import PredictionSet, WeightMatrix


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t, p] = instances of true class t predicted as class p."""

    counts: np.ndarray
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {counts.shape}")
        if counts.min() < 0:
            raise ValueError("confusion matrix entries must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        names = tuple(self.class_names) or tuple(
            str(i) for i in range(counts.shape[0])
        )
        if len(names) != counts.shape[0]:
            raise ValueError("class name count does not match matrix size")
        object.__setattr__(self, "class_names", names)

    @classmethod
    def from_predictions(cls, true_idx, pred_idx, m: int, class_names=()):
        """Count (true, predicted) class-index pairs; indices must lie in [0, m)."""
        true_idx = np.asarray(true_idx, dtype=np.int64)
        pred_idx = np.asarray(pred_idx, dtype=np.int64)
        if true_idx.shape != pred_idx.shape:
            raise ValueError(
                f"{true_idx.size} true class indices but {pred_idx.size} predictions"
            )
        for kind, idx in (("true", true_idx), ("predicted", pred_idx)):
            bad = (idx < 0) | (idx >= m)
            if bad.any():
                raise ValueError(
                    f"{kind} class index {idx[bad][0]} outside [0, {m})"
                )
        pairs = (true_idx * m + pred_idx).ravel()
        counts = np.bincount(pairs, minlength=m * m).reshape(m, m)
        return cls(counts, class_names)

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _require_populated(cm: ConfusionMatrix) -> np.ndarray:
    row_sums = cm.counts.sum(axis=1)
    if np.any(row_sums == 0):
        empty = cm.class_names[int(np.argmin(row_sums))]
        raise ValueError(
            f"recall undefined: true class {empty!r} has no instances"
        )
    return row_sums


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class recall."""
    row_sums = _require_populated(cm)
    recalls = np.diag(cm.counts) / row_sums
    return float(recalls.mean())


@dataclass(frozen=True)
class PrfBreakdown:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    zero_precision_classes: tuple[str, ...]


def per_class_prf(cm: ConfusionMatrix) -> PrfBreakdown:
    """Per-class precision/recall/F1.

    A class that is never predicted has undefined precision; it is scored 0
    and reported in ``zero_precision_classes``.
    """
    row_sums = _require_populated(cm)
    col_sums = cm.counts.sum(axis=0)
    diag = np.diag(cm.counts).astype(np.float64)
    recall = diag / row_sums
    empty_pred = col_sums == 0
    precision = np.divide(
        diag, col_sums, out=np.zeros(cm.m, dtype=np.float64), where=~empty_pred
    )
    pr = precision + recall
    f1 = np.divide(
        2.0 * precision * recall, pr, out=np.zeros(cm.m), where=pr > 0
    )
    flagged = tuple(cm.class_names[j] for j in np.flatnonzero(empty_pred))
    return PrfBreakdown(precision, recall, f1, flagged)


def macro_prf(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Macro-averaged (precision, recall, F1)."""
    b = per_class_prf(cm)
    return float(b.precision.mean()), float(b.recall.mean()), float(b.f1.mean())


def binary_auprc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Area under the precision-recall curve for one positive class.

    Thresholds sweep the distinct scores from high to low (ties share a
    threshold); the curve is anchored at recall 0 with the precision of the
    top-scored group and integrated trapezoidally over recall. A constant
    score vector therefore yields the positive prevalence. Infinite scores
    are ordinary thresholds; a NaN score is rejected, as are ``scores`` and
    ``positive`` of different lengths.

    Only thresholds that hold a positive add area: at any other the recall
    is the one above it, so its trapezoid is ``(x - x) * p / 2``, exactly
    ``0.0``. Each positive-holding term is computed from its threshold's and
    the next higher one's counts (its threshold found by ``np.searchsorted``
    among the distinct scores) and scattered into zeros at its threshold's
    place. That array equals the full trapezoid array, so its (pairwise)
    sum is the same to the bit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    if positive.shape != scores.shape:
        raise ValueError(
            f"binary_auprc: {scores.size} scores but {positive.size} positive flags"
        )
    hits = np.sort(np.compress(positive, scores))
    if hits.size == 0:
        raise ValueError("binary_auprc requires at least one positive instance")
    return _sorted_auprc(np.sort(scores), hits, _AuprcScratch(scores.size, hits.size))


# Entries handled per step where a pass would otherwise make a temporary as
# long as its input: 2**14 indices are 128 kB.
_BLOCK = 1 << 14


class _AuprcScratch:
    """Buffers for ``_sorted_auprc`` on up to ``n`` scores and ``p`` positives,
    with room in ``hits`` for a caller to gather the positive scores.

    One set serves any number of calls in turn, so a caller scoring many
    classes allocates it once; each call writes only the prefixes it uses.
    """

    def __init__(self, n: int, p: int):
        self.flags = np.empty(n, dtype=bool)
        self.first = np.empty(n + 1, dtype=np.intp)
        self.area = np.empty(n)
        self.hits = np.empty(p)
        self.starts = np.empty(p + 1, dtype=np.intp)


def _run_starts(values: np.ndarray, flags: np.ndarray, out: np.ndarray) -> int:
    """Write where each run of equal sorted ``values`` starts, then their
    count, into ``out``, and return the number of runs. ``flags`` is scratch."""
    n = values.size
    flags = flags[:n]
    flags[0] = True
    np.not_equal(values[1:], values[:-1], out=flags[1:])
    count = _nonzero_into(flags, out)
    out[count] = n
    return count


def _nonzero_into(flags: np.ndarray, out: np.ndarray) -> int:
    """Write the indices of the true ``flags`` into ``out``; return their count.

    The indices are found ``_BLOCK`` flags at a time, so no temporary holds
    more than a block's.
    """
    count = 0
    for lo in range(0, flags.size, _BLOCK):
        at = np.flatnonzero(flags[lo:lo + _BLOCK])
        np.add(at, lo, out=out[count:count + at.size])
        count += at.size
    return count


def _sorted_auprc(ascending: np.ndarray, hits: np.ndarray, scratch: _AuprcScratch) -> float:
    """``binary_auprc`` from the sorted scores and the sorted positive scores
    (at least one), computed in ``scratch``. It overwrites ``ascending``.

    It allocates only temporaries of at most ``_BLOCK`` entries: positive
    thresholds are taken a block at a time, each term on its own as in one
    pass, so the area array, and its sum, are the same to the bit.
    """
    if np.isnan(ascending[-1]):  # the sort puts NaN last
        raise ValueError("binary_auprc: scores contain NaN")
    n, p_total = ascending.size, hits.size
    # where each distinct score starts in the sorted scores, then n
    k = _run_starts(ascending, scratch.flags, scratch.first)
    first = scratch.first[:k + 1]
    # the distinct scores, moved to the front of ascending a block at a
    # time: first[i] >= i, so a block reads only what no earlier block wrote
    # (take buffers an out that overlaps its input)
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        np.take(ascending, first[lo:hi], out=ascending[lo:hi])
    distinct = ascending[:k]
    # where each distinct positive score starts in the sorted hits, then p_total
    starts = scratch.starts[:_run_starts(hits, scratch.flags, scratch.starts) + 1]
    # the sweep runs from the highest threshold down
    area = scratch.area[:k]
    area.fill(0.0)
    for lo in range(0, starts.size - 1, _BLOCK):
        hi = min(lo + _BLOCK, starts.size - 1)
        at = starts[lo:hi]
        # the positives at or above each distinct positive score and above
        # it, and its threshold
        tp = p_total - at
        tp_above = p_total - starts[lo + 1:hi + 1]
        group = np.searchsorted(distinct, hits[at])
        precision = tp / (n - first[group])
        # above the top threshold: recall 0 at the top threshold's precision
        above = n - first[group + 1]
        precision_above = np.divide(tp_above, above, out=precision.copy(),
                                    where=above > 0)
        area[k - 1 - group] = (tp / p_total - tp_above / p_total) * (
            precision_above + precision) / 2.0
    return float(np.sum(area))


def _check_weights(preds: PredictionSet, weights: WeightMatrix) -> None:
    if weights.w.shape != (preds.classifiers.n, preds.classes.m):
        raise ValueError(
            f"weight shape {weights.w.shape} does not match predictions "
            f"({preds.classifiers.n} classifiers, {preds.classes.m} classes)"
        )


def _class_major(m: int, rows: int) -> np.ndarray:
    """An empty (m, rows) float array, its rows an odd number of 64-byte
    cache lines apart: rows a large power of two bytes apart share cache
    sets, and the einsum's transposed writes then run 3-4x slower.
    """
    return np.empty((m, 8 * (-(-rows // 8) | 1)))[:, :rows]


def ensemble_scores(preds: PredictionSet, weights: WeightMatrix) -> np.ndarray:
    """Weighted per-class ensemble score for every instance, shape (N, m).

    The array is the transpose of a ``_class_major`` matrix, so its ``.T``
    has class j's score of every instance in row j, contiguous for a
    per-class pass such as each class's AUPRC sort. The einsum writes
    through that transpose and gives the same bits as into a fresh (N, m)
    array.
    """
    _check_weights(preds, weights)
    ct = _class_major(preds.classes.m, preds.scores.shape[0])
    np.einsum("tij,ij->tj", preds.scores, weights.w, out=ct.T)
    return ct.T


def auprc_per_class(
    preds: PredictionSet, weights: WeightMatrix
) -> tuple[np.ndarray, tuple[str, ...]]:
    """One-vs-rest AUPRC per class; absent classes are skipped with a warning.

    Returns (values with NaN for skipped classes, skipped class names).
    """
    scores = ensemble_scores(preds, weights).T
    m = preds.classes.m
    values = np.full(m, np.nan)
    skipped = []
    for j in range(m):
        pos = preds.true_classes == j
        if not pos.any():
            skipped.append(preds.classes.names[j])
            continue
        values[j] = binary_auprc(scores[j], pos)
    if skipped:
        warnings.warn(
            f"classes absent from the truth skipped in AUPRC: {skipped}"
        )
    if len(skipped) == m:
        raise ValueError("no class present in the truth; AUPRC undefined")
    return values, tuple(skipped)


def macro_auprc(preds: PredictionSet, weights: WeightMatrix) -> float:
    """Macro-averaged one-vs-rest AUPRC over the classes present in truth."""
    values, _ = auprc_per_class(preds, weights)
    return float(np.nanmean(values))


def improvement_pct(ours: float, other: float) -> float:
    """Percentage improvement of ``ours`` over ``other``."""
    if other <= 0.0:
        raise ValueError(f"baseline value must be positive, got {other}")
    return 100.0 * (ours - other) / other


@dataclass(frozen=True)
class MetricsReport:
    """Full evaluation of an ensemble on a prediction set."""

    balanced_accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_auprc: float | None
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    zero_precision_classes: tuple[str, ...] = ()
    skipped_auprc_classes: tuple[str, ...] = ()
    tie_count: int = 0

    def as_dict(self) -> dict:
        return asdict(self)
