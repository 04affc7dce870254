"""Imbalance-aware evaluation metrics.

Balanced accuracy and the macro-averaged precision/recall/F1 family come
from a confusion matrix; the one-vs-rest macro AUPRC integrates each
class's precision-recall curve by the trapezoidal rule over recall. A score
below a class's lowest positive enters none of its precisions, so only the
scores at or above it are sorted, and the area sums only the terms at
thresholds that hold a positive: on the benchmark sets that is within 2 ulp
of a sum with a zero term at every other distinct score (``binary_auprc``).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import PredictionSet, WeightMatrix, _frozen_array


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t, p] = instances of true class t predicted as class p."""

    counts: np.ndarray
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        counts = _frozen_array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {counts.shape}")
        if counts.min() < 0:
            raise ValueError("confusion matrix entries must be non-negative")
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
            if idx.size and (idx.min() < 0 or idx.max() >= m):
                bad = idx[(idx < 0) | (idx >= m)]
                raise ValueError(f"{kind} class index {bad[0]} outside [0, {m})")
        pairs = true_idx * m
        pairs += pred_idx
        counts = np.bincount(pairs.ravel(), minlength=m * m).reshape(m, m)
        return cls(counts, class_names)

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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
    row_sums = cm.counts.sum(axis=1)
    if np.any(row_sums == 0):
        empty = cm.class_names[int(np.argmin(row_sums))]
        raise ValueError(f"recall undefined: true class {empty!r} has no instances")
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


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class recall."""
    return float(per_class_prf(cm).recall.mean())


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
    is the one above it, so its trapezoid is exactly ``0.0``. Each term
    needs only the counts of scores at or above its threshold and above it,
    so a score below the lowest positive enters no term: only the negatives
    at or above the lowest positive are sorted and searched. The area is
    the ``np.sum`` of the positive thresholds' terms alone, highest first.
    A sum that also ran over the zeros, one per distinct score, would group
    its pairwise additions by how many distinct scores lie below the lowest
    positive; it differs from this one by at most 2 ulp on the paper-scale
    benchmark sets.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    if positive.shape != scores.shape:
        raise ValueError(
            f"binary_auprc: {scores.size} scores but {positive.size} positive flags"
        )
    p = int(np.count_nonzero(positive))
    if p == 0:
        raise ValueError("binary_auprc requires at least one positive instance")
    return _auprc_core(scores, positive, p, _AuprcScratch(scores.size, p))


# Entries handled per step where a pass would otherwise make a temporary as
# long as its input: 2**14 indices are 128 kB.
_BLOCK = 1 << 14


class _AuprcScratch:
    """Buffers for ``_auprc_core`` on up to ``n`` scores and ``p`` positives,
    with a mask in ``positive`` for a caller to mark the positives in.

    One set serves any number of calls in turn, so a caller scoring many
    classes allocates it once; each call writes only the prefixes it uses.
    """

    def __init__(self, n: int, p: int):
        self.positive = np.empty(n, dtype=bool)
        self.keep = np.empty(n, dtype=bool)
        self.negatives = np.empty(n)
        self.hits = np.empty(p + 1)
        self.area = np.empty(p)


def _compress_into(mask: np.ndarray, values: np.ndarray, out: np.ndarray) -> int:
    """Copy the ``values`` where ``mask`` is true to the front of ``out`` and
    return their count, ``_BLOCK`` at a time, so that no temporary holds
    more than a block's indices."""
    count = 0
    for lo in range(0, mask.size, _BLOCK):
        at = np.flatnonzero(mask[lo:lo + _BLOCK])
        # mode="clip" (the indices are in range) writes out unbuffered
        np.take(values[lo:lo + _BLOCK], at, out=out[count:count + at.size], mode="clip")
        count += at.size
    return count


def _auprc_core(scores: np.ndarray, positive: np.ndarray, p: int,
                scratch: _AuprcScratch) -> float:
    """``binary_auprc`` of ``scores`` and their ``p`` (at least one) true
    ``positive`` flags, computed in ``scratch``; ``scores`` is left as is.

    It allocates only temporaries of at most ``_BLOCK`` entries: positive
    thresholds are taken a block at a time, each term on its own as in one
    pass, so the terms, and their sum, are the same to the bit.
    """
    # the filter below drops NaN, so the whole row is tested
    if np.isnan(scores.max()):
        raise ValueError("binary_auprc: scores contain NaN")
    # the sorted positive scores, then a NaN that equals none of them, so
    # that the last of them ends a run of equal scores
    ext = scratch.hits[:p + 1]
    hits = ext[:p]
    _compress_into(positive, scores, hits)
    hits.sort()
    ext[p] = np.nan
    # the sorted negatives at or above the lowest positive
    keep = scratch.keep[:scores.size]
    np.greater_equal(scores, hits[0], out=keep)
    # keep and not positive (np.copyto with where= is about 14x slower)
    np.greater(keep, positive, out=keep)
    negatives = scratch.negatives[:_compress_into(keep, scores, scratch.negatives)]
    negatives.sort()
    # the terms, written from the end of area down as the thresholds rise
    area, end, start = scratch.area[:p], p, 0
    for lo in range(0, p, _BLOCK):
        hi = min(lo + _BLOCK, p)
        # where each run of equal positive scores that ends in this block
        # starts, then where the last of them ends
        bounds = np.append(start, lo + 1 + np.flatnonzero(
            np.not_equal(ext[lo:hi], ext[lo + 1:hi + 1])))
        start = bounds[-1]
        # each run's score, the positives at or above it and above it, then
        # all scores at or above it and above it
        threshold = hits[bounds[1:] - 1]
        tp, tp_above = p - bounds[:-1], p - bounds[1:]
        at_or_above = tp + (negatives.size - np.searchsorted(negatives, threshold))
        above = tp_above + (negatives.size - np.searchsorted(negatives, threshold, "right"))
        precision = tp / at_or_above
        # above the top threshold: recall 0 at the top threshold's precision
        precision_above = np.divide(tp_above, above, out=precision.copy(),
                                    where=above > 0)
        area[end - threshold.size:end] = ((tp / p - tp_above / p) * (
            precision_above + precision) / 2.0)[::-1]
        end -= threshold.size
    return float(np.sum(area[end:]))


def ensemble_scores(preds: PredictionSet, weights: WeightMatrix) -> np.ndarray:
    """Weighted per-class ensemble score for every instance, shape (N, m).

    The scores are ``evaluate``'s: the transpose of its class-major matrix,
    so the ``.T`` of the result has class j's score of every instance in
    row j, contiguous for a per-class pass.
    """
    from .ensemble import _score_and_vote, _workers

    return _score_and_vote(preds, weights, _workers(preds.scores.shape[0]))[0].T


def auprc_per_class(
    preds: PredictionSet, weights: WeightMatrix
) -> tuple[np.ndarray, tuple[str, ...]]:
    """One-vs-rest AUPRC per class, computed as ``evaluate`` computes it;
    absent classes are skipped with a warning.

    Returns (values with NaN for skipped classes, skipped class names).
    """
    from .ensemble import _auprc, _score_and_vote, _workers

    workers = _workers(preds.scores.shape[0])
    ct = _score_and_vote(preds, weights, workers)[0]
    support = np.bincount(preds.true_classes, minlength=preds.classes.m)
    values = _auprc(ct, preds.true_classes, support, workers)
    skipped = tuple(preds.classes.names[j] for j in np.flatnonzero(support == 0))
    if skipped:
        warnings.warn(f"classes absent from the truth skipped in AUPRC: {list(skipped)}")
    if len(skipped) == preds.classes.m:
        raise ValueError("no class present in the truth; AUPRC undefined")
    return values, skipped


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
    tie_count: int = 0

    def as_dict(self) -> dict:
        return asdict(self)
