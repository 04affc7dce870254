"""Weighted-vote combination of per-classifier scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassSet, PredictionSet, WeightMatrix
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    _class_scores,
    balanced_accuracy,
    binary_auprc,
    per_class_prf,
)


@dataclass(frozen=True)
class EnsembleOutput:
    """Combined score vector and the argmax decision for one instance."""

    scores: np.ndarray
    predicted: int
    tie: bool


def predict(weights: WeightMatrix, scores: np.ndarray) -> EnsembleOutput:
    """Combine one instance's (n, m) score block into a class decision.

    Class score j is the weight-scaled sum over classifiers; hard votes work
    as one-hot rows. Exact score ties (including the all-zero block) resolve
    to the lowest class index and are flagged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != weights.w.shape:
        raise ValueError(
            f"score block shape {scores.shape} does not match weights "
            f"{weights.w.shape}"
        )
    if np.any(scores < 0.0):
        raise ValueError("classifier scores must be non-negative")
    combined = (scores * weights.w).sum(axis=0)
    top = int(np.argmax(combined))
    tie = bool((combined == combined[top]).sum() > 1)
    return EnsembleOutput(scores=combined, predicted=top, tie=tie)


def predict_batch(
    weights: WeightMatrix, preds: PredictionSet
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``predict`` over a prediction set -> (class indices, tie flags)."""
    return _votes(_class_scores(preds, weights))


def _votes(ct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vote and exact-tie flag of each instance from class-major (m, N) scores.

    The vote is the lowest class holding the instance's maximum, as
    ``argmax`` gives, found by comparing each class row with the maximum.
    An instance whose maximum is NaN (overflowing mixed-sign scores) holds
    no equal class: it votes like ``argmax``, for its first NaN class, and
    is no tie.
    """
    best = ct.max(axis=0)
    eq = ct == best
    # counted in the narrowest unsigned type that holds the class count
    ties = eq.sum(axis=0, dtype=np.min_scalar_type(len(ct))) > 1
    predicted = np.zeros(best.shape, dtype=np.intp)
    for j in range(len(ct) - 1, -1, -1):
        predicted = np.where(eq[j], j, predicted)
    nan = np.isnan(best)
    if nan.any():
        predicted[nan] = ct[:, nan].argmax(axis=0)
    return predicted, ties


def evaluate(
    weights: WeightMatrix,
    preds: PredictionSet,
    classes: ClassSet | None = None,
    include_auprc: bool = True,
) -> MetricsReport:
    """Score the weighted ensemble on a prediction set.

    Builds the confusion matrix from argmax votes and reports balanced
    accuracy, the macro precision/recall/F1 family and (optionally) the
    one-vs-rest macro AUPRC, with per-class breakdowns.

    Every class must appear in the truth: recall, and so balanced accuracy,
    is undefined for an absent class and raises. No class is skipped in
    AUPRC, and ``skipped_auprc_classes`` stays empty.

    The ensemble scores are computed once, class-major (one contiguous row
    per class), and shared by the vote, the tie count and AUPRC. Each
    class's AUPRC adds trapezoids only at thresholds holding a positive:
    every other term is exactly ``0.0`` (see ``binary_auprc``), so the
    report is the same to the bit as a full trapezoid sum.
    """
    if len(preds) == 0:
        raise ValueError("prediction set is empty")
    classes = classes or preds.classes
    if classes.names != preds.classes.names:
        raise ValueError("class set does not match the prediction set")
    ct = _class_scores(preds, weights)
    predicted, ties = _votes(ct)
    cm = ConfusionMatrix.from_predictions(
        preds.true_classes, predicted, classes.m, classes.names
    )
    bal_acc = balanced_accuracy(cm)
    prf = per_class_prf(cm)

    if include_auprc:
        auprc_values = [binary_auprc(ct[j], preds.true_classes == j)
                        for j in range(classes.m)]
        macro_auprc_value = float(np.mean(auprc_values))
    else:
        macro_auprc_value = None

    support = cm.counts.sum(axis=1)
    per_class = {}
    for j, name in enumerate(classes.names):
        entry = {
            "precision": float(prf.precision[j]),
            "recall": float(prf.recall[j]),
            "f1": float(prf.f1[j]),
            "support": int(support[j]),
        }
        if include_auprc:
            entry["auprc"] = auprc_values[j]
        per_class[name] = entry

    return MetricsReport(
        balanced_accuracy=bal_acc,
        macro_precision=float(prf.precision.mean()),
        macro_recall=float(prf.recall.mean()),
        macro_f1=float(prf.f1.mean()),
        macro_auprc=macro_auprc_value,
        per_class=per_class,
        zero_precision_classes=prf.zero_precision_classes,
        tie_count=int(ties.sum()),
    )
