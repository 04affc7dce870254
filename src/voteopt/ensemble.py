"""Weighted-vote combination of per-classifier scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassSet, PredictionSet, WeightMatrix
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    balanced_accuracy,
    binary_auprc,
    ensemble_scores,
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
    return _votes(ensemble_scores(preds, weights))


def _votes(combined: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class and exact-tie flag of each row of an (N, m) score matrix."""
    predicted = combined.argmax(axis=1)
    ties = (combined == combined[np.arange(len(combined)), predicted][:, None]).sum(
        axis=1
    ) > 1
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
    """
    if len(preds) == 0:
        raise ValueError("prediction set is empty")
    classes = classes or preds.classes
    if classes.names != preds.classes.names:
        raise ValueError("class set does not match the prediction set")
    combined = ensemble_scores(preds, weights)
    predicted, ties = _votes(combined)
    cm = ConfusionMatrix.from_predictions(
        preds.true_classes, predicted, classes.m, classes.names
    )
    bal_acc = balanced_accuracy(cm)
    prf = per_class_prf(cm)

    if include_auprc:
        auprc_values = [binary_auprc(combined[:, j], preds.true_classes == j)
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
