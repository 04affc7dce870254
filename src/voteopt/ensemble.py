"""Weighted-vote combination of per-classifier scores."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import PredictionSet, WeightMatrix
from .metrics import (
    _BLOCK,
    ConfusionMatrix,
    MetricsReport,
    _AuprcScratch,
    _auprc_core,
    balanced_accuracy,
    per_class_prf,
)

# Instances per worker: a set of fewer than twice this many is scored on
# the calling thread alone. Measured on 2 CPUs, two workers cut an evaluate
# by 30-40% from 40,000 rows up while the second CPU is free; while another
# process keeps it busy they cost 3-21% up to 100,000 rows and save 10-13%
# from 200,000 rows.
_ROWS_PER_WORKER = 1 << 16


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
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite entries")
    combined = (scores * weights.w).sum(axis=0)
    top, tie = np.empty(1, dtype=np.intp), np.empty(1, dtype=bool)
    _vote(combined[:, None], top, tie)
    return EnsembleOutput(scores=combined, predicted=int(top[0]), tie=bool(tie[0]))


def predict_batch(
    weights: WeightMatrix, preds: PredictionSet
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``predict`` over a prediction set -> (class indices, tie flags)."""
    _, predicted, ties = _score_and_vote(preds, weights, _workers(len(preds)))
    return predicted, ties


def _class_major(m: int, rows: int) -> np.ndarray:
    """An empty (m, rows) float array, its rows an odd number of 64-byte
    cache lines apart: rows a large power of two bytes apart share cache
    sets, and the einsum's transposed writes then run 3-4x slower.
    """
    return np.empty((m, 8 * (-(-rows // 8) | 1)))[:, :rows]


def _score_and_vote(
    preds: PredictionSet, weights: WeightMatrix, workers: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class-major (m, N) ensemble scores, and each instance's vote and
    exact-tie flag, computed ``_BLOCK`` instances at a time on ``workers``.

    The einsum sums each instance's classifiers in the same order whatever
    the block, so the scores have the same bits as one einsum over all rows.
    A set whose scores are not float64 is copied a block at a time into a
    float64 buffer, one per share, and the einsum reads that: every value
    of a ``PredictionSet`` score dtype converts exactly, so the scores have
    the bits of the set's float64 copy.
    """
    if weights.w.shape != (preds.classifiers.n, preds.classes.m):
        raise ValueError(
            f"weight shape {weights.w.shape} does not match predictions "
            f"({preds.classifiers.n} classifiers, {preds.classes.m} classes)"
        )
    scores = preds.scores
    rows = scores.shape[0]
    ct = _class_major(preds.classes.m, rows)
    predicted = np.empty(rows, dtype=np.intp)
    ties = np.empty(rows, dtype=bool)
    buffers = [] if scores.dtype == np.float64 else [
        np.empty((min(_BLOCK, rows),) + scores.shape[1:]) for _ in range(workers)]

    def block(b, share):
        at = slice(b * _BLOCK, (b + 1) * _BLOCK)
        part = scores[at]
        if buffers:
            part = buffers[share][:len(part)]
            np.copyto(part, scores[at])
        np.einsum("tij,ij->tj", part, weights.w, out=ct[:, at].T)
        _vote(ct[:, at], predicted[at], ties[at])

    _split(-(-rows // _BLOCK), workers, block)
    return ct, predicted, ties


def _vote(ct: np.ndarray, predicted: np.ndarray, ties: np.ndarray) -> None:
    """Write each instance's vote and exact-tie flag from class-major (m, N)
    scores into ``predicted`` and ``ties``.

    The vote is the lowest class holding the instance's maximum, as
    ``argmax`` gives, found by comparing each class row with the maximum.
    An instance whose maximum is NaN (overflowing mixed-sign scores) holds
    no equal class: it votes like ``argmax``, for its first NaN class, and
    is no tie.
    """
    best = ct.max(axis=0)
    eq = ct == best
    # counted in the narrowest unsigned type that holds the class count
    np.greater(eq.sum(axis=0, dtype=np.min_scalar_type(len(ct))), 1, out=ties)
    # every instance whose maximum is not NaN equals some class
    for j in range(len(ct) - 1, -1, -1):
        np.copyto(predicted, j, where=eq[j])
    nan = np.isnan(best)
    if nan.any():
        predicted[nan] = ct[:, nan].argmax(axis=0)


def _auprc(ct: np.ndarray, truth: np.ndarray, support: np.ndarray,
           workers: int) -> np.ndarray:
    """Each class's one-vs-rest AUPRC from class-major (m, N) scores, or NaN
    for a class with no positive; ``support`` counts each class's positives
    in ``truth``. The classes are split over ``workers``; each share's
    scratch is allocated on the calling thread.
    """
    values = np.full(len(ct), np.nan)
    present = np.flatnonzero(support)
    shares = min(workers, present.size)
    scratch = [_AuprcScratch(ct.shape[1], int(support.max())) for _ in range(shares)]

    def class_auprc(i, share):
        j = present[i]
        buf = scratch[share]
        np.equal(truth, j, out=buf.positive)
        values[j] = _auprc_core(ct[j], buf.positive, int(support[j]), buf)

    _split(present.size, shares, class_auprc)
    return values


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no sched_getaffinity
        return os.cpu_count() or 1


def _workers(rows: int) -> int:
    """Workers for a set of ``rows`` instances: one per CPU, at most one per
    ``_ROWS_PER_WORKER`` instances, and at least one."""
    return max(1, min(_cpus(), rows // _ROWS_PER_WORKER))


def _split(items: int, workers: int, work) -> None:
    """Run ``work(item, share)`` for items 0..items-1 on ``workers`` shares.

    Share 0 is the calling thread and each other share a helper thread
    started here; all are joined before this returns or raises. A share
    claims the lowest unclaimed item whenever it is free, so a share that
    starts late or runs slowly takes fewer. Once an item has failed none is
    claimed; every lower item was claimed before it and runs to its end, so
    the lowest item's failure is raised, as a loop over the items in order
    would raise it.
    """
    lock = threading.Lock()
    todo = iter(range(items))
    failures = {}

    def run(share):
        while True:
            with lock:
                item = None if failures else next(todo, None)
            if item is None:
                return
            try:
                work(item, share)
            except Exception as exc:  # raised on the calling thread below
                with lock:
                    failures[item] = exc
                return

    helpers = []
    try:
        for share in range(1, workers):
            helper = threading.Thread(target=run, args=(share,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]


def evaluate(
    weights: WeightMatrix,
    preds: PredictionSet,
    include_auprc: bool = True,
) -> MetricsReport:
    """Score the weighted ensemble on a prediction set.

    Builds the confusion matrix from argmax votes and reports balanced
    accuracy, the macro precision/recall/F1 family and (optionally) the
    one-vs-rest macro AUPRC, with per-class breakdowns.

    Every class must appear in the truth: recall, and so balanced accuracy,
    is undefined for an absent class and raises before any AUPRC.

    The ensemble scores are computed once, class-major (one contiguous row
    per class), and shared by the vote, the tie count and AUPRC. Each
    class's AUPRC is ``binary_auprc``'s, to the bit: it sums the trapezoids
    at thresholds holding a positive, the only ones that are not ``0.0``,
    and sorts only the scores at or above the class's lowest positive.

    A large set is split over the CPUs this process may run on
    (``os.sched_getaffinity``, else ``os.cpu_count()``), with one worker per
    ``_ROWS_PER_WORKER`` instances at most: the scores and votes by blocks
    of instances, AUPRC by class. The calling thread is one worker; the
    others are threads started for this call and joined before it returns
    or raises. Every buffer as long as the set, and each worker's block of
    widened scores, is allocated on the calling thread. Each instance's and
    class's arithmetic is the same whichever worker does it, so the report
    is the same to the bit for any worker count, and an error is the one
    that one worker would raise first.
    """
    if len(preds) == 0:
        raise ValueError("prediction set is empty")
    classes = preds.classes
    workers = _workers(len(preds))
    ct, predicted, ties = _score_and_vote(preds, weights, workers)
    cm = ConfusionMatrix.from_predictions(
        preds.true_classes, predicted, classes.m, classes.names
    )
    tie_count = int(ties.sum())
    del predicted, ties  # AUPRC's buffers may take their memory
    bal_acc = balanced_accuracy(cm)
    prf = per_class_prf(cm)
    support = cm.counts.sum(axis=1)

    auprc = None
    if include_auprc:
        auprc = _auprc(ct, preds.true_classes, support, workers)

    per_class = {}
    for j, name in enumerate(classes.names):
        entry = {
            "precision": float(prf.precision[j]),
            "recall": float(prf.recall[j]),
            "f1": float(prf.f1[j]),
            "support": int(support[j]),
        }
        if auprc is not None:
            entry["auprc"] = float(auprc[j])
        per_class[name] = entry

    return MetricsReport(
        balanced_accuracy=bal_acc,
        macro_precision=float(prf.precision.mean()),
        macro_recall=float(prf.recall.mean()),
        macro_f1=float(prf.f1.mean()),
        macro_auprc=None if auprc is None else float(auprc.mean()),
        per_class=per_class,
        zero_precision_classes=prf.zero_precision_classes,
        tie_count=tie_count,
    )
