import contextlib
import os
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from voteopt import (
    ClassSet,
    ClassifierSet,
    PredictionSet,
    WeightMatrix,
    evaluate,
    predict,
)
from voteopt import ensemble, io, metrics
from voteopt.ensemble import predict_batch
from voteopt.metrics import (
    ConfusionMatrix,
    MetricsReport,
    auprc_per_class,
    balanced_accuracy,
    binary_auprc,
    per_class_prf,
)


def make_predictions(scores, truth, n, m):
    scores = np.asarray(scores, dtype=float)
    return PredictionSet(
        tuple(f"i{t}" for t in range(scores.shape[0])),
        np.asarray(truth, dtype=np.int64),
        scores,
        ClassifierSet(tuple(f"c{i}" for i in range(n))),
        ClassSet(tuple(f"e{j}" for j in range(m))),
    )


class TestPredict:
    def test_single_classifier_passthrough(self):
        w = WeightMatrix([[1.0, 1.0, 1.0]])
        scores = np.array([[0.2, 0.5, 0.3]])
        out = predict(w, scores)
        assert out.predicted == 1
        assert not out.tie
        assert out.scores == pytest.approx([0.2, 0.5, 0.3])

    def test_hard_votes_follow_heavier_classifier(self):
        w = WeightMatrix([[0.7, 0.7], [0.3, 0.3]])
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])  # one-hot disagreement
        out = predict(w, scores)
        assert out.predicted == 0
        assert not out.tie

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(12)
        w = WeightMatrix(rng.random((3, 3)))
        scores = rng.random((3, 3))
        out = predict(w, scores)
        expected = np.zeros(3)
        for j in range(3):
            for i in range(3):
                expected[j] += w.w[i, j] * scores[i, j]
        assert out.scores == pytest.approx(expected, abs=1e-12)
        assert out.predicted == int(np.argmax(expected))

    def test_all_zero_scores_tie_flagged(self):
        w = WeightMatrix([[0.5, 0.5]])
        out = predict(w, np.zeros((1, 2)))
        assert out.tie
        assert out.predicted == 0

    def test_negative_scores_vote_as_in_predict_batch(self):
        # any finite score is accepted, as a PredictionSet accepts it
        w = WeightMatrix([[1.0, 1.0, 0.5], [0.5, 1.0, 1.0]])
        scores = np.array([
            [[-0.1, 0.2, -0.3], [0.4, -0.5, 0.0]],
            [[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0]],  # classes 0 and 2 tie below zero
            [[-1e308, 0.0, -3.0], [-0.25, -0.5, -0.75]],
        ])
        predicted, ties = predict_batch(w, make_predictions(scores, np.zeros(3), 2, 3))
        for r, block in enumerate(scores):
            out = predict(w, block)
            assert (out.predicted, out.tie) == (predicted[r], ties[r])
        assert ties.tolist() == [False, True, False]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # as a PredictionSet rejects them
        w = WeightMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="scores contain non-finite entries"):
            predict(w, [[bad, 0.2, 0.1], [0.1, 0.2, 0.3]])

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(13)
        w = rng.random((4, 3))
        scores = rng.random((10, 4, 3))
        preds = make_predictions(scores, np.zeros(10), 4, 3)
        base, base_ties = predict_batch(WeightMatrix(w), preds)
        for c in (0.1, 3.0):
            scaled, ties = predict_batch(WeightMatrix(c * w), preds)
            assert np.array_equal(base, scaled)
            assert np.array_equal(base_ties, ties)

    def test_classifier_order_independence(self):
        rng = np.random.default_rng(16)
        w = rng.random((4, 3))
        scores = rng.random((4, 3))
        perm = rng.permutation(4)
        direct = predict(WeightMatrix(w), scores)
        shuffled = predict(WeightMatrix(w[perm]), scores[perm])
        assert shuffled.scores == pytest.approx(direct.scores, abs=1e-12)
        assert shuffled.predicted == direct.predicted

    def test_zero_weight_row_is_inert(self):
        rng = np.random.default_rng(14)
        w_full = rng.random((3, 2))
        w_full[1] = 0.0
        scores = rng.random((6, 3, 2))
        preds_full = make_predictions(scores, np.zeros(6), 3, 2)
        full, _ = predict_batch(WeightMatrix(w_full), preds_full)
        reduced = make_predictions(
            scores[:, [0, 2], :], np.zeros(6), 2, 2
        )
        sliced, _ = predict_batch(WeightMatrix(w_full[[0, 2]]), reduced)
        assert np.array_equal(full, sliced)


class TestEvaluate:
    def test_perfect_predictions(self):
        scores = np.zeros((4, 1, 2))
        truth = [0, 1, 0, 1]
        for t, c in enumerate(truth):
            scores[t, 0, c] = 1.0
        preds = make_predictions(scores, truth, 1, 2)
        report = evaluate(WeightMatrix([[1.0, 1.0]]), preds)
        assert report.balanced_accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.macro_auprc == 1.0

    def test_known_confusion_matches_hand_values(self):
        # build soft scores that reproduce true AABBBC / predicted ABBBCC
        classes = ("A", "B", "C")
        truth = [0, 0, 1, 1, 1, 2]
        predicted = [0, 1, 1, 1, 2, 2]
        scores = np.zeros((6, 1, 3))
        for t, c in enumerate(predicted):
            scores[t, 0, c] = 1.0
        preds = PredictionSet(
            tuple(str(i) for i in range(6)),
            np.array(truth),
            scores,
            ClassifierSet(("clf",)),
            ClassSet(classes),
        )
        report = evaluate(WeightMatrix([[1.0, 1.0, 1.0]]), preds)
        assert report.balanced_accuracy == pytest.approx(0.7222, abs=1e-4)
        assert report.macro_precision == pytest.approx(0.7222, abs=1e-4)
        assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-4)
        assert report.per_class["A"]["support"] == 2

    def test_zero_row_matches_removed_classifier(self):
        rng = np.random.default_rng(15)
        scores = rng.random((30, 3, 2))
        truth = rng.integers(0, 2, size=30)
        w = rng.random((3, 2))
        w[2] = 0.0
        full = evaluate(
            WeightMatrix(w), make_predictions(scores, truth, 3, 2)
        )
        reduced = evaluate(
            WeightMatrix(w[:2]),
            make_predictions(scores[:, :2, :], truth, 2, 2),
        )
        assert full.balanced_accuracy == reduced.balanced_accuracy
        assert full.macro_auprc == reduced.macro_auprc

    def test_empty_prediction_set_rejected(self):
        preds = make_predictions(np.zeros((0, 1, 2)), [], 1, 2)
        with pytest.raises(ValueError, match="empty"):
            evaluate(WeightMatrix([[1.0, 1.0]]), preds)


def argsort_auprc(scores, positive, full=False):
    """binary_auprc by a descending argsort and gathers, read at group ends:
    the sum of the terms where recall rises, or with full=True of one term
    per distinct score, zeros included, which groups the pairwise sum
    differently and so may differ in the last bits."""
    order = np.argsort(-scores)
    sorted_scores = scores[order]
    sorted_pos = positive[order].astype(np.int64)
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    ends = np.append(boundaries, scores.size - 1)
    tp = np.cumsum(sorted_pos)[ends]
    recall = tp / int(positive.sum())
    precision = tp / (ends + 1)
    r = np.concatenate(([0.0], recall))
    p = np.concatenate(([precision[0]], precision))
    terms = np.diff(r) * (p[:-1] + p[1:]) / 2.0
    return float(np.sum(terms if full else terms[np.diff(r) > 0]))


def reference_auprc(preds, weights):
    scores = np.einsum("tij,ij->tj", preds.scores, weights.w)
    values = np.full(preds.classes.m, np.nan)
    skipped = []
    for j, name in enumerate(preds.classes.names):
        pos = preds.true_classes == j
        if not pos.any():
            skipped.append(name)
            continue
        values[j] = argsort_auprc(scores[:, j], pos)
    if skipped:
        warnings.warn(f"classes absent from the truth skipped in AUPRC: {skipped}")
    return values, tuple(skipped)


def reference_evaluate(weights, preds, include_auprc=True):
    """evaluate as a separate pipeline: the ensemble score computed for the
    vote and again for AUPRC, AUPRC by argsort, the confusion by np.add.at."""
    names, m = preds.classes.names, preds.classes.m
    combined = np.einsum("tij,ij->tj", preds.scores, weights.w)
    predicted = combined.argmax(axis=1)
    ties = (combined == combined[np.arange(len(preds)), predicted][:, None]).sum(
        axis=1
    ) > 1
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (preds.true_classes, predicted), 1)
    cm = ConfusionMatrix(counts, names)
    bal_acc = balanced_accuracy(cm)
    prf = per_class_prf(cm)
    if include_auprc:
        values, _ = reference_auprc(preds, weights)
        macro = float(np.nanmean(values))
    else:
        values, macro = np.full(m, np.nan), None
    support = counts.sum(axis=1)
    per_class = {}
    for j, name in enumerate(names):
        entry = {
            "precision": float(prf.precision[j]),
            "recall": float(prf.recall[j]),
            "f1": float(prf.f1[j]),
            "support": int(support[j]),
        }
        if include_auprc and not np.isnan(values[j]):
            entry["auprc"] = float(values[j])
        per_class[name] = entry
    return MetricsReport(
        balanced_accuracy=bal_acc,
        macro_precision=float(prf.precision.mean()),
        macro_recall=float(prf.recall.mean()),
        macro_f1=float(prf.f1.mean()),
        macro_auprc=macro,
        per_class=per_class,
        zero_precision_classes=prf.zero_precision_classes,
        tie_count=int(ties.sum()),
    )


def float_bytes(value):
    """Every float of a nested report as its bytes, in a fixed order."""
    if isinstance(value, dict):
        return [(k, float_bytes(v)) for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [float_bytes(v) for v in value]
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def oracle_sets():
    """Seeded 20k x 8 x 7 prediction sets, each with three weight matrices."""
    rng = np.random.default_rng(31)
    size, n, m = 20_000, 8, 7
    truth = rng.integers(0, m, size=size)
    truth[:m] = np.arange(m)
    grid = np.floor(rng.random((size, n, m)) * 2**16) / 2**16
    continuous = rng.random((size, n, m))
    hard = np.zeros((size, n, m))
    votes = np.where(rng.random((size, n)) < 0.35, truth[:, None],
                     rng.integers(0, m, size=(size, n)))
    np.put_along_axis(hard, votes[:, :, None], 1.0, axis=2)
    weights = [
        np.ones((n, m)),
        rng.random((n, m)),
        np.floor(rng.random((n, m)) * 4) / 4,  # zero rows and repeated weights
    ]
    for name, scores in (("grid", grid), ("continuous", continuous), ("hard", hard)):
        yield pytest.param(make_predictions(scores, truth, n, m), weights, id=name)


class TestEvaluateOracle:
    @pytest.mark.parametrize("preds, weights", list(oracle_sets()))
    def test_bit_identical_to_reference(self, request, preds, weights):
        name = request.node.callspec.id
        ties = []
        for w in map(WeightMatrix, weights):
            for include_auprc in (True, False):
                got = evaluate(w, preds, include_auprc=include_auprc).as_dict()
                want = reference_evaluate(w, preds, include_auprc).as_dict()
                assert got == want, name
                assert float_bytes(got) == float_bytes(want), name
            ties.append(got["tie_count"])
        if name == "hard":
            assert max(ties) > 2000, ties  # heavy ties under equal weights

    def test_absent_class(self):
        rng = np.random.default_rng(32)
        size, n, m = 20_000, 8, 7
        truth = rng.integers(0, m - 1, size=size)
        preds = make_predictions(rng.random((size, n, m)), truth, n, m)
        w = WeightMatrix(rng.random((n, m)))
        with pytest.warns(UserWarning, match="skipped"):
            values, skipped = auprc_per_class(preds, w)
        with pytest.warns(UserWarning, match="skipped"):
            want_values, want_skipped = reference_auprc(preds, w)
        assert skipped == want_skipped == ("e6",)
        assert values.tobytes() == want_values.tobytes()
        # evaluate needs every true class for recall, before any AUPRC
        with pytest.raises(ValueError) as got:
            evaluate(w, preds)
        with pytest.raises(ValueError) as want:
            reference_evaluate(w, preds)
        assert str(got.value) == str(want.value)
        assert "'e6' has no instances" in str(got.value)


def vote_edge_set():
    """Rows of the class-major vote's edge cases, as (N, 2, 3) scores under
    weights of 1e10, so that +-1e308 scores overflow to +-inf and NaN."""
    big = 1e308
    rows = [
        ([3, 1, 3], [0, 0, 0]),  # class 0 ties the maximum
        ([2, 2, 2], [0, 0, 0]),  # all equal
        ([1, 5, 5], [0, 0, 0]),  # a tie above class 0
        ([1, 2, 3], [0, 0, 0]),
        ([big, 0, big], [0, 0, 0]),  # tied +inf
        ([-big, -big, -big], [0, 0, 0]),  # all -inf
        ([-big, 1, -big], [0, 0, 0]),
        ([1, big, 2], [0, -big, 0]),  # NaN maximum in class 1
        ([big, big, 1], [-big, 0, 0]),  # NaN in class 0 beside +inf
        ([big, big, big], [-big, -big, 0]),  # two NaN classes
    ]
    return make_predictions([[a, b] for a, b in rows], np.arange(len(rows)) % 3, 2, 3)


class TestVoteEdgeCases:
    def test_votes_and_ties_match_argmax(self):
        preds = vote_edge_set()
        w = WeightMatrix(np.full((2, 3), 1e10))
        with np.errstate(over="ignore", invalid="ignore"):
            combined = np.einsum("tij,ij->tj", preds.scores, w.w)
            predicted, ties = predict_batch(w, preds)
            got = evaluate(w, preds, include_auprc=False).as_dict()
            want = reference_evaluate(w, preds, include_auprc=False).as_dict()
        assert np.isnan(combined).any(axis=1).sum() == 3
        assert np.isinf(combined).any()
        assert predicted.tolist() == combined.argmax(axis=1).tolist()
        assert predicted.tolist() == [0, 0, 1, 2, 0, 0, 1, 1, 0, 0]
        top = combined[np.arange(len(preds)), predicted]
        assert ties.tolist() == ((combined == top[:, None]).sum(axis=1) > 1).tolist()
        assert ties.tolist() == [True, True, True, False, True, True, False,
                                 False, False, False]
        assert float_bytes(got) == float_bytes(want)


def auprc_edge_cases():
    rng = np.random.default_rng(41)
    size = 500
    grid = np.floor(rng.random(size) * 16) / 16
    some = rng.random(size) < 0.3
    one = np.zeros(size, dtype=bool)
    one[int(rng.integers(size))] = True
    infinite = grid.copy()
    infinite[rng.random(size) < 0.1] = np.inf
    infinite[rng.random(size) < 0.1] = -np.inf
    signed = rng.choice([-0.0, 0.0, 0.25, -0.5], size=size)
    zero_low = some & (signed >= 0.0)
    zero_low[np.flatnonzero(np.signbit(signed) & (signed == 0.0))[0]] = True
    continuous = rng.random(size)
    cases = {
        "all_positive": (grid, np.ones(size, dtype=bool)),
        "one_positive": (grid, one),
        "one_distinct": (np.full(size, 0.375), some),
        "top_group_negative": (grid, some & (grid < grid.max())),
        "bottom_group_only": (grid, grid == grid.min()),
        "infinities": (infinite, some | np.isinf(infinite) & (rng.random(size) < 0.5)),
        "signed_zeros": (signed, some),
        # the lowest positive tied with negatives
        "lowest_tied": (grid, some & (grid >= 0.5)),
        # -0.0 and 0.0 at the lowest positive, on both classes
        "signed_zero_lowest": (signed, zero_low),
        # +inf the only positive threshold, tied with negatives
        "infinite_lowest": (infinite, some & (infinite == np.inf)),
        # one positive at the lowest score, so every negative is at or
        # above it, and one at the highest, so none is
        "single_at_minimum": (continuous, continuous == continuous.min()),
        "single_at_maximum": (continuous, continuous == continuous.max()),
    }
    for name, (scores, positive) in cases.items():
        yield pytest.param(scores, positive, id=name)


class TestAuprcEdgeCases:
    @pytest.mark.parametrize("scores, positive", list(auprc_edge_cases()))
    def test_matches_argsort_reference(self, scores, positive):
        assert positive.any()
        # the argsort reference splits tied infinities (inf - inf is NaN);
        # +-1e300 keep the order and the ties of the finite scores given
        finite = np.where(np.isinf(scores), np.sign(scores) * 1e300, scores)
        got = binary_auprc(scores, positive)
        want = argsort_auprc(finite, positive)
        assert float_bytes(got) == float_bytes(want)
        full = argsort_auprc(finite, positive, full=True)
        assert abs(got - full) <= 4 * np.spacing(full)


@contextlib.contextmanager
def worker_count(count, block=5):
    """Make evaluate use ``count`` workers on any set of ``count`` rows or
    more, with blocks of ``block`` instances, so test-sized sets take the
    threaded path with several blocks per worker."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "_cpus", lambda: count)
        mp.setattr(ensemble, "_ROWS_PER_WORKER", 1)
        mp.setattr(ensemble, "_BLOCK", block)
        mp.setattr(metrics, "_BLOCK", block)
        yield


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


SCORE_VALUES = (0.0, -0.0, 0.25, 0.5, 1.0, -0.5)


@st.composite
def tied_sets(draw):
    """Small prediction sets full of ties: scores from a few values with
    both zeros, sometimes all one value; every class present, those outside
    ``common`` with a single positive; weights with zeros and repeats."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(m, 40))
    common = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    truth = list(range(m)) + draw(
        st.lists(st.sampled_from(common), min_size=rows - m, max_size=rows - m))
    truth = np.array(truth)[draw(st.permutations(range(rows)))]
    if draw(st.booleans()):
        scores = np.full((rows, n, m), draw(st.sampled_from(SCORE_VALUES)))
    else:
        scores = draw(hnp.arrays(np.float64, (rows, n, m),
                                 elements=st.sampled_from(SCORE_VALUES)))
    weights = draw(hnp.arrays(np.float64, (n, m),
                              elements=st.sampled_from((0.0, 0.5, 1.0, 3.0))))
    return make_predictions(scores, truth, n, m), WeightMatrix(weights)


def nan_set():
    """Rows whose class-1 or class-2 scores overflow to NaN under weights of
    1e10; class 1 has 3 positives, class 2 has 5."""
    big = 1e308
    rows = [([1, big, 2], [0, -big, 0])] * 4 + [([1, 1, big], [0, 0, -big])] * 8
    truth = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2]
    return make_predictions(rows, truth, 2, 3), WeightMatrix(np.full((2, 3), 1e10))


class TestWorkerInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tied_sets())
    def test_report_bytes_equal_for_every_worker_count(self, case):
        preds, w = case
        want = reference_evaluate(w, preds).as_dict()
        assert float_bytes(evaluate(w, preds).as_dict()) == float_bytes(want)
        for count in (1, 2, 3):
            with worker_count(count):
                got = evaluate(w, preds).as_dict()
            assert float_bytes(got) == float_bytes(want), count

    @pytest.mark.parametrize("preds, weights", list(oracle_sets())[:1])
    def test_oracle_set_with_more_workers_than_cpus(self, preds, weights):
        # a lost or doubled block claim would leave scores unwritten
        w = WeightMatrix(weights[1])
        want = float_bytes(evaluate(w, preds).as_dict())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with worker_count(8, block=64):
                got = float_bytes(evaluate(w, preds).as_dict())
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_nan_error_is_the_lowest_class_one(self, monkeypatch):
        core = ensemble._auprc_core

        def tagged(scores, positive, p, scratch):
            if p == 3:
                time.sleep(0.05)  # so that class 2 fails first
            try:
                return core(scores, positive, p, scratch)
            except ValueError as exc:
                raise ValueError(f"{exc}: {p} positives") from None

        monkeypatch.setattr(ensemble, "_auprc_core", tagged)
        preds, w = nan_set()
        for count in (1, 2, 3):
            with worker_count(count), np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="contain NaN: 3 positives$"):
                    evaluate(w, preds)

    def test_nan_only_below_the_lowest_positive_raises(self):
        # class 1's scores: 1e10 on its positives, 0 on its negatives but
        # NaN on one (1e308 - 1e308 overflowing), which no threshold reads
        big = 1e308
        rows = [([1, 0], [0, 0])] * 5 + [([0, 1], [0, 0])] * 3 + [([0, big], [0, -big])]
        preds = make_predictions(rows, [0] * 5 + [1] * 3 + [0], 2, 2)
        w = WeightMatrix(np.full((2, 2), 1e10))
        for count in (1, 2, 3):
            with worker_count(count), np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="scores contain NaN"):
                    evaluate(w, preds)

    def test_shape_mismatch_raises_before_any_thread(self, thread_starts):
        preds = make_predictions(np.ones((30, 2, 3)), np.arange(30) % 3, 2, 3)
        with worker_count(3), pytest.raises(ValueError, match="weight shape"):
            evaluate(WeightMatrix(np.ones((2, 2))), preds)
        assert thread_starts == []

    def test_threads_joined_after_return_and_raise(self, thread_starts):
        rng = np.random.default_rng(52)
        preds = make_predictions(rng.random((60, 2, 3)), np.arange(60) % 3, 2, 3)
        w = WeightMatrix(rng.random((2, 3)))
        before = threading.active_count()
        with worker_count(3):
            evaluate(w, preds)
            assert threading.active_count() == before
            nan_preds, nan_w = nan_set()
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="NaN"):
                evaluate(nan_w, nan_preds)
            assert threading.active_count() == before
        assert len(thread_starts) == 8  # two helpers in each of the four splits
        assert not any(t.is_alive() for t in thread_starts)

    def test_small_set_starts_no_thread(self, thread_starts):
        # paper_sweep's 4,000-row evaluates run on one worker
        rng = np.random.default_rng(53)
        preds = make_predictions(rng.random((4000, 8, 5)), np.arange(4000) % 5, 8, 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "_cpus", lambda: 64)
            evaluate(WeightMatrix(rng.random((8, 5))), preds)
        assert thread_starts == []

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert ensemble._cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ensemble._cpus() == 1

    def test_scratch_core_reused_across_distinct_counts(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", 3)
        rng = np.random.default_rng(54)
        size = 400
        scratch = metrics._AuprcScratch(size, size)
        # distinct counts from about 400 down to 1 and up again
        for levels in (None, 64, 4, 1, 2, 16, None):
            if levels is None:
                scores = rng.random(size)
            else:
                scores = np.floor(rng.random(size) * levels) / levels
                scores[scores == 0.0] = rng.choice([-0.0, 0.0], int((scores == 0.0).sum()))
            positive = rng.random(size) < 0.2
            positive[rng.integers(size)] = True
            got = metrics._auprc_core(scores, positive, int(positive.sum()), scratch)
            assert float_bytes(got) == float_bytes(binary_auprc(scores, positive))
            assert float_bytes(got) == float_bytes(argsort_auprc(scores, positive))
            one = np.zeros(size, dtype=bool)
            one[rng.integers(size)] = True
            got = metrics._auprc_core(scores, one, 1, scratch)
            assert float_bytes(got) == float_bytes(argsort_auprc(scores, one))


def test_class_major_scores_padded_off_page_multiples():
    # 2**17 rows: unpadded, the class rows would sit exactly 1 MiB apart
    rows = 1 << 17
    rng = np.random.default_rng(55)
    preds = make_predictions(rng.random((rows, 4, 3)), np.arange(rows) % 3, 4, 3)
    w = WeightMatrix(rng.random((4, 3)))
    scores = metrics.ensemble_scores(preds, w)
    assert np.array_equal(scores, np.einsum("tij,ij->tj", preds.scores, w.w))
    assert scores.strides[1] % 4096 != 0
    ct, _, _ = ensemble._score_and_vote(preds, w, 1)
    assert np.array_equal(ct.T, scores)
    assert ct.strides[0] % 4096 != 0


# score dtypes a PredictionSet keeps: each converts to float64 exactly
NARROW_DTYPES = tuple(map(np.dtype, (np.bool_, np.int8, np.int16, np.int32, np.uint8,
                                     np.uint16, np.uint32, np.float16, np.float32)))


def widened(preds):
    """The same set with its scores converted to float64."""
    return PredictionSet(preds.instance_ids, preds.true_classes,
                         preds.scores.astype(np.float64), preds.classifiers, preds.classes)


def score_bits(scores):
    return np.ascontiguousarray(scores).view(np.uint64)


def assert_scores_like_float64(narrow, w, write=True):
    """Every result on ``narrow`` has the bits of its float64 copy's."""
    wide = widened(narrow)
    for include_auprc in (True, False):
        got = evaluate(w, narrow, include_auprc=include_auprc).as_dict()
        want = evaluate(w, wide, include_auprc=include_auprc).as_dict()
        assert float_bytes(got) == float_bytes(want)
    for got, want in zip(predict_batch(w, narrow), predict_batch(w, wide)):
        assert np.array_equal(got, want)
    assert np.array_equal(score_bits(metrics.ensemble_scores(narrow, w)),
                          score_bits(metrics.ensemble_scores(wide, w)))
    assert (auprc_per_class(narrow, w)[0].tobytes()
            == auprc_per_class(wide, w)[0].tobytes())
    if write:
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("narrow.csv", "wide.csv")]
            for path, preds in zip(paths, (narrow, wide)):
                io.write_predictions(path, preds)
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                assert a.read() == b.read()


@st.composite
def narrow_sets(draw):
    """Small sets in a narrow score dtype, over its whole finite range;
    every class present in the truth."""
    dtype = draw(st.sampled_from(NARROW_DTYPES))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(m, 40))
    truth = np.array(list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=rows - m, max_size=rows - m)))
    truth = truth[draw(st.permutations(range(rows)))]
    finite = dict(allow_nan=False, allow_infinity=False) if dtype.kind == "f" else {}
    scores = draw(hnp.arrays(dtype, (rows, n, m), elements=hnp.from_dtype(dtype, **finite)))
    weights = draw(hnp.arrays(np.float64, (n, m), elements=st.sampled_from(
        (0.0, 0.5, 1.0, 3.0)) | st.floats(0.0, 1.0)))
    preds = PredictionSet(tuple(f"i{t}" for t in range(rows)), truth, scores,
                          ClassifierSet(tuple(f"c{i}" for i in range(n))),
                          ClassSet(tuple(f"e{j}" for j in range(m))))
    assert preds.scores.dtype == dtype
    return preds, WeightMatrix(weights)


class TestNarrowScores:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(narrow_sets())
    def test_narrow_set_scores_like_its_float64_copy(self, case):
        preds, w = case
        assert_scores_like_float64(preds, w)
        for count in (2, 3):  # several blocks per worker, one buffer each
            with worker_count(count):
                assert_scores_like_float64(preds, w, write=False)

    @pytest.mark.parametrize("dtype", NARROW_DTYPES, ids=str)
    def test_large_narrow_set_on_two_workers(self, dtype, monkeypatch, thread_starts):
        rows, n, m = (1 << 17) + 3, 2, 3
        rng = np.random.default_rng(56)
        if dtype.kind == "b":
            scores = rng.random((rows, n, m)) < 0.5
        elif dtype.kind in "iu":
            info = np.iinfo(dtype)
            scores = rng.integers(info.min, info.max, (rows, n, m), dtype=dtype,
                                  endpoint=True)
        else:
            scores = (rng.standard_normal((rows, n, m)) * 100).astype(dtype)
        preds = PredictionSet(tuple(map(str, range(rows))), np.arange(rows) % m, scores,
                              ClassifierSet(("c0", "c1")), ClassSet(("e0", "e1", "e2")))
        assert preds.scores.dtype == dtype
        monkeypatch.setattr(ensemble, "_cpus", lambda: 2)
        assert ensemble._workers(rows) == 2
        assert_scores_like_float64(preds, WeightMatrix(rng.random((n, m))), write=False)
        assert thread_starts
