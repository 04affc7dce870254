import numpy as np
import pytest

from voteopt import (
    ClassSet,
    ClassifierSet,
    ConfusionMatrix,
    PredictionSet,
    WeightMatrix,
    balanced_accuracy,
    binary_auprc,
    improvement_pct,
    macro_auprc,
    macro_prf,
)
from voteopt.metrics import per_class_prf


def cm_from_labels(true, pred, m=None, names=()):
    labels = sorted(set(true) | set(pred))
    index = {c: i for i, c in enumerate(labels)}
    m = m or len(labels)
    return ConfusionMatrix.from_predictions(
        [index[c] for c in true], [index[c] for c in pred], m,
        names or tuple(labels),
    )


SIX_INSTANCE = cm_from_labels("AABBBC", "ABBBCC")


def single_clf_predictions(scores, truth):
    """One classifier, two classes: wrap raw positive-class scores."""
    scores = np.asarray(scores, dtype=float)
    blocks = np.stack([
        np.stack([1.0 - scores, scores], axis=1)[:, None, :][:, 0]
    for _ in (0,)], axis=1)
    return PredictionSet(
        tuple(str(i) for i in range(len(truth))),
        np.asarray(truth, dtype=np.int64),
        blocks,
        ClassifierSet(("clf",)),
        ClassSet(("neg", "pos")),
    )


class TestBalancedAccuracy:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([3, 5, 2]))
        assert balanced_accuracy(cm) == 1.0

    def test_six_instance_example(self):
        assert balanced_accuracy(SIX_INSTANCE) == pytest.approx(
            (0.5 + 2 / 3 + 1.0) / 3, abs=1e-4
        )

    def test_uniform_random_predictions_near_chance(self):
        rng = np.random.default_rng(0)
        m = 4
        true = rng.integers(0, m, size=20000)
        pred = rng.integers(0, m, size=20000)
        cm = ConfusionMatrix.from_predictions(true, pred, m)
        assert balanced_accuracy(cm) == pytest.approx(1 / m, abs=0.02)

    def test_empty_true_class_rejected(self):
        cm = ConfusionMatrix([[2, 0], [0, 0]])
        with pytest.raises(ValueError, match="no instances"):
            balanced_accuracy(cm)

    def test_equals_macro_recall_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = int(rng.integers(2, 6))
            counts = rng.integers(0, 9, size=(m, m))
            counts[np.arange(m), np.arange(m)] += 1  # populate every class
            cm = ConfusionMatrix(counts)
            _, recall, _ = macro_prf(cm)
            assert balanced_accuracy(cm) == pytest.approx(recall, abs=1e-15)


class TestConfusionFromPredictions:
    @staticmethod
    def add_at_counts(true, pred, m):
        # the np.add.at construction the bincount one replaced
        counts = np.zeros((m, m), dtype=np.int64)
        np.add.at(counts, (np.asarray(true), np.asarray(pred)), 1)
        return counts

    def test_matches_add_at_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            size = int(rng.integers(0, 500))
            true = rng.integers(0, m, size=size)
            pred = rng.integers(0, m, size=size)
            cm = ConfusionMatrix.from_predictions(true, pred, m)
            assert cm.counts.dtype == np.int64
            assert np.array_equal(cm.counts, self.add_at_counts(true, pred, m))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="true class index -1 outside"):
            ConfusionMatrix.from_predictions([-1, 0], [0, -2], 3)
        with pytest.raises(ValueError, match="predicted class index -2 outside"):
            ConfusionMatrix.from_predictions([1, 0], [0, -2], 3)

    def test_too_large_index_rejected(self):
        with pytest.raises(ValueError, match=r"predicted class index 3 outside \[0, 3\)"):
            ConfusionMatrix.from_predictions([0, 1, 2], [0, 3, 1], 3)
        with pytest.raises(ValueError, match="true class index 5 outside"):
            ConfusionMatrix.from_predictions([5], [0], 3)

    def test_first_bad_index_reported_by_value(self):
        # the first out-of-range index in order, not the extreme that failed
        # the range test
        with pytest.raises(ValueError, match=r"predicted class index 4 outside \[0, 3\)"):
            ConfusionMatrix.from_predictions([0] * 5, [1, 4, -3, 9, 0], 3)
        with pytest.raises(ValueError, match=r"true class index -5 outside \[0, 3\)"):
            ConfusionMatrix.from_predictions([[2, -5], [7, 0]], np.zeros((2, 2)), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 true class indices but 2 predictions"):
            ConfusionMatrix.from_predictions([0, 1, 1], [0, 1], 2)


class TestMacroPrf:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([4, 1, 7]))
        assert macro_prf(cm) == pytest.approx((1.0, 1.0, 1.0))

    def test_six_instance_example(self):
        precision, recall, f1 = macro_prf(SIX_INSTANCE)
        assert recall == pytest.approx(0.7222, abs=1e-4)
        assert precision == pytest.approx((1.0 + 2 / 3 + 0.5) / 3, abs=1e-4)
        assert f1 == pytest.approx(2 / 3, abs=1e-4)

    def test_single_class_predictor(self):
        cm = cm_from_labels("AABB", "AAAA")
        _, recall, _ = macro_prf(cm)
        assert recall == pytest.approx(0.5)
        flagged = per_class_prf(cm).zero_precision_classes
        assert flagged == ("B",)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 10, size=(3, 3))
        for c in (2, 5):
            a = macro_prf(ConfusionMatrix(counts))
            b = macro_prf(ConfusionMatrix(counts * c))
            assert a == pytest.approx(b, abs=1e-15)
        assert balanced_accuracy(ConfusionMatrix(counts)) == pytest.approx(
            balanced_accuracy(ConfusionMatrix(counts * 3)), abs=1e-15
        )

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(1, 10, size=(4, 4))
        perm = rng.permutation(4)
        permuted = counts[np.ix_(perm, perm)]
        assert macro_prf(ConfusionMatrix(counts)) == pytest.approx(
            macro_prf(ConfusionMatrix(permuted)), abs=1e-15
        )


class TestBinaryAuprc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positive = np.array([True, True, False, False])
        assert binary_auprc(scores, positive) == pytest.approx(1.0)

    def test_three_instance_hand_example(self):
        # positives ranked 1st and 3rd: PR points (0.5, 1), (0.5, 0.5),
        # (1, 2/3) -> area 0.5 + 0.5 * (0.5 + 2/3) / 2
        scores = np.array([0.9, 0.8, 0.7])
        positive = np.array([True, False, True])
        assert binary_auprc(scores, positive) == pytest.approx(
            0.5 * 1.0 + 0.5 * (0.5 + 2 / 3) / 2, abs=1e-4
        )

    def test_constant_scores_give_prevalence(self):
        scores = np.zeros(8)
        positive = np.array([True, False, False, True] * 2)
        assert binary_auprc(scores, positive) == pytest.approx(0.5)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            scores = rng.random(n)
            positive = rng.random(n) < 0.4
            if not positive.any():
                positive[0] = True
            assert 0.0 <= binary_auprc(scores, positive) <= 1.0

    @staticmethod
    def stable_auprc(scores, positive, full=False):
        # binary_auprc with a stable sort: the reference that the default
        # sort must match bit for bit. Like binary_auprc it sums only the
        # terms where recall rises; full=True sums one term per distinct
        # score, zeros included, which groups the pairwise sum differently
        order = np.argsort(-scores, kind="stable")
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

    def test_unstable_sort_matches_stable_reference(self):
        rng = np.random.default_rng(11)
        size = 20_000
        signed_zeros = rng.choice([-0.0, 0.0, 0.5, 1.0], size=size)
        kinds = {
            "grid": np.floor(rng.random(size) * 2**16) / 2**16,
            "constant": np.full(size, 0.25),
            "nine_level": rng.integers(0, 9, size=size) / 8.0,
            "continuous": rng.random(size),
            "signed_zeros": signed_zeros,
        }
        assert np.signbit(signed_zeros).any() and (signed_zeros == 0.0).sum() > size // 3
        signed = np.random.default_rng(12)
        kinds["negative"] = -np.floor(signed.random(size) * 2**10) / 2**10
        kinds["mixed_sign"] = signed.choice([-1.5, -0.25, -0.0, 0.0, 0.25], size=size) \
            * signed.integers(1, 4, size=size)
        infinite = np.floor(signed.random(size) * 2**6) / 2**6
        infinite[signed.random(size) < 0.05] = np.inf
        infinite[signed.random(size) < 0.05] = -np.inf
        kinds["infinite"] = infinite
        for name, scores in kinds.items():
            # the reference splits tied infinities (inf - inf is NaN);
            # +-1e300 keep the order and the ties of the finite scores given
            finite = np.where(np.isinf(scores), np.sign(scores) * 1e300, scores)
            sets = []
            for rate in (0.002, 0.1, 0.6):
                sets.append(rng.random(size) < rate)
                sets[-1][int(rng.integers(size))] = True
            # one positive at the lowest score (every negative at or above
            # it) and one at the highest (none above it)
            sets += [np.arange(size) == scores.argmin(), np.arange(size) == scores.argmax()]
            for positive in sets:
                got = binary_auprc(scores, positive)
                want = self.stable_auprc(finite, positive)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
                full = self.stable_auprc(finite, positive, full=True)
                assert abs(got - full) <= 4 * np.spacing(full), name

    def test_nan_score_rejected(self):
        positive = np.array([True, False, True, False])
        with pytest.raises(ValueError, match="NaN"):
            binary_auprc(np.array([np.nan, 0.2, 0.1, np.nan]), positive)
        with pytest.raises(ValueError, match="NaN"):
            binary_auprc(np.array([0.3, 0.2, 0.1, np.nan]), positive)
        # NaN among the positives only, and among the negatives below the
        # lowest positive only, where no threshold reads it
        with pytest.raises(ValueError, match="NaN"):
            binary_auprc(np.array([0.3, 0.2, np.nan, 0.1]), positive)
        with pytest.raises(ValueError, match="NaN"):
            binary_auprc(np.array([0.9, 0.1, 0.8, np.nan]), positive)

    def test_infinite_scores_are_thresholds(self):
        positive = np.array([True, False, True, False, True])
        scores = np.array([np.inf, -np.inf, np.inf, 0.5, -np.inf])
        got = binary_auprc(scores, positive)
        # tied infinities form one threshold each, as finite ties do
        finite = np.where(np.isinf(scores), np.sign(scores) * 1e300, scores)
        assert got == binary_auprc(finite, positive)
        # the two +inf positives first (precision 1 to recall 2/3), then
        # 0.5 (2/3 at 2/3), then everything (3/5 at 1)
        assert got == pytest.approx(2 / 3 + (1 / 3) * (2 / 3 + 3 / 5) / 2)

    def test_length_mismatch_rejected(self):
        scores = np.array([0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="3 scores but 2 positive flags"):
            binary_auprc(scores, np.array([True, False]))
        with pytest.raises(ValueError, match="3 scores but 4 positive flags"):
            binary_auprc(scores, np.array([1, 0, 0, 1]))

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            binary_auprc(np.array([0.1, 0.2]), np.array([False, False]))

    def test_recall_monotone_along_threshold_sweep(self):
        rng = np.random.default_rng(8)
        scores = rng.random(40)
        positive = rng.random(40) < 0.3
        positive[0] = True
        thresholds = np.sort(np.unique(scores))[::-1]
        recalls = [
            ((scores >= t) & positive).sum() / positive.sum()
            for t in thresholds
        ]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))


class TestMacroAuprc:
    def test_hand_example_through_ensemble_scores(self):
        from voteopt.metrics import auprc_per_class

        preds = single_clf_predictions([0.9, 0.8, 0.7], [1, 0, 1])
        w = WeightMatrix([[1.0, 1.0]])
        values, skipped = auprc_per_class(preds, w)
        # positive class: the 0.7917 hand construction; negative class:
        # points (0,0), (1,1/2), (1,1/3) -> area 0.25
        assert values[1] == pytest.approx(0.7917, abs=1e-4)
        assert values[0] == pytest.approx(0.25, abs=1e-12)
        assert skipped == ()
        assert macro_auprc(preds, w) == pytest.approx(
            (0.25 + 0.79166667) / 2, abs=1e-4
        )

    def test_absent_class_skipped_with_warning(self):
        preds = single_clf_predictions([0.9, 0.1], [1, 1])
        w = WeightMatrix([[1.0, 1.0]])
        with pytest.warns(UserWarning, match="skipped"):
            value = macro_auprc(preds, w)
        assert value == pytest.approx(1.0)


class TestImprovementPct:
    def test_equal_values(self):
        assert improvement_pct(0.5, 0.5) == 0.0

    def test_two_percent(self):
        assert improvement_pct(1.02 * 0.7, 0.7) == pytest.approx(2.0)

    def test_step_imbalance_endpoints(self):
        assert improvement_pct(0.990, 0.973) == pytest.approx(1.747, abs=1e-3)

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            improvement_pct(0.5, 0.0)
