import numpy as np
import pytest

from voteopt import (
    ClassDistribution,
    ResamplePlan,
    imbalance_ratio,
    ratio_targets,
    resample,
    step_targets,
    stratified_folds,
)
from voteopt.sampling import distribution_from_labels, round_half_away

D1_NAMES = ("N1", "N2", "N3", "F1", "F2", "F3", "F4")
D1_COUNTS = (17520, 448438, 88154, 1721, 1181, 812, 74)


def d1_distribution():
    return ClassDistribution(D1_NAMES, D1_COUNTS)


def d1_labels():
    return np.repeat(
        np.array(D1_NAMES, dtype=object), D1_COUNTS
    ).astype(str)


class TestRounding:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.5, 1), (1.5, 2), (2.5, 3), (2.4, 2), (-0.5, -1), (0.0, 0)],
    )
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected


class TestStratifiedFolds:
    def test_balanced_deal(self):
        labels = ["A"] * 6 + ["B"] * 3
        folds = stratified_folds(labels, k=3, seed=1)
        labels = np.array(labels)
        for f in range(3):
            mask = folds == f
            assert (labels[mask] == "A").sum() == 2
            assert (labels[mask] == "B").sum() == 1

    def test_small_class_warns_and_lands_once(self):
        labels = ["A"] * 10 + ["B"]
        with pytest.warns(UserWarning, match="folds"):
            folds = stratified_folds(labels, k=5, seed=0)
        assert ((np.array(labels) == "B") & (folds >= 0)).sum() == 1

    def test_d1_shaped_proportions(self):
        labels = d1_labels()
        folds = stratified_folds(labels, k=5, seed=3)
        for name, count in zip(D1_NAMES, D1_COUNTS):
            per_fold = np.array([
                ((labels == name) & (folds == f)).sum() for f in range(5)
            ])
            assert per_fold.sum() == count
            assert per_fold.max() - per_fold.min() <= 1

    def test_partition_properties(self):
        rng = np.random.default_rng(9)
        labels = rng.choice(["x", "y", "z"], size=200)
        folds = stratified_folds(labels, k=4, seed=5)
        assert folds.shape == (200,)
        assert set(np.unique(folds)) <= {0, 1, 2, 3}

    def test_fold_count_validated(self):
        with pytest.raises(ValueError):
            stratified_folds(["a", "b"], k=1)

    def test_seeded_determinism(self):
        labels = ["a"] * 40 + ["b"] * 9
        a = stratified_folds(labels, k=3, seed=11)
        b = stratified_folds(labels, k=3, seed=11)
        assert np.array_equal(a, b)


def reference_folds(labels, k, seed):
    """stratified_folds selecting each class by labels == name."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = np.empty(labels.shape[0], dtype=np.int64)
    names, first = np.unique(labels, return_index=True)
    for name in names[np.argsort(first)]:
        idx = rng.permutation(np.flatnonzero(labels == name))
        folds[idx] = np.arange(idx.size) % k
    return folds


def reference_resample(labels, plan):
    """resample converting the labels to str once per class."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(plan.rng_seed)
    chosen = []
    for name, target in plan.targets.items():
        idx = np.flatnonzero(labels.astype(str) == name)
        if target <= idx.size:
            chosen.append(rng.choice(idx, size=target, replace=False))
        else:
            extra = rng.choice(idx, size=target - idx.size, replace=True)
            chosen.append(np.concatenate([idx, extra]))
    return np.concatenate(chosen)


class TestClassCodes:
    def seeded_labels(self):
        rng = np.random.default_rng(41)
        names = np.array(["F2", "N1", "F1", "N3", "N2"])
        codes = rng.choice(5, size=3000, p=[0.05, 0.5, 0.1, 0.15, 0.2])
        yield names[codes]
        yield codes * 7 - 3
        yield names.astype(object)[codes]

    def test_str_and_int_labels_match_the_per_class_reference(self):
        for labels in self.seeded_labels():
            for seed in (0, 5):
                got = stratified_folds(labels, k=4, seed=seed)
                assert got.tobytes() == reference_folds(labels, 4, seed).tobytes()
            dist = distribution_from_labels(labels)
            names, first = np.unique(labels, return_index=True)
            order = names[np.argsort(first)]
            assert dist.class_names == tuple(str(c) for c in order)
            assert dist.counts.tolist() == [int((labels == c).sum()) for c in order]
            targets = {name: int(c) // 2 + 3 for name, c in
                       zip(dist.class_names, dist.counts)}
            plan = ResamplePlan(targets, rng_seed=9)
            got = resample(labels, plan)
            assert got.tobytes() == reference_resample(labels, plan).tobytes()

    def test_nan_labels_are_one_class(self):
        labels = np.array([1.0, np.nan, 2.0, np.nan, 1.0, np.nan, np.nan, 2.0, 1.0])
        dist = distribution_from_labels(labels)
        assert dist.class_names == ("1.0", "nan", "2.0")
        assert dist.counts.tolist() == [3, 4, 2]
        folds = stratified_folds(labels, k=2, seed=3)
        assert set(folds.tolist()) == {0, 1}
        nan_folds = np.bincount(folds[np.isnan(labels)], minlength=2)
        assert nan_folds.tolist() == [2, 2]
        idx = resample(labels, ResamplePlan({"nan": 6, "1.0": 1}, rng_seed=2))
        assert np.isnan(labels[idx]).sum() == 6
        assert (labels[idx] == 1.0).sum() == 1


class TestResample:
    def test_identity_targets(self):
        labels = np.array(["a", "a", "b", "b", "b"])
        plan = ResamplePlan({"a": 2, "b": 3}, rng_seed=4)
        idx = resample(labels, plan)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]

    def test_oversample_doubles_small_class(self):
        labels = np.array(["maj"] * 500 + ["min"] * 74)
        plan = ResamplePlan({"maj": 500, "min": 148}, rng_seed=7)
        idx = resample(labels, plan)
        minority = idx[idx >= 500]
        assert minority.size == 148
        # originals all kept once, the rest drawn with replacement
        assert np.unique(minority).size == 74

    def test_undersample_distinct_originals(self):
        rng = np.random.default_rng(0)
        labels = np.array(["big"] * 448438)
        plan = ResamplePlan({"big": 79700}, rng_seed=1)
        idx = resample(labels, plan)
        assert idx.size == 79700
        assert np.unique(idx).size == 79700

    def test_exact_counts_any_seed(self):
        labels = np.array(["a"] * 13 + ["b"] * 5 + ["c"] * 2)
        for seed in (0, 1, 99):
            plan = ResamplePlan({"a": 4, "b": 9, "c": 2}, rng_seed=seed)
            idx = resample(labels, plan)
            resampled = labels[idx]
            assert (resampled == "a").sum() == 4
            assert (resampled == "b").sum() == 9
            assert (resampled == "c").sum() == 2

    def test_absent_class_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            resample(np.array(["a"]), ResamplePlan({"ghost": 3}))

    def test_seeded_determinism(self):
        labels = np.array(["a"] * 50 + ["b"] * 10)
        plan = ResamplePlan({"a": 20, "b": 20}, rng_seed=123)
        assert np.array_equal(resample(labels, plan), resample(labels, plan))


class TestRatioTargets:
    def test_double_imbalance(self):
        plan = ratio_targets(d1_distribution(), 12121.95)
        assert plan.targets["F4"] == 37  # round(448438 / 12121.95)
        assert plan.total == sum(D1_COUNTS)
        achieved = max(plan.targets.values()) / min(plan.targets.values())
        assert achieved == pytest.approx(12121.95, rel=0.02)

    def test_half_imbalance(self):
        plan = ratio_targets(d1_distribution(), 3029.89)
        assert plan.targets["F4"] == 148
        assert plan.total == sum(D1_COUNTS)

    def test_balanced(self):
        plan = ratio_targets(d1_distribution(), 1.0)
        assert all(t == 79700 for t in plan.targets.values())
        assert plan.total == 557900

    def test_current_ratio_is_identity_on_minority(self):
        plan = ratio_targets(d1_distribution(), 6059.97)
        assert plan.targets["F4"] == 74
        assert plan.total == sum(D1_COUNTS)

    def test_changes_at_most_two_classes(self):
        plan = ratio_targets(d1_distribution(), 3029.89)
        changed = [
            name for name, count in zip(D1_NAMES, D1_COUNTS)
            if plan.targets[name] != count
        ]
        assert len(changed) <= 2

    def test_vanishing_minority_rejected(self):
        d = ClassDistribution(("a", "b"), (10, 5))
        with pytest.raises(ValueError, match="empty|minority"):
            ratio_targets(d, 1e9)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            ratio_targets(d1_distribution(), 0.5)


class TestStepTargets:
    @pytest.mark.parametrize(
        "r,y,z,rho",
        [(1, 15, 92981, 6198.73), (3, 23, 139458, 6063.39), (6, 92, 557348, 6058.13)],
    )
    def test_reference_rows(self, r, y, z, rho):
        plan = step_targets(557900, 7, r, 6059.97)
        assert plan.y == y
        assert plan.z == z
        assert round(plan.achieved_rho, 2) == rho
        assert abs(plan.total - 557900) <= 7

    def test_bind_assigns_minority_to_smallest(self):
        plan = step_targets(557900, 7, 3, 6059.97)
        bound = plan.bind(d1_distribution(), seed=2)
        for name in ("F2", "F3", "F4"):
            assert bound.targets[name] == plan.y
        for name in ("N1", "N2", "N3", "F1"):
            assert bound.targets[name] == plan.z

    def test_invalid_minority_count_rejected(self):
        with pytest.raises(ValueError):
            step_targets(100, 4, 0, 10.0)
        with pytest.raises(ValueError):
            step_targets(100, 4, 4, 10.0)

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            step_targets(100, 4, 2, 1.0)


class TestEndToEnd:
    def test_resample_reaches_planned_distribution(self):
        labels = np.repeat(["n", "f1", "f2"], [1800, 140, 60])
        dist = distribution_from_labels(labels)
        plan = ratio_targets(dist, 45.0, seed=3)
        idx = resample(labels, plan)
        achieved = distribution_from_labels(labels[idx])
        assert imbalance_ratio(achieved) == pytest.approx(45.0, rel=0.02)
        assert achieved.total == dist.total
