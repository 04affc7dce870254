import mmap
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, astuple

import numpy as np
import pytest

from voteopt import (
    AccuracyMatrix,
    ClassDistribution,
    ClassSet,
    ClassifierSet,
    HyperParams,
    PredictionSet,
    ResamplePlan,
    UndefinedRatioError,
    WeightMatrix,
    core,
    evaluate,
    imbalance_ratio,
    metrics,
    objective_value,
    subsetsolve,
    uw_pc,
)
from voteopt.io import read_accuracy_matrix

from conftest import random_accuracy_matrix


def _matrix(values):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return AccuracyMatrix(
        values,
        ClassifierSet(tuple(f"c{i}" for i in range(n))),
        ClassSet(tuple(f"e{j}" for j in range(m))),
    )


class TestObjectiveValue:
    def test_single_pair_no_penalty(self):
        ob = objective_value(
            _matrix([[1.0]]), WeightMatrix([[1.0]]), HyperParams(k=1, lam=0.0)
        )
        assert ob.total == pytest.approx(1.0)
        assert ob.accuracy_term == pytest.approx(1.0)

    def test_zero_accuracies(self):
        ob = objective_value(
            _matrix([[0.0, 0.0], [0.0, 0.0]]),
            WeightMatrix([[0.3, 0.4], [0.7, 0.6]]),
            HyperParams(k=2, lam=0.0),
        )
        assert ob.total == pytest.approx(0.0)

    def test_d2_uniform_weights(self, d2_matrix):
        # grand sum of the 8x5 fixture is 33.43, so the class-averaged
        # uniform accuracy is 33.43 / 40
        ob = objective_value(
            d2_matrix, uw_pc(8, 5), HyperParams(k=8, lam=0.0)
        )
        assert ob.total == pytest.approx(33.43 / 40, abs=5e-4)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_accuracy_matrix(rng)
            w = WeightMatrix(rng.random(v.values.shape))
            p = HyperParams(k=1, lam=float(rng.random()), alpha=float(rng.random()))
            ob = objective_value(v, w, p)
            expected = ob.accuracy_term - p.lam * (
                p.alpha * ob.l1_term + (1 - p.alpha) / 2 * ob.l2_term
            )
            assert ob.total == pytest.approx(expected, abs=1e-12)

    def test_row_order_and_zero_rows_leave_the_bits(self):
        # the terms add sorted per-row totals over the rows that carry weight
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            v = rng.random((n, m))
            w = rng.random((n, m))
            p = HyperParams(k=1, lam=float(rng.random()), alpha=float(rng.random()))
            ob = astuple(objective_value(_matrix(v), WeightMatrix(w), p))
            perm = rng.permutation(n + 3)
            v_more = np.concatenate([v, rng.random((3, m))])[perm]
            w_more = np.concatenate([w, np.zeros((3, m))])[perm]
            again = astuple(objective_value(_matrix(v_more), WeightMatrix(w_more), p))
            assert [t.hex() for t in again] == [t.hex() for t in ob]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            objective_value(
                _matrix([[0.5, 0.5]]), WeightMatrix([[1.0]]), HyperParams(k=1)
            )

    def test_column_stochastic_l1_equals_class_count(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_accuracy_matrix(rng)
            w = rng.random(v.values.shape)
            w /= w.sum(axis=0, keepdims=True)
            ob = objective_value(v, WeightMatrix(w), HyperParams(k=1))
            assert ob.l1_term == pytest.approx(v.m, abs=1e-12)

    def test_equal_l2_coefficient_totals_differ_by_constant(self):
        # with columns summing to one, the L1 penalty is a constant
        # lam*alpha*m, so equal lam*(1-alpha) pairs differ by exactly that
        rng = np.random.default_rng(12)
        v = random_accuracy_matrix(rng, n=4, m=3)
        p1 = HyperParams(k=2, lam=0.5, alpha=0.8)
        p2 = HyperParams(k=2, lam=0.2, alpha=0.5)
        assert p1.lam * (1 - p1.alpha) == pytest.approx(p2.lam * (1 - p2.alpha))
        for _ in range(10):
            w = rng.random(v.values.shape)
            w /= w.sum(axis=0, keepdims=True)
            t1 = objective_value(v, WeightMatrix(w), p1).total
            t2 = objective_value(v, WeightMatrix(w), p2).total
            expected = (p2.lam * p2.alpha - p1.lam * p1.alpha) * v.m
            assert t1 - t2 == pytest.approx(expected, abs=1e-10)

    def test_concave_in_each_weight(self):
        # second difference along any coordinate equals -lam*(1-alpha)*h^2
        v = _matrix([[0.6, 0.2], [0.3, 0.9]])
        p = HyperParams(k=2, lam=0.8, alpha=0.4)
        rng = np.random.default_rng(5)
        w0 = rng.random((2, 2))
        h = 0.1
        for i in range(2):
            for j in range(2):
                totals = []
                for delta in (-h, 0.0, h):
                    w = w0.copy()
                    w[i, j] += delta
                    totals.append(objective_value(v, WeightMatrix(w), p).total)
                second = totals[0] - 2 * totals[1] + totals[2]
                assert second == pytest.approx(-p.lam * (1 - p.alpha) * h * h, abs=1e-12)
                assert second < 0


class TestImbalanceRatio:
    def test_leak_benchmark(self):
        d = ClassDistribution(
            ("N1", "N2", "N3", "F1", "F2", "F3", "F4"),
            [17520, 448438, 88154, 1721, 1181, 812, 74],
        )
        assert imbalance_ratio(d) == pytest.approx(6059.97, abs=0.01)

    def test_intrusion_benchmark(self):
        d = ClassDistribution(
            ("N1", "A1", "A2", "A3", "A4"), [13449, 2289, 9234, 11, 209]
        )
        assert imbalance_ratio(d) == pytest.approx(1222.64, abs=0.01)

    def test_balanced(self):
        d = ClassDistribution(tuple(f"c{i}" for i in range(7)), [79700] * 7)
        assert imbalance_ratio(d) == pytest.approx(1.00, abs=1e-12)

    def test_zero_count_rejected(self):
        d = ClassDistribution(("a", "b"), [5, 0])
        with pytest.raises(UndefinedRatioError):
            imbalance_ratio(d)

    def test_at_least_one_and_one_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(1, 1000, size=rng.integers(2, 8))
            d = ClassDistribution(
                tuple(f"c{i}" for i in range(counts.size)), counts
            )
            rho = imbalance_ratio(d)
            assert rho >= 1.0
            assert (rho == 1.0) == bool(counts.min() == counts.max())


class TestValidation:
    def test_accuracy_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside|out of"):
            _matrix([[1.2]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _matrix([[np.nan]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClassifierSet(("a", "a"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            WeightMatrix([[-0.1]])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(k=1, lam=-0.1),
            dict(k=1, alpha=1.5),
            dict(k=1, epsilon=0.01),
            dict(k=1, epsilon=0.0),
            dict(k=1, lam=float("nan")),
            dict(k=1, lam=float("inf")),
        ],
    )
    def test_hyperparams_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    def test_hyperparams_have_no_big_m(self):
        # no solver uses M; validate_constraints checks (7) at a fixed M
        with pytest.raises(TypeError):
            HyperParams(k=1, big_m=1e6)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: ClassSet(("a",), ("normal",)), id="ClassSet.kinds"),
        pytest.param(lambda: ClassDistribution(("a",), [1], ("normal",)),
                     id="ClassDistribution.kinds"),
        pytest.param(lambda: ResamplePlan({"a": 1}, 0, True),
                     id="ResamplePlan.preserves_total"),
        pytest.param(lambda: read_accuracy_matrix("unread.csv", normal_classes=("a",)),
                     id="read_accuracy_matrix.normal_classes"),
        pytest.param(lambda: evaluate(None, None, classes=None), id="evaluate.classes"),
    ])
    def test_settings_that_changed_no_result_are_gone(self, call):
        with pytest.raises(TypeError, match="unexpected keyword|positional arguments? but"):
            call()

    def test_duplicate_names_are_gone(self):
        for module, name in ((core, "NORMAL"), (core, "ABNORMAL"),
                             (subsetsolve, "subset_objective"),
                             (metrics, "_class_scores")):
            assert not hasattr(module, name)

    def test_types_are_frozen(self, d2_matrix):
        with pytest.raises(ValueError):
            d2_matrix.values[0, 0] = 0.5

    @pytest.mark.parametrize("kind, other, noun, size", [
        (ClassifierSet, ClassSet, "classifier", "n"),
        (ClassSet, ClassifierSet, "class", "m"),
    ])
    def test_name_sets(self, kind, other, noun, size):
        names = kind(["a", "b"])
        for attr in ("names", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(names, attr, ("c",))
        assert names == kind(("a", "b")) and hash(names) == hash(kind(("a", "b")))
        assert names != other(("a", "b"))
        assert repr(names) == f"{kind.__name__}(names=('a', 'b'))"
        assert pickle.loads(pickle.dumps(names)) == names
        assert getattr(names, size) == 2 and names.index("b") == 1
        with pytest.raises(ValueError, match=rf"^duplicate {noun} names: \['a', 'a'\]$"):
            kind(("a", "a"))
        with pytest.raises(ValueError, match=rf"^{noun} names must be non-empty$"):
            kind(())

    def test_prediction_set_copies_caller_arrays(self):
        truth = np.array([0, 1, 1])
        scores = np.random.default_rng(3).random((3, 2, 2))
        preds = PredictionSet(("a", "b", "c"), truth, scores,
                              ClassifierSet(("c0", "c1")), ClassSet(("x", "y")))
        for given, held in ((truth, preds.true_classes), (scores, preds.scores)):
            assert given.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(given, held)
            assert np.array_equal(given, held)


# every value of these converts to float64 exactly, so a set keeps them
EXACT_SCORE_DTYPES = (np.bool_, np.int8, np.int16, np.int32, np.uint8, np.uint16,
                      np.uint32, np.float16, np.float32, np.float64)


def _scores_set(scores):
    rows, n, m = np.shape(getattr(scores, "array", scores))  # an _Owned holds it
    return PredictionSet(tuple(f"i{t}" for t in range(rows)), np.arange(rows) % m,
                         scores, ClassifierSet(tuple(f"c{i}" for i in range(n))),
                         ClassSet(tuple(f"e{j}" for j in range(m))))


class TestScoreDtypes:
    @pytest.mark.parametrize("dtype", EXACT_SCORE_DTYPES)
    def test_exact_dtypes_are_kept_and_copied(self, dtype):
        scores = (np.arange(24).reshape(4, 3, 2) % 2).astype(dtype)
        for given in (scores, core._Owned(scores.copy())):
            held = _scores_set(given).scores
            assert held.dtype == dtype and not held.flags.writeable
            assert np.array_equal(held, scores)
        assert scores.flags.writeable
        assert not np.shares_memory(scores, _scores_set(scores).scores)

    @pytest.mark.parametrize("given", [
        np.ones((2, 1, 2), dtype=np.int64),
        np.ones((2, 1, 2), dtype=np.uint64),
        np.ones((2, 1, 2), dtype=object),
        [[[1, 0]], [[0, 1]]],
        [[[True, False]], [[False, True]]],
    ], ids=["int64", "uint64", "object", "list", "list-of-bools"])
    def test_other_scores_become_float64(self, given):
        held = _scores_set(given).scores
        assert held.dtype == np.float64
        assert np.array_equal(held, np.asarray(given, dtype=np.float64))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, dtype, bad):
        scores = np.zeros((3, 2, 2), dtype=dtype)
        scores[1, 1, 0] = bad
        with pytest.raises(ValueError, match="^scores contain non-finite entries$"):
            _scores_set(scores)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.float64])
    def test_a_large_copy_gets_a_private_mapping(self, dtype):
        # 1 MiB or more: an anonymous mapping of its own, not malloc's heap,
        # holding the bits np.array gives, from a contiguous or strided input
        scores = (np.arange((1 << 15) * 8 * 7) % 1000).reshape(-1, 8, 7).astype(dtype)
        for given in (scores, scores[::-2]):
            preds = _scores_set(given)
            held, want = preds.scores, np.array(given, dtype=preds.scores.dtype)
            assert isinstance(held.base, mmap.mmap) and not held.flags.writeable
            assert held.shape == want.shape and held.tobytes() == want.tobytes()
            assert given.flags.writeable and not np.shares_memory(given, held)
            assert preds.true_classes.base is None  # under 1 MiB: numpy's own

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32, np.float64])
    def test_building_a_set_holds_no_second_copy(self, dtype):
        # no temporary as large as the set; its own copy and truth (1 MiB or
        # more each) are private mappings, which tracemalloc does not see
        rows = 1 << 18
        scores = np.ones((rows, 8, 7), dtype=dtype)
        ids = tuple(map(str, range(rows)))
        truth = np.arange(rows) % 7
        classifiers = ClassifierSet(tuple(f"c{i}" for i in range(8)))
        classes = ClassSet(tuple(f"e{j}" for j in range(7)))
        tracemalloc.start()
        try:
            preds = PredictionSet(ids, truth, scores, classifiers, classes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert preds.scores.dtype == dtype
        assert peak <= 1.1 * scores.nbytes, peak / scores.nbytes
