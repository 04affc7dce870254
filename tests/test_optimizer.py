import math
from dataclasses import astuple

import numpy as np
import pytest

from voteopt import (
    AccuracyMatrix,
    AllSubsetsInfeasible,
    ClassSet,
    ClassifierSet,
    HyperParams,
    SelectionVector,
    WeightMatrix,
    enumerate_subsets,
    objective_value,
    solve_weighting,
    tune_hyperparams,
    validate_constraints,
)
from voteopt.optimizer import TIE_TOL, ConstraintCheck
from voteopt.qpsolve import QpStatus

from conftest import SVM_ROW, random_accuracy_matrix
from oracle import build_subset_problem, grid_oracle

EPS = 1e-6

# dataset-tuned (lam, alpha) pairs reported for the four benchmarks; kept
# as documented reference settings, not re-derivable without the raw data
TUNED_PAIRS = ((0.95, 0.85), (0.96, 0.80), (1.00, 0.82), (0.95, 0.86))


def _matrix(values):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return AccuracyMatrix(
        values,
        ClassifierSet(tuple(f"c{i}" for i in range(n))),
        ClassSet(tuple(f"e{j}" for j in range(m))),
    )


def exhaustive_grid_optimum(v, params, step=0.01):
    """Independent search: grid_oracle over every subset of size k."""
    best = None
    for subset in enumerate_subsets(v.n, params.k):
        problem = build_subset_problem(v, params, subset)
        sol = grid_oracle(problem, step=step)
        if sol.status is QpStatus.OPTIMAL:
            if best is None or sol.objective > best:
                best = sol.objective
    return best


class TestEnumerateSubsets:
    def test_full_set_single_subset(self):
        assert list(enumerate_subsets(3, 3)) == [(0, 1, 2)]

    def test_count_eight_choose_three(self):
        assert len(list(enumerate_subsets(8, 3))) == 56

    def test_lexicographic_order(self):
        assert list(enumerate_subsets(4, 2)) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_subsets(3, 4))


class TestSolveWeighting:
    def test_single_classifier_infeasible(self):
        with pytest.raises(AllSubsetsInfeasible):
            solve_weighting(_matrix([[0.9]]), HyperParams(k=1))

    def test_identical_columns_infeasible(self):
        v = _matrix(np.full((3, 2), 0.7))
        with pytest.raises(AllSubsetsInfeasible):
            solve_weighting(v, HyperParams(k=2))

    def test_two_classifiers_floor(self):
        v = _matrix([[1.0], [0.0]])
        sol = solve_weighting(v, HyperParams(k=2, lam=0.0))
        assert sol.weights.w[:, 0] == pytest.approx([1.0 - EPS, EPS], abs=1e-7)
        assert sol.objective.total == pytest.approx(1.0 - EPS, abs=1e-7)

    def test_d2_fixture_svm_row(self, d2_matrix):
        sol = solve_weighting(d2_matrix, HyperParams(k=8, lam=0.96, alpha=0.80))
        svm = sol.weights.w[SVM_ROW]
        top_two = set(np.argsort(-svm)[:2])
        assert top_two == {2, 4}  # classes A2 and A4
        assert svm[0] <= 0.01  # class N1
        report = validate_constraints(
            d2_matrix, sol.weights, sol.selection,
            HyperParams(k=8, lam=0.96, alpha=0.80),
        )
        assert report.conformant

    def test_d2_fixture_closed_form_projection(self, d2_matrix):
        # with the accuracy floors slack, each class column maximizes a
        # quadratic over its simplex, whose solution is the Euclidean
        # projection of v_col / (m * lam * (1 - alpha)) onto the simplex
        from voteopt.baselines import _project_simplex

        params = HyperParams(k=8, lam=0.96, alpha=0.80)
        sol = solve_weighting(d2_matrix, params)
        vals = d2_matrix.values
        expected = np.column_stack([
            _project_simplex(vals[:, j] / (5 * params.lam * (1 - params.alpha)))
            for j in range(5)
        ])
        assert sol.weights.w == pytest.approx(expected, abs=1e-6)

    def test_random_4x3_matches_exhaustive_grid(self):
        rng = np.random.default_rng(8)
        v = random_accuracy_matrix(rng, n=4, m=3)
        params = HyperParams(k=2, lam=0.8, alpha=0.75)
        sol = solve_weighting(v, params)
        grid_best = exhaustive_grid_optimum(v, params)
        assert grid_best is not None
        assert sol.objective.total == pytest.approx(grid_best, abs=1e-3)

    def test_subset_rank_covers_all_subsets(self, d2_matrix):
        params = HyperParams(k=7, lam=0.96, alpha=0.80)
        sol = solve_weighting(d2_matrix, params)
        assert len(sol.subset_rank) == 8
        objectives = [r.objective for r in sol.subset_rank if r.objective is not None]
        assert objectives == sorted(objectives, reverse=True)
        assert sol.objective.total == pytest.approx(objectives[0], abs=1e-9)

    def test_unselected_rows_zero_and_columns_sum_to_one(self, d2_matrix):
        params = HyperParams(k=3, lam=0.96, alpha=0.80)
        sol = solve_weighting(d2_matrix, params)
        assert sol.selection.count == 3
        out = [i for i in range(8) if i not in sol.selection.indices]
        assert np.all(sol.weights.w[out] == 0.0)
        assert sol.weights.w.sum(axis=0) == pytest.approx(np.ones(5), abs=1e-7)

    def test_workers_parameter_is_gone(self, d2_matrix):
        with pytest.raises(TypeError):
            solve_weighting(d2_matrix, HyperParams(k=4), workers=1)
        with pytest.raises(TypeError):
            tune_hyperparams(d2_matrix, k=4, start=(0.95, 0.85), steps=(0.1, 0.1),
                             score=lambda w: 0.5, workers=1)

    def test_k_exceeding_pool_rejected(self, d2_matrix):
        with pytest.raises(ValueError, match="exceeds"):
            solve_weighting(d2_matrix, HyperParams(k=9))

    def test_exact_ties_break_lexicographically(self):
        # classifiers 0 and 1 are identical, so subsets {0,2} and {1,2}
        # tie exactly; the lexicographically smaller subset wins
        v = _matrix([[0.9, 0.4], [0.9, 0.4], [0.3, 0.8]])
        sol = solve_weighting(v, HyperParams(k=2, lam=0.5, alpha=0.7))
        assert sol.selection.indices == (0, 2)

    def test_pool_size_limit(self):
        with pytest.raises(ValueError, match="1..30"):
            list(enumerate_subsets(31, 2))
        assert len(list(enumerate_subsets(30, 1))) == 30


class TestProperties:
    def test_conformance_on_random_instances(self):
        rng = np.random.default_rng(23)
        solved = 0
        for _ in range(12):
            v = random_accuracy_matrix(rng)
            for k in range(2, v.n + 1):
                params = HyperParams(
                    k=k, lam=float(rng.random()),
                    alpha=float(rng.random()),
                )
                try:
                    sol = solve_weighting(v, params)
                except AllSubsetsInfeasible:
                    continue
                report = validate_constraints(v, sol.weights, sol.selection, params)
                assert report.conformant, (
                    f"violations: {[c for c in report.checks if not c.satisfied]}"
                )
                solved += 1
        assert solved >= 20

    def test_regularization_equivalence(self):
        # equal lam*(1-alpha) means identical optima: the L1 term is constant
        # on the feasible set, so only the quadratic coefficient matters
        rng = np.random.default_rng(31)
        for _ in range(6):
            v = random_accuracy_matrix(rng, n=5, m=3)
            coeff = float(rng.uniform(0.05, 0.5))
            alpha1, alpha2 = 0.3, 0.75
            p1 = HyperParams(k=3, lam=coeff / (1 - alpha1), alpha=alpha1)
            p2 = HyperParams(k=3, lam=coeff / (1 - alpha2), alpha=alpha2)
            try:
                s1 = solve_weighting(v, p1)
                s2 = solve_weighting(v, p2)
            except AllSubsetsInfeasible:
                continue
            assert s1.weights.w == pytest.approx(s2.weights.w, abs=1e-6)

    def test_accuracy_dominates_uniform(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            v = random_accuracy_matrix(rng)
            params = HyperParams(k=2, lam=0.5, alpha=0.9)
            try:
                sol = solve_weighting(v, params)
            except AllSubsetsInfeasible:
                continue
            uniform_acc = float(v.values.mean())
            assert sol.objective.accuracy_term >= uniform_acc + EPS - 1e-9

    def test_selection_matches_branch_and_bound(self):
        rng = np.random.default_rng(41)
        compared = 0
        for _ in range(8):
            v = random_accuracy_matrix(rng, n=5, m=2)
            params = HyperParams(k=int(rng.integers(2, 5)), lam=0.6, alpha=0.8)
            try:
                enum = solve_weighting(v, params, method="enumerate")
            except AllSubsetsInfeasible:
                with pytest.raises(AllSubsetsInfeasible):
                    solve_weighting(v, params, method="bnb")
                continue
            bnb = solve_weighting(v, params, method="bnb")
            assert bnb.objective.total == pytest.approx(
                enum.objective.total, abs=TIE_TOL
            )
            assert bnb.selection.indices == enum.selection.indices
            compared += 1
        assert compared >= 4

    @pytest.mark.parametrize("method", ["enumerate", "bnb"])
    @pytest.mark.parametrize("lam, alpha", [(0.95, 0.85), (0.0, 0.85), (0.2, 0.99)])
    def test_reported_objective_is_the_ranking_objective(self, d2_matrix, method,
                                                         lam, alpha):
        # one formula ranks the subsets and reports the winner, to the bit
        for k in range(2, 9):
            params = HyperParams(k=k, lam=lam, alpha=alpha)
            sol = solve_weighting(d2_matrix, params, method=method)
            assert sol.objective.total.hex() == sol.subset_rank[0].objective.hex()
            again = objective_value(d2_matrix, sol.weights, params)
            assert [t.hex() for t in astuple(again)] == \
                [t.hex() for t in astuple(sol.objective)]

    def test_growing_ensemble_never_worse_when_embedding_feasible(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            v = random_accuracy_matrix(rng, n=5, m=3)
            small = HyperParams(k=2, lam=0.4, alpha=0.8)
            big = HyperParams(k=3, lam=0.4, alpha=0.8)
            try:
                sol_small = solve_weighting(v, small)
                sol_big = solve_weighting(v, big)
            except AllSubsetsInfeasible:
                continue
            # embed: hand the cheapest class's eps mass to a new classifier
            newcomer = min(set(range(5)) - set(sol_small.selection.indices))
            w = sol_small.weights.w.copy()
            donor = int(np.argmax(w.sum(axis=0)))
            giver = int(np.argmax(w[:, donor]))
            w[newcomer, donor] += EPS
            w[giver, donor] -= EPS
            emb_sel = SelectionVector.from_indices(
                sorted(set(sol_small.selection.indices) | {newcomer}), 5
            )
            report = validate_constraints(
                v, WeightMatrix(w), emb_sel, big
            )
            if not report.conformant:
                continue
            assert sol_big.objective.total >= sol_small.objective.total - 2 * EPS


class TestValidateConstraints:
    def test_optimizer_output_conformant(self, d2_matrix):
        params = HyperParams(k=8, lam=0.96, alpha=0.80)
        sol = solve_weighting(d2_matrix, params)
        report = validate_constraints(d2_matrix, sol.weights, sol.selection, params)
        assert report.conformant
        assert len(report.checks) == 8
        assert [c.constraint_id for c in report.checks] == list(range(2, 10))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, d2_matrix, tol):
        params = HyperParams(k=8)
        sol = solve_weighting(d2_matrix, params)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            validate_constraints(d2_matrix, sol.weights, sol.selection, params, tol=tol)

    def test_column_sum_violation_reported(self, d2_matrix):
        w = np.full((8, 5), 1.0 / 8)
        w[:, 0] *= 0.9
        report = validate_constraints(
            d2_matrix, WeightMatrix(w),
            SelectionVector(np.ones(8, dtype=np.int64)),
            HyperParams(k=8),
        )
        check = report.check(5)
        assert not check.satisfied
        assert check.worst_violation == pytest.approx(0.1, abs=1e-12)
        assert "N1" in check.location

    def test_unselected_with_weight_violates_family_six(self, d2_matrix):
        w = np.zeros((8, 5))
        w[0] = 0.2
        x = np.zeros(8, dtype=np.int64)
        report = validate_constraints(
            d2_matrix, WeightMatrix(w), SelectionVector(x), HyperParams(k=1)
        )
        check = report.check(6)
        assert not check.satisfied
        assert check.worst_violation == pytest.approx(1.0, abs=1e-12)

    def test_selected_all_zero_violates_floor(self, d2_matrix):
        w = np.zeros((8, 5))
        x = np.zeros(8, dtype=np.int64)
        x[2] = 1
        report = validate_constraints(
            d2_matrix, WeightMatrix(w), SelectionVector(x),
            HyperParams(k=1, epsilon=1e-3),
        )
        check = report.check(7)
        assert not check.satisfied
        assert check.worst_violation == pytest.approx(1e-3, abs=1e-12)

    def test_floor_located_on_selected_rows_only(self, d2_matrix):
        # (7) binds selected classifiers only: with none selected it is met
        # and names the first classifier, and a selected row summing above
        # any big-M constant is still the one it names
        params = HyperParams(k=1, epsilon=1e-3)
        w = np.zeros((8, 5))
        w[0] = 0.2
        report = validate_constraints(d2_matrix, WeightMatrix(w),
                                      SelectionVector(np.zeros(8, dtype=np.int64)), params)
        assert report.check(7) == ConstraintCheck(7, "selected-weight-floor", True, 0.0,
                                                  "classifier MLR")
        w = np.zeros((8, 5))
        w[2] = 1e6
        report = validate_constraints(d2_matrix, WeightMatrix(w),
                                      SelectionVector.from_indices([2], 8), params)
        assert report.check(7) == ConstraintCheck(7, "selected-weight-floor", True, 0.0,
                                                  f"classifier {d2_matrix.classifiers.names[2]}")

    def test_every_family_on_a_handmade_solution(self, d2_matrix):
        # J48, JRIP and REPTree selected at K = 4; MLR's row is exact zeros,
        # REPTree carries no weight, SVM carries weight unselected and class
        # A4 sums to 0.75
        w = np.zeros((8, 5))
        w[1] = 0.5
        w[2, :4] = 0.25
        w[5] = 0.25
        x = np.array([0, 1, 1, 1, 0, 0, 0, 0])
        report = validate_constraints(d2_matrix, WeightMatrix(w), SelectionVector(x),
                                      HyperParams(k=4, epsilon=1e-3))
        got = [(c.constraint_id, c.satisfied, c.worst_violation, c.location)
               for c in report.checks]
        assert got == [
            (2, True, 0.0, "classifier MLR"),
            (3, True, 0.0, "(MLR, N1)"),
            (4, False, 1.0, "global"),
            (5, False, 0.25, "class A4"),
            (6, False, 1.25, "classifier SVM"),
            (7, False, 1e-3, "classifier REPTree"),
            (8, False, pytest.approx(0.83875 + 1e-3 - 0.685, abs=1e-15), "class A4"),
            (9, False, pytest.approx(0.83575 + 1e-3 - 0.8015, abs=1e-15), "global"),
        ]
        # the worst violation is never negative, not even a negative zero
        for c in report.checks:
            assert math.copysign(1.0, c.worst_violation) == 1.0, c
        assert not report.conformant


class TestTuneHyperparams:
    def test_flat_score_keeps_start(self, d2_matrix):
        result = tune_hyperparams(
            d2_matrix, k=8, start=(0.95, 0.85), steps=(0.1, 0.1),
            score=lambda w: 0.5,
        )
        assert (result.lam, result.alpha) == (0.95, 0.85)

    @pytest.mark.parametrize("steps", [(float("nan"), 0.01), (0.01, float("nan")),
                                       (float("inf"), 0.01), (0.01, float("inf")),
                                       (0.0, 0.01), (0.01, -0.01)])
    def test_steps_must_be_positive_and_finite(self, d2_matrix, steps):
        # NaN fails every comparison, so `step <= 0` alone lets it through
        with pytest.raises(ValueError, match="step sizes must be positive and finite"):
            tune_hyperparams(d2_matrix, k=3, start=(0.95, 0.85), steps=steps,
                             score=lambda w: float(w.w[0, 0]))

    def test_parabola_climbs_to_vertex(self, d2_matrix):
        # score depends only on (lam, alpha), recovered from the weight
        # matrix via a probe map: each candidate setting yields a distinct
        # weight matrix on this fixture
        params_of = {}

        def probe(lam, alpha):
            sol = solve_weighting(
                d2_matrix, HyperParams(k=8, lam=lam, alpha=alpha)
            )
            params_of[sol.weights.w.tobytes()] = (lam, alpha)

        for lam in (0.2, 0.3, 0.4, 0.5, 0.6):
            probe(lam, 0.85)
        for alpha in (0.0, 1.0):
            probe(0.5, alpha)

        def score(weights):
            lam, alpha = params_of[weights.w.tobytes()]
            return -((lam - 0.5) ** 2) - (alpha - 0.85) ** 2

        result = tune_hyperparams(
            d2_matrix, k=8, start=(0.3, 0.85), steps=(0.1, 1.0), score=score
        )
        assert result.lam == pytest.approx(0.5)
        assert result.alpha == pytest.approx(0.85)

    def test_tuned_pairs_are_valid_settings(self):
        for lam, alpha in TUNED_PAIRS:
            HyperParams(k=8, lam=lam, alpha=alpha)
