import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voteopt
from voteopt import HyperParams, QpProblem, QpStatus, grid_oracle, solve_qp
from voteopt.optimizer import build_subset_problem
from voteopt.qpsolve import _compositions

from conftest import random_accuracy_matrix

EPS = 1e-6


def single_var_problem():
    # maximize w subject to w in the unit simplex (one variable)
    return QpProblem.build(
        q=[0.0], c=[1.0], a_eq=[[1.0]], b_eq=[1.0]
    )


def two_classifier_floor_problem():
    # one class, accuracies (1, 0), zero penalty: the class simplex plus
    # per-classifier floors pin the weak classifier at the eps floor
    return QpProblem.build(
        q=[0.0, 0.0],
        c=[1.0, 0.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        a_in=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
        b_in=[EPS, EPS, 0.5 + EPS],
    )


class TestSolveQp:
    def test_single_variable(self):
        sol = solve_qp(single_var_problem())
        assert sol.status is QpStatus.OPTIMAL
        assert sol.w[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.objective == pytest.approx(1.0, abs=1e-8)

    def test_weak_classifier_pinned_at_floor(self):
        sol = solve_qp(two_classifier_floor_problem())
        assert sol.status is QpStatus.OPTIMAL
        assert sol.w == pytest.approx([1.0 - EPS, EPS], abs=1e-7)

    def test_random_3x2_matches_oracle(self, d2_matrix):
        rng = np.random.default_rng(42)
        v = random_accuracy_matrix(rng, n=3, m=2)
        params = HyperParams(k=3, lam=0.9, alpha=0.8)
        problem = build_subset_problem(v, params, (0, 1, 2))
        sol = solve_qp(problem)
        oracle = grid_oracle(problem, step=0.01)
        assert sol.status is QpStatus.OPTIMAL
        assert oracle.status is QpStatus.OPTIMAL
        assert sol.objective == pytest.approx(oracle.objective, abs=1e-3)

    def test_kkt_residuals_reported_within_tol(self):
        sol = solve_qp(two_classifier_floor_problem(), tol=1e-8)
        assert sol.kkt_residuals is not None
        for value in sol.kkt_residuals.values():
            assert value <= 1e-8

    def test_stationarity_under_exact_reevaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = random_accuracy_matrix(rng, n=3, m=2)
            params = HyperParams(
                k=2, lam=float(rng.random()), alpha=float(rng.random())
            )
            p = build_subset_problem(v, params, (0, 2))
            sol = solve_qp(p, tol=1e-8)
            if sol.status is not QpStatus.OPTIMAL:
                continue
            grad = 2.0 * p.q * sol.w - p.c
            resid = grad - p.a_eq.T @ sol.y_eq - p.a_in.T @ sol.z_in - sol.z_bounds
            assert np.max(np.abs(resid)) <= 1e-7

    def test_infeasible_certificate(self):
        p = QpProblem.build(
            q=[0.0], c=[1.0],
            a_eq=[[1.0]], b_eq=[1.0],
            a_in=[[1.0]], b_in=[2.0],
        )
        sol = solve_qp(p)
        assert sol.status is QpStatus.INFEASIBLE
        assert "inequality rows [0]" in sol.certificate

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(4)
        v = random_accuracy_matrix(rng, n=4, m=3)
        params = HyperParams(k=3, lam=0.7, alpha=0.6)
        p = build_subset_problem(v, params, (0, 1, 3))
        first = solve_qp(p)
        second = solve_qp(p)
        assert first.objective == second.objective
        assert np.array_equal(first.w, second.w)

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError, match="non-convex"):
            QpProblem.build(q=[-1.0], c=[1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem.build(q=[0.0, 0.0], c=[1.0])

    def test_l2_mass_monotone_in_penalty(self):
        # a strictly concave penalty pulls the optimum toward the analytic
        # center, so sum(w^2) never grows as lam*(1-alpha) grows
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = random_accuracy_matrix(rng, n=4, m=2)
            subset = (0, 1, 2, 3)
            masses = []
            for coeff in (0.01, 0.05, 0.2, 0.8):
                params = HyperParams(k=4, lam=coeff / 0.5, alpha=0.5)
                sol = solve_qp(build_subset_problem(v, params, subset))
                assert sol.status is QpStatus.OPTIMAL
                masses.append(float(sol.w @ sol.w))
            for lo, hi in zip(masses, masses[1:]):
                assert hi <= lo + 1e-6


    def test_no_equality_rows_closed_form(self):
        # separable with one slack inequality: w_i = max(c_i / (2 q_i), 0)
        q, c = np.array([1.0, 2.0, 0.5]), np.array([1.0, -1.0, 3.0])
        p = QpProblem.build(q=q, c=c, a_in=[[1.0, 1.0, 1.0]], b_in=[0.5])
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.y_eq.shape == (0,)
        assert sol.w == pytest.approx(np.maximum(c / (2.0 * q), 0.0), abs=1e-7)
        assert sol.z_in == pytest.approx([0.0], abs=1e-7)

    @pytest.mark.parametrize("problem, iterations, w", [
        # D2 rows (0, 2, 5) at lam 0.2, alpha 0.99, where the floors bind
        ("d2", 10, [
            0.9999999588177516, 0.9999999813547105, 8.150635319303092e-08,
            0.9999999744777462, 0.004229901669116048, 3.2602611813660547e-08,
            9.589006016169888e-09, 1.6301305039814217e-08, 1.8112566660369662e-08,
            0.9957699344357644, 8.579636640521158e-09, 9.056283490007937e-09,
            0.9999999021923418, 7.409686935736842e-09, 1.6389512096022907e-07]),
        ("no_eq", 6, [0.4999999983731431, 4.877724163462844e-10, 3.0000000089003036]),
    ])
    def test_iterates_pinned(self, d2_matrix, problem, iterations, w):
        # iteration counts and weights of the interior-point method as it
        # stood with scalar-loop kernels; the vectorized one must match
        if problem == "d2":
            p = build_subset_problem(
                d2_matrix, HyperParams(k=3, lam=0.2, alpha=0.99), (0, 2, 5))
        else:
            p = QpProblem.build(q=[1.0, 2.0, 0.5], c=[1.0, -1.0, 3.0],
                                a_in=[[1.0, 1.0, 1.0]], b_in=[0.5])
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.iterations == iterations
        assert np.max(np.abs(sol.w - np.array(w))) <= 1e-12


@pytest.mark.parametrize("units, parts",
                         [(1, 1), (100, 1), (100, 2), (10, 5), (20, 4), (8, 8), (2, 6)])
def test_compositions(units, parts):
    comps = _compositions(units, parts)
    assert comps.shape == (math.comb(units + parts - 1, parts - 1), parts)
    assert np.all(comps >= 0)
    assert np.all(comps.sum(axis=1) == units)
    assert tuple(comps[0]) == (units,) + (0,) * (parts - 1)
    rows = [tuple(r) for r in comps.tolist()]
    assert all(a > b for a, b in zip(rows, rows[1:]))


def test_backend_is_numpy():
    assert voteopt.BACKEND == "numpy"
    # the variable that once picked a compiled backend is now ignored
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import voteopt; print(voteopt.BACKEND)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "VOTEOPT_BACKEND": "numba"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "numpy"


class TestGridOracle:
    def test_single_variable(self):
        sol = grid_oracle(single_var_problem(), step=0.01)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.w[0] == pytest.approx(1.0)
        assert sol.kkt_residuals is None

    def test_floor_case_close_to_solver(self):
        p = two_classifier_floor_problem()
        fine = grid_oracle(p, step=1e-3)
        sol = solve_qp(p)
        assert abs(fine.objective - sol.objective) <= 1e-3

    def test_contradictory_constraints_infeasible(self):
        p = QpProblem.build(
            q=[0.0, 0.0], c=[1.0, 1.0],
            a_eq=[[1.0, 1.0]], b_eq=[1.0],
            a_in=[[1.0, 1.0]], b_in=[2.0],
        )
        sol = grid_oracle(p, step=0.01)
        assert sol.status is QpStatus.INFEASIBLE

    def test_too_many_variables_rejected(self):
        nv = 9
        p = QpProblem.build(q=np.zeros(nv), c=np.ones(nv))
        with pytest.raises(ValueError, match="limited"):
            grid_oracle(p, step=0.01)

    def test_box_variables_without_simplex_rows(self):
        # unconstrained maximization over the unit box grid
        p = QpProblem.build(q=[0.0, 1.0], c=[0.8, 1.0])
        sol = grid_oracle(p, step=0.25)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.w[0] == pytest.approx(1.0)
        assert sol.w[1] == pytest.approx(0.5)  # vertex of c*w - w^2 on the grid

    def test_oracle_equivalence_random_instances(self):
        # solve_qp and the grid agree within max(1e-3, 2*step) on every
        # random instance with at most 6 variables
        rng = np.random.default_rng(100)
        step = 0.01
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            if n * m > 6:
                continue
            v = random_accuracy_matrix(rng, n=n, m=m)
            params = HyperParams(
                k=n,
                lam=float(0.2 + rng.random()),
                alpha=float(rng.uniform(0.5, 0.95)),
            )
            p = build_subset_problem(v, params, tuple(range(n)))
            sol = solve_qp(p)
            oracle = grid_oracle(p, step=step)
            if sol.status is QpStatus.OPTIMAL:
                assert oracle.status is QpStatus.OPTIMAL
                assert abs(sol.objective - oracle.objective) <= max(1e-3, 2 * step)
                checked += 1
        assert checked >= 15
