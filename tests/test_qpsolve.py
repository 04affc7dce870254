import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voteopt
from voteopt import HyperParams, QpStatus, subsetsolve

from conftest import random_accuracy_matrix
from oracle import QpProblem, _compositions, build_subset_problem, grid_oracle

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


# the pool of two_classifier_floor_problem: accuracies 1 and 0 in one class
FLOOR_POOL = np.array([[1.0], [0.0]])


def solve_all(vals, params):
    """solve_batch on the first ``params.k`` rows of ``vals``."""
    return subsetsolve.solve_batch(vals[None, :params.k], vals.mean(axis=0) + params.epsilon,
                                   params.lam, params.alpha, params.epsilon)


class TestSolveQp:
    """Small weight problems, solved by ``subsetsolve.solve_batch``."""

    def test_single_variable(self):
        # one selected classifier: its weight is the whole unit simplex
        batch = solve_all(FLOOR_POOL, HyperParams(k=1, lam=0.0))
        assert batch.status[0] == subsetsolve.CLOSED_FORM
        assert batch.weights[0, 0, 0] == 1.0
        assert batch.objective[0] == 1.0

    def test_weak_classifier_pinned_at_floor(self):
        batch = solve_all(FLOOR_POOL, HyperParams(k=2, lam=0.0))
        assert batch.weights[0, :, 0] == pytest.approx([1.0 - EPS, EPS], abs=1e-15)

    def test_random_3x2_matches_oracle(self, d2_matrix):
        rng = np.random.default_rng(42)
        v = random_accuracy_matrix(rng, n=3, m=2)
        params = HyperParams(k=3, lam=0.9, alpha=0.8)
        problem = build_subset_problem(v, params, (0, 1, 2))
        oracle = grid_oracle(problem, step=0.01)
        assert oracle.status is QpStatus.OPTIMAL
        assert solve_all(v.values, params).objective[0] == pytest.approx(
            oracle.objective, abs=1e-3)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(4)
        v = random_accuracy_matrix(rng, n=4, m=3)
        sub, f = v.values[np.array([[0, 1, 3]])], v.values.mean(axis=0) + EPS
        first = subsetsolve.solve_batch(sub, f, 0.7, 0.6, EPS)
        second = subsetsolve.solve_batch(sub, f, 0.7, 0.6, EPS)
        assert first.objective[0] == second.objective[0]
        assert np.array_equal(first.weights, second.weights)

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
                batch = subsetsolve.solve_batch(v.values[None, list(subset)],
                                                v.values.mean(axis=0) + EPS,
                                                coeff / 0.5, 0.5, EPS)
                assert not np.isnan(batch.objective[0])
                masses.append(float((batch.weights[0] ** 2).sum()))
            for lo, hi in zip(masses, masses[1:]):
                assert hi <= lo + 1e-6



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


def test_oracle_lives_in_the_tests():
    # the grid oracle is a test tool; the package keeps only the status type
    for name in ("grid_oracle", "QpProblem", "QpSolution"):
        assert not hasattr(voteopt, name)
        assert name not in voteopt.__all__
    from voteopt.qpsolve import QpStatus as status
    assert status is QpStatus
    assert [s.value for s in status] == ["optimal", "infeasible"]


class TestGridOracle:
    def test_single_variable(self):
        sol = grid_oracle(single_var_problem(), step=0.01)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.w[0] == pytest.approx(1.0)

    def test_floor_case_close_to_solver(self):
        fine = grid_oracle(two_classifier_floor_problem(), step=1e-3)
        batch = solve_all(FLOOR_POOL, HyperParams(k=2, lam=0.0))
        assert abs(fine.objective - batch.objective[0]) <= 1e-3

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
        # solve_batch and the grid agree within max(1e-3, 2*step) on every
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
            objective = solve_all(v.values, params).objective[0]
            oracle = grid_oracle(p, step=step)
            if not np.isnan(objective):
                assert oracle.status is QpStatus.OPTIMAL
                assert abs(objective - oracle.objective) <= max(1e-3, 2 * step)
                checked += 1
        assert checked >= 15
