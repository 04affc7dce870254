"""The batched subset solver: exactness against scipy, certificates, the
simplex-vertex stage and its failure modes, the solve counters, and the
branch-and-bound search built on the closed-form bound."""

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from voteopt import (
    AccuracyMatrix,
    AllSubsetsInfeasible,
    ClassSet,
    ClassifierSet,
    HyperParams,
    SolverIncomplete,
    solve_weighting,
    subsetsolve,
)
from voteopt import optimizer
from voteopt.cli import build_parser, main

from conftest import D2_VALUES

D2_CSV = str(Path(__file__).parent / "data" / "d2_accuracy.csv")

hypothesis = pytest.importorskip("hypothesis")
scipy_optimize = pytest.importorskip("scipy.optimize")
st = hypothesis.strategies

EPS = 1e-6
EXACT = 1e-10
FEAS = 1e-12
# (lam, alpha) giving q = lam*(1-alpha)/2 of 0, 1e-9, 1e-4, the paper
# default, and the regime where the weight floors (7) bind
REGIMES = ((0.0, 0.85), (2e-9, 0.0), (2e-4, 0.0), (0.95, 0.85), (0.2, 0.99))
TINY_Q = (2e-9, 0.0)
# q > 0, q = 0, and the regime where the floors (7) bind
BNB_REGIMES = ((0.95, 0.85), (0.0, 0.85), (0.2, 0.99))


def _matrix(values):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return AccuracyMatrix(
        values,
        ClassifierSet(tuple(f"c{i}" for i in range(n))),
        ClassSet(tuple(f"e{j}" for j in range(m))),
    )


FAULT_POOL = np.clip(0.7 + 0.3 * np.random.default_rng(0).random((10, 5)), 0, 1)


def reference_optimum(vals, subset, lam, alpha, eps=EPS):
    """Subset optimum from scipy, or None when infeasible.

    HiGHS solves the linear part exactly (the optimum when q = 0); SLSQP
    started from that point solves the quadratic problem when q > 0.
    """
    m = vals.shape[1]
    sub = vals[list(subset)]
    k = len(subset)
    nv = k * m
    c = (sub / m - lam * alpha).ravel()
    q = lam * (1.0 - alpha) / 2.0
    a_eq = np.zeros((m, nv))
    a_in = np.zeros((m + k, nv))
    for j in range(m):
        a_eq[j, j::m] = 1.0
        a_in[j, j::m] = sub[:, j]
    for i in range(k):
        a_in[m + i, i * m:(i + 1) * m] = 1.0
    b_in = np.concatenate([vals.mean(axis=0) + eps, np.full(k, eps)])
    res = scipy_optimize.linprog(-c, A_ub=-a_in, b_ub=-b_in, A_eq=a_eq,
                                 b_eq=np.ones(m), bounds=(0, None),
                                 method="highs-ds")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    w = res.x
    if q > 0.0:
        res = scipy_optimize.minimize(
            lambda w: -(c @ w - q * (w @ w)), w, jac=lambda w: -(c - 2 * q * w),
            method="SLSQP", bounds=[(0.0, None)] * nv,
            constraints=[
                {"type": "eq", "fun": lambda w: a_eq @ w - 1.0, "jac": lambda w: a_eq},
                {"type": "ineq", "fun": lambda w: a_in @ w - b_in, "jac": lambda w: a_in},
            ],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        w = np.maximum(res.x, 0.0)
    return float(c @ w - q * (w @ w))


def lp_optimum(sub, f, eps):
    """HiGHS optimum of ``sum(sub * w) / m`` under (5), (7) and the class
    floors ``f`` of (8), or None when infeasible."""
    k, m = sub.shape
    a_eq = np.kron(np.ones(k), np.eye(m))
    a_in = np.vstack([a_eq * sub.ravel(), np.kron(np.eye(k), np.ones(m))])
    res = scipy_optimize.linprog(-sub.ravel() / m, A_ub=-a_in,
                                 b_ub=-np.concatenate([f, np.full(k, eps)]),
                                 A_eq=a_eq, b_eq=np.ones(m), bounds=(0, None),
                                 method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def assert_feasible(vals, subset, w, eps=EPS, tol=FEAS):
    sub = vals[list(subset)]
    assert w.min() >= 0.0
    assert np.abs(w.sum(axis=0) - 1.0).max() <= tol
    assert ((sub * w).sum(axis=0) - vals.mean(axis=0) - eps).min() >= -tol
    assert (w.sum(axis=1) - eps).min() >= -tol


def all_subsets(n, k):
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def check_against_reference(vals, k, lam, alpha):
    v = _matrix(vals)
    params = HyperParams(k=k, lam=lam, alpha=alpha)
    subsets = all_subsets(vals.shape[0], k)
    objective, weights, _ = optimizer._solve_subsets(v, params, subsets)
    for subset, obj, w in zip(subsets, objective, weights):
        ref = reference_optimum(vals, subset, lam, alpha)
        if ref is None:
            assert np.isnan(obj), f"subset {subset}: solved an infeasible subset"
            continue
        assert not np.isnan(obj), f"subset {subset}: feasible subset rejected"
        assert_feasible(vals, subset, w)
        # a feasible point cannot beat the optimum, so the lower bound pins
        # the answer; SLSQP itself stalls on flat faces when q ~ 1e-9
        assert obj >= ref - EXACT, f"subset {subset}: {obj!r} below {ref!r}"
        if (lam, alpha) != TINY_Q:
            assert obj <= ref + EXACT, f"subset {subset}: {obj!r} above {ref!r}"


class TestExactness:
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        shape=st.tuples(st.integers(2, 5), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        regime=st.sampled_from(REGIMES),
        data=st.data(),
    )
    def test_random_pools_match_scipy(self, shape, seed, regime, data):
        n, m = shape
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        # a coarse grid makes exact ties as likely as distinct values
        vals = np.round(rng.uniform(0.5, 1.0, size=(n, m)), data.draw(st.sampled_from((2, 6))))
        check_against_reference(vals, k, *regime)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_d2_and_fault_pool_match_scipy(self, regime):
        check_against_reference(D2_VALUES, 5, *regime)
        check_against_reference(FAULT_POOL, 5, *regime)

    def test_fault_pool_linear_regime_picks_the_optimum(self):
        # an interior-point solve at 1e-8 tolerance missed this by 8.2e-9
        sol = solve_weighting(_matrix(FAULT_POOL), HyperParams(k=5, lam=0.0))
        assert sol.selection.indices == (1, 2, 5, 7, 9)
        assert sol.stats.closed_form + sol.stats.screened == sol.stats.enumerated

    def test_d2_paper_defaults_need_no_fallback(self):
        v = _matrix(D2_VALUES)
        for k in range(2, 9):
            stats = solve_weighting(v, HyperParams(k=k)).stats
            assert stats.closed_form + stats.screened == stats.enumerated

    def test_floor_binding_regime_is_counted(self):
        stats = solve_weighting(_matrix(FAULT_POOL),
                                HyperParams(k=5, lam=0.2, alpha=0.99)).stats
        assert stats.enumerated == 252
        assert stats.active_set > 0
        assert (stats.screened + stats.closed_form + stats.active_set
                + stats.infeasible) == stats.enumerated

    def test_lifted_floor_closed_form(self):
        # one class whose unconstrained projection misses the floor (8):
        # the root a* lifts it exactly onto the floor
        vals = np.array([[0.9], [0.6], [0.88], [0.88]])
        subsets = np.array([[0, 1]])
        batch = subsetsolve.solve_batch(vals, subsets, 10.0, 0.0, EPS)
        assert batch.status[0] == subsetsolve.CLOSED_FORM
        w = batch.weights[0]
        assert (vals[[0, 1]] * w).sum() == pytest.approx(vals.mean() + EPS, abs=1e-15)


class TestCertificate:
    def test_perturbed_answer_rejected(self):
        subsets = all_subsets(8, 4)
        lam, alpha = 0.95, 0.85
        batch = subsetsolve.solve_batch(D2_VALUES, subsets, lam, alpha, EPS)
        b = int(np.flatnonzero(batch.status == subsetsolve.CLOSED_FORM)[0])
        sub = D2_VALUES[subsets[b]][None]
        f = D2_VALUES.mean(axis=0) + EPS
        q = lam * (1 - alpha) / 2
        w, nu, mu = subsetsolve._projection(sub, f, q)
        gamma = np.zeros((1, 4))
        assert subsetsolve._certify(sub, f, q, EPS, w, nu, mu, gamma)[0]
        moved = w.copy()
        j = 0
        top, low = np.argmax(w[0, :, j]), np.argmin(w[0, :, j])
        moved[0, top, j] -= 1e-9
        moved[0, low, j] += 1e-9
        assert not subsetsolve._certify(sub, f, q, EPS, moved, nu, mu, gamma)[0]
        assert not subsetsolve._certify(sub, f, q, EPS, w, nu, mu - 1e-3, gamma)[0]


def _everything_unresolved(real):
    def solve_batch(vals, subsets, lam, alpha, eps):
        out = real(vals, subsets, lam, alpha, eps)
        status = np.where(out.status == subsetsolve.SCREENED, subsetsolve.SCREENED,
                          subsetsolve.UNRESOLVED).astype(np.int8)
        return subsetsolve.SubsetBatch(status, np.zeros_like(out.weights),
                                       np.full_like(out.objective, np.nan))
    return solve_batch


def _stage_3_only(monkeypatch):
    """Stages 1 and 2 certify nothing, so every live subset reaches stage 3."""
    def zeros(sub, *args):  # (w, nu, mu, gamma) that no certificate accepts
        batch, k, m = sub.shape
        return (np.zeros(sub.shape), np.zeros((batch, m)), np.zeros((batch, m)),
                np.zeros((batch, k)))

    monkeypatch.setattr(subsetsolve, "_linear", zeros)
    monkeypatch.setattr(subsetsolve, "_projection", lambda *args: zeros(*args)[:3])
    monkeypatch.setattr(subsetsolve, "_active_set",
                        lambda sub, *args: (np.zeros(sub.shape), np.zeros(len(sub), bool)))


class TestFallback:
    def test_fallback_is_counted_and_agrees_to_its_tolerance(self, monkeypatch):
        # the simplex vertex and the primal active-set steps from it reach
        # the optima stages 1 and 2 find, on every D2 subset
        v = _matrix(D2_VALUES)
        params = [HyperParams(k=4, lam=lam, alpha=alpha) for lam, alpha in BNB_REGIMES]
        direct = [solve_weighting(v, p) for p in params]
        _stage_3_only(monkeypatch)
        for p, d in zip(params, direct):
            fallback = solve_weighting(v, p)
            assert fallback.stats.active_set == 70 - d.stats.screened
            assert fallback.stats.closed_form == 0
            assert fallback.selection.indices == d.selection.indices
            for a, b in zip(fallback.subset_rank, d.subset_rank):
                assert a.subset == b.subset
                assert a.objective == pytest.approx(b.objective, abs=1e-12)

    def test_non_converged_fallback_raises(self, monkeypatch):
        # a subset solve_batch leaves unresolved stops the solve, naming it
        monkeypatch.setattr(subsetsolve, "solve_batch",
                            _everything_unresolved(subsetsolve.solve_batch))
        with pytest.raises(SolverIncomplete, match=r"subset \(0, 1, 2\)") as info:
            solve_weighting(_matrix(D2_VALUES), HyperParams(k=3))
        assert info.value.subset == (0, 1, 2)


# Knife-edge pools at lam = 0: the q = 0 closed form misses a floor (8) by
# about 1e-9, so these subsets reach stage 3.
KNIFE_4X2 = np.array([[0.501, 0.9], [0.5, 0.1], [0.5, 0.1], [0.502995994, 0.1]])
KNIFE_4X1 = np.array([[0.501], [0.4], [0.4], [0.702996]])


def knife_edge_pool(rng):
    """A pool whose first K rows sit on a knife edge at lam = 0.

    Row 0 tops every class. In 1..m classes it is ``a + d`` and the other
    K - 1 subset rows lie within d/2 of ``a``, so each takes its eps of (7)
    there at a cost near d; the equal rows outside the subset put the floor
    (8) a budget B in [0, 2(K-1) eps d] below row 0, about what those eps
    cost. Elsewhere row 0 is in [0.9, 1] and the other rows at most 0.6.
    """
    k = int(rng.integers(2, 7))
    n = k + int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    vals = rng.uniform(0.0, 0.6, size=(n, m))
    vals[0] = rng.uniform(0.9, 1.0, size=m)
    for j in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False):
        a = rng.uniform(0.3, 0.8)
        d = float(rng.choice([1e-3, 1e-4, 1e-5]))
        vals[0, j] = a + d
        vals[1:k, j] = a + rng.uniform(-d / 2, d / 2, size=k - 1)
        budget = rng.uniform(0.0, 2 * (k - 1) * EPS * d)
        vals[k:, j] = (n * (vals[0, j] - budget - EPS) - vals[:k, j].sum()) / (n - k)
    return vals, k


def assert_lp_optimal(vals, subset, w, eps=EPS):
    """Check a q = 0 answer without the solver's certificate.

    Feasibility to 1e-12 in exact arithmetic. Multipliers of (5), (8) and
    (7) by least squares on the support and the tight rows; with mu, gamma
    clipped to >= 0 they give the dual bound
    ``sum_j max_i((1/m + mu_j) v_ij + gamma_i) - mu.f - eps sum(gamma)``,
    which must meet the objective: a zero duality gap.
    """
    sub = vals[list(subset)]
    k, m = sub.shape
    v = [[Fraction(x) for x in row] for row in sub]
    x = [[Fraction(y) for y in row] for row in w]
    f = [sum(map(Fraction, col)) / len(vals) + Fraction(eps) for col in vals.T]
    cols = [sum(x[i][j] for i in range(k)) for j in range(m)]
    acc = [sum(v[i][j] * x[i][j] for i in range(k)) - f[j] for j in range(m)]
    rows = [sum(x[i]) - Fraction(eps) for i in range(k)]
    assert w.min() >= 0.0
    assert max(abs(c - 1) for c in cols) <= FEAS
    assert min(acc) >= -FEAS and min(rows) >= -FEAS

    floor = np.array([a <= 1e-14 for a in acc])
    rowact = np.array([r <= 1e-14 for r in rows])
    eqs, rhs = [], []
    for i, j in zip(*np.nonzero(w > 0.0)):
        e = np.zeros(2 * m + k)
        e[j] = 1.0
        e[m + j] = -sub[i, j] * floor[j]
        e[2 * m + i] = -1.0 * rowact[i]
        eqs.append(e)
        rhs.append(sub[i, j] / m)
    y = np.linalg.lstsq(np.array(eqs), np.array(rhs), rcond=None)[0]
    mu, gamma = y[m:2 * m] * floor, y[2 * m:] * rowact
    assert mu.min() >= -1e-9 and gamma.min() >= -1e-9
    mu_q = [Fraction(z) for z in np.maximum(mu, 0.0)]
    gamma_q = [Fraction(z) for z in np.maximum(gamma, 0.0)]
    bound = (sum(max((Fraction(1, m) + mu_q[j]) * v[i][j] + gamma_q[i] for i in range(k))
                 for j in range(m))
             - sum(mu_q[j] * f[j] for j in range(m)) - Fraction(eps) * sum(gamma_q))
    primal = sum(v[i][j] * x[i][j] for i in range(k) for j in range(m)) / m
    assert abs(float(bound - primal)) <= FEAS * (1.0 + mu.max())


def assert_lp_infeasible(vals, subset, eps=EPS):
    """Prove (5), (7), (8) inconsistent in exact arithmetic.

    For mu >= 0 and gamma_i = min_j mu_j (M_j - v_ij) (M_j the column
    maximum), every feasible w has ``sum_j max_i(mu_j v_ij + gamma_i) >=
    mu.f + eps sum(gamma)``, so the reverse inequality is a certificate.
    HiGHS picks mu on a scaled copy in which the margin is of order one.
    """
    sub = vals[list(subset)]
    k, m = sub.shape
    f = vals.mean(axis=0) + eps
    cost = sub.max(axis=0) - sub
    scale = cost.max()
    # maximize sum(r) - mu.(M - f)/(eps scale), r_i <= mu_j cost_ij/scale, sum(mu) = 1
    a_ub = np.zeros((k * m, m + k))
    for i, j in itertools.product(range(k), range(m)):
        a_ub[i * m + j, j] = -cost[i, j] / scale
        a_ub[i * m + j, m + i] = 1.0
    res = scipy_optimize.linprog(
        np.concatenate([(sub.max(axis=0) - f) / (eps * scale), -np.ones(k)]),
        A_ub=a_ub, b_ub=np.zeros(k * m), A_eq=[[1.0] * m + [0.0] * k], b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)] * k, method="highs")
    assert res.status == 0, res.message
    mu = [Fraction(z) for z in np.maximum(res.x[:m], 0.0)]
    v = [[Fraction(x) for x in row] for row in sub]
    top = [max(v[i][j] for i in range(k)) for j in range(m)]
    gamma = [min(mu[j] * (top[j] - v[i][j]) for j in range(m)) for i in range(k)]
    reach = sum(max(mu[j] * v[i][j] + gamma[i] for i in range(k)) for j in range(m))
    assert reach < sum(mu[j] * Fraction(f[j]) for j in range(m)) + Fraction(eps) * sum(gamma)


class TestVertexStage:
    def test_4x2_pool_certified_at_its_optimum(self):
        batch = subsetsolve.solve_batch(KNIFE_4X2, np.array([[0, 1, 2]]), 0.0, 0.85, EPS)
        assert batch.status[0] == subsetsolve.ACTIVE_SET
        assert batch.objective[0] == pytest.approx(0.7004997992500052, abs=1e-12)
        assert_lp_optimal(KNIFE_4X2, (0, 1, 2), batch.weights[0])
        # HiGHS only as a coarse check: at its 1e-7 tolerance it is 2e-7 off
        ref = reference_optimum(KNIFE_4X2, (0, 1, 2), 0.0, 0.85)
        assert ref == pytest.approx(batch.objective[0], abs=1e-6)

    def test_4x1_pool_reported_infeasible(self):
        # infeasible by 2.1e-7, but no class floor exceeds every member
        subset = np.array([[0, 1, 2]])
        batch = subsetsolve.solve_batch(KNIFE_4X1, subset, 0.0, 0.85, EPS)
        assert batch.status[0] == subsetsolve.INFEASIBLE
        assert np.isnan(batch.objective[0])
        assert_lp_infeasible(KNIFE_4X1, (0, 1, 2))
        assert reference_optimum(KNIFE_4X1, (0, 1, 2), 0.0, 0.85) is None
        stats = optimizer._solve_subsets(_matrix(KNIFE_4X1), HyperParams(k=3, lam=0.0),
                                         all_subsets(4, 3))[2]
        assert stats.infeasible == 1
        assert stats.screened + stats.closed_form + stats.infeasible == stats.enumerated

    def test_knife_edge_pools_end_certified_or_infeasible(self):
        rng = np.random.default_rng(0)
        reached = 0
        for _ in range(3000):
            vals, k = knife_edge_pool(rng)
            subset = tuple(range(k))
            objective, weights, stats = optimizer._solve_subsets(
                _matrix(vals), HyperParams(k=k, lam=0.0), np.array([subset]))
            if stats.active_set:
                assert_lp_optimal(vals, subset, weights[0])
            elif stats.infeasible:
                assert_lp_infeasible(vals, subset)
            reached += stats.active_set + stats.infeasible
        assert reached >= 1000

    @pytest.mark.parametrize("regime", REGIMES[1:])
    def test_knife_edge_pools_with_a_penalty(self, regime):
        # q > 0: stage 2 stalls on a singular system here; the primal
        # active-set steps from the vertex reach the optimum
        rng = np.random.default_rng(1)
        reached = 0
        for _ in range(100):
            vals, k = knife_edge_pool(rng)
            subset = (tuple(range(k)),)
            objective, weights, stats = optimizer._solve_subsets(
                _matrix(vals), HyperParams(k=k, lam=regime[0], alpha=regime[1]),
                np.array(subset))
            if stats.active_set:
                assert_feasible(vals, subset[0], weights[0])
                ref = reference_optimum(vals, subset[0], *regime)
                assert objective[0] >= ref - 1e-6
            reached += stats.active_set + stats.infeasible
        assert reached >= 25


    def test_degenerate_phase_1_drives_out_its_artificials(self, monkeypatch):
        # phase 1 can end feasible with an artificial basic at zero; it must
        # leave the basis before phase 2, whose columns hold no artificials
        bases = []
        real = subsetsolve._bland

        def bland(a, b, cost, basis):
            out = real(a, b, cost, basis)
            bases.append(None if out is None else out.copy())
            return out

        monkeypatch.setattr(subsetsolve, "_bland", bland)

        def check(sub, f, eps):
            """Whether the drive-out ran; the answer is checked either way."""
            bases.clear()
            k, m = sub.shape
            found = subsetsolve._vertex(sub, f, eps)
            drove = len(bases) == 2 and bool((bases[0] >= k * m + m + k).any())
            best = lp_optimum(sub, f, eps)
            if found == subsetsolve.INFEASIBLE:
                assert best is None
                return drove
            for q in (0.0, 0.05):
                w, nu, mu, gamma = subsetsolve._descend(sub[None], f, q, eps, *found)
                w, mu, gamma = (np.maximum(x, 0.0) for x in (w, mu, gamma))
                assert subsetsolve._certify(sub[None], f, q, eps, w, nu, mu, gamma)[0]
                if q == 0.0:
                    assert (sub * w[0]).sum() / m == pytest.approx(best, abs=1e-9)
            return drove

        assert check(np.array([[0.0], [0.0]]), np.array([0.0]), 0.25)
        # K <= 3, m <= 2, values on a 0.25 grid: about one in six drives out
        rng = np.random.default_rng(0)
        drove = 0
        for _ in range(300):
            k, m = rng.integers(1, 4), rng.integers(1, 3)
            sub, f = rng.integers(0, 5, (k, m)) / 4, rng.integers(0, 5, m) / 4
            drove += check(sub, f, 2.0 ** -rng.integers(1, 5))
        assert drove >= 30


class TestNodeLimit:
    def test_library_raises(self):
        with pytest.raises(SolverIncomplete, match="3 nodes"):
            optimizer._solve_bnb(_matrix(D2_VALUES), HyperParams(k=4), max_nodes=3)

    def test_cli_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(optimizer, "_solve_bnb",
                            functools.partial(optimizer._solve_bnb, max_nodes=3))
        code = main([
            "optimize", "--matrix", D2_CSV, "--k", "4",
            "--method", "bnb",
            "--out-weights", str(tmp_path / "w.csv"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 5
        assert "incomplete" in capsys.readouterr().err
        assert "5  solve incomplete" in build_parser().format_help()


def test_optimize_report_carries_diagnostics(tmp_path):
    report = tmp_path / "r.json"
    assert main([
        "optimize", "--matrix", D2_CSV, "--k", "4",
        "--out-weights", str(tmp_path / "w.csv"), "--out-report", str(report),
        "--no-timestamp",
    ]) == 0
    diagnostics = json.loads(report.read_text())["diagnostics"]
    assert diagnostics == {
        "enumerated": 70, "screened": 7, "closed_form": 63,
        "active_set": 0, "infeasible": 0, "nodes": 0, "pruned": 0,
        "bound_calls": 0,
    }


def test_bnb_report_counts_nodes(tmp_path):
    report = tmp_path / "r.json"
    assert main([
        "optimize", "--matrix", D2_CSV, "--k", "4", "--method", "bnb",
        "--out-weights", str(tmp_path / "w.csv"), "--out-report", str(report),
        "--no-timestamp",
    ]) == 0
    diagnostics = json.loads(report.read_text())["diagnostics"]
    assert diagnostics["nodes"] > 0
    assert diagnostics["enumerated"] < 70
    assert 0 < diagnostics["bound_calls"] < diagnostics["nodes"]


class TestBranchAndBound:
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        shape=st.tuples(st.integers(2, 7), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        regime=st.sampled_from(BNB_REGIMES),
        data=st.data(),
    )
    def test_bound_covers_every_completion(self, shape, seed, regime, data):
        n, m = shape
        rng = np.random.default_rng(seed)
        vals = np.round(rng.uniform(0.5, 1.0, size=(n, m)), data.draw(st.sampled_from((2, 6))))
        k = data.draw(st.integers(1, n))
        rows = [int(i) for i in rng.permutation(n)]
        n_in = data.draw(st.integers(0, k))
        included = rows[:n_in]
        free = rows[n_in:n_in + data.draw(st.integers(k - n_in, n - n_in))]
        f = vals.mean(axis=0) + EPS
        top = -np.sort(-vals[free], axis=0)[:k - n_in]
        column = np.concatenate([vals[included], top])[None]
        bound = subsetsolve.relaxed_objective(column, f, *regime)[0]

        completions = np.array([sorted(included + list(c))
                                for c in itertools.combinations(free, k - n_in)],
                               dtype=np.intp)
        batch = subsetsolve.solve_batch(vals, completions, *regime, EPS)
        certified = ((batch.status == subsetsolve.CLOSED_FORM)
                     | (batch.status == subsetsolve.ACTIVE_SET))
        if bound == -np.inf:
            assert np.all(batch.status == subsetsolve.SCREENED)
        assert np.all(batch.objective[certified] <= bound + 1e-12)

    @pytest.mark.parametrize("regime", BNB_REGIMES)
    def test_selection_matches_enumeration_up_to_14(self, regime):
        compared = 0
        for seed, n in enumerate((8, 10, 12, 14) * 2):
            rng = np.random.default_rng(seed)
            v = _matrix(np.clip(0.7 + 0.3 * rng.random((n, 5)), 0, 1))
            params = HyperParams(k=int(rng.integers(2, n)), lam=regime[0], alpha=regime[1])
            try:
                enum = solve_weighting(v, params, method="enumerate")
            except AllSubsetsInfeasible:
                with pytest.raises(AllSubsetsInfeasible):
                    solve_weighting(v, params, method="bnb")
                continue
            bnb = solve_weighting(v, params, method="bnb")
            assert bnb.selection.indices == enum.selection.indices
            assert bnb.objective.total == pytest.approx(
                enum.objective.total, abs=optimizer.TIE_TOL)
            assert bnb.stats.nodes > 0
            assert bnb.stats.enumerated < enum.stats.enumerated
            compared += 1
        assert compared >= 6

    def test_auto_above_twenty_classifiers_matches_enumeration(self):
        v = _matrix(np.clip(0.7 + 0.3 * np.random.default_rng(3).random((22, 5)), 0, 1))
        params = HyperParams(k=4)
        auto = solve_weighting(v, params)
        assert auto.stats.nodes > 0  # routed to branch-and-bound
        enum = solve_weighting(v, params, method="enumerate")
        assert auto.selection.indices == enum.selection.indices


def _rank_bits(r):
    return r.subset, r.status, None if r.objective is None else r.objective.hex()


def _seeded_pool(n, seed=0):
    return _matrix(np.clip(0.7 + 0.3 * np.random.default_rng(seed).random((n, 5)), 0, 1))


class TestBatchedSearch:
    @pytest.mark.parametrize("regime", BNB_REGIMES)
    def test_selection_and_objective_bits_match_enumeration(self, regime):
        cases = [(_matrix(D2_VALUES), k) for k in range(2, 9)] + [(_seeded_pool(16), 8)]
        for v, k in cases:
            params = HyperParams(k=k, lam=regime[0], alpha=regime[1])
            enum = solve_weighting(v, params, method="enumerate")
            bnb = solve_weighting(v, params, method="bnb")
            assert bnb.selection.indices == enum.selection.indices, k
            assert bnb.objective.total == enum.objective.total, k
            assert bnb.stats.bound_calls <= bnb.stats.nodes

    @pytest.mark.parametrize("regime", BNB_REGIMES)
    def test_rank_is_the_enumeration_rank_of_the_solved_leaves(self, regime):
        for k in range(2, 9):
            params = HyperParams(k=k, lam=regime[0], alpha=regime[1])
            enum = solve_weighting(_matrix(D2_VALUES), params, method="enumerate")
            bnb = solve_weighting(_matrix(D2_VALUES), params, method="bnb")
            solved = {r.subset for r in bnb.subset_rank}
            assert len(solved) == len(bnb.subset_rank) == bnb.stats.enumerated, k
            assert list(map(_rank_bits, bnb.subset_rank)) == [
                _rank_bits(r) for r in enum.subset_rank if r.subset in solved], k

    def test_all_infeasible_pool_raises_alike(self):
        # with eps = 1e-3 each subset holding row 0 misses the floor (8) by
        # about 7e-7 once the other row takes its eps of (7), which the bound
        # drops: branch-and-bound solves those three leaves, and the bound
        # rules out the rest
        vals = np.array([[0.5 + 1.3342e-3], [0.5], [0.5], [0.5]])
        params = HyperParams(k=2, lam=0.0, epsilon=1e-3)
        raised = {}
        for method in ("enumerate", "bnb"):
            with pytest.raises(AllSubsetsInfeasible) as exc:
                solve_weighting(_matrix(vals), params, method=method)
            raised[method] = exc.value
        assert str(raised["bnb"]) == str(raised["enumerate"]) == (
            "all subsets of size 2 are infeasible: no weighting beats the "
            "uniform accuracy floors")
        enum, bnb = raised["enumerate"].subset_rank, raised["bnb"].subset_rank
        assert [r.subset for r in bnb] == [(0, 1), (0, 2), (0, 3)]
        assert [r.subset for r in enum] == list(itertools.combinations(range(4), 2))
        assert all(r.objective is None for r in enum)
        assert list(bnb) == [r for r in enum if r.subset in {s.subset for s in bnb}]

    def test_infeasible_pool_closes_at_the_root(self):
        # every class floor exceeds every entry: both children of the root
        # are bounded -inf and pruned, so the search closes after one node
        with pytest.raises(AllSubsetsInfeasible):
            optimizer._solve_bnb(_matrix(np.full((40, 2), 0.7)), HyperParams(k=20),
                                 max_nodes=10)

    def test_subsets_bounded_infeasible_are_not_solved(self):
        # the include-first leaf, rows 0-2, is below the class-1 floor
        vals = np.array([[1.0, 0.0]] * 3 + [[0.45, 0.45]] * 3)
        bnb = solve_weighting(_matrix(vals), HyperParams(k=3), method="bnb")
        enum = solve_weighting(_matrix(vals), HyperParams(k=3), method="enumerate")
        assert bnb.selection.indices == enum.selection.indices
        assert enum.stats.screened > 0
        assert bnb.stats.screened == 0

    def test_auto_routes_by_subset_count(self):
        assert solve_weighting(_seeded_pool(20), HyperParams(k=10)).stats.nodes > 0
        cases = [(_matrix(D2_VALUES), k) for k in range(1, 9)] + [(_seeded_pool(11), 5)]
        for v, k in cases:
            stats = solve_weighting(v, HyperParams(k=k)).stats
            assert (stats.nodes, stats.bound_calls) == (0, 0)
            assert stats.enumerated == math.comb(v.n, k)


def _old_rank_key(r):
    return (-(r.objective if r.objective is not None else -np.inf), r.subset)


def test_subset_rank_order_on_ties():
    # duplicated rows make many subsets tie exactly
    v = _matrix(np.vstack([D2_VALUES[:4], D2_VALUES[:4]]))
    rank = solve_weighting(v, HyperParams(k=3), method="enumerate").subset_rank
    objectives = [r.objective for r in rank if r.objective is not None]
    assert len(set(objectives)) < len(objectives)
    assert any(r.objective is None for r in rank)
    assert list(rank) == sorted(rank, key=_old_rank_key)
    rank = solve_weighting(v, HyperParams(k=3), method="bnb").subset_rank
    assert list(rank) == sorted(rank, key=_old_rank_key)


@pytest.mark.parametrize("method", ["enumerate", "bnb"])
def test_equal_rows_give_equal_objectives(method):
    # D2 with rows 0-3 appended: subsets holding the same rows in another
    # order tie exactly and are ranked lexicographically
    vals = np.vstack([D2_VALUES, D2_VALUES[:4]])
    rank = solve_weighting(_matrix(vals), HyperParams(k=3), method=method).subset_rank
    groups = {}
    for r in rank:
        if r.objective is not None:
            key = tuple(sorted(map(tuple, vals[list(r.subset)].tolist())))
            groups.setdefault(key, []).append(r)
    assert any(len(g) > 1 for g in groups.values())
    for g in groups.values():
        assert len({r.objective for r in g}) == 1
        assert [r.subset for r in g] == sorted(r.subset for r in g)
