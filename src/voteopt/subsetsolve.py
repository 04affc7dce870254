"""Exact batched solver for the fixed-subset weight problem.

With the selection fixed to a subset of K classifiers, the weight model of
:mod:`voteopt.optimizer` separates by class except for the per-classifier
weight floors (7). The L1 term equals m on the feasible set, so with
``q = lam*(1-alpha)/2`` and ``f_j = mean_i(v_ij) + eps`` (mean over the full
pool, which the caller computes) class j maximizes

    v_j.w_j / m - q * ||w_j||^2   over the unit simplex (3), (5),
    subject to v_j.w_j >= f_j     (8)

and the classes share only ``sum_j w_ij >= eps`` for every selected row (7).
(9) is the average of the (8) rows and is implied by them.

``solve_batch`` solves many subsets at once, in three stages:

1. Closed form, with (7) assumed slack. For q > 0, w_j is the Euclidean
   projection of ``a_j * v_j`` onto the simplex, ``a_j = (1/m + mu_j)/(2q)``
   (Duchi et al. 2008; Condat 2016). ``mu_j = 0`` unless the floor (8) fails
   there; then ``v_j.w_j(a)`` is linear in ``a`` for each support size r and
   ``a_j`` is the root on the piece whose support is consistent. One sort per
   column serves every piece. For q = 0 (a linear program) each class puts
   its mass on its column maximum and every row that tops no class takes
   eps from the class where that costs least.
2. Active set, for q > 0 where stage 1 is not certified (mostly (7)
   binding): for a fixed support and fixed sets of active (7)/(8) rows the
   KKT conditions are one linear system, and primal-dual active-set updates
   (Hintermueller, Ito & Kunisch 2002) revise the sets until the solution is
   certified or the sets stop changing.
3. Vertex, for whatever is still uncertified (at q = 0, a floor (8) that the
   closed form misses; for q > 0, sets on which stage 2 meets a singular
   system). Phase 1 of a dense two-phase simplex method with Bland's (1977)
   rule proves the subset infeasible or reaches a feasible basis, and phase 2
   moves to an optimal vertex of the linear part (Nocedal & Wright 2006,
   ch. 13). The simplex only chooses sets: the basic weights are the support,
   and the non-basic surpluses of (8) and (7) the active rows. At q = 0 the
   KKT system of those sets gives the answer; for q > 0 a primal active-set
   method (ibid., Algorithm 16.3) walks from the vertex to the optimum. A
   feasible subset left uncertified is returned UNRESOLVED; no known input
   gets there.

Every certified answer carries a KKT certificate: (5), (7), (8) and
``w >= 0`` hold to ``PRIMAL_TOL``; the multipliers of (7) and (8) are
non-negative and vanish where their rows are slack; and the reduced
gradient is zero on the support and non-positive off it, to ``DUAL_TOL``
relative to the class's multiplier scale. A certified answer is therefore
the subset's optimum up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import objective_terms

# per-subset outcome codes
SCREENED = 0  # some class floor (8) exceeds every member's accuracy
CLOSED_FORM = 1
ACTIVE_SET = 2  # the KKT system of fixed sets, chosen by stage 2 or 3
UNRESOLVED = 3
INFEASIBLE = 4  # not screened, but proven infeasible by phase 1

PRIMAL_TOL = 1e-12
DUAL_TOL = 1e-12
PIVOT_TOL = 1e-11
ROUNDING_TOL = 1e-15  # a phase-1 violation above this is not rounding
MAX_ACTIVE_SET_ITER = 30
MAX_PIVOTS = 500


@dataclass(frozen=True)
class SubsetBatch:
    """Outcome of ``solve_batch`` for B subsets of K classifiers."""

    status: np.ndarray  # (B,) outcome codes above
    weights: np.ndarray  # (B, K, m); zero unless certified
    objective: np.ndarray  # (B,) regularized objective; nan unless certified


def relaxed_objective(sub, f, lam, alpha):
    """Objective of (B, K, m) columns with the weight floors (7) dropped.

    Each class then solves its own problem: the projection for q > 0, all
    its mass on the column maximum for q = 0. -inf where some class floor
    ``f_j`` exceeds every entry of its column.
    """
    q = lam * (1.0 - alpha) / 2.0
    feasible = np.all(sub.max(axis=1) >= f, axis=1)
    out = np.full(len(sub), -np.inf)
    s = sub[feasible]
    if q > 0.0:
        w = _projection(s, f, q)[0]
    else:
        batch, _, m = s.shape
        w = np.zeros_like(s)
        w[np.arange(batch)[:, None], np.argmax(s, axis=1), np.arange(m)] = 1.0
    out[feasible] = objective_terms(s, w, lam, alpha)[3]
    return out


def solve_batch(sub, f, lam, alpha, eps) -> SubsetBatch:
    """Solve and certify the weight problem of every subset in ``sub``.

    ``sub`` holds the (B, K, m) accuracies of B subsets of K classifiers and
    ``f`` the pool's (m,) class floors (8). Where (7) binds, memory grows
    with B * (K*m + 2*m + K)**2, so callers pass bounded batches.
    """
    batch, k, m = sub.shape
    q = lam * (1.0 - alpha) / 2.0
    status = np.full(batch, UNRESOLVED, dtype=np.int8)
    weights = np.zeros_like(sub)

    screened = np.any(sub.max(axis=1) < f, axis=1)
    status[screened] = SCREENED
    live = np.flatnonzero(~screened)
    if live.size:
        s = sub[live]
        if q > 0.0:
            w, nu, mu = _projection(s, f, q)
            gamma = np.zeros((live.size, k))
        else:
            w, nu, mu, gamma = _linear(s, eps)
        ok = _certify(s, f, q, eps, w, nu, mu, gamma)
        weights[live[ok]] = w[ok]
        status[live[ok]] = CLOSED_FORM
        rest = ~ok
        if q > 0.0 and rest.any():
            # start from the closed form's sets: its support, its lifted
            # floors and the rows that fall short of (7)
            red = _reduced_gradient(s[rest], q, w[rest], nu[rest], mu[rest], gamma[rest])
            w2, ok2 = _active_set(s[rest], f, q, eps, w[rest] > 0.0, mu[rest] > 0.0,
                                  w[rest].sum(axis=2) < eps, red)
            idx = live[rest][ok2]
            weights[idx] = w2[ok2]
            status[idx] = ACTIVE_SET
        _vertices(sub, f, q, eps, status, weights)
    objective = np.full(batch, np.nan)
    solved = (status == CLOSED_FORM) | (status == ACTIVE_SET)
    objective[solved] = objective_terms(sub[solved], weights[solved], lam, alpha)[3]
    return SubsetBatch(status, weights, objective)


# --- stage 1: closed forms ----------------------------------------------------


def _projection(sub, f, q):
    """Every class problem with (7) dropped, for q > 0.

    Returns the weights and the multipliers (nu, mu) of (5) and (8).
    """
    batch, k, m = sub.shape
    # (batch, class) index grids: arr[b, r - 1, j] is entry r of every column
    b, j = np.arange(batch)[:, None], np.arange(m)
    order = np.argsort(-sub, axis=1, kind="stable")
    u = sub[b[:, None], order, j]
    # Running mean, centred sum of squares (Welford) and d_r = sum_{i<=r}
    # (u_i - u_r) over the sorted column. proj(a*u) keeps the r largest
    # entries exactly when a*d_r < 1, and on that support
    # v.w(a) = a*var_r + mean_r.
    mean = np.empty_like(u)
    var = np.empty_like(u)
    d = np.empty_like(u)
    mean[:, 0], var[:, 0], d[:, 0] = u[:, 0], 0.0, 0.0
    for r in range(1, k):
        delta = u[:, r] - mean[:, r - 1]
        mean[:, r] = mean[:, r - 1] + delta / (r + 1)
        var[:, r] = var[:, r - 1] + delta * (u[:, r] - mean[:, r])
        d[:, r] = d[:, r - 1] + r * (u[:, r - 1] - u[:, r])

    a0 = 1.0 / (2.0 * q * m)
    size = np.count_nonzero(a0 * d < 1.0, axis=1)
    top = (b, size - 1, j)
    lift = a0 * var[top] + mean[top] < f
    if lift.any():
        # v.w at the low end a = 1/d_{r+1} of each support size's piece; it
        # does not increase with r, so the root lies on the first piece
        # whose low end is at most f
        d_next = np.concatenate([d[:, 1:], np.full((batch, 1, m), np.inf)], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            low = np.where(d_next > 0.0, var / d_next + mean, np.inf)
            r_root = 1 + np.argmax(low <= f[None, None, :], axis=1)
            root = (b, r_root - 1, j)
            v_root = var[root]
            a_root = np.where(v_root > 0.0, (f - mean[root]) / v_root, 1.0 / d_next[root])
        a = np.where(lift, a_root, a0)
        size = np.where(lift, r_root, size)
    else:
        a = np.full((batch, m), a0)
    mean_s = mean[b, size - 1, j]
    # a*(u - mean) + 1/r, not a*u - theta: the latter cancels as q -> 0
    ws = a[:, None, :] * (u - mean_s[:, None, :]) + 1.0 / size[:, None, :]
    inside = np.arange(k)[None, :, None] < size[:, None, :]
    ws = np.where(inside, np.maximum(ws, 0.0), 0.0)
    w = np.empty_like(ws)
    w[b[:, None], order, j] = ws
    mu = np.where(lift, np.maximum(2.0 * q * a - 1.0 / m, 0.0), 0.0)
    nu = (1.0 / m + mu) * mean_s - 2.0 * q / size
    return w, nu, mu


def _linear(sub, eps):
    """The q = 0 linear program with (8) assumed slack.

    Each class's mass sits on its first column maximum; a row that tops no
    class takes eps from the class where ``vmax_j - v_ij`` is least (free
    for a row that ties a maximum). Returns weights and (nu, mu, gamma).
    """
    batch, k, m = sub.shape
    b, j = np.arange(batch)[:, None], np.arange(m)
    holder = np.argmax(sub, axis=1)
    vmax = sub[b, holder, j]
    w = np.zeros_like(sub)
    w[b, holder, j] = 1.0
    holds = np.zeros((batch, k), dtype=bool)
    holds[b, holder] = True
    loss = vmax[:, None, :] - sub
    cheapest = np.argmin(loss, axis=2)
    bi, ri = np.nonzero(~holds)
    ci = cheapest[bi, ri]
    w[bi, ri, ci] = eps
    np.subtract.at(w, (bi, holder[bi, ci], ci), eps)
    gamma = np.zeros((batch, k))
    gamma[bi, ri] = loss[bi, ri, ci] / m
    return w, vmax / m, np.zeros((batch, m)), gamma


# --- certificate ----------------------------------------------------------------


def _reduced_gradient(sub, q, w, nu, mu, gamma):
    """(1/m + mu_j) v_ij + gamma_i - nu_j - 2q w_ij: zero on the support, <= 0 off it."""
    t = 1.0 / sub.shape[2] + mu
    return t[:, None, :] * sub + gamma[:, :, None] - nu[:, None, :] - 2.0 * q * w


def _certify(sub, f, q, eps, w, nu, mu, gamma):
    """Per-subset KKT check; see the module docstring."""
    acc_slack = (sub * w).sum(axis=1) - f
    row_slack = w.sum(axis=2) - eps
    primal = (
        np.all(w >= 0.0, axis=(1, 2))
        & np.all(np.abs(w.sum(axis=1) - 1.0) <= PRIMAL_TOL, axis=1)
        & np.all(acc_slack >= -PRIMAL_TOL, axis=1)
        & np.all(row_slack >= -PRIMAL_TOL, axis=1)
    )
    dual = (
        np.all(mu >= 0.0, axis=1) & np.all(gamma >= 0.0, axis=1)
        & np.all((mu == 0.0) | (np.abs(acc_slack) <= PRIMAL_TOL), axis=1)
        & np.all((gamma == 0.0) | (np.abs(row_slack) <= PRIMAL_TOL), axis=1)
    )
    red = _reduced_gradient(sub, q, w, nu, mu, gamma)
    tol = DUAL_TOL * (1.0 + 1.0 / sub.shape[2] + mu)[:, None, :]
    stationary = np.all(np.where(w > 0.0, np.abs(red) <= tol, red <= tol), axis=(1, 2))
    return primal & dual & stationary


# --- stage 2: active set ----------------------------------------------------------


def _active_set(sub, f, q, eps, support, floor, rowact, red):
    """Primal-dual active-set iterations from the given sets.

    ``support`` (B, K, m), ``floor`` (B, m) and ``rowact`` (B, K) are the
    initial support and active (8) and (7) rows; ``red`` a reduced gradient
    used to pick the entry a row or class with an empty support gets. All
    four are updated in place. Returns the weights and which subsets were
    certified.
    """
    batch, _, m = sub.shape
    w_out = np.zeros_like(sub)
    ok = np.zeros(batch, dtype=bool)
    work = np.arange(batch)
    for _ in range(MAX_ACTIVE_SET_ITER):
        s = sub[work]
        _guard(support, floor, rowact, red, s, work)
        w, nu, mu, gamma, solved = _solve_kkt(s, f, q, eps, support[work],
                                              floor[work], rowact[work])
        good = solved & _certify(s, f, q, eps, w, nu, mu, gamma)
        w_out[work[good]] = w[good]
        ok[work[good]] = True

        r = _reduced_gradient(s, q, w, nu, mu, gamma)
        tol = DUAL_TOL * (1.0 + 1.0 / m + mu)[:, None, :]
        new_support = np.where(support[work], w >= 0.0, r > tol)
        new_floor = np.where(floor[work], mu >= 0.0,
                             (s * w).sum(axis=1) - f < -PRIMAL_TOL)
        new_rowact = np.where(rowact[work], gamma >= 0.0,
                              w.sum(axis=2) - eps < -PRIMAL_TOL)
        changed = (
            np.any(new_support != support[work], axis=(1, 2))
            | np.any(new_floor != floor[work], axis=1)
            | np.any(new_rowact != rowact[work], axis=1)
        )
        support[work], floor[work], rowact[work] = new_support, new_floor, new_rowact
        red[work] = r
        keep = ~good & solved & changed
        work = work[keep]
        if work.size == 0:
            break
    return w_out, ok


def _guard(support, floor, rowact, red, sub, work):
    """Repair sets that would make the KKT system singular, in place.

    A class or an active (7) row with an empty support gets its entry with
    the largest reduced gradient; an active (8) row whose support holds one
    accuracy value cannot bind and is dropped.
    """
    sup = support[work]
    rd = red[work]
    bi, ji = np.nonzero(~sup.any(axis=1))
    sup[bi, np.argmax(rd[bi, :, ji], axis=1), ji] = True
    bi, ii = np.nonzero(rowact[work] & ~sup.any(axis=2))
    sup[bi, ii, np.argmax(rd[bi, ii, :], axis=1)] = True
    hi = np.where(sup, sub, -np.inf).max(axis=1)
    lo = np.where(sup, sub, np.inf).min(axis=1)
    floor[work] &= hi > lo
    support[work] = sup


def _solve_kkt(sub, f, q, eps, support, floor, rowact, refine=False):
    """Solve the KKT system of each subset for its fixed sets.

    Unknowns, in order: w_ij (classifier-major), nu_j of (5), mu_j of (8),
    gamma_i of (7). Support entries satisfy
    ``2q w_ij + nu_j - mu_j v_ij - gamma_i = v_ij / m``; entries off the
    support, and multipliers of inactive rows, are pinned to zero.
    ``refine`` adds one step of iterative refinement, which keeps small
    multipliers accurate beside a floor multiplier of 1e4 or more. Stage 3
    refines; stage 2 does not, because refining every stage-2 solve made
    enumeration 1.5-1.7x slower on seeded 14 x 5 and 16 x 5 pools in the
    floor-binding regime (0.2, 0.99) and sent exactly as many knife-edge
    subsets to stage 3 in all four regimes tried.
    Returns (w, nu, mu, gamma), zero off the sets, and which systems were
    non-singular.
    """
    batch, k, m = sub.shape
    nw = k * m
    size = nw + 2 * m + k
    kk = np.arange(nw)
    ik, jk = kk // m, kk % m
    jj = np.arange(m)
    ii = np.arange(k)
    sup = support.reshape(batch, nw)
    v = sub.reshape(batch, nw)

    a = np.zeros((batch, size, size))
    rhs = np.zeros((batch, size))
    a[:, kk, kk] = np.where(sup, 2.0 * q, 1.0)
    a[:, kk, nw + jk] = sup
    a[:, kk, nw + m + jk] = np.where(sup, -v, 0.0)
    a[:, kk, nw + 2 * m + ik] = -1.0 * sup
    rhs[:, kk] = np.where(sup, v / m, 0.0)
    a[:, nw + jk, kk] = 1.0
    rhs[:, nw + jj] = 1.0
    a[:, nw + m + jk, kk] = np.where(floor[:, jk], v, 0.0)
    a[:, nw + m + jj, nw + m + jj] = ~floor
    rhs[:, nw + m + jj] = np.where(floor, f, 0.0)
    a[:, nw + 2 * m + ik, kk] = rowact[:, ik]
    a[:, nw + 2 * m + ii, nw + 2 * m + ii] = ~rowact
    rhs[:, nw + 2 * m + ii] = np.where(rowact, eps, 0.0)

    solved = np.ones(batch, dtype=bool)
    try:
        x = np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros((batch, size))
        for b in range(batch):
            try:
                x[b] = np.linalg.solve(a[b], rhs[b])
            except np.linalg.LinAlgError:
                solved[b] = False
    if refine and solved.all():
        x += np.linalg.solve(a, (rhs - np.einsum("bij,bj->bi", a, x))[..., None])[..., 0]
    solved &= np.all(np.isfinite(x), axis=1)
    x = np.where(solved[:, None], x, 0.0)
    w = np.where(support, x[:, :nw].reshape(batch, k, m), 0.0)
    mu = np.where(floor, x[:, nw + m:nw + 2 * m], 0.0)
    gamma = np.where(rowact, x[:, nw + 2 * m:], 0.0)
    return w, x[:, nw:nw + m], mu, gamma, solved


# --- stage 3: simplex vertex, then primal active set ------------------------------


def _vertices(sub, f, q, eps, status, weights):
    """Stage 3 on every UNRESOLVED subset; updates ``status`` and ``weights``."""
    for b in np.flatnonzero(status == UNRESOLVED):
        found = _vertex(sub[b], f, eps)
        if not isinstance(found, tuple):
            status[b] = found
            continue
        s = sub[b][None]
        point = _descend(s, f, q, eps, *found)
        if point is None:
            continue
        w, nu, mu, gamma = point
        # at the optimum a negative weight or multiplier is a rounded zero
        # (a degenerate vertex); the certificate checks the clipped answer
        w, mu, gamma = np.maximum(w, 0.0), np.maximum(mu, 0.0), np.maximum(gamma, 0.0)
        if _certify(s, f, q, eps, w, nu, mu, gamma)[0]:
            weights[b] = w[0]
            status[b] = ACTIVE_SET


def _vertex(sub, f, eps):
    """Optimal vertex of one (K, m) subset's linear part, by a two-phase simplex.

    Columns: the weights (classifier-major), the surpluses of (8) and of (7),
    then one artificial per row; rows (5), (8), (7). Returns INFEASIBLE when
    the least total violation phase 1 reaches is more than rounding,
    UNRESOLVED at the pivot limit, else the vertex's sets: the basic weights
    (``support``) and the non-basic surpluses (``floor``, ``rowact``).
    """
    k, m = sub.shape
    nw = k * m
    nv = nw + m + k
    rows = 2 * m + k
    kk = np.arange(nw)
    a = np.zeros((rows, nv + rows))
    a[kk % m, kk] = 1.0
    a[m + kk % m, kk] = sub.ravel()
    a[2 * m + kk // m, kk] = 1.0
    a[np.arange(m, rows), np.arange(nw, nv)] = -1.0
    a[np.arange(rows), np.arange(nv, nv + rows)] = 1.0
    b = np.concatenate([np.ones(m), f, np.full(k, eps)])
    phase1 = np.zeros(nv + rows)
    phase1[nv:] = -1.0
    basis = _bland(a, b, phase1, np.arange(nv, nv + rows))
    if basis is None:
        return UNRESOLVED
    # decided on the basis re-solved, not on values carried across pivots
    if np.linalg.solve(a[:, basis], b)[basis >= nv].sum() > ROUNDING_TOL:
        return INFEASIBLE
    for p in np.flatnonzero(basis >= nv):
        # an artificial left at zero leaves on the largest entry of its row
        row = np.linalg.solve(a[:, basis].T, np.eye(rows)[p]) @ a[:, :nv]
        row[basis[basis < nv]] = 0.0
        basis[p] = np.argmax(np.abs(row))
    phase2 = np.concatenate([sub.ravel() / m, np.zeros(m + k)])
    basis = _bland(a[:, :nv], b, phase2, basis)
    if basis is None:
        return UNRESOLVED
    basic = np.zeros(nv, dtype=bool)
    basic[basis] = True
    return basic[:nw].reshape(k, m), ~basic[nw:nw + m], ~basic[nw + m:]


def _bland(a, b, cost, basis):
    """Maximize ``cost.x`` over ``a @ x == b, x >= 0`` from a feasible basis.

    Bland's rule: the lowest-indexed improving column enters, and the
    lowest-indexed basic column among the ratio-test ties leaves. Every pivot
    solves the basis afresh, so no rounding carries over. Returns the final
    basis, or None (pivot limit, singular basis, or no pivot element).
    """
    try:
        for _ in range(MAX_PIVOTS):
            bmat = a[:, basis]
            reduced = cost - np.linalg.solve(bmat.T, cost[basis]) @ a
            reduced[basis] = 0.0
            enter = np.flatnonzero(reduced > DUAL_TOL)
            if enter.size == 0:
                return basis
            x, col = np.linalg.solve(bmat, np.stack([b, a[:, enter[0]]], axis=1)).T
            pos = col > PIVOT_TOL
            if not pos.any():
                return None
            ratio = np.full(len(basis), np.inf)
            ratio[pos] = np.maximum(x[pos], 0.0) / col[pos]
            ties = np.flatnonzero(ratio == ratio.min())
            basis[ties[np.argmin(basis[ties])]] = enter[0]
    except np.linalg.LinAlgError:
        pass
    return None


def _descend(sub, f, q, eps, support, floor, rowact):
    """Primal active-set method (Nocedal & Wright 2006, Algorithm 16.3).

    Starts from the vertex whose (K, m) ``support`` and active (8)/(7) rows
    ``floor``/``rowact`` are given; the working set holds those rows and the
    weights off the support at zero. Each iteration solves the working set's
    KKT system. A step that would leave the feasible set stops at the first
    constraint it meets, which joins the working set; where the step is zero,
    the first working constraint whose multiplier has the wrong sign leaves
    it. At q = 0 the optimal vertex is kept as it is. Returns (w, nu, mu,
    gamma) of the final point, or None (singular system or pivot limit).
    """
    _, k, m = sub.shape
    lower = np.concatenate([f, np.full(k, eps), np.zeros(k * m)])

    def constraints(w):  # (8), (7) and w >= 0 read as ``constraints(w) >= lower``
        return np.concatenate([(sub * w).sum(axis=1)[0], w.sum(axis=2)[0], w.ravel()])

    working = np.concatenate([floor, rowact, ~support.ravel()])
    w = None
    for _ in range(MAX_PIVOTS):
        floor, rowact = working[:m], working[m:m + k]
        support = ~working[m + k:].reshape(1, k, m)
        x, nu, mu, gamma, solved = _solve_kkt(sub, f, q, eps, support, floor[None],
                                              rowact[None], refine=True)
        if not solved[0]:
            return None
        w = x if w is None else w
        step = x - w
        if np.abs(step).max() <= PRIMAL_TOL:
            tol = DUAL_TOL * (1.0 + 1.0 / m + mu[0])
            red = _reduced_gradient(sub, q, x, nu, mu, gamma)[0]
            # the multiplier of a weight held at zero is minus its reduced gradient
            wrong = working & np.concatenate([mu[0] < -tol, gamma[0] < -DUAL_TOL,
                                              (red > tol).ravel()])
            if not wrong.any():
                return x, nu, mu, gamma
            w = x
            working[np.flatnonzero(wrong)[0]] = False
            continue
        rate = np.where(working, 0.0, constraints(step))
        ratio = np.full(rate.size, np.inf)
        ratio[rate < 0.0] = (np.maximum(constraints(w) - lower, 0.0)[rate < 0.0]
                             / -rate[rate < 0.0])
        block = int(np.argmin(ratio))
        if ratio[block] >= 1.0:
            w = x
        else:
            w = w + ratio[block] * step
            working[block] = True
    return None
