"""A brute-force oracle for small convex quadratic programs, for tests.

``grid_oracle`` maximizes over a grid of feasible points by exhaustive,
vectorized enumeration. It shares no code with the solver of
:mod:`voteopt.subsetsolve` and serves as an independent check on it. Problems
are stated in one canonical form:

    maximize    c.w - sum_i q_i * w_i**2
    subject to  a_eq @ w == b_eq
                a_in @ w >= b_in
                w >= 0

with ``q >= 0`` (convexity). Equalities are kept separate from the
inequality block rather than split into opposing pairs.
``build_subset_problem`` states one subset's weight problem in that form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from voteopt import AccuracyMatrix
from voteopt.qpsolve import QpStatus

_ORACLE_MAX_VARS = 8
_ORACLE_MAX_POINTS = 5_000_000


@dataclass(frozen=True)
class QpProblem:
    """Canonical-form convex QP data; see module docstring for the model."""

    q: np.ndarray
    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(self.q, dtype=np.float64)
        c = np.ascontiguousarray(self.c, dtype=np.float64)
        nv = c.shape[0]
        a_eq = np.ascontiguousarray(self.a_eq, dtype=np.float64).reshape(-1, nv)
        b_eq = np.ascontiguousarray(self.b_eq, dtype=np.float64).reshape(-1)
        a_in = np.ascontiguousarray(self.a_in, dtype=np.float64).reshape(-1, nv)
        b_in = np.ascontiguousarray(self.b_in, dtype=np.float64).reshape(-1)
        if q.shape != (nv,):
            raise ValueError(f"q has shape {q.shape}, expected ({nv},)")
        if a_eq.shape[0] != b_eq.shape[0]:
            raise ValueError("a_eq/b_eq row count mismatch")
        if a_in.shape[0] != b_in.shape[0]:
            raise ValueError("a_in/b_in row count mismatch")
        arrays = {"q": q, "c": c, "a_eq": a_eq, "b_eq": b_eq, "a_in": a_in, "b_in": b_in}
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if q.size and q.min() < 0.0:
            raise ValueError(
                f"negative quadratic coefficient {q.min()}: problem is non-convex"
            )
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @classmethod
    def build(cls, q, c, a_eq=None, b_eq=None, a_in=None, b_in=None) -> "QpProblem":
        c = np.asarray(c, dtype=np.float64)
        nv = c.shape[0]
        if a_eq is None:
            a_eq, b_eq = np.zeros((0, nv)), np.zeros(0)
        if a_in is None:
            a_in, b_in = np.zeros((0, nv)), np.zeros(0)
        return cls(np.asarray(q, dtype=np.float64), c, a_eq, b_eq, a_in, b_in)


@dataclass(frozen=True)
class QpSolution:
    """Oracle output; ``certificate`` says why an INFEASIBLE one is."""

    w: np.ndarray
    objective: float
    status: QpStatus
    certificate: str | None = None


# --- grid oracle -----------------------------------------------------------


def _find_simplex_blocks(a_eq: np.ndarray, b_eq: np.ndarray):
    """Split variables into unit-simplex blocks defined by equality rows.

    A row qualifies when its coefficients are exactly 0/1, its target is 1,
    and its variables appear in no other equality row. Returns (blocks,
    covered_eq_rows) where blocks is a list of variable-index arrays; any
    variable outside all blocks becomes its own box block.
    """
    rows_per_var = np.count_nonzero(a_eq, axis=0)
    blocks, covered_rows = [], set()
    covered = np.zeros(a_eq.shape[1], dtype=bool)
    for r in range(a_eq.shape[0]):
        support = np.flatnonzero(a_eq[r])
        if (support.size and b_eq[r] == 1.0 and np.all(a_eq[r, support] == 1.0)
                and np.all(rows_per_var[support] == 1)):
            blocks.append(("simplex", support))
            covered_rows.add(r)
            covered[support] = True
    blocks += [("box", k) for k in np.flatnonzero(~covered).reshape(-1, 1)]
    return blocks, covered_rows


def _compositions(units: int, parts: int) -> np.ndarray:
    """Every composition of ``units`` into ``parts`` non-negative integers.

    Reverse-lexicographic rows, the first (units, 0, ..., 0). Each row
    places ``parts - 1`` bars among ``units + parts - 1`` slots (stars and
    bars); bar positions in lexicographic order give compositions in
    lexicographic order, so the rows are read back to front.
    """
    slots = units + parts - 1
    count = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64, count=count * (parts - 1),
    ).reshape(count, parts - 1)
    return np.diff(bars[::-1], axis=1, prepend=-1, append=slots) - 1


def _block_candidates(kind: str, size: int, units: int) -> np.ndarray:
    if kind == "simplex":
        count = math.comb(units + size - 1, size - 1)
        if count > _ORACLE_MAX_POINTS:
            raise ValueError(
                f"grid too large: {count} simplex points for a {size}-variable block"
            )
        return _compositions(units, size).astype(np.float64) / units
    return np.linspace(0.0, 1.0, units + 1).reshape(-1, 1)


def grid_oracle(problem: QpProblem, step: float) -> QpSolution:
    """Best feasible grid point by exhaustive enumeration.

    Feasibility is checked with tolerance ``step`` on every constraint.
    Variables tied together by unit-simplex equality rows are enumerated as
    compositions of round(1/step) grid units; remaining variables sweep the
    unit interval. Independent blocks are maximized separately; constraints
    spanning several blocks force a (capped) product enumeration unless they
    are satisfied by every candidate combination.

    Intended for validation only: the variable count is limited to 8
    (``_ORACLE_MAX_VARS``) and candidate counts to 5,000,000
    (``_ORACLE_MAX_POINTS``).
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    nv = problem.n_vars
    if nv > _ORACLE_MAX_VARS:
        raise ValueError(
            f"grid oracle limited to {_ORACLE_MAX_VARS} variables, got {nv}"
        )
    units = max(1, round(1.0 / step))

    blocks, covered_rows = _find_simplex_blocks(problem.a_eq, problem.b_eq)
    supports = [support for _, support in blocks]
    candidates = [
        _block_candidates(kind, support.size, units) for kind, support in blocks
    ]

    # classify constraint rows: handled by construction / single block / cross
    eq_rows = [
        (problem.a_eq[r], float(problem.b_eq[r]), True)
        for r in range(problem.b_eq.shape[0])
        if r not in covered_rows
    ]
    in_rows = [
        (problem.a_in[r], float(problem.b_in[r]), False)
        for r in range(problem.b_in.shape[0])
    ]
    cross = []
    for coeffs, target, is_eq in eq_rows + in_rows:
        touching = [
            bi for bi, support in enumerate(supports)
            if np.any(coeffs[support] != 0.0)
        ]
        if len(touching) <= 1:
            bi = touching[0] if touching else 0
            support = supports[bi]
            vals = candidates[bi] @ coeffs[support]
            if is_eq:
                keep = np.abs(vals - target) <= step
            else:
                keep = vals >= target - step
            candidates[bi] = candidates[bi][keep]
        else:
            cross.append((coeffs, target, is_eq))

    for bi, cand in enumerate(candidates):
        if cand.shape[0] == 0:
            return QpSolution(
                w=np.zeros(nv),
                objective=-np.inf,
                status=QpStatus.INFEASIBLE,
                certificate=f"no grid point satisfies the block-{bi} constraints",
            )

    # per-block objective contributions
    scores = []
    for support, cand in zip(supports, candidates):
        c_blk = problem.c[support]
        q_blk = problem.q[support]
        scores.append(cand @ c_blk - (cand * cand) @ q_blk)

    # cross-block rows that no candidate combination can violate are dropped
    live_cross = []
    for coeffs, target, is_eq in cross:
        contrib = [cand @ coeffs[support] for support, cand in zip(supports, candidates)]
        lo = sum(float(v.min()) for v in contrib)
        hi = sum(float(v.max()) for v in contrib)
        slop = 1e-9 * (1.0 + abs(target))
        if is_eq:
            if hi - target <= step + slop and target - lo <= step + slop:
                continue
        elif lo >= target - step - slop:
            continue
        live_cross.append((coeffs, target, is_eq, contrib))

    if not live_cross:
        w = np.zeros(nv)
        total = 0.0
        for support, cand, sc in zip(supports, candidates, scores):
            best = int(np.argmax(sc))
            w[support] = cand[best]
            total += float(sc[best])
        return QpSolution(w=w, objective=total, status=QpStatus.OPTIMAL)

    # coupled case: enumerate the candidate product
    counts = [cand.shape[0] for cand in candidates]
    n_points = math.prod(counts)
    if n_points > _ORACLE_MAX_POINTS:
        raise ValueError(
            f"grid too large: {n_points} coupled candidate combinations"
        )
    grids = np.meshgrid(*[np.arange(cnt) for cnt in counts], indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)

    total = np.zeros(n_points)
    for bi, sc in enumerate(scores):
        total += sc[idx[:, bi]]
    feasible = np.ones(n_points, dtype=bool)
    for coeffs, target, is_eq, contrib in live_cross:
        vals = np.zeros(n_points)
        for bi, v in enumerate(contrib):
            vals += v[idx[:, bi]]
        if is_eq:
            feasible &= np.abs(vals - target) <= step
        else:
            feasible &= vals >= target - step
    if not feasible.any():
        return QpSolution(
            w=np.zeros(nv),
            objective=-np.inf,
            status=QpStatus.INFEASIBLE,
            certificate="no grid point satisfies the coupling constraints",
        )
    total[~feasible] = -np.inf
    best = int(np.argmax(total))
    w = np.zeros(nv)
    for bi, (support, cand) in enumerate(zip(supports, candidates)):
        w[support] = cand[idx[best, bi]]
    return QpSolution(w=w, objective=float(total[best]), status=QpStatus.OPTIMAL)


def build_subset_problem(v: AccuracyMatrix, params, subset) -> QpProblem:
    """Continuous weight subproblem of a fixed subset, for the grid oracle.

    Variables are the selected classifiers' weights in classifier-major
    order; unselected rows are fixed at zero by omission. The inequality
    block carries, in order: the per-class accuracy floors (8) and the
    per-selected-classifier weight floors from (7). The overall floor (9)
    is the average of the (8) rows, so it is implied and left out.
    """
    vals = v.values
    m = vals.shape[1]
    k = len(subset)
    nv = k * m
    lam, alpha, eps = params.lam, params.alpha, params.epsilon

    sub = vals[list(subset), :]  # (k, m)
    c = (sub / m - lam * alpha).reshape(nv)
    q = np.full(nv, lam * (1.0 - alpha) / 2.0)

    a_eq = np.zeros((m, nv))
    for j in range(m):
        a_eq[j, j::m] = 1.0
    b_eq = np.ones(m)

    a_in = np.zeros((m + k, nv))
    b_in = np.empty(m + k)
    for j in range(m):
        a_in[j, j::m] = sub[:, j]
        b_in[j] = vals[:, j].mean() + eps
    for li in range(k):
        a_in[m + li, li * m:(li + 1) * m] = 1.0
        b_in[m + li] = eps
    return QpProblem(q, c, a_eq, b_eq, a_in, b_in)
