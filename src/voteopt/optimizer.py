"""Exact selection of K classifiers and their per-class weights.

The mixed-integer model is solved exactly: the binary selection layer is
enumerated (or branch-and-bound searched for large pools, on a closed-form
per-class bound) and the candidate subsets' continuous weight problems are
solved in batches, in closed form, by an exact active-set step or at a
simplex-chosen vertex (:mod:`voteopt.subsetsolve`), each answer certified
by its KKT conditions. The weight model, stated over accuracies ``v`` and
weights ``w``:

    maximize (1/m) sum_ij w_ij v_ij
             - lam * (alpha * sum_ij w_ij + (1-alpha)/2 * sum_ij w_ij**2)

subject to the constraint families, numbered as in the package README:

    (2) x_i in {0, 1}                 (3) w_ij >= 0
    (4) sum_i x_i == K                (5) sum_i w_ij == 1 per class
    (6) sum_j w_ij <= m * x_i         (7) sum_j w_ij + M(1 - x_i) >= eps
    (8) sum_i w_ij v_ij >= mean_i(v_ij) + eps per class
    (9) (1/m) sum_ij w_ij v_ij >= mean_ij(v_ij) + eps

The (8)/(9) right-hand averages always divide by the full pool size n, not
the subset size.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    AccuracyMatrix,
    HyperParams,
    ObjectiveBreakdown,
    SelectionVector,
    WeightMatrix,
    objective_value,
)
from . import subsetsolve
from .qpsolve import QpStatus

TIE_TOL = 1e-9
VALIDATION_TOL = 1e-6
# subsets solved per batch: memory stays flat for any C(n, K), and batch
# temporaries stay small enough that the allocator returns them
CHUNK = 128
# most open nodes a branch-and-bound step expands: their children fit one CHUNK
FRONTIER = CHUNK // 2
# method="auto" enumerates up to this many subsets, the measured crossover
ENUMERATE_MAX = 500
# M of the literal (7) check in validate_constraints; no solver uses it. With
# binary x and w >= 0 an unselected row's gap eps - rowsum - M is <= 0 for
# any M >= 1e-3 >= eps, so M changes neither the verdict nor the violation.
BIG_M = 1e6


class AllSubsetsInfeasible(RuntimeError):
    """No classifier subset admits weights satisfying the accuracy floors.

    Happens when no weighting can beat the uniform per-class average by the
    required margin, e.g. a single classifier or identical per-class
    accuracies.
    """

    def __init__(self, message: str, subset_rank=()):
        super().__init__(message)
        self.subset_rank = tuple(subset_rank)


class SolverIncomplete(RuntimeError):
    """The exact search could not finish, so optimality is not established.

    Raised when the batched solver certifies neither an optimum nor
    infeasibility for a subset (``subset`` names it) or branch-and-bound
    exceeds its node limit.
    """

    def __init__(self, message: str, subset=None):
        super().__init__(message)
        self.subset = subset


@dataclass(frozen=True)
class SolveStats:
    """What one solve did, as deterministic counts.

    ``enumerated`` subsets were examined; of those, ``screened`` were
    rejected up front (some class floor (8) above every member's accuracy),
    ``closed_form`` and ``active_set`` were solved and certified by the
    batched kernel (``active_set`` counts the simplex-chosen vertices too),
    and ``infeasible`` were proven infeasible after screening; the four sum
    to ``enumerated``. Branch-and-bound expanded ``nodes`` nodes, discarded
    ``pruned`` by their bound or as infeasible, and made ``bound_calls``
    calls to ``subsetsolve.relaxed_objective``; all three are 0 under
    enumeration.
    """

    enumerated: int = 0
    screened: int = 0
    closed_form: int = 0
    active_set: int = 0
    infeasible: int = 0
    nodes: int = 0
    pruned: int = 0
    bound_calls: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(SolveStats)})


@dataclass(frozen=True)
class SubsetResult:
    """Outcome of one candidate subset's weight subproblem."""

    subset: tuple[int, ...]
    status: QpStatus
    objective: float | None


@dataclass(frozen=True)
class MipSolution:
    selection: SelectionVector
    weights: WeightMatrix
    objective: ObjectiveBreakdown
    subset_rank: tuple[SubsetResult, ...]
    stats: SolveStats


@dataclass(frozen=True)
class ConstraintCheck:
    constraint_id: int
    name: str
    satisfied: bool
    worst_violation: float
    location: str | None = None


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    tol: float

    @property
    def conformant(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def check(self, constraint_id: int) -> ConstraintCheck:
        for c in self.checks:
            if c.constraint_id == constraint_id:
                return c
        raise KeyError(constraint_id)


def enumerate_subsets(n: int, k: int):
    """All size-k classifier index subsets, lexicographic."""
    if n < 1 or n > 30:
        raise ValueError(f"classifier pool size must be in 1..30, got {n}")
    if k < 1 or k > n:
        raise ValueError(f"ensemble size must be in 1..{n}, got {k}")
    return itertools.combinations(range(n), k)


def _embed(w_sub: np.ndarray, subset, n: int) -> np.ndarray:
    w = np.zeros((n, w_sub.shape[1]))
    w[list(subset)] = w_sub
    return w


def _solve_subsets(v, params, subsets: np.ndarray):
    """Optimal objective and (K, m) weights of every row of ``subsets``.

    Returns objectives (nan where infeasible), weights and the SolveStats of
    this batch; raises SolverIncomplete for a subset the batched solver
    leaves unresolved.
    """
    batch = subsetsolve.solve_batch(v.values, subsets, params.lam, params.alpha,
                                    params.epsilon)
    unresolved = np.flatnonzero(batch.status == subsetsolve.UNRESOLVED)
    if unresolved.size:
        subset = tuple(int(i) for i in subsets[unresolved[0]])
        raise SolverIncomplete(
            f"subset {subset}: neither an optimum nor infeasibility could be "
            "certified, so the optimum is not established",
            subset=subset,
        )
    counts = np.bincount(batch.status, minlength=5)
    stats = SolveStats(
        enumerated=len(subsets),
        screened=int(counts[subsetsolve.SCREENED]),
        closed_form=int(counts[subsetsolve.CLOSED_FORM]),
        active_set=int(counts[subsetsolve.ACTIVE_SET]),
        infeasible=int(counts[subsetsolve.INFEASIBLE]),
    )
    return batch.objective, batch.weights, stats


def _ranked(results) -> tuple[SubsetResult, ...]:
    """Best objective first, infeasible last; ``results`` come in subset
    order, which the stable sort keeps among equal objectives."""
    key = np.array([-r.objective if r.objective is not None else math.inf
                    for r in results])
    return tuple(results[i] for i in np.argsort(key, kind="stable").tolist())


def _pick(candidates):
    """The lexicographically smallest subset within TIE_TOL of the best.

    ``candidates`` holds (objective, subset, weights) triples.
    """
    best = max(obj for obj, _, _ in candidates)
    return min((c for c in candidates if c[0] >= best - TIE_TOL),
               key=lambda c: c[1])


def _solution(v, params, winner, results, stats) -> MipSolution:
    _, subset, w_sub = winner
    weights = WeightMatrix(_embed(w_sub, subset, v.n))
    return MipSolution(
        selection=SelectionVector.from_indices(subset, v.n),
        weights=weights,
        objective=objective_value(v, weights, params),
        subset_rank=_ranked(results),
        stats=stats,
    )


def solve_weighting(
    v: AccuracyMatrix, params: HyperParams, method: str = "auto"
) -> MipSolution:
    """Globally optimal selection + weights for ensemble size ``params.k``.

    method: "enumerate" solves every C(n, K) subset, "bnb" runs best-first
    branch-and-bound on a per-class top-K bound, and "auto" enumerates up
    to ENUMERATE_MAX (500) subsets and runs branch-and-bound above that.
    Of the subsets whose objectives lie within TIE_TOL (1e-9) of the best,
    the lexicographically smallest wins; branch-and-bound reaches every
    such subset, so both methods pick the same one. Enumeration solves the
    subsets CHUNK (128) at a time on the calling thread.

    Raises AllSubsetsInfeasible when no subset admits feasible weights and
    SolverIncomplete when a subset's optimum cannot be certified.
    """
    n = v.n
    if params.k > n:
        raise ValueError(f"ensemble size {params.k} exceeds pool size {n}")
    if method not in ("auto", "enumerate", "bnb"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        # enumeration takes pools of at most 30 classifiers
        small = n <= 30 and math.comb(n, params.k) <= ENUMERATE_MAX
        method = "enumerate" if small else "bnb"
    if method == "bnb":
        return _solve_bnb(v, params)

    subsets = enumerate_subsets(n, params.k)
    results: list[SubsetResult] = []
    candidates = []  # (objective, subset, weights) within TIE_TOL of the best so far
    best = -math.inf
    stats = SolveStats()
    while chunk := list(itertools.islice(subsets, CHUNK)):
        objective, weights, chunk_stats = _solve_subsets(
            v, params, np.array(chunk, dtype=np.intp))
        stats += chunk_stats
        for subset, obj in zip(chunk, objective.tolist()):
            if math.isnan(obj):
                results.append(SubsetResult(subset, QpStatus.INFEASIBLE, None))
            else:
                results.append(SubsetResult(subset, QpStatus.OPTIMAL, obj))
        if np.all(np.isnan(objective)):
            continue
        best = max(best, float(np.nanmax(objective)))
        near = np.flatnonzero(objective >= best - TIE_TOL)
        candidates = [c for c in candidates if c[0] >= best - TIE_TOL] + [
            (float(objective[b]), chunk[b], weights[b]) for b in near
        ]

    if not candidates:
        raise AllSubsetsInfeasible(
            f"all {len(results)} subsets of size {params.k} are infeasible: "
            "no weighting beats the uniform accuracy floors",
            subset_rank=_ranked(results),
        )
    return _solution(v, params, _pick(candidates), results, stats)


# --- branch and bound over the selection ----------------------------------------


def _solve_bnb(v, params, max_nodes: int = 100_000) -> MipSolution:
    """Best-first branch-and-bound on a per-class top-K bound (Land & Doig 1960).

    Classifiers are decided in one fixed order, by descending row sum, each
    included before it is excluded. A node's bound gives every class the
    included rows plus the undecided rows with its largest accuracies and
    drops (7); see ``subsetsolve.relaxed_objective``. Moving weight to a
    higher accuracy keeps the floor (8) and cannot lower a class's value,
    and dropping (7) can only raise it, so the bound holds for every
    completion of the node. Until it solves a feasible leaf the search dives,
    one node at a time and include first; then each step expands the best
    open nodes, 1, 2, 4, ... up to ``FRONTIER``, bounds all their children in
    one call and solves the leaves they determine in one batch. Nodes are
    pruned when infeasible or below the incumbent by more than TIE_TOL, so
    every subset within TIE_TOL of the best is solved and the tie rule picks
    the subset enumeration picks.
    """
    vals = v.values
    n, k = v.n, params.k
    f = vals.mean(axis=0) + params.epsilon
    order = np.argsort(-vals.sum(axis=1), kind="stable")
    # the rows of vals, then from row n (d + 1) each class column of the
    # undecided rows order[d:], descending, padded to n rows by -inf
    undecided = np.argsort(order)[:, None] >= np.arange(n + 1)[:, None, None]
    tops = -np.sort(np.where(undecided, -vals, np.inf), axis=1)
    src = np.concatenate([vals, tops.reshape(-1, vals.shape[1])])
    order = np.concatenate([order, np.zeros(k, dtype=np.intp)])
    pos = np.arange(k)
    counter = itertools.count()
    # open nodes (-bound, tie-break, included rows in decision order and
    # padded to k, count included, depth): a stack while diving, then a heap
    frontier = [(-math.inf, next(counter), pos, 0, 0)]
    leaves = []  # (objective, subset, weights) of every feasible leaf
    explored: list[SubsetResult] = []
    stats = SolveStats()
    incumbent = -math.inf
    nodes, pruned, bound_calls, step = 0, 0, 0, 1

    while frontier:
        diving = incumbent == -math.inf
        if diving:
            batch = [frontier.pop()]
        else:
            batch = []
            while frontier and len(batch) < step:
                node = heapq.heappop(frontier)
                if -node[0] < incumbent - TIE_TOL:
                    pruned += 1
                else:
                    batch.append(node)
            step = min(2 * step, FRONTIER)
        if not batch:
            break
        nodes += len(batch)
        if nodes > max_nodes:
            raise SolverIncomplete(
                f"branch-and-bound exceeded {max_nodes} nodes before closing "
                "the search"
            )
        # the children: each node without its next row, then each with it
        inc = np.array([node[2] for node in batch] * 2)
        count, depth = np.array([node[3:] for node in batch] * 2).T
        half = np.arange(len(batch), 2 * len(batch))
        inc[half, count[half]] = order[depth[half]]
        count[half] += 1
        depth += 1
        lo = int(count[0] + n - depth[0] < k)  # 1 only at the root, for n = K
        inc, count, depth = inc[lo:], count[lo:], depth[lo:]
        taken, rest = pos < count[:, None], pos - count[:, None]
        bounds = subsetsolve.relaxed_objective(
            src[np.where(taken, inc, n * depth[:, None] + n + rest)],
            f, params.lam, params.alpha)
        bound_calls += 1
        leaf = []
        push = frontier.append if diving else lambda node: heapq.heappush(frontier, node)
        for b, (bound, c, d) in enumerate(zip(bounds.tolist(), count.tolist(),
                                              depth.tolist())):
            if bound == -math.inf or bound < incumbent - TIE_TOL:
                pruned += 1
            elif c == k or c + n - d == k:  # K rows, or needs every undecided row
                leaf.append(b)
            else:
                push((-bound, next(counter), inc[b], c, d))
        if leaf:
            subsets = np.where(taken, inc, order[depth[:, None] + rest])[leaf]
            subsets.sort(axis=1)
            objective, weights, leaf_stats = _solve_subsets(v, params, subsets)
            stats += leaf_stats
            for subset, obj, w in zip(map(tuple, subsets.tolist()), objective.tolist(),
                                      weights):
                if math.isnan(obj):
                    explored.append(SubsetResult(subset, QpStatus.INFEASIBLE, None))
                else:
                    explored.append(SubsetResult(subset, QpStatus.OPTIMAL, obj))
                    leaves.append((obj, subset, w))
                    incumbent = max(incumbent, obj)
        if diving and incumbent > -math.inf:
            heapq.heapify(frontier)

    stats = replace(stats, nodes=nodes, pruned=pruned, bound_calls=bound_calls)
    explored.sort(key=lambda r: r.subset)
    if not leaves:
        raise AllSubsetsInfeasible(
            f"all subsets of size {k} are infeasible",
            subset_rank=_ranked(explored),
        )
    return _solution(v, params, _pick(leaves), explored, stats)


# --- literal constraint validation ------------------------------------------


def validate_constraints(
    v: AccuracyMatrix,
    weights: WeightMatrix,
    selection: SelectionVector,
    params: HyperParams,
    tol: float = VALIDATION_TOL,
) -> ConstraintReport:
    """Check a candidate solution against every constraint family (2)-(9).

    Always returns a full report; a solution is conformant iff every check
    passes at ``tol``. Equality families report absolute deviation,
    inequality families the amount by which the bound is missed.
    """
    vals = v.values
    n, m = vals.shape
    w = weights.w
    x = np.asarray(selection.x, dtype=np.float64)
    if w.shape != (n, m) or x.shape != (n,):
        raise ValueError("weights/selection shape does not match the accuracy matrix")
    clf = v.classifiers.names
    cls = v.classes.names
    checks = []

    dist = np.minimum(np.abs(x), np.abs(x - 1.0))
    i = int(np.argmax(dist))
    checks.append(ConstraintCheck(
        2, "binary-selection", bool(dist[i] <= tol), float(dist[i]), f"classifier {clf[i]}"
    ))

    neg = np.maximum(0.0, -w)
    i, j = np.unravel_index(np.argmax(neg), neg.shape)
    checks.append(ConstraintCheck(
        3, "nonnegative-weights", bool(neg[i, j] <= tol), float(neg[i, j]),
        f"({clf[i]}, {cls[j]})"
    ))

    dev = abs(float(x.sum()) - params.k)
    checks.append(ConstraintCheck(
        4, "ensemble-size", bool(dev <= tol), dev, "global"
    ))

    col_dev = np.abs(w.sum(axis=0) - 1.0)
    j = int(np.argmax(col_dev))
    checks.append(ConstraintCheck(
        5, "class-weight-sum", bool(col_dev[j] <= tol), float(col_dev[j]), f"class {cls[j]}"
    ))

    row_sums = w.sum(axis=1)
    over = row_sums - m * x
    i = int(np.argmax(over))
    checks.append(ConstraintCheck(
        6, "unselected-zero-weights", bool(over[i] <= tol), float(max(0.0, over[i])),
        f"classifier {clf[i]}"
    ))

    floor_gap = params.epsilon - (row_sums + BIG_M * (1.0 - x))
    i = int(np.argmax(floor_gap))
    checks.append(ConstraintCheck(
        7, "selected-weight-floor", bool(floor_gap[i] <= tol),
        float(max(0.0, floor_gap[i])), f"classifier {clf[i]}"
    ))

    class_gap = vals.mean(axis=0) + params.epsilon - (w * vals).sum(axis=0)
    j = int(np.argmax(class_gap))
    checks.append(ConstraintCheck(
        8, "per-class-accuracy", bool(class_gap[j] <= tol),
        float(max(0.0, class_gap[j])), f"class {cls[j]}"
    ))

    overall_gap = vals.mean() + params.epsilon - (w * vals).sum() / m
    checks.append(ConstraintCheck(
        9, "overall-accuracy", bool(overall_gap <= tol), float(max(0.0, overall_gap)),
        "global"
    ))
    return ConstraintReport(tuple(checks), tol)


# --- hyper-parameter tuning ---------------------------------------------------


@dataclass(frozen=True)
class TuneResult:
    lam: float
    alpha: float
    score: float
    solution: MipSolution


def tune_hyperparams(
    v: AccuracyMatrix,
    k: int,
    start: tuple[float, float],
    steps: tuple[float, float],
    score,
    epsilon: float = 1e-6,
) -> TuneResult:
    """Coordinate-wise hill climb over (lam, alpha).

    For lam first and alpha second, the climb tries one step up, then one
    step down, and keeps stepping in the first direction that strictly
    improves ``score(weights)``; it stops at the first non-improvement.
    lam stays >= 0 and alpha inside [0, 1]. ``score`` must be deterministic.
    """
    d_lam, d_alpha = steps
    if d_lam <= 0 or d_alpha <= 0:
        raise ValueError("step sizes must be positive")

    cache: dict[tuple[float, float], tuple[float, MipSolution]] = {}

    def evaluate(lam: float, alpha: float) -> tuple[float, MipSolution]:
        key = (lam, alpha)
        if key not in cache:
            params = HyperParams(k=k, lam=lam, alpha=alpha, epsilon=epsilon)
            solution = solve_weighting(v, params)
            cache[key] = (float(score(solution.weights)), solution)
        return cache[key]

    lam, alpha = float(start[0]), float(start[1])
    best_score, best_sol = evaluate(lam, alpha)

    def climb(value, delta, lo, hi, apply):
        nonlocal best_score, best_sol
        for direction in (+1.0, -1.0):
            moved = False
            while True:
                cand = min(hi, max(lo, value + direction * delta))
                if cand == value:
                    break
                cand_score, cand_sol = apply(cand)
                if cand_score > best_score:
                    value = cand
                    best_score, best_sol = cand_score, cand_sol
                    moved = True
                else:
                    break
            if moved:
                break
        return value

    lam = climb(lam, d_lam, 0.0, math.inf, lambda c: evaluate(c, alpha))
    alpha = climb(alpha, d_alpha, 0.0, 1.0, lambda c: evaluate(lam, c))
    return TuneResult(lam=lam, alpha=alpha, score=best_score, solution=best_sol)
