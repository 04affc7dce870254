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
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyMatrix,
    HyperParams,
    ObjectiveBreakdown,
    SelectionVector,
    WeightMatrix,
    objective_terms,
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
# nodes branch-and-bound expands before it gives up with SolverIncomplete
MAX_NODES = 100_000


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


class _Leaves:
    """Every subset one search solves, ranked once when the search ends.

    It works out the pool's class floors (8) ``f`` once. Both searches feed
    ``add`` (B, K) batches of sorted subsets. It keeps their objectives and
    outcome counts, and weights only within TIE_TOL of the running best.
    """

    def __init__(self, v, params):
        self.v, self.params = v, params
        self.f = v.values.mean(axis=0) + params.epsilon
        # empty first entries, so that a search that solves nothing ranks nothing
        self.subsets = [np.empty((0, params.k), dtype=np.intp)]
        self.objectives = [np.empty(0)]
        self.near = []  # (objective, subset, weights)
        self.best = -math.inf
        self.counts = np.zeros(5, dtype=np.int64)  # per subsetsolve outcome code

    def add(self, subsets: np.ndarray) -> float:
        """Solve ``subsets``; return the best objective so far, -inf if none.
        A subset the batched solver leaves unresolved raises SolverIncomplete."""
        p = self.params
        batch = subsetsolve.solve_batch(self.v.values[subsets], self.f, p.lam, p.alpha,
                                        p.epsilon)
        unresolved = np.flatnonzero(batch.status == subsetsolve.UNRESOLVED)
        if unresolved.size:
            subset = tuple(int(i) for i in subsets[unresolved[0]])
            raise SolverIncomplete(
                f"subset {subset}: neither an optimum nor infeasibility could be "
                "certified, so the optimum is not established",
                subset=subset,
            )
        self.counts += np.bincount(batch.status, minlength=5)
        objective, weights = batch.objective, batch.weights
        self.subsets.append(subsets)
        self.objectives.append(objective)
        top = np.fmax.reduce(objective)  # nan when the whole batch is infeasible
        if top > self.best:
            self.best = float(top)
            self.near = [c for c in self.near if c[0] >= self.best - TIE_TOL]
        self.near += [(float(objective[b]), tuple(subsets[b].tolist()), weights[b])
                      for b in np.flatnonzero(objective >= self.best - TIE_TOL)]
        return self.best

    def solution(self, **search) -> MipSolution:
        """Rank every solved subset and return the winner, as
        ``solve_weighting`` states; ``search`` sets the branch-and-bound
        counts of SolveStats."""
        subsets = np.concatenate(self.subsets)
        objective = np.concatenate(self.objectives)
        infeasible = np.isnan(objective)
        # best first, infeasible last, ties in subset order (the last key leads)
        order = np.lexsort((*subsets.T[::-1], np.where(infeasible, np.inf, -objective)))
        n_infeasible = int(np.count_nonzero(infeasible))  # ranked last
        n_feasible = len(order) - n_infeasible
        statuses = [QpStatus.OPTIMAL] * n_feasible + [QpStatus.INFEASIBLE] * n_infeasible
        objectives = objective[order[:n_feasible]].tolist() + [None] * n_infeasible
        rank = tuple(map(SubsetResult, map(tuple, subsets[order].tolist()), statuses,
                         objectives))
        if not self.near:
            raise AllSubsetsInfeasible(
                f"all subsets of size {self.params.k} are infeasible: no weighting "
                "beats the uniform accuracy floors",
                subset_rank=rank,
            )
        _, subset, w_sub = min(self.near, key=lambda c: c[1])
        rows = list(subset)
        w = np.zeros((self.v.n, self.v.m))
        w[rows] = w_sub
        terms = objective_terms(self.v.values[rows], w_sub, self.params.lam,
                                self.params.alpha)
        counts = self.counts[[subsetsolve.SCREENED, subsetsolve.CLOSED_FORM,
                              subsetsolve.ACTIVE_SET, subsetsolve.INFEASIBLE]]
        return MipSolution(
            selection=SelectionVector.from_indices(subset, self.v.n),
            weights=WeightMatrix(w),
            objective=ObjectiveBreakdown(*map(float, terms)),
            subset_rank=rank,
            stats=SolveStats(len(order), *counts.tolist(), **search),
        )


def solve_weighting(
    v: AccuracyMatrix, params: HyperParams, method: str = "auto"
) -> MipSolution:
    """Globally optimal selection + weights for ensemble size ``params.k``.

    method: "enumerate" solves every C(n, K) subset, "bnb" runs best-first
    branch-and-bound on a per-class top-K bound, and "auto" enumerates up
    to ENUMERATE_MAX (500) subsets and runs branch-and-bound above that.
    Enumeration solves the subsets CHUNK (128) at a time on the calling
    thread. Of the subsets whose objectives lie within TIE_TOL (1e-9) of
    the best, the lexicographically smallest wins; branch-and-bound
    reaches every such subset, so both methods pick the same one.
    ``subset_rank`` holds every subset under enumeration and the solved
    leaves under branch-and-bound, best objective first, infeasible last,
    equal objectives in subset order.

    Raises AllSubsetsInfeasible, with the same message under both methods,
    when no subset admits feasible weights and SolverIncomplete when a
    subset's optimum cannot be certified.
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

    leaves = _Leaves(v, params)
    subsets = enumerate_subsets(n, params.k)
    while chunk := list(itertools.islice(subsets, CHUNK)):
        leaves.add(np.array(chunk, dtype=np.intp))
    return leaves.solution()


# --- branch and bound over the selection ----------------------------------------


def _solve_bnb(v, params) -> MipSolution:
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
    leaves = _Leaves(v, params)
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
        if nodes > MAX_NODES:
            raise SolverIncomplete(
                f"branch-and-bound exceeded {MAX_NODES} nodes before closing "
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
            leaves.f, params.lam, params.alpha)
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
            incumbent = leaves.add(subsets)
        if diving and incumbent > -math.inf:
            heapq.heapify(frontier)

    return leaves.solution(nodes=nodes, pruned=pruned, bound_calls=bound_calls)


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
    passes at ``tol``. Each check reports the worst entry of its family, as
    the absolute deviation of an equality or the amount by which an
    inequality is missed, and 0.0 where nothing is missed. ``tol`` must be
    finite and >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    vals = v.values
    n, m = vals.shape
    w = weights.w
    x = np.asarray(selection.x, dtype=np.float64)
    if w.shape != (n, m) or x.shape != (n,):
        raise ValueError("weights/selection shape does not match the accuracy matrix")
    clf, cls = v.classifiers.names, v.classes.names
    row_sums = w.sum(axis=1)
    # (id, name, gap that is positive where an entry misses the constraint,
    # place, names along the gap's axes); the gap of (3) is clipped at 0 so
    # that, with no negative weight, the place is the first cell; an
    # unselected row meets (7) at any M >= eps, so its gap is -inf
    table = (
        (2, "binary-selection", np.minimum(np.abs(x), np.abs(x - 1.0)),
         "classifier {}", (clf,)),
        (3, "nonnegative-weights", np.maximum(0.0, -w), "({}, {})", (clf, cls)),
        (4, "ensemble-size", abs(float(x.sum()) - params.k), "global", ()),
        (5, "class-weight-sum", np.abs(w.sum(axis=0) - 1.0), "class {}", (cls,)),
        (6, "unselected-zero-weights", row_sums - m * x, "classifier {}", (clf,)),
        (7, "selected-weight-floor", np.where(x == 1.0, params.epsilon - row_sums, -np.inf),
         "classifier {}", (clf,)),
        (8, "per-class-accuracy",
         vals.mean(axis=0) + params.epsilon - (w * vals).sum(axis=0), "class {}", (cls,)),
        (9, "overall-accuracy", vals.mean() + params.epsilon - (w * vals).sum() / m,
         "global", ()),
    )
    checks = []
    for constraint_id, name, gap, where, axes in table:
        gap = np.asarray(gap)
        at = np.unravel_index(np.argmax(gap), gap.shape)
        worst = float(gap[at])
        checks.append(ConstraintCheck(
            constraint_id, name, worst <= tol, max(0.0, worst),
            where.format(*(names[i] for names, i in zip(axes, at)))))
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
    epsilon: float = HyperParams.epsilon,
) -> TuneResult:
    """Coordinate-wise hill climb over (lam, alpha).

    For lam first and alpha second, the climb tries one step up, then one
    step down, and keeps stepping in the first direction that strictly
    improves ``score(weights)``; it stops at the first non-improvement.
    lam stays >= 0 and alpha inside [0, 1]. ``score`` must be deterministic.
    """
    d_lam, d_alpha = steps
    if not (0.0 < d_lam < math.inf and 0.0 < d_alpha < math.inf):
        raise ValueError("step sizes must be positive and finite")

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
