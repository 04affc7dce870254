"""Each benchmark check rejects a planted wrong answer and accepts the right one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import inputs
import layertrace
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _d2():
    _, _, vals = inputs.read_d2()
    return vals


def _paper_solution(vals, k):
    """The benchmark's own optimum for D2 at the paper defaults."""
    optima = checks.subset_optima(vals, k, 0.95, 0.85)
    best = max((s for s in optima if optima[s] is not None), key=optima.get)
    return optima, best


def test_subset_optimum_matches_program():
    import voteopt as vo

    vals = _d2()
    v = vo.AccuracyMatrix(vals, vo.ClassifierSet(tuple("abcdefgh")),
                          vo.ClassSet(("n1", "a1", "a2", "a3", "a4")))
    sol = vo.solve_weighting(v, vo.HyperParams(k=3))
    optima, best = _paper_solution(vals, 3)
    assert sol.selection.indices == best
    checks.check_solution(vals, sol.weights.w, sol.selection.x, 3, 0.95, 0.85,
                          sol.objective.total, optima)


def test_violated_class_floor_is_rejected():
    vals = _d2()
    n, m = vals.shape
    # the weakest classifier alone carries every class: a class floor (8) fails
    worst = int(np.argmin(vals.sum(axis=1)))
    w = np.zeros((n, m))
    w[worst] = 1.0
    x = np.zeros(n, dtype=int)
    x[worst] = 1
    with pytest.raises(checks.CheckFailed, match=r"\(8\)"):
        checks.check_constraints(vals, w, x, 1)
    # the best classifier per class clears every floor
    w = np.zeros((n, m))
    w[np.argmax(vals, axis=0), np.arange(m)] = 1.0
    x = (w.sum(axis=1) > 0).astype(int)
    checks.check_constraints(vals, w, x, int(x.sum()))


def test_non_optimal_subset_is_rejected():
    vals = _d2()
    optima, best = _paper_solution(vals, 4)
    checks.check_optimal(optima, best)
    worse = next(s for s in itertools.combinations(range(8), 4)
                 if optima[s] is not None and optima[best] - optima[s] > 1e-6)
    with pytest.raises(checks.CheckFailed, match="below the optimum"):
        checks.check_optimal(optima, worse)
    # a gap just over the tie tolerance is enough
    nudged = dict(optima)
    nudged[best] = optima[best] - 2 * checks.TIE_TOL
    runner_up = max((s for s in optima if s != best and optima[s] is not None),
                    key=optima.get)
    nudged[runner_up] = optima[best]
    with pytest.raises(checks.CheckFailed):
        checks.check_optimal(nudged, best)


def test_known_fault_excuses_only_a_small_optimality_gap():
    vals = _d2()
    n, m = vals.shape
    # the best classifier per class carries that class: a feasible weighting
    w = np.zeros((n, m))
    w[np.argmax(vals, axis=0), np.arange(m)] = 1.0
    x = (w.sum(axis=1) > 0).astype(int)
    k = int(x.sum())
    subset = tuple(int(i) for i in np.flatnonzero(x))
    other = next(s for s in itertools.combinations(range(n), k) if s != subset)
    reported = checks.objective(vals, w, 0.95, 0.85)

    def below_optimum_by(gap):
        return {subset: 0.5, other: 0.5 + gap}

    def fault(w=w, reported=reported, gap=8e-9):
        checks.check_known_fault(vals, w, x, k, 0.95, 0.85, reported, below_optimum_by(gap))

    with pytest.raises(checks.KnownFault):
        fault()
    # a larger gap, a misreported objective or a violated constraint is
    # never the known fault
    for planted in (dict(gap=1e-6), dict(reported=reported + 1e-6),
                    dict(w=2 * w, reported=checks.objective(vals, 2 * w, 0.95, 0.85))):
        with pytest.raises(checks.CheckFailed) as exc:
            fault(**planted)
        assert not isinstance(exc.value, checks.KnownFault)


def test_only_the_known_fault_leaves_a_run_correct():
    import run

    def failing(exc):
        def check(_):
            raise exc
        return check

    ops = [workloads.Op("ok", lambda: None, lambda _: None),
           workloads.Op("known", lambda: None, failing(checks.KnownFault("8e-9 gap"))),
           workloads.Op("other", lambda: None, failing(checks.CheckFailed("(8) floor")))]
    refs = SimpleNamespace(age=lambda: 0.0, measure=lambda: 0.0)
    _, attempted, failed, unexpected, _ = run.run_passes(ops, refs, 0.0, None)
    assert (attempted, failed, unexpected) == (3, 2, ["other"])


def test_misreported_objective_is_rejected():
    vals = _d2()
    w = np.zeros_like(vals)
    w[0] = 1.0
    good = checks.objective(vals, w, 0.95, 0.85)
    checks.check_objective(good, vals, w, 0.95, 0.85)
    with pytest.raises(checks.CheckFailed):
        checks.check_objective(good + 1e-9, vals, w, 0.95, 0.85)


def _preds(rows=50, seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 3, size=rows)
    scores = inputs.soft_scores(rng, np.full((2, 3), 0.8), truth)
    names = SimpleNamespace(names=("a", "b"))
    return SimpleNamespace(instance_ids=tuple(f"i{t}" for t in range(rows)),
                           true_classes=truth, scores=scores, classifiers=names,
                           classes=SimpleNamespace(names=("x", "y", "z")))


def test_round_trip_corrupted_in_last_digit_is_rejected():
    original = _preds()
    check = workloads.PredictionIO(0, ".")._check_read(original)
    check(SimpleNamespace(**vars(original)))
    scores = original.scores.copy()
    scores[7, 1, 2] = np.nextafter(scores[7, 1, 2], 1.0)
    with pytest.raises(checks.CheckFailed, match="scores differ"):
        check(SimpleNamespace(**{**vars(original), "scores": scores}))


def _auprc_ungrouped(score, positive):
    order = np.argsort(-score, kind="stable")
    pos = positive[order]
    tp = np.cumsum(pos)
    recall = tp / pos.sum()
    precision = tp / np.arange(1, pos.size + 1)
    r = np.concatenate(([0.0], recall))
    p = np.concatenate(([precision[0]], precision))
    return float(np.sum(np.diff(r) * (p[:-1] + p[1:]) / 2.0))


def test_auprc_matches_program_and_rejects_ungrouped_ties():
    from voteopt.metrics import binary_auprc

    rng = np.random.default_rng(3)
    score = rng.integers(0, 4, size=400) / 4.0  # heavy ties
    positive = rng.random(400) < 0.3
    assert checks.auprc(score, positive) == pytest.approx(binary_auprc(score, positive),
                                                          abs=1e-12)
    truth = rng.integers(0, 3, size=400)
    combined = rng.integers(0, 5, size=(400, 3)) / 4.0
    expected = checks.metrics(truth, combined)
    planted = dict(expected)
    planted["macro_auprc"] = float(np.mean(
        [_auprc_ungrouped(combined[:, j], truth == j) for j in range(3)]))
    checks.check_metrics(expected, expected, "own")
    with pytest.raises(checks.CheckFailed, match="macro_auprc"):
        checks.check_metrics(planted, expected, "planted")


def test_perturbed_sweep_cell_is_rejected():
    ks = [7, 8]
    table = {}
    for metric in ("balanced_accuracy", "macro_f1"):
        for scheme in ("uw_pc", "uw_pcc", "de"):
            cells = {7: 1.5 if scheme != "de" else 2.25, 8: 0.5}
            table[(metric, scheme)] = cells
    expected = {7: {key: cells[7] for key, cells in table.items()}}
    checks.check_sweep(table, ks, expected)
    perturbed = {key: dict(cells) for key, cells in table.items()}
    perturbed[("macro_f1", "de")][7] += 1e-6
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_sweep(perturbed, ks, expected)
    split = {key: dict(cells) for key, cells in table.items()}
    split[("balanced_accuracy", "uw_pcc")][8] = 0.75
    with pytest.raises(checks.CheckFailed, match="uw_pc and uw_pcc"):
        checks.check_sweep(split, ks, expected)
    split[("balanced_accuracy", "uw_pcc")][8] = float("nan")
    with pytest.raises(checks.CheckFailed, match="is nan"):
        checks.check_sweep(split, ks, expected)


def test_ensemble_scores_match_program_bit_for_bit():
    from voteopt.metrics import ensemble_scores

    rng = np.random.default_rng(5)
    truth, votes = inputs.hard_votes(rng, np.full((8, 5), 0.8), 3000, inputs.D2_CLASS_MIX)
    scores = inputs.one_hot(votes, 5)
    w = rng.random((8, 5))
    preds = SimpleNamespace(scores=scores, classifiers=SimpleNamespace(n=8),
                            classes=SimpleNamespace(m=5))
    assert np.array_equal(checks.ensemble_scores(scores, w),
                          ensemble_scores(preds, SimpleNamespace(w=w)))


def test_covered_time_is_the_union_of_child_intervals():
    assert layertrace._covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert layertrace._covered([]) == 0


def test_tracer_counts_layers_and_restores_the_program():
    import voteopt as vo
    import voteopt.optimizer as opt

    original = opt.solve_qp
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert opt.solve_qp is not original
        tracer.enabled = True
        vals = _d2()
        v = vo.AccuracyMatrix(vals, vo.ClassifierSet(tuple("abcdefgh")),
                              vo.ClassSet(("n1", "a1", "a2", "a3", "a4")))
        vo.solve_weighting(v, vo.HyperParams(k=7))
        enumerated = tracer.take()
        vo.solve_weighting(v, vo.HyperParams(k=7), method="bnb")
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert opt.solve_qp is original
    assert enumerated["qpsolve.solve_qp.calls"] == 8 - enumerated["optimizer.enumerate.screened"]
    assert enumerated["optimizer.bnb.qp_calls"] == 0
    got = tracer.take()
    assert got["optimizer.bnb.qp_calls"] == got["qpsolve.solve_qp.calls"] > 0
    assert got["optimizer.enumerate.subsets_per_s"] == 0
    assert enumerated["qpsolve.solve_qp.iterations"] > 0
    assert enumerated["optimizer.enumerate.subsets_per_s"] > 0
    assert set(got) == {name for name, _, _ in layertrace.METRICS}
