"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from pathlib import Path

import numpy as np
import pytest

from voteopt import (
    AccuracyMatrix,
    AllSubsetsInfeasible,
    ClassDistribution,
    ClassSet,
    ClassifierSet,
    ConfusionMatrix,
    DeParams,
    HyperParams,
    balanced_accuracy,
    binary_auprc,
    bma_weights,
    de_weights,
    enumerate_subsets,
    imbalance_ratio,
    improvement_pct,
    macro_prf,
    solve_weighting,
    step_targets,
    uw_pc,
    uw_pcc,
    validate_constraints,
    wa_pc,
    wa_pcc,
)
from voteopt.cli import main
from voteopt.qpsolve import QpStatus

from conftest import SVM_ROW
from oracle import build_subset_problem, grid_oracle

DATA = Path(__file__).parent / "data"
D2_CSV = str(DATA / "d2_accuracy.csv")


def rand_matrix(rng, n, m):
    return AccuracyMatrix(
        rng.random((n, m)),
        ClassifierSet(tuple(f"c{i}" for i in range(n))),
        ClassSet(tuple(f"e{j}" for j in range(m))),
    )


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def test_c01_constraint_conformance_100_random_instances():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    solved = 0
    for _ in range(100):
        v = rand_matrix(rng, int(rng.integers(2, 9)), int(rng.integers(2, 8)))
        lam, alpha = float(rng.random()), float(rng.random())
        for k in range(1, v.n + 1):
            params = HyperParams(k=k, lam=lam, alpha=alpha)
            try:
                sol = solve_weighting(v, params)
            except AllSubsetsInfeasible:
                continue
            rep = validate_constraints(
                v, sol.weights, sol.selection, params, tol=1e-6
            )
            assert rep.conformant, (
                f"n={v.n} m={v.m} k={k}: "
                f"{[(c.constraint_id, c.worst_violation) for c in rep.checks if not c.satisfied]}"
            )
            solved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"{solved} feasible solves conformant in {elapsed:.1f}s")


def test_c02_oracle_equivalence_50_instances():
    rng = np.random.default_rng(0)
    step = 0.01
    compared = 0
    worst = 0.0
    for _ in range(50):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        v = rand_matrix(rng, n, m)
        lam = float(rng.uniform(0.3, 1.1))
        alpha = float(rng.uniform(0.6, 0.95))
        for k in range(2, n + 1):
            if k * m > 8:  # grid oracle variable cap
                continue
            params = HyperParams(k=k, lam=lam, alpha=alpha)
            try:
                sol = solve_weighting(v, params)
            except AllSubsetsInfeasible:
                continue
            grid_best = None
            for subset in enumerate_subsets(n, k):
                g = grid_oracle(build_subset_problem(v, params, subset), step)
                if g.status is QpStatus.OPTIMAL:
                    if grid_best is None or g.objective > grid_best:
                        grid_best = g.objective
            assert grid_best is not None
            diff = abs(sol.objective.total - grid_best)
            worst = max(worst, diff)
            assert diff <= 1e-3
            compared += 1
    assert compared >= 50
    report(2, f"{compared} subset sweeps, worst gap {worst:.1e}")


def test_c03_reference_weight_table(d2_matrix):
    assert np.all(uw_pc(8, 5).w == 0.125)
    assert np.all(uw_pcc(8, 5).w == 0.025)

    wa_pcc_row = np.round(wa_pcc(d2_matrix).w[SVM_ROW], 2)
    assert wa_pcc_row.tolist() == [0.02, 0.02, 0.03, 0.02, 0.03]

    bma_row = bma_weights(d2_matrix).w[SVM_ROW]
    assert np.all(np.abs(bma_row - [0.02, 0.02, 0.03, 0.02, 0.02]) <= 0.01)

    wa_pc_svm = wa_pc(d2_matrix).w[SVM_ROW, 0]
    assert abs(wa_pc_svm - 0.11) <= 0.02

    de_row = de_weights(d2_matrix, DeParams()).w[SVM_ROW]
    assert np.all(de_row == de_row[0])
    assert abs(de_row[0] - 0.12) <= 0.03

    sol = solve_weighting(d2_matrix, HyperParams(k=8, lam=0.96, alpha=0.80))
    svm = sol.weights.w[SVM_ROW]
    assert set(np.argsort(-svm)[:2]) == {2, 4}  # classes A2 and A4
    assert svm[0] <= 0.01  # class N1
    report(3, f"DE svm weight {de_row[0]:.3f}, optimizer svm row "
              f"{np.round(svm, 3).tolist()}")


def test_c04_regularization_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10):
        v = rand_matrix(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        k = int(rng.integers(2, v.n + 1))
        coeff = float(rng.uniform(0.05, 0.6))
        alpha1, alpha2 = float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.6, 0.9))
        p1 = HyperParams(k=k, lam=coeff / (1 - alpha1), alpha=alpha1)
        p2 = HyperParams(k=k, lam=coeff / (1 - alpha2), alpha=alpha2)
        try:
            s1 = solve_weighting(v, p1)
            s2 = solve_weighting(v, p2)
        except AllSubsetsInfeasible:
            continue
        assert np.max(np.abs(s1.weights.w - s2.weights.w)) <= 1e-6
        checked += 1
    assert checked >= 6
    report(4, f"{checked} matched hyper-parameter pairs")


def test_c05_step_imbalance_rows_exact():
    expected = {
        1: (15, 92981, 6198.73),
        3: (23, 139458, 6063.39),
        6: (92, 557348, 6058.13),
    }
    for r, (y, z, rho) in expected.items():
        plan = step_targets(557900, 7, r, 6059.97)
        assert plan.y == y
        assert plan.z == z
        assert round(plan.achieved_rho, 2) == rho
    report(5, "all three step-imbalance rows reproduced exactly")


def test_c06_imbalance_ratios():
    tables = {
        6059.97: (17520, 448438, 88154, 1721, 1181, 812, 74),
        1222.64: (13449, 2289, 9234, 11, 209),
        5.91: (455, 84, 77, 81),
        2.13: (273097, 128027, 231073, 158930),
        1.00: (79700,) * 7,
        3029.89: (17517, 448423, 88098, 1721, 1181, 812, 148),
        12121.95: (17520, 448512, 88117, 1721, 1181, 812, 37),
    }
    for expected, counts in tables.items():
        dist = ClassDistribution(
            tuple(f"c{i}" for i in range(len(counts))), counts
        )
        assert imbalance_ratio(dist) == pytest.approx(expected, abs=0.01)
    report(6, f"{len(tables)} distribution ratios within 0.01")


def test_c07_metric_fixtures():
    # hand-built six-instance confusion: true AABBBC, predicted ABBBCC
    cm = ConfusionMatrix([[1, 1, 0], [0, 2, 1], [0, 0, 1]], ("A", "B", "C"))
    assert balanced_accuracy(cm) == pytest.approx(0.7222, abs=1e-4)
    precision, recall, f1 = macro_prf(cm)
    assert precision == pytest.approx(0.7222, abs=1e-4)
    assert recall == pytest.approx(0.7222, abs=1e-4)
    assert f1 == pytest.approx(0.6667, abs=1e-4)

    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        counts = rng.integers(0, 8, size=(m, m))
        counts[np.arange(m), np.arange(m)] += 1
        random_cm = ConfusionMatrix(counts)
        assert balanced_accuracy(random_cm) == pytest.approx(
            macro_prf(random_cm)[1], abs=1e-12
        )

    auprc = binary_auprc(
        np.array([0.9, 0.8, 0.7]), np.array([True, False, True])
    )
    assert auprc == pytest.approx(0.7917, abs=1e-4)
    assert improvement_pct(0.990, 0.973) == pytest.approx(1.747, abs=1e-3)
    report(7, "confusion fixtures, recall identity, AUPRC and improvement")


def test_c08_infeasibility_semantics(tmp_path):
    with pytest.raises(AllSubsetsInfeasible):
        solve_weighting(
            AccuracyMatrix([[0.9]], ClassifierSet(("only",)), ClassSet(("c",))),
            HyperParams(k=1),
        )
    flat = AccuracyMatrix(
        np.full((4, 3), 0.7),
        ClassifierSet(tuple("abcd")),
        ClassSet(tuple("xyz")),
    )
    with pytest.raises(AllSubsetsInfeasible):
        solve_weighting(flat, HyperParams(k=2))

    path = tmp_path / "flat.csv"
    path.write_text(
        "classifier,x,y\n" + "".join(f"c{i},0.7,0.6\n" for i in range(3))
    )
    code = main([
        "optimize", "--matrix", str(path), "--k", "2",
        "--out-weights", str(tmp_path / "w.csv"),
        "--out-report", str(tmp_path / "r.json"),
    ])
    assert code == 3
    report(8, "single classifier, identical columns, and CLI exit code 3")


def test_c09_cli_byte_determinism(tmp_path):
    from voteopt import PredictionSet
    from voteopt import io as vio

    small = tmp_path / "small.csv"
    small.write_text(
        "classifier,x,y\nc0,0.95,0.7\nc1,0.6,0.9\nc2,0.8,0.8\nc3,0.5,0.55\n"
    )
    v = vio.read_accuracy_matrix(small)
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 2, size=50)
    scores = rng.random((50, 4, 2))
    preds_path = tmp_path / "preds.csv"
    vio.write_predictions(preds_path, PredictionSet(
        tuple(f"i{t}" for t in range(50)), truth, scores,
        v.classifiers, v.classes,
    ))

    outputs = []
    for sub, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        d = tmp_path / sub
        d.mkdir()
        assert main([
            "optimize", "--matrix", D2_CSV, "--k", "5",
            "--lam", "0.96", "--alpha", "0.8",
            "--workers", workers,
            "--out-weights", str(d / "w.csv"),
            "--out-report", str(d / "r.json"), "--no-timestamp",
        ]) == 0
        assert main([
            "optimize", "--matrix", str(small), "--k", "2",
            "--workers", workers,
            "--out-weights", str(d / "sw.csv"),
            "--out-report", str(d / "sr.json"), "--no-timestamp",
        ]) == 0
        assert main([
            "evaluate", "--weights", str(d / "sw.csv"),
            "--predictions", str(preds_path),
            "--out-report", str(d / "m.json"), "--no-timestamp",
        ]) == 0
        labels = d / "labels.txt"
        labels.write_text("class\n" + "\n".join(
            ["n"] * 900 + ["f1"] * 80 + ["f2"] * 20
        ) + "\n")
        assert main([
            "resample", "--labels", str(labels), "--target-rho", "30",
            "--seed", "9", "--out-indices", str(d / "idx.txt"),
            "--out-distribution", str(d / "dist.json"), "--no-timestamp",
        ]) == 0
        assert main([
            "sweep", "--matrix", str(small), "--predictions", str(preds_path),
            "--k-min", "2", "--k-max", "3", "--workers", workers,
            "--de-pop", "10", "--de-gens", "15",
            "--out-table", str(d / "table.csv"), "--no-timestamp",
        ]) == 0
        outputs.append(b"".join(
            (d / name).read_bytes()
            for name in ("w.csv", "r.json", "sw.csv", "sr.json", "m.json",
                         "idx.txt", "dist.json", "table.csv")
        ))
    assert outputs[0] == outputs[1] == outputs[2]
    report(9, "optimize, evaluate, resample and sweep outputs byte-identical "
              "across reruns and worker counts")


def test_c10_efficiency_bound(d2_matrix):
    params = HyperParams(k=3, lam=0.96, alpha=0.80)
    solve_weighting(d2_matrix, params)  # warm any compiled kernels
    start = time.perf_counter()
    sol = solve_weighting(d2_matrix, params)
    elapsed = time.perf_counter() - start
    assert sol.selection.count == 3
    assert elapsed < 1.0
    report(10, f"8-classifier pool, size-3 ensemble solved in {elapsed:.3f}s")
