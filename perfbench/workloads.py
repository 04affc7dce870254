"""The three workloads: their inputs, timed operations and checks.

A workload's ``setup`` makes its inputs from the seed and warms up the
program (this is what ``setup_s`` times); ``prepare`` computes the
independent references its checks compare against (not timed);
``operations`` lists the timed operations of one pass. Every call into the
program goes through a module attribute (``vo.solve_weighting``, not a
name imported here), so the per-layer tracer sees it.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
from checks import require


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _vo():
    import voteopt
    import voteopt.cli  # noqa: F401  (binds voteopt.cli and voteopt.io)

    return voteopt


def _matrix(vo, values, classifiers=None, classes=None):
    n, m = values.shape
    return vo.AccuracyMatrix(
        values,
        vo.ClassifierSet(classifiers or tuple(f"c{i}" for i in range(n))),
        vo.ClassSet(classes or tuple(f"k{j}" for j in range(m))),
    )


def _ids(rows: int) -> tuple[str, ...]:
    return tuple(f"i{t}" for t in range(rows))


# --- solve_grid ----------------------------------------------------------------


class SolveGrid:
    """The exact solver alone: no files, no DE, no large tables."""

    name = "solve_grid"
    PAPER = (0.95, 0.85)  # lam, alpha: weight floors (7) slack
    LINEAR = (0.0, 0.85)  # lam*(1-alpha) = 0
    POOLS = (("pool10", 10, 5), ("pool11", 11, 5))  # label, n, K
    D2_KS = range(2, 9)
    BNB_K = 4
    TUNE_K = 3
    TUNE_ROWS = 2000

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.last = {}

    def setup(self):
        vo = _vo()
        names, classes, values = inputs.read_d2()
        self.d2 = _matrix(vo, values, names, classes)
        self.pools = {
            label: (_matrix(vo, inputs.accuracy_pool(inputs.rng_for(self.seed, n), n)), k)
            for label, n, k in self.POOLS
        }
        # The reproduction pool of the linear-regime fault; fixed, not seeded.
        fault = np.clip(0.7 + 0.3 * np.random.default_rng(0).random((10, 5)), 0, 1)
        self.fault_pool = _matrix(vo, fault)
        truth, votes = inputs.hard_votes(inputs.rng_for(self.seed, 3), values,
                                         self.TUNE_ROWS, inputs.D2_CLASS_MIX)
        self.tune_truth, self.tune_scores = truth, inputs.one_hot(votes, values.shape[1])
        self.tune_preds = vo.PredictionSet(_ids(self.TUNE_ROWS), truth, self.tune_scores,
                                           self.d2.classifiers, self.d2.classes)
        vo.solve_weighting(self.d2, vo.HyperParams(k=8))

    def prepare(self):
        lam, alpha = self.PAPER
        self.optima = {("d2", k): checks.subset_optima(self.d2.values, k, lam, alpha)
                       for k in self.D2_KS}
        for label, (pool, k) in self.pools.items():
            self.optima[(label, k)] = checks.subset_optima(pool.values, k, lam, alpha)
        self.optima[("fault", 5)] = checks.subset_optima(self.fault_pool.values, 5,
                                                         *self.LINEAR)

    def _solve(self, v, k, hyper, method="auto"):
        vo = _vo()
        params = vo.HyperParams(k=k, lam=hyper[0], alpha=hyper[1])
        return vo.solve_weighting(v, params, method=method)

    def _check(self, label, v, k, hyper, check_solution=checks.check_solution):
        def check(sol):
            check_solution(v.values, sol.weights.w, sol.selection.x, k, *hyper,
                           sol.objective.total, self.optima[(label, k)])
            self.last[(label, k)] = sol
        return check

    def _check_bnb(self, sol):
        self._check("d2", self.d2, self.BNB_K, self.PAPER)(sol)
        enum = self.last.get(("d2", self.BNB_K))
        require(enum is not None, "no enumeration result to compare with")
        gap = abs(sol.objective.total - enum.objective.total)
        require(gap <= checks.TIE_TOL,
                f"branch-and-bound and enumeration optima differ by {gap:.2e}")

    def _tune(self):
        vo = _vo()
        preds = self.tune_preds
        return vo.tune_hyperparams(
            self.d2, self.TUNE_K, start=self.PAPER, steps=(0.01, 0.01),
            score=lambda w: vo.evaluate(w, preds, include_auprc=False).balanced_accuracy)

    def _check_tune(self, result):
        def own(w):
            return checks.metrics(self.tune_truth, checks.ensemble_scores(
                self.tune_scores, w), with_auprc=False)["balanced_accuracy"]
        got = own(result.solution.weights.w)
        require(abs(result.score - got) <= checks.RECOMPUTE_TOL,
                f"tune reports score {result.score!r}, its weights score {got!r}")
        start = self.last.get(("d2", self.TUNE_K))
        require(start is not None, "no solve at the starting point to compare with")
        require(result.score >= own(start.weights.w),
                "tune ended below the score of its starting point")

    def operations(self):
        ops = [Op(f"d2_k{k}",
                  lambda k=k: self._solve(self.d2, k, self.PAPER),
                  self._check("d2", self.d2, k, self.PAPER))
               for k in self.D2_KS]
        for label, (pool, k) in self.pools.items():
            ops.append(Op(f"{label}_k{k}",
                          lambda pool=pool, k=k:
                          self._solve(pool, k, self.PAPER),
                          self._check(label, pool, k, self.PAPER)))
        ops.append(Op("fault_linear_k5",
                      lambda: self._solve(self.fault_pool, 5, self.LINEAR),
                      # fails on every pass: the linear-regime subset choice
                      # misses the optimum (interior-point tolerance 1e-8
                      # against the tie tolerance 1e-9)
                      self._check("fault", self.fault_pool, 5, self.LINEAR,
                                  checks.check_known_fault)))
        ops.append(Op(f"bnb_d2_k{self.BNB_K}",
                      lambda: self._solve(self.d2, self.BNB_K, self.PAPER, "bnb"),
                      self._check_bnb))
        ops.append(Op(f"tune_d2_k{self.TUNE_K}", self._tune, self._check_tune))
        return ops


# --- paper_sweep ---------------------------------------------------------------


class PaperSweep:
    """The paper's experiment pipeline through the command line, in process."""

    name = "paper_sweep"
    K = 7
    K_RANGE = (7, 8)
    ROWS = 4000
    SCHEMES = ("uw_pc", "uw_pcc", "wa_pc", "wa_pcc", "de", "bma")
    METRICS = ("balanced_accuracy", "macro_precision", "macro_recall", "macro_f1",
               "macro_auprc")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir
        nproc = len(os.sched_getaffinity(0))
        # the CLI's default worker count is os.cpu_count(); cap it at nproc
        self.workers = ([] if (os.cpu_count() or 1) <= nproc
                        else ["--workers", str(nproc)])

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def setup(self):
        self.clfs, self.classes, self.vals = inputs.read_d2()
        inputs.write_accuracy_csv(self.path("d2.csv"), self.clfs, self.classes, self.vals)
        truth, votes = inputs.hard_votes(inputs.rng_for(self.seed, 4), self.vals,
                                         self.ROWS, inputs.D2_CLASS_MIX)
        self.truth, self.scores = truth, inputs.one_hot(votes, len(self.classes))
        inputs.write_hard_vote_csv(self.path("preds.csv"), self.clfs, self.classes,
                                   truth, votes)
        self._cli(["optimize", "--matrix", self.path("d2.csv"), "--k", "8",
                   "--out-weights", self.path("warm.csv"),
                   "--out-report", self.path("warm.json"), *self.workers])
        self._cli(["evaluate", "--weights", self.path("warm.csv"),
                   "--predictions", self.path("preds.csv"),
                   "--out-report", self.path("warm_eval.json")])

    def prepare(self):
        self.optima = checks.subset_optima(self.vals, self.K, *SolveGrid.PAPER)
        self.closed_form = {s: checks.best_scheme_weights(s, self.vals, self.K)
                            for s in self.SCHEMES if s != "de"}

    def _cli(self, argv, outputs=()):
        for out in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        with contextlib.redirect_stdout(_stdio.StringIO()):
            code = _vo().cli.main(argv)
        require(code == 0, f"voteopt {argv[0]} exited with code {code}")
        return code

    def weight_file(self, scheme):
        return self.path("mip.csv") if scheme == "mip" else self.path("schemes", f"{scheme}.csv")

    def _own_metrics(self, scheme):
        w, _ = checks.read_weight_csv(self.weight_file(scheme))
        return checks.metrics(self.truth, checks.ensemble_scores(self.scores, w))

    def _check_optimize(self, code):
        w, x = checks.read_weight_csv(self.path("mip.csv"))
        reported = checks.read_json(self.path("mip.json"))["objective"]["total"]
        checks.check_solution(self.vals, w, x, self.K, *SolveGrid.PAPER, reported,
                              self.optima)

    def _check_baselines(self, code):
        for scheme in self.SCHEMES:
            w, x = checks.read_weight_csv(self.weight_file(scheme))
            if scheme == "de":
                checks.check_de_weights(w, x, self.K)
                continue
            expected = self.closed_form[scheme]
            require(np.array_equal(x, (expected.sum(axis=1) > 0).astype(int)),
                    f"{scheme}: selected the wrong subset")
            checks.check_close(w, expected, f"{scheme} weights")

    def _check_evaluate(self, scheme):
        def check(code):
            report = checks.read_json(self.path(f"eval_{scheme}.json"))
            checks.check_metrics(report, self._own_metrics(scheme), f"evaluate {scheme}")
        return check

    def _check_sweep(self, code):
        ks, table = checks.read_sweep_table(self.path("table.csv"))
        require(ks == list(range(self.K_RANGE[0], self.K_RANGE[1] + 1)),
                f"sweep covers K={ks}")
        ours = self._own_metrics("mip")
        expected = {
            (metric, scheme): checks.improvement(ours[metric], other[metric])
            for scheme in self.SCHEMES
            for other in [self._own_metrics(scheme)]
            for metric in self.METRICS
        }
        checks.check_sweep(table, ks, {self.K: expected})

    def operations(self):
        d2, preds = self.path("d2.csv"), self.path("preds.csv")
        k = str(self.K)
        ops = [
            Op("optimize", lambda: self._cli(
                ["optimize", "--matrix", d2, "--k", k,
                 "--out-weights", self.path("mip.csv"),
                 "--out-report", self.path("mip.json"), *self.workers],
                [self.path("mip.csv"), self.path("mip.json")]), self._check_optimize),
            Op("baselines", lambda: self._cli(
                ["baselines", "--matrix", d2, "--k", k, "--out-dir", self.path("schemes")],
                [self.weight_file(s) for s in self.SCHEMES]), self._check_baselines),
        ]
        for scheme in ("mip", *self.SCHEMES):
            out = self.path(f"eval_{scheme}.json")
            ops.append(Op(f"evaluate_{scheme}", lambda scheme=scheme, out=out:
                          self._cli(["evaluate", "--weights", self.weight_file(scheme),
                                     "--predictions", preds, "--out-report", out], [out]),
                          self._check_evaluate(scheme)))
        ops.append(Op("sweep", lambda: self._cli(
            ["sweep", "--matrix", d2, "--predictions", preds,
             "--k-min", str(self.K_RANGE[0]), "--k-max", str(self.K_RANGE[1]),
             "--out-table", self.path("table.csv"), *self.workers],
            [self.path("table.csv")]), self._check_sweep))
        return ops


# --- prediction_io -------------------------------------------------------------


class PredictionIO:
    """Prediction tables and scoring at the paper's scale; no solver."""

    name = "prediction_io"
    TABLE_ROWS = 10_000
    TABLE_CLASSIFIERS = 8
    TABLE_CLASSES = 7
    FOLDS = 10
    # class mix of the 10k-row tables: from 2 to 0.5 in equal steps
    TABLE_MIX = np.linspace(2.0, 0.5, inputs.PAPER_CLASSES)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir
        self.big = None

    def setup(self):
        vo = _vo()
        self.big = None  # release the previous set-up's scoring set first
        rng = inputs.rng_for(self.seed, 5)
        n, m = inputs.PAPER_CLASSIFIERS, inputs.PAPER_CLASSES
        self.r = int(rng.integers(1, 4))
        accuracy = np.clip(0.6 + 0.4 * rng.random((n, m)), 0.0, 1.0)
        clfs = vo.ClassifierSet(tuple(f"c{i}" for i in range(n)))
        classes = vo.ClassSet(tuple(f"k{j}" for j in range(m)))
        truth = inputs.step_labels(rng, self.r)
        scores = inputs.soft_scores(rng, accuracy, truth, as_units=True)
        self.big = vo.PredictionSet(_ids(truth.size), truth, scores, clfs, classes)
        del scores
        self.labels = np.array(classes.names)[truth]
        self.weights = {k: vo.WeightMatrix(w)
                        for k, w in inputs.scheme_weights(rng, accuracy).items()}
        names, counts = np.unique(truth, return_counts=True)
        self.dist = vo.ClassDistribution(tuple(classes.names[i] for i in names), counts)

        rows = self.TABLE_ROWS
        t_truth = rng.choice(m, size=rows, p=self.TABLE_MIX / self.TABLE_MIX.sum())
        soft = inputs.soft_scores(rng, accuracy, t_truth)
        self.soft = vo.PredictionSet(_ids(rows), t_truth, soft, clfs, classes)
        t_truth, votes = inputs.hard_votes(rng, accuracy, rows, self.TABLE_MIX)
        self.hard = vo.PredictionSet(_ids(rows), t_truth, inputs.one_hot(votes, m),
                                     clfs, classes)
        # the hard-vote layout (one label column per classifier), which
        # write_predictions does not produce
        inputs.write_hard_vote_csv(self._table("hard"), clfs.names, classes.names,
                                   t_truth, votes)

        small = vo.PredictionSet(self.soft.instance_ids[:200], self.soft.true_classes[:200],
                                 self.soft.scores[:200], clfs, classes)
        vo.io.write_predictions(self._table("warm"), small)
        vo.io.read_predictions(self._table("warm"))
        vo.evaluate(self.weights["mip"], small)
        vo.sampling.stratified_folds(self.labels[:1000], self.FOLDS, seed=self.seed)

    def _table(self, kind):
        return os.path.join(self.dir, f"{kind}.csv")

    def prepare(self):
        scores, truth = self.big.scores, self.big.true_classes
        self.expected = {name: checks.metrics(truth, checks.ensemble_scores(scores, w.w))
                         for name, w in self.weights.items()}
        self.y, self.z = inputs.step_counts(inputs.PAPER_TOTAL, inputs.PAPER_CLASSES,
                                            self.r, inputs.PAPER_STEP_RHO)
        base, extra = divmod(self.labels.size, inputs.PAPER_CLASSES)
        order = np.argsort(-self.dist.counts, kind="stable")
        self.balanced = {name: base for name in self.dist.class_names}
        for pos in range(extra):
            self.balanced[self.dist.class_names[order[pos]]] += 1
        self.plan = _vo().ResamplePlan(dict(self.balanced), rng_seed=self.seed)

    def _check_written(self, _):
        with open(self._table("soft")) as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            lines = 1 + sum(1 for _ in fh)
        require(header[:2] == ["instance_id", "true_class"]
                and len(header) == 2 + self.TABLE_CLASSIFIERS * self.TABLE_CLASSES,
                f"soft table header {header[:3]}...")
        require(lines == len(self.soft) + 1, f"soft table has {lines} lines")

    def _check_read(self, original):
        def check(read):
            require(read.instance_ids == original.instance_ids, "instance ids differ")
            require(np.array_equal(read.true_classes, original.true_classes),
                    "true classes differ")
            require(read.scores.shape == original.scores.shape
                    and np.array_equal(read.scores.view(np.uint64),
                                       original.scores.view(np.uint64)),
                    "scores differ from those written")
            require(read.classifiers.names == original.classifiers.names
                    and read.classes.names == original.classes.names,
                    "classifier or class names differ")
        return check

    def _check_distribution(self, dist):
        names, first = np.unique(self.labels, return_index=True)
        order = names[np.argsort(first)]
        require(tuple(dist.class_names) == tuple(order), "class order differs")
        counts = [int((self.labels == c).sum()) for c in order]
        require(list(dist.counts) == counts, "class counts differ")

    def _step(self):
        plan = _vo().sampling.step_targets(inputs.PAPER_TOTAL, inputs.PAPER_CLASSES,
                                           self.r, inputs.PAPER_STEP_RHO)
        return plan, plan.bind(self.dist, seed=self.seed)

    def _check_step(self, result):
        plan, bound = result
        m, r = inputs.PAPER_CLASSES, self.r
        require((plan.y, plan.z) == (self.y, self.z),
                f"step targets ({plan.y}, {plan.z}), expected ({self.y}, {self.z})")
        bound = bound.targets
        smallest = np.argsort(self.dist.counts, kind="stable")[:r]
        for j, name in enumerate(self.dist.class_names):
            want = self.y if j in smallest else self.z
            require(bound[name] == want, f"class {name} bound to {bound[name]}, expected {want}")
        require(abs(plan.total - inputs.PAPER_TOTAL) <= m, "step total drifted")

    def _check_ratio(self, plan):
        require(plan.targets == self.balanced, "balanced targets differ")

    def _check_resample(self, idx):
        require(idx.min() >= 0 and idx.max() < self.labels.size, "index out of range")
        got = dict(zip(*np.unique(self.labels[idx], return_counts=True)))
        for name, want in self.plan.targets.items():
            require(got.get(name, 0) == want, f"class {name}: {got.get(name, 0)} != {want}")

    def _check_folds(self, folds):
        require(folds.shape == self.labels.shape, "fold array has the wrong length")
        require(folds.min() >= 0 and folds.max() < self.FOLDS, "fold index out of range")
        for name in self.dist.class_names:
            per_fold = np.bincount(folds[self.labels == name], minlength=self.FOLDS)
            require(per_fold.max() - per_fold.min() <= 1, f"class {name} unevenly folded")

    def operations(self):
        vo = _vo()
        ops = [
            Op("write_soft", lambda: vo.io.write_predictions(self._table("soft"), self.soft),
               self._check_written),
            Op("read_soft", lambda: vo.io.read_predictions(self._table("soft")),
               self._check_read(self.soft)),
            Op("read_hard", lambda: vo.io.read_predictions(self._table("hard")),
               self._check_read(self.hard)),
        ]
        for name, w in self.weights.items():
            ops.append(Op(f"evaluate_{name}",
                          lambda w=w: vo.evaluate(w, self.big),
                          lambda report, name=name: checks.check_metrics(
                              report.as_dict(), self.expected[name], f"evaluate {name}")))
        sampling = vo.sampling
        ops += [
            Op("distribution",
               lambda: sampling.distribution_from_labels(self.labels),
               self._check_distribution),
            Op("step_targets", self._step, self._check_step),
            Op("ratio_targets",
               lambda: sampling.ratio_targets(self.dist, 1.0, seed=self.seed),
               self._check_ratio),
            Op("resample", lambda: sampling.resample(self.labels, self.plan),
               self._check_resample),
            Op("stratified_folds",
               lambda: sampling.stratified_folds(self.labels, self.FOLDS, seed=self.seed),
               self._check_folds),
        ]
        return ops


WORKLOADS = {w.name: w for w in (SolveGrid, PaperSweep, PredictionIO)}
