"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function of the voteopt package with
a wrapper that records a span, in every voteopt module that holds a
reference to it, so calls between modules are seen too. ``uninstall``
restores the originals. A span's self time is its duration minus the union
of the intervals its child spans cover; a span opened on a worker thread
with nothing open on that thread is a child of the innermost span open on
the main thread, which is where the program's worker pools are started.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# (metric prefix, module, attribute). Where a name is missing from the
# program the layer simply reports zero.
LAYERS = (
    ("qpsolve.solve_qp", "voteopt.qpsolve", "solve_qp"),
    ("optimizer.enumerate", "voteopt.optimizer", "solve_weighting"),
    ("optimizer.bnb", "voteopt.optimizer", "_solve_bnb"),
    ("optimizer.tune", "voteopt.optimizer", "tune_hyperparams"),
    ("optimizer.validate_constraints", "voteopt.optimizer", "validate_constraints"),
    ("baselines.de_weights", "voteopt.baselines", "de_weights"),
    ("baselines.with_selection", "voteopt.baselines", "baseline_with_selection"),
    *(("baselines.closed_form", "voteopt.baselines", name)
      for name in ("uw_pc", "uw_pcc", "wa_pc", "wa_pcc", "bma_weights")),
    ("io.read_predictions", "voteopt.io", "read_predictions"),
    ("io.write_predictions", "voteopt.io", "write_predictions"),
    *(("io.matrices", "voteopt.io", name)
      for name in ("read_accuracy_matrix", "write_accuracy_matrix",
                   "read_weight_matrix", "write_weight_matrix", "write_report",
                   "read_labels", "write_indices")),
    ("ensemble.evaluate", "voteopt.ensemble", "evaluate"),
    ("metrics.auprc_per_class", "voteopt.metrics", "auprc_per_class"),
    *(("metrics.confusion", "voteopt.metrics", name)
      for name in ("ConfusionMatrix.from_predictions", "balanced_accuracy",
                   "per_class_prf", "macro_prf")),
    ("sampling.resample", "voteopt.sampling", "resample"),
    ("sampling.stratified_folds", "voteopt.sampling", "stratified_folds"),
    *(("sampling.targets", "voteopt.sampling", name)
      for name in ("distribution_from_labels", "step_targets", "ratio_targets",
                   "StepPlan.bind")),
    ("cli", "voteopt.cli", "main"),
)

CLI_COMMANDS = ("optimize", "baselines", "evaluate", "sweep")

# Every per-layer metric with its unit and direction, in report order.
METRICS = (
    ("qpsolve.solve_qp.calls", "count", "lower"),
    ("qpsolve.solve_qp.time_s", "s", "lower"),
    ("qpsolve.solve_qp.iterations", "count", "lower"),
    ("qpsolve.solve_qp.not_optimal", "count", "lower"),
    ("qpsolve.solve_qp.max_kkt_residual", "1", "lower"),
    ("optimizer.enumerate.time_s", "s", "lower"),
    ("optimizer.enumerate.subsets_per_s", "1/s", "higher"),
    ("optimizer.enumerate.screened", "count", "higher"),
    ("optimizer.bnb.time_s", "s", "lower"),
    ("optimizer.bnb.qp_calls", "count", "lower"),
    ("optimizer.tune.time_s", "s", "lower"),
    ("optimizer.tune.solves", "count", "lower"),
    ("optimizer.validate_constraints.time_s", "s", "lower"),
    ("baselines.de_weights.calls", "count", "lower"),
    ("baselines.de_weights.time_s", "s", "lower"),
    ("baselines.with_selection.time_s", "s", "lower"),
    ("baselines.closed_form.time_s", "s", "lower"),
    ("io.read_predictions.time_s", "s", "lower"),
    ("io.read_predictions.rows_per_s", "rows/s", "higher"),
    ("io.read_predictions.alloc_peak_mb", "MB", "lower"),
    ("io.write_predictions.time_s", "s", "lower"),
    ("io.write_predictions.rows_per_s", "rows/s", "higher"),
    ("io.matrices.time_s", "s", "lower"),
    ("ensemble.evaluate.time_s", "s", "lower"),
    ("ensemble.evaluate.rows_per_s", "rows/s", "higher"),
    ("metrics.auprc_per_class.time_s", "s", "lower"),
    ("metrics.confusion.time_s", "s", "lower"),
    ("sampling.resample.time_s", "s", "lower"),
    ("sampling.stratified_folds.time_s", "s", "lower"),
    ("sampling.targets.time_s", "s", "lower"),
    *((f"cli.{c}.time_s", "s", "lower") for c in CLI_COMMANDS),
)


class Span:
    __slots__ = ("name", "parent", "start", "children", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.children = []
        self.counts = defaultdict(float)

    def ancestor(self, *names):
        """The innermost enclosing span with one of these names, or None."""
        span = self.parent
        while span is not None and span.name not in names:
            span = span.parent
        return span


def _covered(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Collects per-layer totals while installed and enabled."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []
        self.enabled = False
        self.totals = defaultdict(float)
        self._replay = {}  # path -> (args, kwargs) of this pass's read_predictions calls

    # --- spans -----------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = Span(name, parent)
        stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            children = list(span.children)
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            self.totals[f"{span.name}.time_s"] += (end - span.start) - _covered(children)
            self.totals[f"{span.name}.calls"] += 1
        return end - span.start

    def _wrap(self, prefix, fn):
        tracer = self
        after = getattr(self, "_after_" + prefix.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = prefix if prefix != "cli" else _cli_name(args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(span)
            if after is not None:
                with tracer._lock:
                    after(span, duration, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- layer-specific counts (called under the lock) ---------------------------

    def _after_qpsolve_solve_qp(self, span, duration, args, kwargs, result):
        t = self.totals
        t["qpsolve.solve_qp.iterations"] += result.iterations
        if result.status.value != "optimal":
            t["qpsolve.solve_qp.not_optimal"] += 1
        else:
            worst = max(result.kkt_residuals.values())
            t["qpsolve.solve_qp.max_kkt_residual"] = max(
                t["qpsolve.solve_qp.max_kkt_residual"], worst)
        owner = span.ancestor("optimizer.enumerate", "optimizer.bnb")
        if owner is not None:
            owner.counts["qp_calls"] += 1

    def _after_optimizer_enumerate(self, span, duration, args, kwargs, result):
        if span.counts["delegated"]:
            return
        v, params = args[0], args[1] if len(args) > 1 else kwargs["params"]
        subsets = math.comb(v.n, params.k)
        t = self.totals
        t["optimizer.enumerate.subsets"] += subsets
        t["optimizer.enumerate.busy_s"] += duration
        t["optimizer.enumerate.screened"] += subsets - span.counts["qp_calls"]
        tune = span.ancestor("optimizer.tune")
        if tune is not None:
            tune.counts["solves"] += 1

    def _after_optimizer_bnb(self, span, duration, args, kwargs, result):
        self.totals["optimizer.bnb.qp_calls"] += span.counts["qp_calls"]
        owner = span.ancestor("optimizer.enumerate")
        if owner is not None:
            owner.counts["delegated"] = 1
            tune = owner.ancestor("optimizer.tune")
            if tune is not None:
                tune.counts["solves"] += 1

    def _after_optimizer_tune(self, span, duration, args, kwargs, result):
        self.totals["optimizer.tune.solves"] += span.counts["solves"]

    def _after_io_read_predictions(self, span, duration, args, kwargs, result):
        self.totals["io.read_predictions.rows"] += len(result)
        self.totals["io.read_predictions.busy_s"] += duration
        path = args[0] if args else kwargs.get("path")
        self._replay[str(path)] = (args, kwargs)

    def _after_io_write_predictions(self, span, duration, args, kwargs, result):
        preds = args[1] if len(args) > 1 else kwargs["preds"]
        self.totals["io.write_predictions.rows"] += len(preds)
        self.totals["io.write_predictions.busy_s"] += duration

    def _after_ensemble_evaluate(self, span, duration, args, kwargs, result):
        preds = args[1] if len(args) > 1 else kwargs["preds"]
        self.totals["ensemble.evaluate.rows"] += len(preds)
        self.totals["ensemble.evaluate.busy_s"] += duration

    # --- installation ----------------------------------------------------------

    def install(self):
        for prefix, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                continue
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(prefix, raw.__func__))
                self._patches.append((owner, name, raw))
                setattr(owner, name, wrapped)
                continue
            wrapped = self._wrap(prefix, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "voteopt" or mod is None:
                    continue
                if owner is module and vars(mod).get(name) is raw:
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, wrapped)
            if owner is not module:
                self._patches.append((owner, name, raw))
                setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    def take(self) -> dict:
        """Per-layer metrics since the last take, and reset the totals.

        The allocation peak of read_predictions comes from replaying its
        calls (one per file) under tracemalloc here, outside every span:
        tracing allocations slows the parser several times over.
        """
        with self._lock:
            t, self.totals = self.totals, defaultdict(float)
            replay, self._replay = self._replay, {}
        for args, kwargs in replay.values():
            tracemalloc.start()
            try:
                importlib.import_module("voteopt.io").read_predictions(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            key = "io.read_predictions.alloc_peak_mb"
            t[key] = max(t[key], peak)
        out = {name: 0.0 for name, _, _ in METRICS}
        for name in out:
            if name in t:
                out[name] = t[name]
        out["qpsolve.solve_qp.calls"] = t["qpsolve.solve_qp.calls"]
        out["baselines.de_weights.calls"] = t["baselines.de_weights.calls"]
        for prefix, count, busy, metric in (
            ("optimizer.enumerate", "subsets", "busy_s", "subsets_per_s"),
            ("io.read_predictions", "rows", "busy_s", "rows_per_s"),
            ("io.write_predictions", "rows", "busy_s", "rows_per_s"),
            ("ensemble.evaluate", "rows", "busy_s", "rows_per_s"),
        ):
            seconds = t[f"{prefix}.{busy}"]
            out[f"{prefix}.{metric}"] = t[f"{prefix}.{count}"] / seconds if seconds else 0.0
        return out


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else "main"
    return f"cli.{command}"
