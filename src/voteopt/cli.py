"""Command-line interface tying the three pipeline phases together.

Subcommands: optimize, baselines, evaluate, resample, tune, sweep,
validate. Every command is reproducible: the same inputs, flags and seed
produce byte-identical outputs (pass --no-timestamp to drop the one
timestamp line from reports).

Exit codes: 0 success (and, for validate, conformant), 2 configuration or
input error, 3 no feasible classifier subset, 4 validation failure, 5 solve
incomplete (the exact search could not establish the optimum).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import io
from .baselines import SCHEMES, DeParams, baseline_with_selection
from .core import HyperParams, imbalance_ratio
from .ensemble import evaluate
from .metrics import improvement_pct
from .optimizer import (
    AllSubsetsInfeasible,
    SolverIncomplete,
    solve_weighting,
    tune_hyperparams,
    validate_constraints,
)
from .sampling import (
    distribution_from_labels,
    ratio_targets,
    resample,
    step_targets,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONFORMANT = 4
EXIT_INCOMPLETE = 5

EXIT_CODES = """exit codes:
  0  success (for validate: conformant)
  2  configuration or input error
  3  no feasible classifier subset
  4  validation failure
  5  solve incomplete: the exact search could not establish the optimum"""

METRIC_FIELDS = (
    "balanced_accuracy",
    "macro_precision",
    "macro_recall",
    "macro_f1",
    "macro_auprc",
)


# on/off flags default to None, not False, so that a config file can set them
FLAGS = ("no_timestamp", "no_auprc")


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill every setting left unset on the command line from --config.

    Each value is converted from its text by the flag's own type, so 2.7 for
    an integer setting is refused, as ``--de-gens 2.7`` is."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    command = next(a for a in parser._actions if a.dest == "command")
    kinds = {a.dest: a.type for a in command.choices[args.command]._actions if a.type}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        # not settings: argparse's command and handler, and --config itself
        if attr in ("command", "func", "config") or not hasattr(args, attr):
            raise ValueError(f"{args.config}: unknown setting {key!r}")
        if attr in FLAGS:
            if not isinstance(value, bool):
                raise ValueError(f"{args.config}: {key!r} must be true or false")
        elif isinstance(value, (bool, list, dict)):
            raise ValueError(
                f"{args.config}: {key!r} must be a string, a number or null")
        elif value is not None and attr in kinds:
            try:
                value = kinds[attr](str(value))
            except ValueError:
                raise ValueError(f"{args.config}: {key!r}: invalid "
                                 f"{kinds[attr].__name__} value: {value!r}") from None
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _fill(args: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _given(args: argparse.Namespace, **settings) -> dict:
    """Keyword arguments for the settings given on the command line or in
    --config; ``settings`` maps each keyword to its setting. The callee's own
    defaults fill the rest."""
    return {key: getattr(args, attr) for key, attr in settings.items()
            if getattr(args, attr) is not None}


def _hyperparams(args: argparse.Namespace, k: int) -> HyperParams:
    return HyperParams(k=k, **_given(args, lam="lam", alpha="alpha", epsilon="epsilon"))


def _de_params(args: argparse.Namespace) -> DeParams:
    return DeParams(**_given(
        args, population_size="de_pop", max_generations="de_gens",
        differential_weight="de_f", crossover_rate="de_cr", rng_seed="de_seed"))


def _constraint_payload(report) -> list[dict]:
    return [
        {
            "constraint": check.constraint_id,
            "name": check.name,
            "satisfied": check.satisfied,
            "worst_violation": check.worst_violation,
            "location": check.location,
        }
        for check in report.checks
    ]


def cmd_optimize(args) -> int:
    v = io.read_accuracy_matrix(args.matrix)
    params = _hyperparams(args, args.k)
    solution = solve_weighting(v, params, **_given(args, method="method"))
    report = validate_constraints(v, solution.weights, solution.selection, params)
    io.write_weight_matrix(
        args.out_weights, solution.weights, solution.selection,
        v.classifiers, v.classes,
    )
    payload = {
        "hyperparams": dataclasses.asdict(params),
        "selected": [
            v.classifiers.names[i] for i in solution.selection.indices
        ],
        "objective": dataclasses.asdict(solution.objective),
        "constraints": _constraint_payload(report),
        "diagnostics": dataclasses.asdict(solution.stats),
        "subset_rank": [
            {
                "subset": [v.classifiers.names[i] for i in r.subset],
                "status": r.status.value,
                "objective": r.objective,
            }
            for r in solution.subset_rank
        ],
    }
    io.write_report(args.out_report, payload, timestamp=not args.no_timestamp)
    print(f"selected {payload['selected']} objective={solution.objective.total:.6f}")
    return EXIT_OK


def cmd_baselines(args) -> int:
    v = io.read_accuracy_matrix(args.matrix)
    de_params = _de_params(args)
    os.makedirs(args.out_dir, exist_ok=True)
    summary = {}
    for scheme in SCHEMES:
        selection, weights = baseline_with_selection(scheme, v, args.k, de_params)
        path = os.path.join(args.out_dir, f"{scheme}.csv")
        io.write_weight_matrix(path, weights, selection, v.classifiers, v.classes)
        score = float((weights.w * v.values).sum() / v.m)
        summary[scheme] = {
            "selected": [v.classifiers.names[i] for i in selection.indices],
            "weighted_accuracy": score,
            "weights_file": os.path.basename(path),
        }
        print(f"{scheme}: weighted accuracy {score:.6f}")
    io.write_report(
        os.path.join(args.out_dir, "baselines.json"), summary,
        timestamp=not args.no_timestamp,
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    weights, _, classifiers, classes = io.read_weight_matrix(args.weights)
    preds = io.read_predictions(args.predictions, classifiers, classes)
    report = evaluate(
        weights, preds, include_auprc=not args.no_auprc
    )
    io.write_report(args.out_report, report.as_dict(),
                    timestamp=not args.no_timestamp)
    print(
        f"balanced_accuracy={report.balanced_accuracy:.6f} "
        f"macro_f1={report.macro_f1:.6f}"
    )
    return EXIT_OK


def cmd_resample(args) -> int:
    _fill(args, seed=0)
    labels = io.read_labels(args.labels)
    dist = distribution_from_labels(labels)
    if args.target_rho is not None and args.step_r is not None:
        raise ValueError("choose either --target-rho or --step-r/--step-rho")
    if args.target_rho is not None:
        plan = ratio_targets(dist, args.target_rho, seed=args.seed)
    elif args.step_r is not None:
        if args.step_rho is None:
            raise ValueError("--step-r requires --step-rho")
        step = step_targets(dist.total, dist.m, args.step_r, args.step_rho)
        plan = step.bind(dist, seed=args.seed)
    else:
        raise ValueError("either --target-rho or --step-r/--step-rho is required")
    indices = resample(labels, plan)
    io.write_indices(args.out_indices, indices)
    achieved = distribution_from_labels(labels[indices])
    payload = {
        "targets": plan.targets,
        "achieved": {
            name: int(count)
            for name, count in zip(achieved.class_names, achieved.counts)
        },
        "total": achieved.total,
        "imbalance_ratio": imbalance_ratio(achieved),
        "seed": args.seed,
    }
    io.write_report(args.out_distribution, payload,
                    timestamp=not args.no_timestamp)
    print(
        f"resampled {achieved.total} instances, "
        f"rho={payload['imbalance_ratio']:.2f}"
    )
    return EXIT_OK


def cmd_tune(args) -> int:
    _fill(args, lam0=HyperParams.lam, alpha0=HyperParams.alpha, dlam=0.01, dalpha=0.01)
    v = io.read_accuracy_matrix(args.matrix)
    preds = io.read_predictions(args.predictions, v.classifiers, v.classes)

    def score(weights):
        return evaluate(weights, preds, include_auprc=False).balanced_accuracy

    result = tune_hyperparams(
        v, args.k,
        start=(args.lam0, args.alpha0),
        steps=(args.dlam, args.dalpha),
        score=score,
        **_given(args, epsilon="epsilon"),
    )
    payload = {
        "lam": result.lam,
        "alpha": result.alpha,
        "score": result.score,
        "selected": [
            v.classifiers.names[i] for i in result.solution.selection.indices
        ],
    }
    io.write_report(args.out_report, payload, timestamp=not args.no_timestamp)
    print(f"tuned lam={result.lam:.4f} alpha={result.alpha:.4f} "
          f"score={result.score:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    v = io.read_accuracy_matrix(args.matrix)
    preds = io.read_predictions(args.predictions, v.classifiers, v.classes)
    k_min, k_max = args.k_min, args.k_max
    if not 2 <= k_min <= k_max <= v.n:
        raise ValueError(
            f"K range {k_min}..{k_max} must sit inside 2..{v.n}"
        )
    de_params = _de_params(args)
    ks = list(range(k_min, k_max + 1))
    table: dict[tuple[str, str], dict[int, float]] = {
        (metric, scheme): {} for metric in METRIC_FIELDS for scheme in SCHEMES
    }
    for k in ks:
        mip = solve_weighting(v, _hyperparams(args, k))
        mip_report = evaluate(mip.weights, preds)
        for scheme in SCHEMES:
            _, weights = baseline_with_selection(scheme, v, k, de_params)
            base_report = evaluate(weights, preds)
            for metric in METRIC_FIELDS:
                ours = getattr(mip_report, metric)
                other = getattr(base_report, metric)
                table[(metric, scheme)][k] = improvement_pct(ours, other)
    with open(args.out_table, "w", newline="") as fh:
        fh.write("metric,scheme," + ",".join(f"K={k}" for k in ks) + "\n")
        for metric in METRIC_FIELDS:
            for scheme in SCHEMES:
                cells = ",".join(
                    format(table[(metric, scheme)][k], ".17g") for k in ks
                )
                fh.write(f"{metric},{scheme},{cells}\n")
    print(f"improvement table written to {args.out_table}")
    return EXIT_OK


def cmd_validate(args) -> int:
    v = io.read_accuracy_matrix(args.matrix)
    weights, selection, classifiers, classes = io.read_weight_matrix(args.weights)
    if classifiers.names != v.classifiers.names:
        raise ValueError("weight file classifiers do not match the accuracy matrix")
    if classes.names != v.classes.names:
        raise ValueError("weight file classes do not match the accuracy matrix")
    k = args.k if args.k is not None else selection.count
    report = validate_constraints(v, weights, selection, _hyperparams(args, max(k, 1)),
                                  **_given(args, tol="tol"))
    for check in report.checks:
        state = "ok" if check.satisfied else "VIOLATED"
        print(
            f"constraint ({check.constraint_id}) {check.name}: {state} "
            f"(worst violation {check.worst_violation:.3e} at {check.location})"
        )
    if report.conformant:
        print("conformant")
        return EXIT_OK
    worst = max(
        (c for c in report.checks if not c.satisfied),
        key=lambda c: c.worst_violation,
    )
    print(f"nonconformant: constraint ({worst.constraint_id}) {worst.name}")
    return EXIT_NONCONFORMANT


def _add_common(sub, *, workers=False, de=False, hyper=False):
    sub.add_argument("--config", help="JSON file supplying unset flags")
    sub.add_argument("--no-timestamp", action="store_true", default=None,
                     help="omit the timestamp line from reports")
    if workers:
        # still passed by existing scripts (the benchmark harness among them)
        sub.add_argument("--workers", type=int, default=None,
                         help="accepted for compatibility; has no effect")
    if hyper:
        sub.add_argument("--lam", type=float, default=None)
        sub.add_argument("--alpha", type=float, default=None)
        sub.add_argument("--epsilon", type=float, default=None)
    if de:
        sub.add_argument("--de-pop", dest="de_pop", type=int, default=None)
        sub.add_argument("--de-gens", dest="de_gens", type=int, default=None)
        sub.add_argument("--de-f", dest="de_f", type=float, default=None)
        sub.add_argument("--de-cr", dest="de_cr", type=float, default=None)
        sub.add_argument("--de-seed", dest="de_seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voteopt",
        description="Per-class weighting for voting ensembles",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("optimize", help="select K classifiers and weights")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--method", choices=("auto", "enumerate", "bnb"), default=None)
    _add_common(p, workers=True, hyper=True)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("baselines", help="run the six reference schemes")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    _add_common(p, de=True)
    p.set_defaults(func=cmd_baselines)

    p = subs.add_parser("evaluate", help="score a weight matrix on predictions")
    p.add_argument("--weights", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--no-auprc", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("resample", help="under/oversample labels to a target")
    p.add_argument("--labels", required=True)
    p.add_argument("--out-indices", required=True)
    p.add_argument("--out-distribution", required=True)
    p.add_argument("--target-rho", dest="target_rho", type=float, default=None)
    p.add_argument("--step-r", dest="step_r", type=int, default=None)
    p.add_argument("--step-rho", dest="step_rho", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_resample)

    p = subs.add_parser("tune", help="hill-climb lam/alpha against predictions")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--lam0", type=float, default=None)
    p.add_argument("--alpha0", type=float, default=None)
    p.add_argument("--dlam", type=float, default=None)
    p.add_argument("--dalpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_tune)

    p = subs.add_parser("sweep", help="K-range x scheme improvement table")
    p.add_argument("--matrix", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--k-min", dest="k_min", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--out-table", required=True)
    _add_common(p, workers=True, de=True, hyper=True)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("validate", help="check a weight file against the model")
    p.add_argument("--matrix", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p, hyper=True)
    p.set_defaults(func=cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a new namespace on every call
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(parser, args)
        return args.func(args)
    except AllSubsetsInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverIncomplete as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
