"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --calibrate

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it,
starting with ``#``, give the environment, the raw reference-loop times and
every operation's times. ``--calibrate`` prints the reference loops' median
times on this host, the constants kept in ``steady.NOMINAL_S``.
"""

from __future__ import annotations

import os

# One BLAS thread per Python thread: the process never runs more threads
# than the host has CPUs. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import voteopt; "
                "print(time.perf_counter() - t0)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calibrate", action="store_true")
    args = p.parse_args(argv)
    if not args.calibrate and args.workload is None:
        p.error("--workload is required")
    return args


def import_seconds(env) -> float:
    """Time to import the program in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def measure_setup(workload, refs, env) -> tuple[float, list]:
    """setup_s: median over repeats of (import + inputs + warm-up), steadied.

    Each repeat runs between two reference loops; the loop that closes one
    repeat opens the next.
    """
    ratios, raw = [], []
    refs.measure()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        seconds = import_seconds(env)
        t0 = time.perf_counter()
        workload.setup()
        seconds += time.perf_counter() - t0
        end = time.perf_counter()
        refs.measure()
        raw.append(seconds)
        ratios.append(seconds / refs.around(start, end))
    return statistics.median(ratios), raw


def run_passes(ops, refs, seconds, tracer):
    """Whole passes over the operations until the run length is used.

    Returns per-operation (start, end) samples and first error, the counts
    of attempted and failed operations, the names of operations that failed
    unexpectedly, and the traced run's per-pass layer metrics.
    """
    import steady
    from checks import KnownFault

    stats = {op.name: {"samples": [], "error": None} for op in ops}
    attempted = failed = 0
    unexpected = []
    layers = []
    t_start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for op in ops:
            attempted += 1
            st = stats[op.name]
            run = op.run if tracer is None else _traced(tracer, op.run)
            if refs.age() > steady.INTERVAL_S:
                refs.measure()
            try:
                t0 = time.perf_counter()
                try:
                    result = run()
                finally:
                    t1 = time.perf_counter()
                    if refs.age() > steady.INTERVAL_S:
                        refs.measure()
                st["samples"].append((t0, t1))
                op.check(result)
            except Exception as exc:  # an operation that raises has failed
                failed += 1
                if st["error"] is None:
                    st["error"] = f"{type(exc).__name__}: {exc}"
                if not isinstance(exc, KnownFault):
                    unexpected.append(op.name)
        if tracer is not None:
            layers.append(tracer.take())
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * (time.perf_counter() - p0) >= seconds:
            break
    refs.measure()  # the last operations need a loop after them
    return stats, attempted, failed, unexpected, layers


def _traced(tracer, fn):
    def run():
        tracer.enabled = True
        try:
            return fn()
        finally:
            tracer.enabled = False
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import steady

    if args.calibrate:
        print(json.dumps({"reference_loop_s": steady.calibrate()}))
        return 0
    if not (SRC / "voteopt" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    import numpy as np
    import scipy

    import voteopt  # imported once here; set-up times a fresh import separately
    import voteopt.cli  # noqa: F401

    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        refs = steady.References()
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_ratio, setup_raw = measure_setup(workload, refs, env)
        workload.prepare()
        ops = workload.operations()
        tracer = None
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
        stats, attempted, failed, unexpected, layers = run_passes(
            ops, refs, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    med = statistics.median
    passes = attempted // len(ops)
    timed = [op for op in ops if stats[op.name]["samples"]]
    raw = {op.name: med(t1 - t0 for t0, t1 in stats[op.name]["samples"]) for op in timed}
    steadied = {op.name: med((t1 - t0) / refs.around(t0, t1)
                             for t0, t1 in stats[op.name]["samples"]) * steady.NOMINAL_S
                for op in timed}
    wall_s = sum(steadied.values())
    setup_s = setup_ratio * steady.NOMINAL_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# env python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} voteopt.BACKEND={voteopt.BACKEND} "
          f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()}")
    loops = refs.raw()
    print(f"# reference loop: median {med(loops):.6f} s, min {min(loops):.6f} s, "
          f"max {max(loops):.6f} s over {len(loops)} loops "
          f"(nominal {steady.NOMINAL_S:.6f} s)")
    print(f"# setup raw seconds {[round(x, 4) for x in setup_raw]}, "
          f"steadied {setup_s:.4f} s")
    print("# op  median_raw_s  steadied_s")
    for op in ops:
        st = stats[op.name]
        if st["samples"]:
            print(f"#   {op.name:20s} {raw[op.name]:10.4f} {steadied[op.name]:10.4f}")
        if st["error"]:
            label = "FAILED" if op.name in unexpected else "known fault"
            print(f"#   {label} {op.name}: {st['error']}")
    print(f"# raw_sum={sum(raw.values()):.4f}")
    print(f"# passes={passes} attempted={attempted} failed={failed} "
          f"wall_s={wall_s:.4f} setup_s={setup_s:.4f} peak_rss_mb={peak_rss_mb:.2f}"
          f"{' (traced)' if tracer is not None else ''}")

    if tracer is not None:
        metrics = {name: {"value": statistics.median(p[name] for p in layers), "unit": unit}
                   for name, unit, _ in layertrace.METRICS}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
