"""One workload in one fresh process; started by run.py, not by hand.

Run from the root of a checkout.  Imports svpark from ./src, builds the
workload's inputs from the seed, then either stops (``--setup-only``), runs
the timed loop (``--trace 0``), or runs the traced checks (``--trace 1``).
The last line of stdout is one JSON object for run.py.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import (
    EXACT_COUNTS,
    CoverageError,
    Tracer,
    instrument,
    reduce_spans,
    write_spans,
)
from workloads import WORKLOADS, probe_readme_methods

OUT_DIR = Path(".bench_out")


def environment():
    """Machine and library versions plus the BLAS thread setting."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*.so*"))
    for lib in libs:
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
        break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def run_repetition(workload, tracer=None):
    """One pass over the workload's operations.

    Returns (wall seconds, [checked (bytes, problems) per operation]).  Only
    the operation calls are timed; an operation that raises yields
    (None, [traceback]).
    """
    wall = 0.0
    checked = []
    for index, op in enumerate(workload.operations):
        try:
            start = time.perf_counter()
            if tracer is None:
                value = op.call()
            else:
                tracer.op = index
                with tracer.span(op.span):
                    value = op.call()
            wall += time.perf_counter() - start
        except Exception:  # an operation failure is a result, not a crash
            checked.append((None, [traceback.format_exc()]))
            continue
        checked.append(op.check(value))
    return wall, checked


def failures(workload, repetitions):
    """Per operation: the problems across repetitions, and whether its output
    differs bitwise from the one of the first repetition."""
    found = []
    for index, op in enumerate(workload.operations):
        reference = repetitions[0][index][0]
        problems = []
        for data, more in (rep[index] for rep in repetitions):
            if reference is not None and data != reference:
                more = more + [f"{op.label}: output differs from the first run"]
            problems += [p for p in more if p not in problems]
        found.append(problems)
    return found


def timed_run(workload, seconds, seed, workdir):
    walls, repetitions = [], []
    start = time.perf_counter()
    while True:
        wall, checked = run_repetition(workload)
        walls.append(wall)
        repetitions.append(checked)
        # Stop before a repetition that would end after the measuring window.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds or any(d is None for d, _ in checked):
            break
    problems = failures(workload, repetitions)
    probe = probe_readme_methods(workdir, seed)
    failed = sum(1 for p in problems if p)
    probe_failed = sum(1 for error in probe.values() if error)
    wall_s = statistics.median(walls)
    path_steps = sum(op.path_steps for op in workload.operations)
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    for method, error in probe.items():
        if error:
            print(f"probe {method}: {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(workload.operations),
        "failed": failed,
        "problems": [p for ps in problems for p in ps],
        "metrics": {
            "wall_s": wall_s,
            "us_per_path_step": wall_s * 1e6 / path_steps,
            "peak_rss_mb": rss_kib / 1024.0,
            "failed_frac": (failed + probe_failed) / (len(workload.operations) + len(probe)),
        },
        "repetition_walls_s": walls,
        "probe": probe,
    }


def traced_run(workload, import_s):
    """Untraced and traced repetitions, alternating, two of each: the
    exact-repeat and no-perturbation checks and the coverage guard."""
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(run_repetition(workload))
        tracer = Tracer()
        with instrument(tracer):
            wall, checked = run_repetition(workload, tracer)
        traced.append((tracer, wall, checked))
    tracer = traced[0][0]
    metrics, second = (reduce_spans(t.spans) for t, _, _ in traced)

    recorded = {span.name for span in tracer.spans}
    missing = [name for name in workload.required_spans if name not in recorded]
    if missing:
        raise CoverageError(f"{workload.name}: no calls recorded for {', '.join(missing)}")

    per_op = failures(workload, [c for _, c in untraced] + [c for _, _, c in traced])
    problems = [
        f"{name}: {metrics[name]} then {second[name]} in two traced runs"
        for name in EXACT_COUNTS
        if metrics[name] != second[name]
    ]
    path_steps = sum(op.path_steps for op in workload.operations)
    if metrics["stochastic.path_steps"] != path_steps:
        problems.append(
            f"traced path-steps {metrics['stochastic.path_steps']} != expected {path_steps}"
        )
    # A count mismatch cannot be pinned on one operation: all of them fail.
    failed = len(per_op) if problems else sum(1 for p in per_op if p)
    problems += [p for ps in per_op for p in ps]
    metrics["cli.bytes_written"] = getattr(workload, "bytes_written", lambda: 0)()
    metrics["setup.import_s"] = import_s
    traced_wall = statistics.median(wall for _, wall, _ in traced)
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(w for w, _ in untraced) - 1.0
    return tracer, {
        "correct": not problems,
        "attempted": len(workload.operations),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(Path("src").resolve()))
    import svpark  # noqa: F401
    import svpark.cli  # noqa: F401

    import_s = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        first_call = time.monotonic()
        if args.setup_only:
            result = {}
        elif args.trace:
            tracer, result = traced_run(workload, import_s)
        else:
            result = timed_run(workload, args.seconds, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["first_call"] = first_call
    if not args.setup_only:
        result["environment"] = environment()
        if args.trace:
            extra = {key: result[key] for key in ("environment", "metrics")}
            write_spans(OUT_DIR / f"spans-{args.workload}.json", tracer.spans,
                        {"workload": args.workload, "seed": args.seed, **extra})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
