"""svpark benchmark: one workload per call, each in fresh worker processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-sve --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py.  With ``--trace 0`` the worker
repeats the workload's operations for as many whole repetitions as fit in
``--seconds`` seconds (at least one) and reports the end-to-end metrics:
wall_s (median wall time of one repetition), us_per_path_step, peak_rss_mb,
setup_s (median over SETUP_RUNS fresh processes of process start to the
first timed call) and failed_frac.  With ``--trace 1`` the worker alternates
two untraced and two traced repetitions and reports the per-layer metrics
of spans.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it record the machine and
library versions, the wall time of every timed repetition, the set-up
samples and the probe's outcome per method.  ``attempted`` and ``failed``
count the workload's distinct operations; failed_frac also counts the
untimed `svpark run` probe of the seven README methods, so a method that
starts working lowers it.  Traces are written to .bench_out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "us_per_path_step": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_frac": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def per_layer_unit(name):
    if name.endswith("us_per_path_step"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_call"):
        return "iters/call"
    return "count"


def launch(args, deadline, *extra):
    """Run one worker; returns (monotonic launch time, its JSON result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"worker did not finish within the time limit: {err}") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return launched, json.loads(lines[-1])


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        _, result = launch(args, deadline)
        units = {name: per_layer_unit(name) for name in result["metrics"]}
    else:
        setup = []
        for _ in range(SETUP_RUNS - 1):
            launched, probe = launch(args, deadline, "--setup-only")
            setup.append(probe["first_call"] - launched)
        launched, result = launch(args, deadline)
        setup.append(result["first_call"] - launched)
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    return result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "svpark" / "__init__.py").is_file():
        print("error: run from the root of an svpark checkout (src/svpark not found)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        result, metrics = measure(args)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    details = {
        key: result[key]
        for key in ("repetition_walls_s", "setup_samples_s", "probe")
        if key in result
    }
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
