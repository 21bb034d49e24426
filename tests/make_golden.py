"""Regenerate tests/golden.json, the bit patterns of short ``integrate`` runs.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/make_golden.py          # rewrite the file
    PYTHONPATH=src python3 tests/make_golden.py --check  # compare, write nothing

Each case integrates 8 paths for 64 steps of h = 2^-6 with one method on
one system, the spherical pendulum or the k = 2 circle of test_separable.py,
and records the final positions, momenta, velocities and multipliers (as
``float.hex``) and every step's Newton iteration count.  The file also
records its environment: the numpy version, the BLAS library and the
machine; test_golden.py compares bit for bit when they match.  ``--check``
exits 1 when the computed case names or schema (fields and array shapes)
differ from the file's.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

import svpark as sv

from conftest import random_states
from test_separable import circle_system

GOLDEN = Path(__file__).resolve().parent / "golden.json"
PATHS, STEPS = 8, 64
TRAPEZOID = "rattle_trapezoidal"
METHODS = {
    "rattle": "rattle",
    "euler_a": "euler_a",
    "euler_b": "euler_b",
    "sve": "stochastic_variational_euler",
    "vprk": {"method": "vprk", "tableau": TRAPEZOID},
    "stochastic_vprk": {"method": "stochastic_vprk", "tableau": TRAPEZOID},
}
SYSTEMS = {"pendulum": sv.spherical_pendulum, "circle": circle_system}
CASES = [f"{model}/{method}" for model in SYSTEMS for method in METHODS]


def environment():
    """What decides the bits besides the code: numpy, its BLAS, the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _floats(x):
    x = np.asarray(x, dtype=float)
    return {"shape": list(x.shape), "hex": [float(v).hex() for v in x.ravel()]}


def run_case(name):
    """The record of one case: final q, p, velocity and multipliers, and the
    Newton iteration count of every step."""
    model, method = name.split("/")
    system = SYSTEMS[model]()
    states = random_states(system, PATHS, np.random.default_rng(21), velocity_scale=0.5)
    x0 = sv.State(q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states]))
    spec = METHODS[method]
    noisy = sv.make_stepper(system, spec).uses_noise
    increments = sv.generate(5, PATHS, system.num_noise, STEPS).increments if noisy else None
    iters = []
    for result in sv.integrate(system, spec, x0, increments, 1.0 / STEPS, STEPS):
        iters.append(int(result.newton_iters))
    return {
        "q": _floats(result.state.q),
        "p": _floats(result.state.p),
        "velocity": _floats(result.velocity),
        "multipliers": [_floats(m) for m in result.multipliers],
        "newton_iters": iters,
    }


def schema(cases):
    """Per case, its fields with the shapes of their arrays."""
    def shape(value):
        if isinstance(value, dict):
            return value["shape"]
        if value and isinstance(value[0], dict):
            return [shape(v) for v in value]
        return "ints"

    return {name: {field: shape(value) for field, value in case.items()}
            for name, case in cases.items()}


def render(cases):
    """The file's text: the environment, then one line per case."""
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in cases.items())
    return f'{{\n "environment": {json.dumps(environment())},\n "cases": {{\n{body}\n }}\n}}\n'


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if the case names or schema differ")
    args = parser.parse_args()
    cases = {name: run_case(name) for name in CASES}
    if not args.check:
        GOLDEN.write_text(render(cases))
        return 0
    stored = json.loads(GOLDEN.read_text())
    if set(stored) != {"environment", "cases"} or set(stored["environment"]) != set(environment()):
        print(f"{GOLDEN.name}: top-level keys differ", file=sys.stderr)
        return 1
    want, got = schema(stored["cases"]), schema(cases)
    if list(want) != list(got):
        print(f"{GOLDEN.name}: cases {list(want)}, computed {list(got)}", file=sys.stderr)
        return 1
    differ = [name for name in want if want[name] != got[name]]
    if differ:
        print(f"{GOLDEN.name}: schema differs for {differ}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
