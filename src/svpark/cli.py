"""Experiment runner: JSON config in, CSV artifacts and a manifest out.

One subcommand (``svpark run --config FILE [--output-dir DIR]``) executes
the study named inside the config.  Every run writes ``manifest.json``
containing the fully resolved configuration and the library version;
running that manifest reproduces the CSV outputs byte for byte.

Config schema (JSON object)::

    {
      "model":         {"name": "spherical_pendulum"},
      "integrator":    {"method": "stochastic_variational_euler",
                        "tableau": "rattle_trapezoidal",   # vprk methods
                        "quad": {"nu": [...]}},            # stochastic_vprk
      "initial_state": {"q": [...], "p": [...]},
      "horizon":       {"start": 0.0, "end": 1.0},
      "step":          {"h": 0.01}                          # simulate/drift/symplecticity
                       or {"h_ladder": [...], "ref_refine": 64},
      "noise":         {"seed": 1, "paths": 256, "base_steps": 16384},
      "study":         "simulate" | "strong_order" | "weak_order"
                       | "symplecticity" | "drift",
      "observable":    "height" | "energy",                 # weak_order only
      "newton":        {"tol": 1e-12, "max_iter": 50},
      "output_dir":    "results"
    }
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _fmt,
    drift_metrics,
    strong_error_study,
    symplecticity_check,
    weak_error_study,
    write_strong_csv,
    write_weak_csv,
)
from .deterministic import project_state
from .exceptions import ConfigInvalid, NameNotFound, SvparkError
from .model import (
    State,
    builtin_models,
    constraint_residual,
    energy,
    hidden_residual,
)
from .noise import coarsen, generate
from .solver import NewtonConfig
from .stochastic import make_stepper, simulate_path

__all__ = ["run", "main", "load_config"]

_STUDIES = ("simulate", "strong_order", "weak_order", "symplecticity", "drift")
_TOP_KEYS = {
    "model",
    "integrator",
    "initial_state",
    "horizon",
    "step",
    "noise",
    "study",
    "observable",
    "newton",
    "output_dir",
    "_manifest",
}


def _fail(message):
    raise ConfigInvalid(message)


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        _fail(f"config file {path} does not exist")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        _fail(f"config is not valid JSON: {err}")
    if not isinstance(config, dict):
        _fail("config must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}")
    return config


def _resolve(config) -> dict:
    resolved = {k: v for k, v in config.items() if k != "_manifest"}
    resolved.setdefault("model", {"name": "spherical_pendulum"})
    resolved.setdefault("horizon", {"start": 0.0, "end": 1.0})
    resolved.setdefault("newton", {})
    resolved["newton"] = {
        "tol": resolved["newton"].get("tol", 1e-12),
        "max_iter": resolved["newton"].get("max_iter", 50),
    }
    for key in ("integrator", "initial_state", "step", "study"):
        if key not in resolved:
            _fail(f"config is missing required key {key!r}")
    if not isinstance(resolved["integrator"], dict):
        _fail("integrator must be an object with a 'method' name")
    if resolved["study"] not in _STUDIES:
        _fail(f"study must be one of {_STUDIES}, got {resolved['study']!r}")
    if resolved["study"] == "weak_order":
        resolved.setdefault("observable", "height")
    step = resolved["step"]
    if "h_ladder" in step:
        step.setdefault("ref_refine", 64)
    elif "h" not in step:
        _fail("step needs either 'h' or 'h_ladder'")
    return resolved


def _build_system(resolved):
    name = resolved["model"].get("name")
    try:
        factory = builtin_models()[name]
    except KeyError:
        _fail(f"unknown model {name!r}; available: {sorted(builtin_models())}")
    return factory()


def _validate_initial_state(system, resolved) -> State:
    spec = resolved["initial_state"]
    q = np.asarray(spec.get("q"), dtype=float)
    p = np.asarray(spec.get("p"), dtype=float)
    if q.shape != (system.dim_q,) or p.shape != (system.dim_q,):
        _fail(f"initial state must have q and p of length {system.dim_q}")
    c_res = float(constraint_residual(system, q))
    h_res = float(hidden_residual(system, q, p=p))
    if c_res > 1e-8 or h_res > 1e-8:
        hint = project_state(system, q, p)
        _fail(
            f"initial state violates the constraint set: |g(q0)| = {c_res:.3e}, "
            f"|dg.v0| = {h_res:.3e} (tolerance 1e-08); nearest valid state: "
            f"q = {hint.q.tolist()}, p = {hint.p.tolist()}"
        )
    return State(q=q, p=p)


def _observable(system, name):
    if name == "height":
        return lambda q, p: q[..., 2]
    if name == "energy":
        return lambda q, p: energy(system, q, p=p)
    _fail(f"unknown observable {name!r}; available: height, energy")


def _noise_block(resolved, num_channels, T0, T1):
    noise = resolved.get("noise")
    if noise is None:
        _fail("this study requires a 'noise' section (seed, paths, base_steps)")
    num_paths = noise.get("paths", noise.get("num_paths"))
    if num_paths is None or "seed" not in noise or "base_steps" not in noise:
        _fail("noise section needs seed, paths and base_steps")
    return generate(
        noise["seed"], num_paths, num_channels, noise["base_steps"], horizon=(T0, T1)
    )


def _write_trajectory_csv(path, traj, n):
    header = (
        ["t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + ["constraint", "hidden", "energy"]
    )
    lines = [",".join(header)]
    for i in range(len(traj.times)):
        row = (
            [traj.times[i]]
            + list(traj.q[i])
            + list(traj.p[i])
            + [traj.constraint[i], traj.hidden[i], traj.energy[i]]
        )
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def run(config_path, output_dir=None) -> int:
    """Execute the study described by a config file; returns the exit code."""
    config = load_config(config_path)
    resolved = _resolve(config)
    if output_dir is not None:
        resolved["output_dir"] = str(output_dir)
    resolved.setdefault("output_dir", "svpark_out")

    system = _build_system(resolved)
    x0 = _validate_initial_state(system, resolved)
    newton = NewtonConfig(
        tol_residual=resolved["newton"]["tol"], max_iter=resolved["newton"]["max_iter"]
    )
    t0 = float(resolved["horizon"]["start"])
    t1 = float(resolved["horizon"]["end"])
    study = resolved["study"]
    method = resolved["integrator"]
    uses_noise = make_stepper(system, method, newton).uses_noise and system.num_noise > 0
    out = Path(resolved["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    summary = [f"svpark {__version__}", f"study: {study}", f"method: {method['method']}"]

    if study in ("simulate", "drift"):
        h = float(resolved["step"]["h"])
        num_steps = int(round((t1 - t0) / h))
        if abs(num_steps * h - (t1 - t0)) > 1e-9:
            _fail(f"step h = {h} does not divide the horizon length {t1 - t0}")
        view = None
        if uses_noise:
            base = 1
            while base < num_steps:
                base *= 2
            paths = _noise_block(resolved, system.num_noise, t0, t0 + base * h)
            if paths.base_steps < num_steps:
                _fail("noise base_steps too small for the requested horizon")
            view = coarsen(paths, paths.base_steps // base)
        traj = simulate_path(
            system, method, x0, view, path_index=0, h=h, num_steps=num_steps,
            config=newton,
        )
        name = "trajectory.csv" if study == "simulate" else "drift.csv"
        _write_trajectory_csv(out / name, traj, system.dim_q)
        metrics = drift_metrics(traj)
        summary += [
            f"steps: {num_steps}  h: {_fmt(h)}",
            f"max |g|: {metrics.max_constraint:.6e}",
            f"max hidden residual: {metrics.max_hidden:.6e}",
            f"energy drift: {metrics.energy_series[-1] - metrics.energy_series[0]:.6e}",
        ]
    elif study in ("strong_order", "weak_order"):
        ladder = [float(h) for h in resolved["step"]["h_ladder"]]
        ref_refine = int(resolved["step"]["ref_refine"])
        expected_base = int(round((t1 - t0) / (min(ladder) / ref_refine)))
        paths = _noise_block(resolved, system.num_noise, t0, t1)
        if paths.base_steps != expected_base:
            _fail(
                f"noise base_steps = {paths.base_steps} but the ladder needs "
                f"{expected_base} (= horizon / (min(h)/ref_refine))"
            )
        if study == "strong_order":
            result = strong_error_study(
                system, method, x0, paths, ladder, ref_refine=ref_refine, config=newton
            )
            write_strong_csv(out / "strong.csv", result)
            summary += [
                f"position slope: {result.position.slope:.4f} "
                f"(stderr {result.position.slope_stderr:.4f})",
                f"momentum slope: {result.momentum.slope:.4f} "
                f"(stderr {result.momentum.slope_stderr:.4f})",
            ]
        else:
            obs = _observable(system, resolved["observable"])
            result = weak_error_study(
                system, method, x0, paths, ladder, obs,
                ref_refine=ref_refine, config=newton,
            )
            write_weak_csv(out / "weak.csv", result)
            summary += [
                f"weak slope: {result.report.slope:.4f} "
                f"(stderr {result.report.slope_stderr:.4f})",
                f"max mc stderr: {np.max(result.mc_stderr):.6e}",
            ]
    elif study == "symplecticity":
        h = float(resolved["step"]["h"])
        dW = None
        if uses_noise:
            # One step of path 0: the per-path stream every study draws from.
            seed = (resolved.get("noise") or {}).get("seed", 0)
            dW = generate(seed, 1, system.num_noise, 1, horizon=(0.0, h)).increments[0, :, 0]
        residual = symplecticity_check(system, method, x0, h, dW=dW, config=newton)
        (out / "symplecticity.csv").write_text(
            "h,residual\n" + f"{_fmt(h)},{_fmt(residual)}\n"
        )
        summary.append(f"symplecticity residual: {residual:.6e}")

    manifest = dict(resolved)
    manifest["_manifest"] = {"version": __version__}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    for line in summary:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="svpark",
        description="Constrained variational integrator experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute the study described by a config")
    run_parser.add_argument("--config", required=True, help="path to a JSON config")
    run_parser.add_argument("--output-dir", default=None, help="override output_dir")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.output_dir)
    except ConfigInvalid as err:
        print(f"error: invalid config: {err}", file=sys.stderr)
        return 2
    except (SvparkError, NameNotFound) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
