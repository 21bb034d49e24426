"""Experiment runner: JSON config in, CSV artifacts and a manifest out.

One subcommand (``svpark run --config FILE [--output-dir DIR]``) executes
the study named inside the config.  Every run writes ``manifest.json``
containing the fully resolved configuration and the library version;
running that manifest reproduces the CSV outputs byte for byte.

A run checks every field before any work starts, computes its study in
memory and only then creates the output directory, so a run that exits
non-zero creates no output directory.  Exit codes: 0 success; 2 for every
config error, unknown names and malformed values included; 1 for runtime
failures and for an inadmissible tableau or quadrature.

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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_REF_REFINE, _validate_ladder, strong_error_study, symplecticity_check, weak_error_study
)
from .deterministic import project_state
from .exceptions import (
    ConfigInvalid, InvalidResolution, LadderTooShort, NameNotFound, SvparkError
)
from .model import State, builtin_models, constraint_residual, energy, hidden_residual
from .noise import _is_count, generate
from .solver import DEFAULT_NEWTON, NewtonConfig
from .stochastic import make_stepper, simulate_path

__all__ = ["run", "main", "load_config"]

_MAX_STEPS = 2**31  # a trajectory this long would not fit in memory anyway

_TOP_KEYS = {
    "model", "integrator", "initial_state", "horizon", "step", "noise", "study",
    "observable", "newton", "output_dir", "_manifest",
}


def load_config(path) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:  # ValueError: not UTF-8 text or not JSON
        raise ConfigInvalid(f"cannot read config {path}: {err}") from None
    return _section(config, "config", _TOP_KEYS)


# ---------------------------------------------------------------------------
# Phase 1: read and check every field


def _section(value, name, keys):
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{name} must be a JSON object")
    unknown = set(value) - keys
    if unknown:
        raise ConfigInvalid(f"unknown {name} keys: {sorted(unknown)}")
    return value


def _number(value, name, positive=True):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value) and (value > 0 or not positive):
            return float(value)
    kind = "finite positive" if positive else "finite"
    raise ConfigInvalid(f"{name} must be a {kind} number, got {value!r}")


def _validate_initial_state(system, spec) -> State:
    spec = _section(spec, "initial_state", {"q", "p"})
    try:
        q = np.asarray(spec.get("q"), dtype=float)
        p = np.asarray(spec.get("p"), dtype=float)
    except (TypeError, ValueError):
        raise ConfigInvalid("initial state q and p must be lists of numbers") from None
    n = system.dim_q
    if q.shape != (n,) or p.shape != (n,) or not np.isfinite([q, p]).all():
        raise ConfigInvalid(f"initial state must have finite q and p of length {n}")
    with np.errstate(over="ignore"):  # a far-off q overflows g; the residual still reads inf
        c_res = float(constraint_residual(system, q))
        h_res = float(hidden_residual(system, q, p=p))
        if c_res <= 1e-8 and h_res <= 1e-8:
            return State(q=q, p=p)
        message = (
            f"initial state violates the constraint set: |g(q0)| = {c_res:.3e}, "
            f"|dg.v0| = {h_res:.3e} (tolerance 1e-08)"
        )
        try:
            hint = project_state(system, q, p)
            message += f"; nearest valid state: q = {hint.q.tolist()}, p = {hint.p.tolist()}"
        except SvparkError:
            pass  # the hint is best-effort; the residuals alone explain the rejection
    raise ConfigInvalid(message)


def _noise_paths(noise, num_channels, span):
    if not noise:
        raise ConfigInvalid("this study requires a 'noise' section (seed, paths, base_steps)")
    try:
        return generate(noise.get("seed"), noise.get("paths", noise.get("num_paths")),
                        num_channels, noise.get("base_steps"), span)
    except (InvalidResolution, ValueError) as err:
        raise ConfigInvalid(f"noise: {err}") from None


def _resolve(config):
    """Check every field before any work starts; raise ConfigInvalid if one is bad.

    Returns the manifest (the config with defaults filled in) and the study's arguments.
    """
    resolved = {k: v for k, v in config.items() if k != "_manifest"}
    models = builtin_models()
    model = resolved.setdefault("model", {"name": "spherical_pendulum"})
    name = _section(model, "model", {"name"}).get("name")
    if name not in list(models):  # a list, not the dict: an unhashable name must not raise
        raise ConfigInvalid(f"unknown model {name!r}; available: {sorted(models)}")
    system = models[name]()
    newton = _section(resolved.get("newton", {}), "newton", {"tol", "max_iter"})
    tol = newton.get("tol", DEFAULT_NEWTON.tol_residual)
    max_iter = newton.get("max_iter", DEFAULT_NEWTON.max_iter)
    resolved["newton"] = {"tol": tol, "max_iter": max_iter}
    if not _is_count(max_iter, 1):
        raise ConfigInvalid(f"newton.max_iter must be an integer >= 1, got {max_iter!r}")
    config = NewtonConfig(_number(tol, "newton.tol"), max_iter)
    method = resolved.get("integrator")
    if not isinstance(method, dict):
        raise ConfigInvalid("integrator must be an object with a 'method' name")
    try:
        stochastic = make_stepper(system, method, config).uses_noise and system.num_noise > 0
    except (NameNotFound, ValueError, TypeError) as err:
        raise ConfigInvalid(f"integrator: {err}") from None
    x0 = _validate_initial_state(system, resolved.get("initial_state"))
    horizon = resolved.setdefault("horizon", {"start": 0.0, "end": 1.0})
    _section(horizon, "horizon", {"start", "end"})
    t0 = _number(horizon.get("start"), "horizon.start", positive=False)
    t1 = _number(horizon.get("end"), "horizon.end", positive=False)
    if t1 <= t0:
        raise ConfigInvalid(f"horizon end {t1} must exceed its start {t0}")
    noise = resolved.get("noise") or {}
    _section(noise, "noise", {"seed", "paths", "num_paths", "base_steps"})
    study = resolved.get("study")
    if study not in list(_STUDIES):
        raise ConfigInvalid(f"study must be one of {list(_STUDIES)}, got {study!r}")
    if study != "weak_order" and "observable" in resolved:
        raise ConfigInvalid("observable is read by weak_order only")
    args = {"system": system, "method": method, "x0": x0, "config": config}

    if study in ("strong_order", "weak_order"):
        step = _section(resolved.get("step"), "step", {"h_ladder", "ref_refine"})
        if not isinstance(step.get("h_ladder"), list):
            raise ConfigInvalid(f"{study} needs step.h_ladder, a list of step sizes")
        ladder = [_number(h, "each step.h_ladder entry") for h in step["h_ladder"]]
        ref_refine = step.setdefault("ref_refine", DEFAULT_REF_REFINE)
        paths = _noise_paths(noise, system.num_noise, (t0, t1))
        try:
            _validate_ladder(paths, ladder, ref_refine)
        except (LadderTooShort, ValueError, TypeError) as err:
            raise ConfigInvalid(f"step: {err}") from None
        args.update(paths=paths, ladder=ladder, ref_refine=ref_refine)
        if study == "weak_order":
            observables = {"height": lambda q, p: q[..., 2],
                           "energy": lambda q, p: energy(system, q, p=p)}
            name = resolved.setdefault("observable", "height")
            if name not in list(observables):
                raise ConfigInvalid(f"unknown observable {name!r}; available: height, energy")
            args["observable"] = observables[name]
        return resolved, args

    h = args["h"] = _number(_section(resolved.get("step"), "step", {"h"}).get("h"), "step.h")
    if study == "symplecticity":
        if stochastic:
            one_step = {"seed": noise.get("seed", 0), "paths": 1, "base_steps": 1}
            args["paths"] = _noise_paths(one_step, system.num_noise, (0.0, h))
        return resolved, args
    steps = (t1 - t0) / h
    if not steps <= _MAX_STEPS:  # also catches an overflow to infinity
        raise ConfigInvalid(f"step h = {h} gives {steps:.3g} steps, more than {_MAX_STEPS}")
    num_steps = args["num_steps"] = int(round(steps))
    args["t0"] = t0
    if abs(num_steps * h - (t1 - t0)) > 1e-9:
        raise ConfigInvalid(f"step h = {h} does not divide the horizon length {t1 - t0}")
    if stochastic:
        base = 1 << (num_steps - 1).bit_length()  # the least power of two >= num_steps
        # Over (0, base * h), h is exactly a power-of-two multiple of the base step.
        paths = args["paths"] = _noise_paths(noise, system.num_noise, (0.0, base * h))
        if paths.base_steps < num_steps:
            raise ConfigInvalid("noise base_steps too small for the requested horizon")
    return resolved, args


# ---------------------------------------------------------------------------
# Phase 2: one function per study, each returning (header, rows, summary lines)


def _trajectory(system, method, x0, config, h, num_steps, t0, paths=None):
    traj = simulate_path(system, method, x0, paths, h=h, num_steps=num_steps, config=config)
    coordinates = [f"{x}{i + 1}" for x in "qp" for i in range(system.dim_q)]
    header = ["t", *coordinates, "constraint", "hidden", "energy"]
    rows = np.column_stack(
        [t0 + traj.times, traj.q, traj.p, traj.constraint, traj.hidden, traj.energy]
    )
    return header, rows, [
        f"steps: {num_steps}  h: {_fmt(h)}",
        f"max |g|: {traj.constraint.max():.6e}",
        f"max hidden residual: {traj.hidden.max():.6e}",
        f"energy drift: {traj.energy[-1] - traj.energy[0]:.6e}",
    ]


def _strong_order(system, method, x0, config, paths, ladder, ref_refine):
    result = strong_error_study(
        system, method, x0, paths, ladder, ref_refine=ref_refine, config=config
    )
    position, momentum = result.position, result.momentum
    rows = np.column_stack(
        [position.step_sizes, position.errors, momentum.errors, result.pooled_stderr]
    )
    return ["h", "error_q", "error_p", "stderr"], rows, [
        f"position slope: {position.slope:.4f} (stderr {position.slope_stderr:.4f})",
        f"momentum slope: {momentum.slope:.4f} (stderr {momentum.slope_stderr:.4f})",
    ]


def _weak_order(system, method, x0, config, paths, ladder, ref_refine, observable):
    result = weak_error_study(
        system, method, x0, paths, ladder, observable, ref_refine=ref_refine, config=config
    )
    report = result.report
    rows = np.column_stack([report.step_sizes, report.errors, result.mc_stderr])
    return ["h", "weak_error", "mc_stderr"], rows, [
        f"weak slope: {report.slope:.4f} (stderr {report.slope_stderr:.4f})",
        f"max mc stderr: {np.max(result.mc_stderr):.6e}",
    ]


def _symplecticity(system, method, x0, config, h, paths=None):
    # A stochastic method is frozen at the first increment of path 0: the
    # per-path stream every study draws from.
    dW = paths.increments[0, :, 0] if paths is not None else None
    residual = symplecticity_check(system, method, x0, h, dW=dW, config=config)
    return ["h", "residual"], [[h, residual]], [f"symplecticity residual: {residual:.6e}"]


# study name -> (CSV file name, study function)
_STUDIES = {
    "simulate": ("trajectory.csv", _trajectory),
    "drift": ("drift.csv", _trajectory),
    "strong_order": ("strong.csv", _strong_order),
    "weak_order": ("weak.csv", _weak_order),
    "symplecticity": ("symplecticity.csv", _symplecticity),
}


# ---------------------------------------------------------------------------
# Phase 3: write


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with path.open("w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(x) for x in row) + "\n")


def run(config_path, output_dir=None) -> int:
    """Execute the study described by a config file; returns the exit code.

    Raises ConfigInvalid for a config error before any work starts; the
    output directory is created only once the study has returned.
    """
    resolved, args = _resolve(load_config(config_path))
    if output_dir is not None:
        resolved["output_dir"] = str(output_dir)
    if not isinstance(resolved.setdefault("output_dir", "svpark_out"), str):
        raise ConfigInvalid("output_dir must be a path string")

    csv_name, study = _STUDIES[resolved["study"]]
    header, rows, lines = study(**args)
    summary = [f"svpark {__version__}", f"study: {resolved['study']}",
               f"method: {resolved['integrator']['method']}", *lines]

    out = Path(resolved["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / csv_name, header, rows)
    manifest = dict(resolved, _manifest={"version": __version__})
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
    except SvparkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
