"""The benchmark's workloads: inputs built from a seed, timed operations, gates.

A workload is a list of operations run back to back; one pass over the list
is a repetition, and the repetition is what the end-to-end metrics time.
Every operation returns a value from which ``Operation.check`` derives the
bytes compared between repetitions (and between traced and untraced runs)
and the list of correctness problems (empty when the output is correct).

svpark is imported lazily by the workload constructors, so importing this
module costs nothing and does not need the package on the path.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Ladder of the acceptance studies; the time horizon is [0, 1] throughout.
LADDER = tuple(2.0**-k for k in range(4, 9))
RK_LADDER = tuple(2.0**-k for k in range(3, 8))
VPRK = {"method": "stochastic_vprk", "tableau": "rattle_trapezoidal"}
# The seven integrator names the README documents for `svpark run`.
README_METHODS = (
    "rattle",
    "vprk",
    "euler_a",
    "euler_b",
    "stochastic_variational_euler",
    "stochastic_vprk",
    "euler_maruyama_ref",
)


@dataclass
class Operation:
    """One timed call: ``call()`` does the work, ``check(value)`` returns
    (bytes to compare, problems); ``span`` names its operation-level span."""

    label: str
    span: str
    path_steps: int
    call: callable
    check: callable


def _x0():
    import svpark as sv

    return sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))


def _study_path_steps(num_paths, ladder, ref_refine):
    """Path-steps of one study: the reference and every ladder rung."""
    steps = [round(1.0 / h) for h in ladder] + [round(ref_refine / min(ladder))]
    return num_paths * sum(steps)


def _report_bytes(*reports):
    return b"".join(
        np.asarray([r.slope, r.slope_stderr], dtype=float).tobytes() + r.errors.tobytes()
        for r in reports
    )


class EnsembleSve:
    """Weak-order study of the stochastic variational Euler scheme (SVE).

    Why: the acceptance-2 study, scaled down, is the study users wait on
    longest.  Batched Newton and projection solves dominate and the noise
    blocks set the peak RSS.  Two blocks give a block-parallel change
    something to split.
    """

    name = "ensemble-sve"
    BLOCKS = 2
    BLOCK_SIZE = 320
    REF_REFINE = 4
    # Spans that must record calls here: solver, noise, stochastic, analysis.
    required_spans = (
        "deterministic.newton_solve",
        "deterministic.schur_multiplier_solve",
        "solver.residual",
        "solver.jacobian",
        "noise.increment_block",
        "analysis.coarsen_array",
        "stochastic.stochastic_variational_euler_step",
        "analysis.weak_error_study",
    )

    def __init__(self, seed, workdir):
        import svpark as sv

        self.system = sv.spherical_pendulum()
        self.x0 = _x0()
        num_paths = self.BLOCKS * self.BLOCK_SIZE
        base = round(self.REF_REFINE / min(LADDER))
        self.paths = sv.generate(seed, num_paths, self.system.num_noise, base)
        self.operations = [
            Operation(
                "weak_error_study sve",
                "analysis.weak_error_study",
                _study_path_steps(num_paths, LADDER, self.REF_REFINE),
                self._weak_study,
                self._check,
            )
        ]
        _warm_up(self.system, "stochastic_variational_euler", self.x0, seed)

    def _weak_study(self):
        from svpark import analysis

        return analysis.weak_error_study(
            self.system,
            "stochastic_variational_euler",
            self.x0,
            self.paths,
            LADDER,
            lambda q, p: q[..., 2],
            ref_refine=self.REF_REFINE,
            block_size=self.BLOCK_SIZE,
        )

    @staticmethod
    def _check(result):
        report = result.report
        problems = []
        # Acceptance-2 rule; StatisticallyInconclusive is raised by the study.
        if not report.slope >= 1.0 - 2.0 * report.slope_stderr:
            problems.append(
                f"weak slope {report.slope:.3f} below 1 - 2 * {report.slope_stderr:.3f}"
            )
        return _report_bytes(report) + result.mc_stderr.tobytes(), problems


class TrajectoryCli:
    """`svpark run` on a simulate config: SVE, one path, 4096 steps at batch 1.

    Why: it has the shape of `svpark run` and of acceptance 3 (single-path
    steps).  Per-call overhead, the per-step record() and CSV writing
    dominate; noise and batched LAPACK do almost nothing here.
    """

    name = "trajectory-cli"
    STEPS = 4096
    # Spans that must record calls here: cli and stochastic.
    required_spans = (
        "cli.run",
        "cli.simulate_path",
        "stochastic.stochastic_variational_euler_step",
        "deterministic.newton_solve",
        "noise.increment_block",
        "noise.coarsen_array",
    )

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.config = write_simulate_config(
            self.workdir / "simulate.json", "stochastic_variational_euler", seed, self.STEPS
        )
        self.output_dir = self.workdir / "simulate"
        self.operations = [
            Operation("svpark run simulate", "cli.run", self.STEPS, self._run, self._check)
        ]
        run_cli(write_simulate_config(self.workdir / "warm.json",
                                      "stochastic_variational_euler", seed, 4),
                self.workdir / "warm")

    def _run(self):
        return run_cli(self.config, self.output_dir)

    def _check(self, exit_code):
        files = ("trajectory.csv", "summary.txt", "manifest.json")
        data = b"".join((self.output_dir / name).read_bytes() for name in files)
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        table = np.loadtxt(self.output_dir / "trajectory.csv", delimiter=",", skiprows=1)
        # Columns: t, q1..q3, p1..p3, constraint, hidden, energy.
        worst_g, worst_hidden = np.max(table[:, 7]), np.max(table[:, 8])
        if not (worst_g <= 1e-9 and worst_hidden <= 1e-9):
            problems.append(f"max |g| {worst_g:.1e}, max hidden {worst_hidden:.1e} above 1e-9")
        return data, problems

    def bytes_written(self):
        return sum(path.stat().st_size for path in self.output_dir.iterdir())


class EnsembleRkRef:
    """Strong-order studies of stochastic_vprk and of the Euler-Maruyama
    reference on shared paths.

    Why: it uses the solver layer differently (finite-difference Jacobians,
    about 8.5 residual evaluations per Newton iteration) and is the only
    workload where `reduction` runs, at mid-size batches.
    """

    name = "ensemble-rk-ref"
    VPRK_PATHS = 32
    VPRK_REF_REFINE = 8
    EM_PATHS = 256
    EM_REF_REFINE = 4
    # Spans that must record calls here: solver (finite differences),
    # reduction and model.
    required_spans = (
        "solver._fd_jacobian",
        "solver.residual",
        "stochastic._vprk_core",
        "stochastic.euler_maruyama_reference_step",
        "stochastic.reduced_drift_diffusion",
        "model.newton_solve",
        "analysis.strong_error_study",
    )

    def __init__(self, seed, workdir):
        import svpark as sv

        self.system = sv.spherical_pendulum()
        self.x0 = _x0()
        m = self.system.num_noise
        vprk_paths = sv.generate(seed, self.VPRK_PATHS, m,
                                 round(self.VPRK_REF_REFINE / min(RK_LADDER)))
        em_paths = sv.generate(seed, self.EM_PATHS, m, round(self.EM_REF_REFINE / min(LADDER)))
        self.operations = [
            Operation(
                "strong_error_study stochastic_vprk",
                "analysis.strong_error_study",
                _study_path_steps(self.VPRK_PATHS, RK_LADDER, self.VPRK_REF_REFINE),
                lambda: self._strong_study(VPRK, vprk_paths, RK_LADDER, self.VPRK_REF_REFINE),
                self._check,
            ),
            Operation(
                "strong_error_study euler_maruyama_ref",
                "analysis.strong_error_study",
                _study_path_steps(self.EM_PATHS, LADDER, self.EM_REF_REFINE),
                lambda: self._strong_study(
                    "euler_maruyama_ref", em_paths, LADDER, self.EM_REF_REFINE
                ),
                self._check,
            ),
        ]
        _warm_up(self.system, VPRK, self.x0, seed)
        _warm_up(self.system, "euler_maruyama_ref", self.x0, seed)

    def _strong_study(self, method, paths, ladder, ref_refine):
        from svpark import analysis

        return analysis.strong_error_study(
            self.system, method, self.x0, paths, ladder, ref_refine=ref_refine
        )

    @staticmethod
    def _check(result):
        slopes = (result.position.slope, result.momentum.slope)
        problems = [
            f"strong slopes {slopes[0]:.3f}, {slopes[1]:.3f} outside [0.8, 1.2]"
        ] if not all(0.8 <= s <= 1.2 for s in slopes) else []
        data = _report_bytes(result.position, result.momentum) + result.pooled_stderr.tobytes()
        return data, problems


WORKLOADS = {w.name: w for w in (EnsembleSve, TrajectoryCli, EnsembleRkRef)}


def _warm_up(system, method, x0, seed):
    """A tiny strong study: runs every code path of the method once."""
    import svpark as sv

    paths = sv.generate(seed, 2, system.num_noise, 64)
    sv.strong_error_study(system, method, x0, paths, [2.0**-3, 2.0**-4, 2.0**-5], ref_refine=2)


def write_simulate_config(path, method, seed, steps):
    """An `svpark run` simulate config: one path of ``steps`` steps on [0, 1]."""
    config = {
        "model": {"name": "spherical_pendulum"},
        "integrator": {"method": method},
        "initial_state": {"q": [1.0, 0.0, 0.0], "p": [0.0, 0.0, 0.0]},
        "horizon": {"start": 0.0, "end": 1.0},
        "step": {"h": 1.0 / steps},
        "noise": {"seed": seed, "paths": 1, "base_steps": steps},
        "study": "simulate",
    }
    Path(path).write_text(json.dumps(config))
    return Path(path)


def run_cli(config, output_dir):
    """svpark.cli.run with its summary lines kept off this process's stdout."""
    from svpark import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(config, output_dir)


def probe_readme_methods(workdir, seed, steps=8):
    """Run each README method through `svpark run` simulate for a few steps.

    Returns {method: None or the error text}.  Untimed: a method that starts
    working later lowers failed_frac without adding to wall_s.
    """
    outcome = {}
    for method in README_METHODS:
        config = write_simulate_config(Path(workdir) / f"probe-{method}.json", method, seed, steps)
        try:
            code = run_cli(config, Path(workdir) / f"probe-{method}")
            outcome[method] = None if code == 0 else f"exit code {code}"
        except Exception as err:  # a crash is what the probe records
            outcome[method] = f"{type(err).__name__}: {err}"
    return outcome
