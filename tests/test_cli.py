import json

import pytest

import svpark as sv
from svpark.cli import load_config, main, run
from svpark.exceptions import ConfigInvalid


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "model": {"name": "spherical_pendulum"},
        "integrator": {"method": "stochastic_variational_euler"},
        "initial_state": {"q": [1.0, 0.0, 0.0], "p": [0.0, 0.0, 0.0]},
        "horizon": {"start": 0.0, "end": 1.0},
        "step": {"h_ladder": [0.25, 0.125, 0.0625], "ref_refine": 8},
        "noise": {"seed": 77, "num_paths": 16, "base_steps": 128},
        "study": "strong_order",
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "nope.json")


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"study": "simulate", "typo_key": 1}))
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_off_manifold_initial_state_rejected_with_hint(tmp_path, capsys):
    # The hint is best-effort: at q = 0 the retraction meets degenerate
    # constraint gradients, at 1e200 g and its gradient overflow.
    for q0, hinted in ((1.1, True), (0.0, False), (1e200, False)):
        config = write_config(
            tmp_path, initial_state={"q": [q0, 0.0, 0.0], "p": [0.0, 0.0, 0.0]}
        )
        code = main(["run", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "|g(q0)|" in captured.err and "|dg.v0|" in captured.err
        assert ("nearest valid state" in captured.err) == hinted
        assert not (tmp_path / "out").exists()


def test_strong_order_run_produces_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(config, output_dir=out)
    assert code == 0
    assert (out / "strong.csv").is_file()
    assert (out / "manifest.json").is_file()
    assert (out / "summary.txt").is_file()
    summary = (out / "summary.txt").read_text()
    assert "position slope" in summary
    header = (out / "strong.csv").read_text().splitlines()[0]
    assert header == "h,error_q,error_p,stderr"


def test_simulate_run_and_drift(tmp_path):
    config = write_config(
        tmp_path,
        study="drift",
        integrator={"method": "rattle"},
        step={"h": 0.01},
        noise=None,
    )
    out = tmp_path / "out"
    assert run(config, output_dir=out) == 0
    drift = (out / "drift.csv").read_text().splitlines()
    assert drift[0].startswith("t,q1,q2,q3,p1,p2,p3,constraint,hidden,energy")
    assert len(drift) == 102


def test_weak_order_run(tmp_path):
    # uses the canonical "paths" key; "num_paths" is an accepted alias
    config = write_config(
        tmp_path,
        study="weak_order",
        observable="height",
        step={"h_ladder": [0.25, 0.125, 0.0625], "ref_refine": 8},
        noise={"seed": 5, "paths": 64, "base_steps": 128},
    )
    out = tmp_path / "out"
    assert run(config, output_dir=out) == 0
    header = (out / "weak.csv").read_text().splitlines()[0]
    assert header == "h,weak_error,mc_stderr"


def test_identical_runs_are_bitwise_identical(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(config, output_dir=out1) == 0
    assert run(config, output_dir=out2) == 0
    assert (out1 / "strong.csv").read_bytes() == (out2 / "strong.csv").read_bytes()


def test_manifest_rerun_reproduces_outputs(tmp_path):
    config = write_config(tmp_path)
    out1 = tmp_path / "a"
    assert run(config, output_dir=out1) == 0
    manifest = out1 / "manifest.json"
    out2 = tmp_path / "b"
    assert run(manifest, output_dir=out2) == 0
    assert (out1 / "strong.csv").read_bytes() == (out2 / "strong.csv").read_bytes()
    m1 = json.loads(manifest.read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("output_dir"), m2.pop("output_dir")
    assert m1 == m2


def test_inline_tableau_and_energy_observable(tmp_path):
    config = write_config(
        tmp_path,
        study="weak_order",
        observable="energy",
        integrator={
            "method": "stochastic_vprk",
            "tableau": {"a": [[0.0, 0.0], [0.5, 0.5]], "b": [0.5, 0.5]},
            "quad": {"nu": [0.5, 0.5], "kappa": [0.0, 0.0]},
        },
        step={"h_ladder": [0.25, 0.125, 0.0625], "ref_refine": 4},
        noise={"seed": 9, "num_paths": 32, "base_steps": 64},
    )
    out = tmp_path / "out"
    assert run(config, output_dir=out) == 0
    assert (out / "weak.csv").is_file()


def test_cli_entry_point_subprocess(tmp_path):
    import subprocess
    import sys as _sys

    config = write_config(
        tmp_path,
        study="simulate",
        integrator={"method": "rattle"},
        step={"h": 0.05},
        noise=None,
    )
    proc = subprocess.run(
        [_sys.executable, "-m", "svpark.cli", "run", "--config", str(config),
         "--output-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_import_loads_no_scipy():
    """svpark needs numpy only; scipy.stats alone would cost about 0.7 s of
    import time."""
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [_sys.executable, "-c",
         "import sys, svpark, svpark.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_symplecticity_run_with_scipy_blocked(tmp_path):
    # None in sys.modules makes every import of scipy raise ImportError.
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    config = write_config(
        tmp_path, study="symplecticity", step={"h": 0.001}, noise={"seed": 4}
    )
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [_sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; from svpark.cli import main; "
         f"sys.exit(main(['run', '--config', {str(config)!r}, '--output-dir', {str(out)!r}]))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "symplecticity.csv").is_file()


def test_base_steps_mismatch_rejected(tmp_path):
    config = write_config(
        tmp_path, noise={"seed": 1, "num_paths": 4, "base_steps": 64}
    )
    with pytest.raises(ConfigInvalid):
        run(config, output_dir=tmp_path / "out")


def test_unknown_model_rejected(tmp_path):
    config = write_config(tmp_path, model={"name": "double_pendulum"})
    with pytest.raises(ConfigInvalid):
        run(config, output_dir=tmp_path / "out")


def test_missing_study_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"integrator": {"method": "rattle"}}))
    with pytest.raises(ConfigInvalid):
        run(path, output_dir=tmp_path / "out")


README_METHODS = (
    "rattle",
    "vprk",
    "euler_a",
    "euler_b",
    "stochastic_variational_euler",
    "stochastic_vprk",
    "euler_maruyama_ref",
)


def read_trajectory(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [[float(x) for x in row] for row in rows]


@pytest.mark.parametrize("method", README_METHODS)
@pytest.mark.parametrize("study", ["simulate", "drift"])
def test_every_readme_method_runs_through_simulate(tmp_path, method, study):
    config = write_config(
        tmp_path,
        study=study,
        integrator={"method": method},
        step={"h": 0.0625},
        noise={"seed": 3, "paths": 1, "base_steps": 16},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
    rows = read_trajectory(out / f"{'trajectory' if study == 'simulate' else 'drift'}.csv")
    assert len(rows) == 17
    # Columns: t, q1..q3, p1..p3, constraint, hidden, energy.  The explicit
    # reference scheme does not re-enforce the constraints by design.
    if method != "euler_maruyama_ref":
        assert max(row[7] for row in rows) <= 1e-9
        assert max(row[8] for row in rows) <= 1e-9


@pytest.mark.parametrize(
    "quad",
    [
        {"nu": [0.5, 0.5], "kappa": [0.25, 0.0]},
        {"nu": [1.0]},
        {"nu": [0.5, 0.5], "kappa": [0, 0, 0]},
        {"nu": [0.5, 0.5], "kappa": [[0, 0], [0, 0]]},
    ],
)
def test_ignored_quadrature_input_is_rejected(tmp_path, capsys, quad):
    config = write_config(
        tmp_path,
        integrator={"method": "stochastic_vprk", "tableau": "rattle_trapezoidal",
                    "quad": quad},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 1
    assert "not admissible: quadrature" in capsys.readouterr().err
    assert not (out / "strong.csv").exists()


def test_simulate_coarsens_finer_noise(tmp_path):
    # 16 steps on a 32-step Brownian path: every step consumes two base
    # increments, exactly like simulate_path at twice the base step.
    config = write_config(
        tmp_path,
        study="simulate",
        step={"h": 0.0625},
        noise={"seed": 3, "paths": 1, "base_steps": 32},
    )
    out = tmp_path / "out"
    assert run(config, output_dir=out) == 0
    rows = read_trajectory(out / "trajectory.csv")
    paths = sv.generate(3, 1, 3, 32, horizon=(0.0, 1.0))
    traj = sv.simulate_path(
        sv.spherical_pendulum(), "stochastic_variational_euler",
        sv.State(q=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0]), paths, h=0.0625,
    )
    assert [row[1:4] for row in rows] == traj.q.tolist()


def test_simulate_draws_only_path_zero(tmp_path, monkeypatch):
    # A 64-path ensemble integrates path 0 alone: no other path is drawn,
    # and the trajectory is the one of a 1-path ensemble, byte for byte.
    drawn = []
    increment_block = sv.noise.increment_block

    def recorder(seed, path_start, path_stop, *args):
        drawn.append((path_start, path_stop))
        return increment_block(seed, path_start, path_stop, *args)

    monkeypatch.setattr(sv.noise, "increment_block", recorder)
    outputs = []
    for num_paths in (64, 1):
        config = write_config(
            tmp_path, study="simulate", step={"h": 0.0625},
            noise={"seed": 5, "paths": num_paths, "base_steps": 32},
        )
        out = tmp_path / f"out{num_paths}"
        assert run(config, output_dir=out) == 0
        outputs.append((out / "trajectory.csv").read_bytes())
    assert drawn == [(0, 1), (0, 1)]
    assert outputs[0] == outputs[1]


def test_simulate_far_from_time_zero(tmp_path, capsys):
    # At t0 = 1e9 the horizon length t0 + 1.6 - t0 is not 1.6; the noise
    # ensemble is built over (0, 1.6), whose base step is h exactly.
    config = write_config(
        tmp_path, study="simulate", horizon={"start": 1e9, "end": 1e9 + 1}, step={"h": 0.1},
        noise={"seed": 3, "paths": 1, "base_steps": 16},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0, (
        capsys.readouterr().err
    )
    rows = read_trajectory(out / "trajectory.csv")
    assert len(rows) == 11 and rows[0][0] == 1e9


def test_trajectory_times_start_at_the_horizon_start(tmp_path):
    config = write_config(
        tmp_path, study="simulate", integrator={"method": "rattle"},
        horizon={"start": 10.0, "end": 11.0}, step={"h": 0.25}, noise=None,
    )
    out = tmp_path / "out"
    assert run(config, output_dir=out) == 0
    times = [row[0] for row in read_trajectory(out / "trajectory.csv")]
    assert times == [10.0, 10.25, 10.5, 10.75, 11.0]


@pytest.mark.parametrize(
    "integrator, code",
    [
        ({"method": "stochastic_variational_euler", "tableau": "euler_a",
          "quad": {"nu": [7.0]}}, 2),
        ({"method": "vprk", "quad": {"nu": [0.9, 0.1]}}, 2),
        ({"method": "vprk", "tablaeu": "euler_a"}, 2),
        ({"method": "stochastic_vprk", "quad": {"nu": [0.5, 0.5], "kapa": [0.0]}}, 2),
        ({"method": "stochastic_vprk", "quad": {"kappa": [0.0, 0.0]}}, 2),
        ({"method": "stochastic_vprk", "tableau": "rattle_trapezoidal"}, 0),
    ],
)
def test_integrator_keys_the_method_does_not_read_are_rejected(
    tmp_path, capsys, integrator, code
):
    config = write_config(
        tmp_path,
        study="simulate",
        integrator=integrator,
        step={"h": 0.0625},
        noise={"seed": 3, "paths": 1, "base_steps": 16},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == code
    assert (out / "trajectory.csv").exists() == (code == 0)
    if code:
        assert "invalid config: integrator" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "integrator",
    [
        {"tableau": "rattle_trapezoidal"},
        "rattle",
        {"method": ["rattle"]},
    ],
)
def test_malformed_integrator_section_exits_2_without_output(
    tmp_path, capsys, integrator
):
    config = write_config(tmp_path, study="simulate", integrator=integrator, step={"h": 0.0625})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 2
    assert "invalid config: integrator" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", README_METHODS)
def test_symplecticity_run(tmp_path, method):
    # The variational maps sit at the finite-difference floor (about 5e-11);
    # the explicit reference scheme reads about 2e-5 at this state.
    config = write_config(
        tmp_path,
        study="symplecticity",
        integrator={"method": method},
        initial_state={"q": [1.0, 0.0, 0.0], "p": [0.0, 0.3, 0.0]},
        step={"h": 0.001},
        noise={"seed": 4},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 0
    rows = (out / "symplecticity.csv").read_text().splitlines()
    residual = float(rows[1].split(",")[1])
    if method == "euler_maruyama_ref":
        assert residual >= 1e-6
    else:
        assert residual <= 1e-9


def test_stochastic_symplecticity_run_replays_from_manifest(tmp_path):
    config = write_config(
        tmp_path,
        study="symplecticity",
        step={"h": 0.001},
        noise={"seed": 4},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(config, output_dir=out1) == 0
    rows = (out1 / "symplecticity.csv").read_text().splitlines()
    assert float(rows[1].split(",")[1]) <= 1e-5
    assert run(out1 / "manifest.json", output_dir=out2) == 0
    assert (out1 / "symplecticity.csv").read_bytes() == (
        out2 / "symplecticity.csv"
    ).read_bytes()


SIMULATE = {"study": "simulate", "integrator": {"method": "rattle"},
            "step": {"h": 0.0625}, "noise": None}
SVE_SIMULATE = dict(SIMULATE, integrator={"method": "stochastic_variational_euler"},
                    noise={"seed": 3, "paths": 1, "base_steps": 16})
NOISE = {"seed": 77, "paths": 16, "base_steps": 128}


def vprk(tableau):
    return dict(SIMULATE, integrator={"method": "vprk", "tableau": tableau})


def state(q=(1.0, 0.0, 0.0), p=(0.0, 0.0, 0.0)):
    return {"initial_state": {"q": list(q), "p": list(p)}}


# Each case overrides the strong-order config of write_config.  Exit 2 is a
# config error, exit 1 a runtime failure; neither may leave output behind.
REJECTED = {
    "h-not-a-number": (dict(SIMULATE, step={"h": "abc"}), 2),
    "h-zero": (dict(SIMULATE, step={"h": 0}), 2),
    "h-negative": (dict(SIMULATE, step={"h": -0.0625}), 2),
    "h-not-dividing-horizon": (dict(SIMULATE, step={"h": 0.3}), 2),
    "h-subnormal-step-count-overflows": (dict(SIMULATE, step={"h": 5e-324}), 2),
    "h-tiny-step-count-too-large": (dict(SIMULATE, step={"h": 1e-12}), 2),
    "h-ladder-to-simulate": (dict(SIMULATE, step={"h_ladder": [0.25, 0.125, 0.0625]}), 2),
    "h-to-strong-order": ({"step": {"h": 0.0625}}, 2),
    "h-ladder-not-a-list": ({"step": {"h_ladder": 0.25, "ref_refine": 8}}, 2),
    "horizon-reversed": (dict(SIMULATE, horizon={"start": 1.0, "end": 0.0}), 2),
    "horizon-incomplete": (dict(SIMULATE, horizon={"start": 0.0}), 2),
    "model-not-an-object": ({"model": "spherical_pendulum"}, 2),
    "study-unknown": ({"study": "energy_drift"}, 2),
    "noise-not-an-object": ({"noise": [1]}, 2),
    "noise-missing": ({"noise": None}, 2),
    "noise-without-base-steps": ({"noise": {"seed": 1, "paths": 16}}, 2),
    "noise-paths-zero": ({"noise": dict(NOISE, paths=0)}, 2),
    "noise-paths-fractional": ({"noise": dict(NOISE, paths=2.5)}, 2),
    "noise-seed-negative": ({"noise": dict(NOISE, seed=-1)}, 2),
    "noise-seed-fractional": ({"noise": dict(NOISE, seed=1.5)}, 2),
    "base-steps-not-power-of-two": ({"noise": dict(NOISE, base_steps=100)}, 2),
    "base-steps-not-matching-ladder": ({"noise": dict(NOISE, base_steps=64)}, 2),
    "base-steps-too-small-for-simulate": (
        dict(SVE_SIMULATE, noise={"seed": 3, "paths": 1, "base_steps": 8}), 2),
    "ladder-too-short": ({"step": {"h_ladder": [0.25, 0.125], "ref_refine": 8},
                          "noise": dict(NOISE, base_steps=64)}, 2),
    "ladder-not-dyadic": ({"step": {"h_ladder": [0.25, 0.2, 0.0625], "ref_refine": 8}}, 2),
    "ref-refine-one": ({"step": {"h_ladder": [0.25, 0.125, 0.0625], "ref_refine": 1},
                        "noise": dict(NOISE, base_steps=16)}, 2),
    "observable-unknown": ({"study": "weak_order", "observable": "velocity"}, 2),
    "observable-outside-weak-order": ({"observable": "height"}, 2),
    "newton-tol-negative": ({"newton": {"tol": -1}}, 2),
    "newton-max-iter-zero": ({"newton": {"max_iter": 0}}, 2),
    "newton-not-an-object": ({"newton": [1e-12, 50]}, 2),
    "method-unknown": ({"integrator": {"method": "leapfrog"}}, 2),
    "tableau-unknown": (vprk("radau"), 2),
    "tableau-b-wrong-length": (vprk({"a": [[0.0, 0.0], [0.5, 0.5]], "b": [1.0]}), 2),
    "tableau-without-a": (vprk({"b": [1.0]}), 2),
    "tableau-unknown-key": (
        vprk({"a": [[0.0, 0.0], [0.5, 0.5]], "b": [0.5, 0.5], "bb": [1, 2]}), 2),
    "q-not-numbers": (state(q=("a", 0.0, 0.0)), 2),
    "q-nan": (state(q=(float("nan"), 0.0, 0.0)), 2),
    "q-infinite": (state(q=(float("inf"), 0.0, 0.0)), 2),
    "q-zero": (state(q=(0.0, 0.0, 0.0)), 2),
    "p-nan": (state(p=(0.0, float("nan"), 0.0)), 2),
    "newton-max-iter-one-at-h-half": (
        dict(SIMULATE, step={"h": 0.5}, newton={"max_iter": 1}), 1),
    "fast-spin-at-h-one": (dict(SIMULATE, step={"h": 1.0}, **state(p=(0.0, 50.0, 0.0))), 1),
}


@pytest.mark.parametrize("overrides, code", list(REJECTED.values()), ids=list(REJECTED))
def test_rejected_run_prints_one_error_and_writes_nothing(tmp_path, capsys, overrides, code):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_study_newton_failure_exits_1_naming_the_path(tmp_path, capsys):
    config = write_config(tmp_path, newton={"max_iter": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    # The study's one block holds all 16 paths; the index is the path's.
    assert err.startswith("error: paths 0 to 15: step 0 of ") and "at batch index" in err, err
    assert not out.exists()


def test_output_dir_that_is_not_a_string_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, study="simulate", integrator={"method": "rattle"},
                          step={"h": 0.25}, noise=None, output_dir=5)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 2
    assert "output_dir must be a path string" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "nu, named",
    [
        ([[0.5], [0.5]], "of shape (2, 1)"),
        (None, "nan of shape ()"),
        ([0.5, float("nan")], "[0.5, nan] of shape (2,)"),
        ("half", "'half' is not 2 numbers"),
    ],
    ids=["2-d", "null", "nan-entry", "not-numbers"],
)
def test_quadrature_nu_that_is_not_s_finite_numbers_exits_1(tmp_path, capsys, nu, named):
    config = write_config(
        tmp_path, integrator={"method": "stochastic_vprk", "quad": {"nu": nu}}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not admissible: quadrature nu = " in err and named in err, err
    assert not out.exists()
