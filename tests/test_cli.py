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
    config = write_config(
        tmp_path, initial_state={"q": [1.1, 0.0, 0.0], "p": [0.0, 0.0, 0.0]}
    )
    code = main(["run", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "|g(q0)|" in captured.err
    assert "nearest valid state" in captured.err


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


def test_symplecticity_run(tmp_path):
    config = write_config(
        tmp_path,
        study="symplecticity",
        integrator={"method": "rattle"},
        step={"h": 0.001},
        noise=None,
    )
    out = tmp_path / "out"
    assert run(config, output_dir=out) == 0
    rows = (out / "symplecticity.csv").read_text().splitlines()
    assert float(rows[1].split(",")[1]) <= 1e-5


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
    "quad", [{"nu": [0.5, 0.5], "kappa": [0.25, 0.0]}, {"nu": [1.0]}]
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
    # increments, exactly like simulate_path on a coarsened view.
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
        sv.State(q=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0]), sv.coarsen(paths, 2),
    )
    assert [row[1:4] for row in rows] == traj.q.tolist()
