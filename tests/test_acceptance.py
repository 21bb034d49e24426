"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

Each test prints a PASS/FAIL line (run pytest with -s to see them all).
The weak-order study integrates 10^4 paths against a reference at the
finest resolution and dominates the suite's runtime (about ten minutes);
everything else finishes in well under a minute each.
"""

import json
import time

import numpy as np
import pytest

import svpark as sv
from svpark.cli import run as cli_run
from svpark.noise import coarsen_array

from conftest import random_states

SEED = 20260809
X0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))
LADDER = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8]


def report(index, ok, detail):
    print(f"\nacceptance {index}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_1_strong_order_one():
    system = sv.spherical_pendulum()
    start = time.time()
    paths = sv.generate(SEED, 256, 3, 2**14, horizon=(0.0, 1.0))
    result = sv.strong_error_study(
        system, "stochastic_variational_euler", X0, paths, LADDER, ref_refine=64
    )
    elapsed = time.time() - start
    sq, sp = result.position.slope, result.momentum.slope
    ok = 0.8 <= sq <= 1.2 and 0.8 <= sp <= 1.2 and elapsed < 300.0
    report(
        1,
        ok,
        f"strong slopes: position {sq:.3f}, momentum {sp:.3f}; {elapsed:.0f}s",
    )


def test_2_weak_order_at_least_strong():
    system = sv.spherical_pendulum()
    paths = sv.generate(SEED + 1, 10_000, 3, 2**14, horizon=(0.0, 1.0))
    result = sv.weak_error_study(
        system,
        "stochastic_variational_euler",
        X0,
        paths,
        LADDER,
        lambda q, p: q[..., 2],
        ref_refine=64,
        block_size=1024,
    )
    slope = result.report.slope
    stderr = result.report.slope_stderr
    gate = slope >= 1.0 - 2.0 * stderr
    noise_ok = result.mc_stderr.max() < 0.5 * result.report.errors.max()
    report(
        2,
        gate and noise_ok,
        f"weak slope {slope:.3f} (stderr {stderr:.3f}), "
        f"max mc stderr {result.mc_stderr.max():.2e} vs "
        f"max error {result.report.errors.max():.2e}",
    )


def test_3_deterministic_rattle_order_two():
    system = sv.without_noise(sv.spherical_pendulum())
    x0 = sv.project_state(system, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5]))
    paths = sv.generate(SEED, 1, 0, 2**18, horizon=(0.0, 1.0))
    result = sv.strong_error_study(system, "rattle", x0, paths, LADDER, ref_refine=1024)
    sq, sp = result.position.slope, result.momentum.slope
    ok = 1.8 <= sq <= 2.2 and 1.8 <= sp <= 2.2
    report(3, ok, f"rattle slopes: position {sq:.3f}, momentum {sp:.3f}")


def _max_residuals(system, method, x0, increments, h, num_steps):
    worst_g = 0.0
    worst_hidden = 0.0
    for result in sv.integrate(system, method, x0, increments, h, num_steps):
        state, v = result.state, result.velocity
        worst_g = max(worst_g, float(np.max(np.abs(system.constraint(state.q)))))
        Gv = (system.dg_dq(state.q) @ v[..., None])[..., 0]
        worst_hidden = max(worst_hidden, float(np.max(np.abs(Gv))))
    return worst_g, worst_hidden


def test_4_constraint_preservation_all_integrators():
    system = sv.spherical_pendulum()
    h = 2.0**-7
    num_steps = 10_000
    rng = np.random.default_rng(SEED)
    states = random_states(system, 16, rng)
    det_x0 = sv.State(
        q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states])
    )
    paths = sv.generate(SEED + 2, 16, 3, 2**14, horizon=(0.0, 2**14 * h))
    inc = paths.increments[:, :, :num_steps]
    deterministic = {
        "vprk(rattle tableau)": {"method": "vprk", "tableau": "rattle_trapezoidal"},
        "rattle": "rattle",
        "euler_a+projection": "euler_a",
        "euler_b+projection": "euler_b",
    }
    stochastic = {
        "stochastic_variational_euler": "stochastic_variational_euler",
        "stochastic_vprk": {
            "method": "stochastic_vprk",
            "tableau": "rattle_trapezoidal",
        },
    }
    details = []
    ok = True
    for label, method in deterministic.items():
        g, hid = _max_residuals(system, method, det_x0, None, h, num_steps)
        ok &= g <= 1e-9 and hid <= 1e-9
        details.append(f"{label}: |g| {g:.1e}, hidden {hid:.1e}")
    for label, method in stochastic.items():
        g, hid = _max_residuals(system, method, X0, inc, h, num_steps)
        ok &= g <= 1e-9 and hid <= 1e-9
        details.append(f"{label}: |g| {g:.1e}, hidden {hid:.1e}")
    report(4, ok, "; ".join(details))


def test_5_numerical_symplecticity():
    system = sv.spherical_pendulum()
    rng = np.random.default_rng(SEED + 3)
    h = 1e-3
    worst_rattle = 0.0
    worst_sve = 0.0
    for state in random_states(system, 20, rng):
        worst_rattle = max(
            worst_rattle, sv.symplecticity_check(system, "rattle", state, h)
        )
        dW = rng.standard_normal(3) * np.sqrt(h)
        worst_sve = max(
            worst_sve,
            sv.symplecticity_check(
                system, "stochastic_variational_euler", state, h, dW=dW
            ),
        )
    # Negative control: the explicit reference scheme at an energetic state.
    # Its symplectic defect on this model is O(h^2) with a coefficient that
    # grows with the kinetic energy, so a swinging state shows it clearly.
    quiet = sv.without_noise(system)
    x_neg = sv.project_state(quiet, np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 2.0]))
    negative = sv.symplecticity_check(quiet, "euler_maruyama_ref", x_neg, 1e-2)
    ok = worst_rattle <= 1e-5 and worst_sve <= 1e-5 and negative >= 1e-3
    report(
        5,
        ok,
        f"rattle residual {worst_rattle:.1e}, stochastic euler {worst_sve:.1e}, "
        f"negative control {negative:.1e}",
    )


def test_6_reduction_identities():
    system = sv.spherical_pendulum()
    rng = np.random.default_rng(SEED + 4)
    worst_pb = 0.0
    worst_idem = 0.0
    worst_curv = 0.0
    worst_gram = 0.0
    worst_proj = 0.0
    for state in random_states(system, 100, rng):
        q = state.q
        v = rng.standard_normal(3)
        mats = sv.projection_matrices(system, q, v)
        B = mats.projector
        I = np.eye(3)
        worst_idem = max(worst_idem, float(np.max(np.abs(B @ B - B))))
        worst_pb = max(worst_pb, float(np.max(np.abs((I - B) @ B))))
        curv = system.dg_dq(q).T @ np.linalg.solve(
            mats.gram, system.d2g_dq2_vv(q, v)
        )
        worst_curv = max(worst_curv, float(np.max(np.abs((I - B) @ curv))))
        worst_gram = max(worst_gram, float(np.max(np.abs(mats.gram - 4.0))))
        worst_proj = max(worst_proj, float(np.max(np.abs(B - np.outer(q, q)))))
    ok = (
        worst_pb <= 1e-10
        and worst_curv <= 1e-10
        and worst_idem <= 1e-10
        and worst_gram <= 1e-12
        and worst_proj <= 1e-12
    )
    report(
        6,
        ok,
        f"(I-B)B {worst_pb:.1e}, curvature annihilation {worst_curv:.1e}, "
        f"idempotency {worst_idem:.1e}, gram-4 {worst_gram:.1e}, "
        f"B-qq^T {worst_proj:.1e}",
    )


def test_7_equivalence_oracles():
    system = sv.spherical_pendulum()
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    rng = np.random.default_rng(SEED + 5)
    h = 1e-2

    worst_cross = 0.0
    for state in random_states(system, 50, rng):
        a = sv.rattle_step(system, state, h)
        b = sv.vprk_step(system, tab, state, h)
        worst_cross = max(
            worst_cross,
            float(np.max(np.abs(a.state.q - b.state.q))),
            float(np.max(np.abs(a.state.p - b.state.p))),
        )

    worst_zero = 0.0
    for state in random_states(system, 10, rng):
        dW = np.zeros(3)
        d1 = sv.euler_b_with_projection(system, state, h).state
        s1 = sv.stochastic_variational_euler_step(system, state, dW, h).state
        d2 = sv.vprk_step(system, tab, state, h).state
        s2 = sv.stochastic_vprk_step(system, tab, None, state, dW, h).state
        worst_zero = max(
            worst_zero,
            float(np.max(np.abs(np.concatenate([s1.q - d1.q, s1.p - d1.p])))),
            float(np.max(np.abs(np.concatenate([s2.q - d2.q, s2.p - d2.p])))),
        )

    # One-step agreement with the explicit reference scheme on shared
    # increments, from the rest state: momentum gaps shrink by about 4 per
    # halving (the O(h^2) agreement); position gaps carry the zero-mean
    # noise kick through the position update and decay at O(h^{3/2}).
    B = 512
    base = sv.generate(SEED + 6, B, 3, 2**12, horizon=(0.0, 1.0)).increments
    qb = np.broadcast_to(X0.q, (B, 3)).copy()
    pb = np.broadcast_to(X0.p, (B, 3)).copy()
    vb = np.zeros((B, 3))
    hs = [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]
    gap_p, gap_q = [], []
    for hh in hs:
        factor = int(round(hh * 2**12))
        dW = coarsen_array(base, factor)[:, :, 0]
        r = sv.stochastic_variational_euler_step(system, sv.State(q=qb, p=pb), dW, hh)
        em = sv.euler_maruyama_reference_step(system, sv.State(q=qb, p=pb), dW, hh, v=vb).state
        gap_p.append(np.sqrt(np.mean(np.sum((r.state.p - em.p) ** 2, axis=-1))))
        gap_q.append(np.sqrt(np.mean(np.sum((r.state.q - em.q) ** 2, axis=-1))))
    ratios = np.array(gap_p[:-1]) / np.array(gap_p[1:])
    slope_q, _ = sv.fit_loglog_slope(hs, gap_q)
    richardson_ok = bool(np.all((ratios >= 3.2) & (ratios <= 4.8)))
    ok = worst_cross <= 1e-10 and worst_zero <= 1e-10 and richardson_ok
    report(
        7,
        ok,
        f"rattle-vprk gap {worst_cross:.1e}, zero-noise gap {worst_zero:.1e}, "
        f"momentum Richardson ratios {np.round(ratios, 2).tolist()}, "
        f"position gap slope {slope_q:.2f}",
    )


def test_8_reproducibility_from_manifest(tmp_path):
    config = {
        "model": {"name": "spherical_pendulum"},
        "integrator": {"method": "stochastic_variational_euler"},
        "initial_state": {"q": [1.0, 0.0, 0.0], "p": [0.0, 0.0, 0.0]},
        "horizon": {"start": 0.0, "end": 1.0},
        "step": {"h_ladder": [0.25, 0.125, 0.0625], "ref_refine": 8},
        "noise": {"seed": 77, "num_paths": 16, "base_steps": 128},
        "study": "strong_order",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert cli_run(cfg_path, output_dir=out1) == 0
    assert cli_run(out1 / "manifest.json", output_dir=out2) == 0
    same_csv = (out1 / "strong.csv").read_bytes() == (out2 / "strong.csv").read_bytes()
    same_summary = (
        (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    )
    report(8, same_csv and same_summary, "manifest rerun reproduces outputs bitwise")
