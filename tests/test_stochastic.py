from dataclasses import replace

import numpy as np
import pytest

import svpark as sv
from svpark import stochastic
from svpark.exceptions import (
    ConditionViolated,
    ConfigInvalid,
    InvalidResolution,
    NameNotFound,
    NoConvergence,
)
from svpark.noise import coarsen_array

from conftest import random_states
from test_separable import README_METHODS


X0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))


def test_zero_increment_reduces_to_deterministic_euler(pendulum):
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, -0.2]))
    det = sv.euler_b_with_projection(pendulum, x, 0.01)
    sto = sv.stochastic_variational_euler_step(pendulum, x, np.zeros(3), 0.01)
    assert np.array_equal(det.state.q, sto.state.q)
    assert np.array_equal(det.state.p, sto.state.p)


def test_zero_increment_reduces_to_deterministic_vprk(pendulum):
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, -0.2]))
    det = sv.vprk_step(pendulum, tab, x, 0.01)
    sto = sv.stochastic_vprk_step(pendulum, tab, None, x, np.zeros(3), 0.01)
    assert np.array_equal(det.state.q, sto.state.q)
    assert np.array_equal(det.state.p, sto.state.p)


def test_stripped_potentials_reduce_to_deterministic(pendulum, pendulum_quiet):
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.1, 0.0]))
    dW = np.zeros(0)
    det = sv.euler_b_with_projection(pendulum_quiet, x, 0.02)
    sto = sv.stochastic_variational_euler_step(pendulum_quiet, x, dW, 0.02)
    assert np.array_equal(det.state.p, sto.state.p)


def test_noisy_step_enforces_both_constraints(pendulum):
    rng = np.random.default_rng(12)
    h = 0.01
    for state in random_states(pendulum, 10, rng):
        dW = rng.standard_normal(3) * np.sqrt(h)
        res = sv.stochastic_variational_euler_step(pendulum, state, dW, h)
        assert sv.constraint_residual(pendulum, res.state.q) <= 1e-11
        assert sv.hidden_residual(pendulum, res.state.q, p=res.state.p) <= 1e-10


def test_equilibrium_with_noise_keeps_momentum_tangent(pendulum):
    x = sv.State(q=np.array([0.0, 0.0, -1.0]), p=np.zeros(3))
    dW = np.array([0.02, -0.05, 0.01])
    res = sv.stochastic_variational_euler_step(pendulum, x, dW, 0.01)
    v = sv.legendre_velocity(pendulum, res.state.q, res.state.p)
    assert abs(res.state.q @ v) <= 1e-10


def test_stochastic_vprk_constraints_and_stages(pendulum):
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    quad = sv.StochasticQuadrature(nu=[0.5, 0.5])
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.2, 0.0]))
    dW = np.array([0.03, 0.01, -0.04])
    res = sv.stochastic_vprk_step(pendulum, tab, quad, x, dW, 0.01)
    assert sv.constraint_residual(pendulum, res.state.q) <= 1e-11
    assert sv.hidden_residual(pendulum, res.state.q, p=res.state.p) <= 1e-10
    assert np.max(np.abs(pendulum.constraint(res.stages.Q[1]))) <= 1e-11


def test_em_reference_drifts_off_manifold(pendulum):
    # The explicit reference scheme does not re-enforce the constraint: its
    # violation grows with the horizon, while the variational scheme stays
    # at solver tolerance on the same Brownian path.
    paths = sv.generate(4, 1, 3, 2**6, horizon=(0.0, 1.0))
    em = sv.simulate_path(pendulum, "euler_maruyama_ref", X0, paths, 0)
    sve = sv.simulate_path(pendulum, "stochastic_variational_euler", X0, paths, 0)
    assert np.max(sve.constraint) <= 1e-10
    assert np.max(em.constraint) > 100 * np.max(sve.constraint)
    assert np.max(em.constraint) > 1e-4


def test_em_with_zero_noise_is_deterministic_reduced_euler(pendulum_quiet):
    q = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 0.5, 0.0])
    x = sv.State(q=q, p=pendulum_quiet.dL_dv(q, v))
    step = sv.euler_maruyama_reference_step(pendulum_quiet, x, None, 0.01, v=v)
    dyn = sv.reduced_drift_diffusion(pendulum_quiet, q, v)
    assert np.allclose(step.state.q, q + 0.01 * v, atol=1e-15)
    assert np.allclose(step.state.p, x.p + 0.01 * dyn.drift_p, atol=1e-15)


def test_one_step_agreement_with_reference_scheme(pendulum):
    # From rest the momentum components of the two schemes agree to O(h^2):
    # halving h shrinks the momentum gap by about 4.  The position gap
    # carries the zero-mean noise kick through the position update and is
    # O(h^{3/2}).
    B = 512
    base = sv.generate(3, B, 3, 2**12, horizon=(0.0, 1.0)).increments
    qb = np.broadcast_to(X0.q, (B, 3)).copy()
    pb = np.broadcast_to(X0.p, (B, 3)).copy()
    vb = np.zeros((B, 3))
    hs = [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]
    gap_p, gap_q = [], []
    for h in hs:
        factor = int(round(h * 2**12))
        dW = coarsen_array(base, factor)[:, :, 0]
        r = sv.stochastic_variational_euler_step(pendulum, sv.State(q=qb, p=pb), dW, h)
        em = sv.euler_maruyama_reference_step(pendulum, sv.State(q=qb, p=pb), dW, h, v=vb).state
        gap_p.append(np.sqrt(np.mean(np.sum((r.state.p - em.p) ** 2, axis=-1))))
        gap_q.append(np.sqrt(np.mean(np.sum((r.state.q - em.q) ** 2, axis=-1))))
    slope_p, _ = sv.fit_loglog_slope(hs, gap_p)
    slope_q, _ = sv.fit_loglog_slope(hs, gap_q)
    assert 1.8 <= slope_p <= 2.2
    assert 1.35 <= slope_q <= 1.65


@pytest.mark.parametrize("h", [0.0, -0.01, float("nan"), float("inf")])
@pytest.mark.parametrize("method", README_METHODS)
def test_step_size_is_checked_before_any_step(monkeypatch, pendulum, method, h):
    # Unchecked, h = 0 runs every step into NaN multipliers and h < 0 runs
    # silently; no stepper or loop may be built before the check.
    monkeypatch.setattr(stochastic, "make_stepper", None)
    monkeypatch.setattr(stochastic, "_steps", None)
    increments = sv.generate(1, 1, 3, 4).increments[0]
    named = f"h must be a finite number > 0, got {h!r}"
    with pytest.raises(ValueError, match=named):
        sv.integrate(pendulum, method, X0, increments, h, 4)
    with pytest.raises(ValueError, match=named):
        sv.simulate_path(pendulum, method, X0, h=h, num_steps=4)


@pytest.mark.parametrize("num_steps", [-1, 2.0, None])
def test_step_count_is_checked_before_any_step(monkeypatch, pendulum, num_steps):
    monkeypatch.setattr(stochastic, "_steps", None)
    named = f"num_steps must be an integer >= 0, got {num_steps!r}"
    with pytest.raises(ValueError, match=named):
        sv.integrate(pendulum, "rattle", X0, None, 0.25, num_steps)
    if num_steps is not None:  # None means "the path's steps" with paths
        with pytest.raises(ValueError, match=named):
            sv.simulate_path(pendulum, "rattle", X0, h=0.25, num_steps=num_steps)


def test_simulate_path_and_symplecticity_check_reject_a_bad_h_with_noise(pendulum):
    paths = sv.generate(1, 1, 3, 16)
    for h in (0.0, -1 / 16, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="h must be a finite number > 0"):
            sv.simulate_path(pendulum, "stochastic_variational_euler", X0, paths, h=h)
        with pytest.raises(ValueError, match="h must be a finite number > 0"):
            sv.symplecticity_check(pendulum, "rattle", X0, h)


def test_simulate_path_zero_steps_returns_initial_state(pendulum):
    traj = sv.simulate_path(pendulum, "rattle", X0, h=0.01, num_steps=0)
    assert traj.q.shape == (1, 3)
    assert np.array_equal(traj.q[0], X0.q)
    assert np.array_equal(traj.p[0], X0.p)


def test_simulate_path_long_rattle_constraint(pendulum_quiet):
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, 0.0]))
    traj = sv.simulate_path(pendulum_quiet, "rattle", x0, h=5e-3, num_steps=10_000)
    assert np.max(traj.constraint) <= 1e-9
    assert np.all(np.isfinite(traj.q))


def test_simulate_path_stochastic_smoke(pendulum):
    paths = sv.generate(100, 2, 3, 2**8, horizon=(0.0, 1.0))
    traj = sv.simulate_path(pendulum, "stochastic_variational_euler", X0, paths, 1)
    assert traj.q.shape == (2**8 + 1, 3)
    assert np.all(np.isfinite(traj.q)) and np.all(np.isfinite(traj.p))
    assert np.max(traj.constraint) <= 1e-10
    assert np.max(traj.hidden) <= 1e-10


def test_simulate_path_attaches_step_index_to_errors(pendulum):
    # Force a failure at the very first step with an absurd tolerance.
    cfg = sv.NewtonConfig(tol_residual=1e-30, max_iter=2)
    with pytest.raises(NoConvergence) as info:
        sv.simulate_path(pendulum, "rattle", X0, h=0.1, num_steps=3, config=cfg)
    assert "step 0 of 3" in str(info.value)
    assert "h = 0.1" in str(info.value)


def test_simulate_path_rejects_mismatched_resolution(pendulum):
    # h must be a power-of-two multiple of the base step 1/16.
    paths = sv.generate(1, 1, 3, 2**4, horizon=(0.0, 1.0))
    with pytest.raises(ValueError):
        sv.simulate_path(pendulum, "stochastic_variational_euler", X0, paths, 0, h=0.1)
    with pytest.raises(InvalidResolution):
        sv.simulate_path(pendulum, "stochastic_variational_euler", X0, paths, 0, h=3 / 16)
    with pytest.raises(ValueError):
        sv.simulate_path(
            pendulum, "stochastic_variational_euler", X0, paths, 0, h=0.5, num_steps=3
        )


def test_unknown_method_name(pendulum):
    with pytest.raises(NameNotFound):
        sv.make_stepper(pendulum, "leapfrog")


def test_quadrature_validation(pendulum):
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))
    with pytest.raises(ConditionViolated):
        sv.stochastic_vprk_step(
            pendulum, tab, sv.StochasticQuadrature(nu=[1.0]), x, np.zeros(3), 0.01
        )
    # Neither a nu of the wrong length nor a kappa other than s zeros is
    # realized by the stochastic RK step, so make_stepper rejects them
    # before any step.
    for quad in (
        {"nu": [1.0]},
        {"nu": [0.5, 0.5], "kappa": [0.1, 0.0]},
        {"nu": [0.5, 0.5], "kappa": [0.0, 0.0, 0.0]},
        {"nu": [0.5, 0.5], "kappa": [[0.0, 0.0], [0.0, 0.0]]},
        {"nu": [0.5, 0.5], "kappa": 0.0},
    ):
        with pytest.raises(ConditionViolated, match="not admissible: quadrature"):
            sv.make_stepper(pendulum, {"method": "stochastic_vprk", "quad": quad})
    # Without a quadrature the step weighs the stages by nu = b.
    dW = np.array([0.1, -0.2, 0.05])
    default = sv.stochastic_vprk_step(pendulum, tab, None, x, dW, 0.01)
    explicit = sv.stochastic_vprk_step(
        pendulum, tab, sv.StochasticQuadrature(nu=tab.b), x, dW, 0.01
    )
    assert np.array_equal(default.state.q, explicit.state.q)
    assert np.array_equal(default.state.p, explicit.state.p)


def test_integrate_broadcasts_and_matches_single_path_runs(pendulum):
    paths = sv.generate(8, 3, 3, 2**5, horizon=(0.0, 1.0))
    for factor in (1, 2):
        h = factor * paths.h_base
        increments = coarsen_array(paths.increments, factor)
        steps = list(
            sv.integrate(pendulum, "stochastic_variational_euler", X0, increments, h,
                         2**5 // factor)
        )
        assert len(steps) == 2**5 // factor
        result = steps[-1]
        assert result.state.q.shape == (3, 3) and result.velocity.shape == (3, 3)
        traj = sv.simulate_path(pendulum, "stochastic_variational_euler", X0, paths, 2, h=h)
        assert np.array_equal(traj.q[-1], result.state.q[2])
        assert np.array_equal(traj.p[-1], result.state.p[2])


def test_simulate_path_vprk_records_flattened_multipliers(pendulum):
    # _vprk_core returns stage multipliers of shape (s - 1, k) next to a
    # last multiplier of shape (k,); the recorder flattens both.
    paths = sv.generate(2, 1, 3, 2**4, horizon=(0.0, 1.0))
    for tableau, s in (("rattle_trapezoidal", 2), ("lobatto_iiia_3", 3)):
        method = {"method": "stochastic_vprk", "tableau": tableau}
        traj = sv.simulate_path(pendulum, method, X0, paths)
        assert len(traj.multipliers) == 2**4
        assert traj.multipliers[0].shape == (s,)
        assert np.max(traj.constraint) <= 1e-10 and np.max(traj.hidden) <= 1e-10


def test_stochastic_vprk_strong_order_against_reference_scheme(pendulum):
    # Independent cross-validation: the implicit two-stage scheme measured
    # against the explicit reference integrator on shared paths decays at
    # first order.
    x0 = X0
    M = 64
    T = 0.5
    paths = sv.generate(42, M, 3, 2**11, horizon=(0.0, T))
    hs = [T * 2.0**-3, T * 2.0**-4, T * 2.0**-5]

    def endpoints(method, increments, h):
        *_, result = sv.integrate(
            pendulum, method, x0, increments, h, increments.shape[-1]
        )
        return result.state.q, result.state.p

    base = paths.increments
    q_ref, p_ref = endpoints("euler_maruyama_ref", base, paths.h_base)
    errors = []
    for h in hs:
        factor = int(round(h / paths.h_base))
        q_h, p_h = endpoints(
            {"method": "stochastic_vprk", "tableau": "rattle_trapezoidal",
             "quad": {"nu": [0.5, 0.5], "kappa": [0.0, 0.0]}},
            coarsen_array(base, factor), h,
        )
        errors.append(
            np.sqrt(np.mean(np.sum((q_h - q_ref) ** 2 + (p_h - p_ref) ** 2, axis=-1)))
        )
    slope, _ = sv.fit_loglog_slope(hs, errors)
    assert 0.7 <= slope <= 1.3


def test_step_failure_names_step_and_batch_element(pendulum):
    # One Newton iteration cannot reach 1e-12 at h = 1/4; the failure names
    # the step, h and the path of the 4-path batch with the worst residual,
    # as a path integrated on its own reports it.
    paths = sv.generate(21, 4, 3, 4)
    config = sv.NewtonConfig(max_iter=1)
    method = "stochastic_variational_euler"
    singles = []
    for i in range(4):
        with pytest.raises(NoConvergence) as info:
            list(sv.integrate(pendulum, method, X0, paths.increments[i], 0.25, 4, config))
        singles.append(info.value.last_residual)
    with pytest.raises(NoConvergence) as info:
        list(sv.integrate(pendulum, method, X0, paths.increments, 0.25, 4, config))
    message = str(info.value)
    assert message.startswith("step 0 of 4 at h = 0.25: no convergence after 1 iterations")
    assert f"at batch index {int(np.argmax(singles))})" in message
    assert info.value.last_residual == pytest.approx(max(singles), rel=1e-6)


NOISE_METHODS = [
    "stochastic_variational_euler",
    {"method": "stochastic_vprk", "tableau": "rattle_trapezoidal"},
    "euler_maruyama_ref",
]


@pytest.mark.parametrize("method", NOISE_METHODS, ids=["sve", "stochastic_vprk", "em_ref"])
def test_noise_methods_require_increments_on_every_channel(pendulum, pendulum_quiet, method):
    # One rule in the stepper: a method that reads noise, on a system with
    # m > 0 channels, steps only with increments whose last axis is m.
    x = sv.project_state(pendulum, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.3, 0.1]))
    cases = [
        (None, "got none"),
        (sv.generate(3, 2, 2, 4).increments, r"got shape \(2, 2\)"),
    ]
    for increments, got in cases:
        with pytest.raises(ValueError, match=f"step 0 of 4 .*last axis 3, {got}"):
            list(sv.integrate(pendulum, method, x, increments, 0.25, 4))
    with pytest.raises(ValueError, match="last axis 3, got none"):
        sv.symplecticity_check(pendulum, method, x, 1e-3)
    # A system without noise channels needs no increments.
    assert len(list(sv.integrate(pendulum_quiet, method, x, None, 0.25, 4))) == 4


def test_public_noise_steps_follow_the_stepper_noise_rule(pendulum, pendulum_quiet):
    # Called directly, each stochastic step raises the stepper's ValueError
    # instead of taking the deterministic map (dW=None) or failing to
    # broadcast (a wrong last axis).
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    x = sv.project_state(pendulum, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.3, 0.1]))
    v = sv.legendre_velocity(pendulum, x.q, x.p)
    steps = {
        "stochastic_variational_euler":
            lambda system, dW: sv.stochastic_variational_euler_step(system, x, dW, 0.01),
        "stochastic_vprk":
            lambda system, dW: sv.stochastic_vprk_step(system, tab, None, x, dW, 0.01),
        "euler_maruyama_ref":
            lambda system, dW: sv.euler_maruyama_reference_step(system, x, dW, 0.01, v=v),
    }
    for name, step in steps.items():
        for dW, got in [(None, "got none"), (np.zeros(2), r"got shape \(2,\)")]:
            with pytest.raises(ValueError, match=f"^{name} needs increments dW with last "
                               f"axis 3, {got}$"):
                step(pendulum, dW)
        step(pendulum, np.zeros(3))
        step(pendulum_quiet, None)


def test_integrate_checks_its_arguments_at_the_call(pendulum):
    # No next(): integrate is a plain function that checks, then returns
    # the generator that steps.
    increments = sv.generate(4, 2, 3, 4).increments
    with pytest.raises(NameNotFound):
        sv.integrate(pendulum, "leapfrog", X0, increments, 0.25, 4)
    with pytest.raises(ConfigInvalid):
        sv.integrate(pendulum, {"method": "rattle", "tableau": "euler_a"}, X0, None, 0.25, 4)
    with pytest.raises(ConditionViolated):
        sv.integrate(pendulum, {"method": "stochastic_vprk", "quad": {"nu": [1.0]}},
                     X0, increments, 0.25, 4)


def test_integrate_rejects_more_steps_than_increments_before_stepping(pendulum):
    with pytest.raises(ValueError, match="num_steps = 5 exceeds the 4 increment steps"):
        sv.integrate(pendulum, "stochastic_variational_euler", X0,
                     sv.generate(4, 2, 3, 4).increments, 0.25, 5)


CARRY_CASES = [
    *(pytest.param(True, {"method": method, "tableau": tableau}, id=f"{method}-{tableau}")
      for method in ("vprk", "stochastic_vprk")
      for tableau in ("rattle_trapezoidal", "lobatto_iiia_3")),
    *(pytest.param(separable, method, id=f"{'separable' if separable else 'general'}-{method}")
      for separable in (False, True)
      for method in ("euler_a", "euler_b", "stochastic_variational_euler", "rattle")),
]


@pytest.mark.parametrize("separable, method", CARRY_CASES)
def test_only_the_separable_multiplier_newton_carries_a_warm_start(pendulum, separable, method):
    # Between steps integrate carries the state, its Legendre velocity and
    # StepResult.warm, which is the position multipliers on a separable
    # system and None on every other path: there each step is bitwise a
    # fresh stepper call from the previous state and velocity.
    system = pendulum if separable else replace(pendulum, mass=None)
    general = system.mass is None or isinstance(method, dict)
    states = random_states(system, 4, np.random.default_rng(17))
    x = sv.State(q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states]))
    increments = sv.generate(17, 4, 3, 16).increments
    stepper = sv.make_stepper(system, method)
    v = sv.legendre_velocity(system, x.q, x.p)
    warm = None
    steps = sv.integrate(system, method, x, increments if stepper.uses_noise else None, 1 / 16, 16)
    for i, result in enumerate(steps):
        fresh = stepper.step(x, v, increments[..., i], 1 / 16, warm)
        for a, b in [(fresh.state.q, result.state.q), (fresh.state.p, result.state.p),
                     (fresh.velocity, result.velocity)]:
            assert np.array_equal(a, b)
        if general:
            assert result.warm is None
        else:
            assert np.array_equal(result.warm, result.multipliers[0])
        x, v, warm = result.state, result.velocity, result.warm


@pytest.mark.parametrize(
    "nu, named",
    [
        ([[0.5], [0.5]], r"of shape \(2, 1\)"),
        (None, r"nan of shape \(\)"),
        ([0.5, float("nan")], r"\[0.5, nan\] of shape \(2,\)"),
        ("half", "'half' is not 2 numbers"),
        ([[0.5], [0.5, 0.5]], "is not 2 numbers"),
    ],
    ids=["2-d", "null", "nan-entry", "not-numbers", "ragged"],
)
def test_nu_that_is_not_s_finite_numbers_is_rejected(pendulum, nu, named):
    with pytest.raises(ConditionViolated, match=f"not admissible: quadrature nu = .*{named}"):
        sv.make_stepper(pendulum, {"method": "stochastic_vprk", "quad": {"nu": nu}})


@pytest.mark.parametrize(
    "nu, named",
    [
        ([0.5, np.inf], r"\[0.5, inf\] of shape \(2,\)"),
        ([0.5, np.nan], r"\[0.5, nan\] of shape \(2,\)"),
        ([[0.5], [0.5]], r"\[\[0.5\], \[0.5\]\] of shape \(2, 1\)"),
        (0.5, r"0.5 of shape \(\)"),
        ([], r"\[\] of shape \(0,\)"),
    ],
    ids=["inf-entry", "nan-entry", "2-d", "scalar", "empty"],
)
def test_quadrature_rejects_a_nu_that_is_not_finite_numbers_where_it_is_made(nu, named):
    with pytest.raises(ConditionViolated, match=f"quadrature nu = {named} is not a non-empty 1-D"):
        sv.StochasticQuadrature(nu=nu)


def test_simulate_path_forms_the_initial_velocity_once(monkeypatch, pendulum):
    calls = []

    def recording(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return sv.legendre_velocity(*args, **kwargs)

    monkeypatch.setattr(stochastic, "legendre_velocity", recording)
    paths = sv.generate(5, 1, pendulum.num_noise, 8)
    traj = sv.simulate_path(pendulum, "rattle", X0, paths)
    assert calls == [(3,)]
    assert np.array_equal(traj.v[0], sv.legendre_velocity(pendulum, X0.q, X0.p))


def test_simulate_path_without_paths_needs_h_and_num_steps(pendulum_quiet):
    for kwargs in ({}, {"h": 0.25}, {"num_steps": 4}):
        with pytest.raises(ValueError, match="h and num_steps are required without paths"):
            sv.simulate_path(pendulum_quiet, "rattle", X0, **kwargs)


def axisymmetric_pendulum():
    """The pendulum with noise potentials sin q3 and cos 2q3: like gravity,
    they are invariant under rotations about e3."""

    def along_e3(derivative):
        def gradient(q):
            out = np.zeros_like(q)
            out[..., 2] = derivative(q[..., 2])
            return out

        return gradient

    return replace(
        sv.spherical_pendulum(),
        num_noise=2,
        gamma=(lambda q: np.sin(q[..., 2]), lambda q: np.cos(2.0 * q[..., 2])),
        dgamma_dq=(along_e3(np.cos), along_e3(lambda z: -2.0 * np.sin(2.0 * z))),
    )


@pytest.fixture(scope="module")
def axisymmetric():
    """The system, a start off the symmetry axis, and 32 paths x 1024 steps."""
    system = axisymmetric_pendulum()
    x0 = sv.State(q=np.array([0.6, 0.0, -0.8]), p=np.array([0.0, 0.7, 0.0]))
    sv.validate_system(system, [(x0.q, x0.p)])
    paths = sv.generate(41, 32, 2, 1024, horizon=(0.0, 4.0))
    return system, x0, paths.increments, paths.h_base


def angular_momentum_drift(system, method, x0, increments, h):
    """The largest change, over paths and steps, of L3 = q1 p2 - q2 p1."""

    def L3(state):
        return state.q[..., 0] * state.p[..., 1] - state.q[..., 1] * state.p[..., 0]

    start = L3(x0)
    return max(float(np.max(np.abs(L3(r.state) - start)))
               for r in sv.integrate(system, method, x0, increments, h, increments.shape[-1]))


LOBATTO = "lobatto_iiia_3"


@pytest.mark.parametrize("method", [
    "rattle", "vprk", "euler_a", "euler_b", "stochastic_variational_euler", "stochastic_vprk",
    {"method": "vprk", "tableau": LOBATTO}, {"method": "stochastic_vprk", "tableau": LOBATTO},
])
def test_variational_methods_conserve_the_momentum_map(axisymmetric, method):
    # Discrete Noether: a symmetry shared by the Lagrangian, the constraint
    # and the noise potentials gives a momentum map conserved path by path.
    system, x0, increments, h = axisymmetric
    assert angular_momentum_drift(system, method, x0, increments, h) < 1e-10


def test_euler_maruyama_reference_does_not_conserve_the_momentum_map(axisymmetric):
    system, x0, increments, h = axisymmetric
    assert angular_momentum_drift(system, "euler_maruyama_ref", x0, increments, h) > 1e-3
