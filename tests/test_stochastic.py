import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import ConditionViolated, NameNotFound, NoConvergence
from svpark.noise import coarsen_array

from conftest import random_states


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
    view = sv.coarsen(paths, 1)
    em = sv.simulate_path(pendulum, "euler_maruyama_ref", X0, view, 0)
    sve = sv.simulate_path(pendulum, "stochastic_variational_euler", X0, view, 0)
    assert np.max(sve.constraint) <= 1e-10
    assert np.max(em.constraint) > 100 * np.max(sve.constraint)
    assert np.max(em.constraint) > 1e-4


def test_em_with_zero_noise_is_deterministic_reduced_euler(pendulum_quiet):
    q = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 0.5, 0.0])
    q1, v1, p1 = sv.euler_maruyama_reference_step(pendulum_quiet, q, v, None, 0.01)
    dyn = sv.reduced_drift_diffusion(pendulum_quiet, q, v)
    assert np.allclose(q1, q + 0.01 * v, atol=1e-15)
    assert np.allclose(p1, pendulum_quiet.dL_dv(q, v) + 0.01 * dyn.drift_p, atol=1e-15)


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
        qe, _, pe = sv.euler_maruyama_reference_step(pendulum, qb, vb, dW, h)
        gap_p.append(np.sqrt(np.mean(np.sum((r.state.p - pe) ** 2, axis=-1))))
        gap_q.append(np.sqrt(np.mean(np.sum((r.state.q - qe) ** 2, axis=-1))))
    slope_p, _ = sv.fit_loglog_slope(hs, gap_p)
    slope_q, _ = sv.fit_loglog_slope(hs, gap_q)
    assert 1.8 <= slope_p <= 2.2
    assert 1.35 <= slope_q <= 1.65


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
    traj = sv.simulate_path(
        pendulum, "stochastic_variational_euler", X0, sv.coarsen(paths, 1), 1
    )
    assert traj.q.shape == (2**8 + 1, 3)
    assert np.all(np.isfinite(traj.q)) and np.all(np.isfinite(traj.p))
    assert np.max(traj.constraint) <= 1e-10
    assert np.max(traj.hidden) <= 1e-10


def test_simulate_path_attaches_step_index_to_errors(pendulum):
    # Force a failure at the very first step with an absurd tolerance.
    cfg = sv.NewtonConfig(tol_residual=1e-30, max_iter=2)
    with pytest.raises(NoConvergence) as info:
        sv.simulate_path(pendulum, "rattle", X0, h=0.1, num_steps=3, config=cfg)
    assert "step 0" in str(info.value)


def test_simulate_path_rejects_mismatched_resolution(pendulum):
    paths = sv.generate(1, 1, 3, 2**4, horizon=(0.0, 1.0))
    with pytest.raises(ValueError):
        sv.simulate_path(
            pendulum, "stochastic_variational_euler", X0, sv.coarsen(paths, 1),
            0, h=0.5,
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
    # Neither a nu of the wrong length nor a non-zero kappa is realized by
    # the stochastic RK step, so make_stepper rejects both before any step.
    for quad in ({"nu": [1.0]}, {"nu": [0.5, 0.5], "kappa": [0.1, 0.0]}):
        with pytest.raises(ConditionViolated, match="not admissible: quadrature"):
            sv.make_stepper(pendulum, {"method": "stochastic_vprk", "quad": quad})
    default = sv.default_quadrature(tab)
    assert np.allclose(default.nu, tab.b)


def test_integrate_broadcasts_and_matches_single_path_runs(pendulum):
    paths = sv.generate(8, 3, 3, 2**5, horizon=(0.0, 1.0))
    steps = list(
        sv.integrate(pendulum, "stochastic_variational_euler", X0, paths.increments,
                     paths.h_base, 2**5)
    )
    assert len(steps) == 2**5
    result, v = steps[-1]
    assert result.state.q.shape == (3, 3) and v.shape == (3, 3)
    traj = sv.simulate_path(
        pendulum, "stochastic_variational_euler", X0, sv.coarsen(paths, 1), 2
    )
    assert np.array_equal(traj.q[-1], result.state.q[2])
    assert np.array_equal(traj.p[-1], result.state.p[2])


def test_simulate_path_vprk_records_flattened_multipliers(pendulum):
    # _vprk_core returns stage multipliers of shape (s - 1, k) next to a
    # last multiplier of shape (k,); the recorder flattens both.
    paths = sv.generate(2, 1, 3, 2**4, horizon=(0.0, 1.0))
    traj = sv.simulate_path(pendulum, "stochastic_vprk", X0, sv.coarsen(paths, 1))
    assert len(traj.multipliers) == 2**4
    assert traj.multipliers[0].shape == (2,)
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
        *_, (result, _) = sv.integrate(
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
