from dataclasses import replace

import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import DerivativeMismatch, SingularJacobian

from conftest import random_states, variable_mass_sphere


def test_pendulum_dimensions(pendulum):
    assert (pendulum.dim_q, pendulum.dim_g, pendulum.num_noise) == (3, 1, 3)


def test_lagrangian_at_south_pole(pendulum):
    q = np.array([0.0, 0.0, -1.0])
    assert pendulum.lagrangian(q, np.zeros(3)) == pytest.approx(1.0, abs=1e-15)


def test_constraint_values(pendulum):
    assert np.allclose(pendulum.constraint(np.array([0.0, 0.0, -1.0])), [0.0])
    assert np.allclose(pendulum.dg_dq(np.array([1.0, 0.0, 0.0])), [[2.0, 0.0, 0.0]])
    q = np.array([0.4, 0.2, np.sqrt(1 - 0.2)])
    assert np.allclose(pendulum.d2g_dq2_vv(q, np.array([0.0, 1.0, 0.0])), [2.0])


def test_stochastic_potentials(pendulum):
    q = np.array([0.3, -0.2, 0.5])
    for i in range(3):
        assert pendulum.gamma[i](q) == pytest.approx(np.sin(q[i]))
        grad = pendulum.dgamma_dq[i](q)
        expected = np.zeros(3)
        expected[i] = np.cos(q[i])
        assert np.allclose(grad, expected)


def test_callbacks_broadcast(pendulum):
    qs = np.random.default_rng(0).standard_normal((5, 4, 3))
    vs = np.ones((5, 4, 3))
    assert pendulum.lagrangian(qs, vs).shape == (5, 4)
    assert pendulum.dL_dv(qs, vs).shape == (5, 4, 3)
    assert pendulum.d2L_dv2(qs, vs).shape == (5, 4, 3, 3)
    assert pendulum.constraint(qs).shape == (5, 4, 1)
    assert pendulum.dg_dq(qs).shape == (5, 4, 1, 3)


def test_validate_system_single_sample(pendulum):
    report = sv.validate_system(
        pendulum, [(np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]))]
    )
    assert report.passed


def test_validate_system_random_sweep(pendulum):
    rng = np.random.default_rng(123)
    samples = [(s.q, rng.standard_normal(3)) for s in random_states(pendulum, 100, rng)]
    report = sv.validate_system(pendulum, samples, tol=1e-5)
    assert report.passed


def test_validate_system_catches_negated_derivative(pendulum):
    broken = replace(pendulum, dL_dq=lambda q, v: -pendulum.dL_dq(q, v))
    with pytest.raises(DerivativeMismatch) as info:
        sv.validate_system(
            broken, [(np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]))]
        )
    assert info.value.callback == "dL_dq"
    assert info.value.max_error > 1e-5


def test_validate_system_rejects_off_manifold_samples(pendulum):
    with pytest.raises(ValueError):
        sv.validate_system(pendulum, [(np.array([2.0, 0.0, 0.0]), np.zeros(3))])


def test_legendre_velocity_roundtrip(pendulum):
    rng = np.random.default_rng(3)
    for state in random_states(pendulum, 5, rng):
        v = sv.legendre_velocity(pendulum, state.q, state.p)
        assert np.max(np.abs(pendulum.dL_dv(state.q, v) - state.p)) <= 1e-12


def test_energy_without_p_pairs_v_with_its_momentum(pendulum):
    rng = np.random.default_rng(3)
    q = rng.standard_normal((5, 3))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    v = rng.standard_normal((5, 3))
    for system in (pendulum, variable_mass_sphere()):
        from_p = sv.energy(system, q, p=system.dL_dv(q, v))
        np.testing.assert_allclose(sv.energy(system, q, v=v), from_p, rtol=1e-12)


def test_energy_is_kinetic_plus_potential(pendulum):
    q = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.5, 0.0])
    assert sv.energy(pendulum, q, p=p) == pytest.approx(0.5 * 0.25 + 0.0, abs=1e-14)


def test_project_state_returns_valid_point(pendulum):
    rng = np.random.default_rng(17)
    for _ in range(20):
        q_raw = 2.0 * rng.standard_normal(3)
        p_raw = rng.standard_normal(3)
        if np.linalg.norm(q_raw) < 0.3:
            continue
        state = sv.project_state(pendulum, q_raw, p_raw)
        assert sv.constraint_residual(pendulum, state.q) <= 1e-12
        assert sv.hidden_residual(pendulum, state.q, p=state.p) <= 1e-11


def test_project_state_fixes_points_already_on_manifold(pendulum):
    q = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.3, -0.2])
    state = sv.project_state(pendulum, q, p)
    assert np.max(np.abs(state.q - q)) <= 1e-14
    assert np.max(np.abs(state.p - p)) <= 1e-12


def test_project_state_is_the_radial_projection_on_the_sphere(pendulum):
    rng = np.random.default_rng(29)
    q_raw = 2.0 * rng.standard_normal((64, 3))
    state = sv.project_state(pendulum, q_raw, rng.standard_normal((64, 3)))
    radial = q_raw / np.linalg.norm(q_raw, axis=-1, keepdims=True)
    assert np.max(np.abs(state.q - radial)) <= 1e-13


def test_project_state_names_the_degenerate_batch_element(pendulum):
    # dg_dq vanishes at q = 0: no constraint normal to retract along.
    q = np.array([[1.0, 0.0, 0.2], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    with pytest.raises(SingularJacobian, match="batch index 1"):
        sv.project_state(pendulum, q, np.zeros((3, 3)))


def test_project_state_with_configuration_dependent_mass():
    system = variable_mass_sphere()
    rng = np.random.default_rng(43)
    for _ in range(20):
        q_raw = 2.0 * rng.standard_normal(3)
        if np.linalg.norm(q_raw) < 0.3:
            continue
        state = sv.project_state(system, q_raw, rng.standard_normal(3))
        assert sv.constraint_residual(system, state.q) <= 1e-12
        assert sv.hidden_residual(system, state.q, p=state.p) <= 1e-11
        again = sv.project_state(system, state.q, state.p)
        assert np.max(np.abs(again.q - state.q)) <= 1e-14
        assert np.max(np.abs(again.p - state.p)) <= 1e-12


def test_gram_matrix_constant_on_sphere(pendulum):
    # The kinetic metric is the identity and the constraint gradient has
    # norm 2 everywhere on the sphere, so the Gram matrix is the constant 4.
    rng = np.random.default_rng(29)
    for state in random_states(pendulum, 25, rng):
        v = rng.standard_normal(3)
        P = sv.projection_matrices(pendulum, state.q, v).gram
        assert np.allclose(P, [[4.0]], atol=1e-12)


def test_state_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        sv.State(q=np.zeros(3), p=np.zeros(2))


def test_without_noise_strips_channels(pendulum):
    quiet = sv.without_noise(pendulum)
    assert quiet.num_noise == 0
    assert quiet.gamma == ()


def test_variable_mass_system_derivatives_consistent():
    system = variable_mass_sphere()
    rng = np.random.default_rng(41)
    samples = [(s.q, rng.standard_normal(3)) for s in random_states(system, 20, rng)]
    assert sv.validate_system(system, samples, tol=1e-5).passed


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"dim_g": 0}, "0 < dim_g < dim_q"),
        ({"dim_g": 3}, "0 < dim_g < dim_q"),
        ({"num_noise": 2}, "num_noise entries"),
    ],
    ids=["dim_g-zero", "dim_g-equal-to-dim_q", "gamma-count"],
)
def test_mechanical_system_rejects_bad_dimensions(pendulum, changes, match):
    with pytest.raises(ValueError, match=match):
        replace(pendulum, **changes)


def test_noise_force_without_channels_is_zero(pendulum_quiet):
    from svpark.model import noise_force

    q = np.ones((4, 3))
    force = noise_force(pendulum_quiet, q, None)
    assert force.shape == (4, 3) and not force.any()
