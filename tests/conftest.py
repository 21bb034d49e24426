"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

import svpark as sv


@pytest.fixture(scope="session")
def pendulum():
    return sv.spherical_pendulum()


@pytest.fixture(scope="session")
def pendulum_quiet(pendulum):
    """Pendulum with the noise channels stripped."""
    return sv.without_noise(pendulum)


def free_sphere_system():
    """Unit-mass particle on the unit sphere, no potential, no noise."""
    base = sv.spherical_pendulum()
    from dataclasses import replace

    def lagrangian(q, v):
        return 0.5 * np.sum(v * v, axis=-1)

    def dL_dq(q, v):
        return np.zeros_like(q)

    return replace(
        base,
        num_noise=0,
        gamma=(),
        dgamma_dq=(),
        lagrangian=lagrangian,
        dL_dq=dL_dq,
    )


def variable_mass_sphere(beta=0.3):
    """Sphere-constrained system with configuration-dependent mass.

    L(q, v) = (1 + beta q_1^2) ||v||^2 / 2 - q . e3.  The q-v coupling makes
    the two Euler variants genuinely different and exercises the
    d2L_dqdv-dependent terms of the implicit solvers.  The mass depends on
    q, so the pendulum's constant-mass declaration is dropped.
    """
    base = sv.spherical_pendulum()
    from dataclasses import replace

    e1 = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])

    def mass(q):
        return 1.0 + beta * q[..., 0] ** 2

    def lagrangian(q, v):
        return 0.5 * mass(q) * np.sum(v * v, axis=-1) - q @ e3

    def dL_dq(q, v):
        coef = beta * q[..., 0] * np.sum(v * v, axis=-1)
        return coef[..., None] * e1 - e3

    def dL_dv(q, v):
        return mass(q)[..., None] * v

    def d2L_dv2(q, v):
        return mass(q)[..., None, None] * np.eye(3)

    def d2L_dqdv(q, v):
        coef = 2.0 * beta * q[..., 0]
        return coef[..., None, None] * v[..., :, None] * e1[None, :]

    return replace(
        base,
        num_noise=0,
        gamma=(),
        dgamma_dq=(),
        lagrangian=lagrangian,
        dL_dq=dL_dq,
        dL_dv=dL_dv,
        d2L_dv2=d2L_dv2,
        d2L_dqdv=d2L_dqdv,
        mass=None,
    )


def random_states(system, count, rng, velocity_scale=1.0):
    """Random points on the phase manifold: project Gaussian samples."""
    states = []
    for _ in range(count):
        q_raw = rng.standard_normal(system.dim_q)
        q_raw /= max(np.linalg.norm(q_raw), 0.3)
        p_raw = velocity_scale * rng.standard_normal(system.dim_q)
        states.append(sv.project_state(system, q_raw, p_raw))
    return states


def state_residuals(system, state):
    return (
        float(sv.constraint_residual(system, state.q)),
        float(sv.hidden_residual(system, state.q, p=state.p)),
    )
