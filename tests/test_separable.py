"""The constant-mass declaration: its checks, and agreement of the separable
steps (Newton on the multipliers only) with the general ones."""

from dataclasses import replace

import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import DerivativeMismatch

from conftest import random_states, variable_mass_sphere

README_METHODS = [
    "rattle",
    "vprk",
    "euler_a",
    "euler_b",
    "stochastic_variational_euler",
    "stochastic_vprk",
    "euler_maruyama_ref",
]
SAMPLE = [(np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.5, 0.0]))]


@pytest.mark.parametrize(
    "mass",
    [
        np.eye(2),
        np.ones(3),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, np.nan, 1.0]]),
        np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([1.0, 1.0, 0.0]),
    ],
    ids=["wrong-shape", "vector", "not-finite", "not-symmetric", "singular"],
)
def test_invalid_mass_is_rejected(pendulum, mass):
    with pytest.raises(ValueError, match="mass must be"):
        replace(pendulum, mass=mass)


def test_declared_mass_is_a_read_only_copy(pendulum):
    source = np.diag([2.0, 3.0, 5.0])
    system = replace(pendulum, mass=source)
    source[0, 0] = 7.0
    assert system.mass[0, 0] == 2.0
    assert not system.mass.flags.writeable


def test_validate_system_checks_the_declared_mass(pendulum):
    report = sv.validate_system(pendulum, SAMPLE)
    assert report.max_errors["mass"] <= 1e-12
    with pytest.raises(DerivativeMismatch) as info:
        sv.validate_system(replace(pendulum, mass=2.0 * np.eye(3)), SAMPLE)
    assert info.value.callback == "mass"
    # A q-dependent mass inherits the pendulum's declaration when it is not
    # restated; validation names the declaration, not a derivative callback.
    inherited = replace(variable_mass_sphere(), mass=np.eye(3))
    q = np.array([0.6, 0.0, -0.8])
    with pytest.raises(DerivativeMismatch) as info:
        sv.validate_system(inherited, [(q, np.array([0.0, 1.0, 0.0]))])
    assert info.value.callback == "mass"


def _run(system, method, x0, increments, h, num_steps):
    """Endpoints and the worst |g| and hidden residual over every step."""
    worst_g = worst_hidden = 0.0
    for result in sv.integrate(system, method, x0, increments, h, num_steps):
        q, v = result.state.q, result.velocity
        worst_g = max(worst_g, float(np.max(sv.constraint_residual(system, q))))
        worst_hidden = max(worst_hidden, float(np.max(sv.hidden_residual(system, q, v=v))))
    return result.state, worst_g, worst_hidden


def circle_system():
    """Two constraints: the circle |q| = 1, q_3 = 0.3, with mass diag(1, 2, 3),
    gravity along e1 and the pendulum's noise."""
    base = sv.spherical_pendulum()
    Mdiag = np.array([1.0, 2.0, 3.0])
    e1 = np.array([1.0, 0.0, 0.0])
    return replace(
        base,
        dim_g=2,
        lagrangian=lambda q, v: 0.5 * np.sum(Mdiag * v * v, axis=-1) - q @ e1,
        dL_dq=lambda q, v: np.broadcast_to(-e1, q.shape).copy(),
        dL_dv=lambda q, v: Mdiag * v,
        d2L_dv2=lambda q, v: np.broadcast_to(np.diag(Mdiag), q.shape + (3,)).copy(),
        constraint=lambda q: np.stack([np.sum(q * q, axis=-1) - 1.0, q[..., 2] - 0.3], axis=-1),
        dg_dq=lambda q: np.stack(
            [2.0 * q, np.broadcast_to([0.0, 0.0, 1.0], q.shape)], axis=-2
        ),
        d2g_dq2_vv=lambda q, v: np.stack(
            [2.0 * np.sum(v * v, axis=-1), np.zeros(q.shape[:-1])], axis=-1
        ),
        mass=np.diag(Mdiag),
    )


def test_circle_system_declaration_validates():
    r = np.sqrt(0.91)
    samples = [(np.array([r, 0.0, 0.3]), np.array([0.0, 0.7, 0.0])),
               (np.array([0.0, -r, 0.3]), np.array([0.4, 0.2, -0.1]))]
    assert sv.validate_system(circle_system(), samples).passed


@pytest.mark.parametrize("method", README_METHODS)
@pytest.mark.parametrize("model", ["pendulum", "circle"])
def test_separable_steps_agree_with_the_general_path(model, method):
    # The circle has k = 2 multipliers and a non-identity mass.
    system = sv.spherical_pendulum() if model == "pendulum" else circle_system()
    general = replace(system, mass=None)
    paths = sv.generate(11, 64, 3, 256)
    q0 = np.array([1.0, 0.0, 0.0]) if model == "pendulum" else np.array([np.sqrt(0.91), 0.0, 0.3])
    x0 = sv.State(q=q0, p=system.dL_dv(q0, np.array([0.0, 0.5, 0.0])))
    increments = paths.increments if method in (
        "stochastic_variational_euler", "stochastic_vprk", "euler_maruyama_ref"
    ) else None
    if increments is None:
        rng = np.random.default_rng(12)
        states = random_states(system, 64, rng)
        x0 = sv.State(q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states]))
    a, g_a, hidden_a = _run(system, method, x0, increments, paths.h_base, 256)
    b, g_b, hidden_b = _run(general, method, x0, increments, paths.h_base, 256)
    assert np.max(np.abs(a.q - b.q)) <= 1e-11
    assert np.max(np.abs(a.p - b.p)) <= 1e-11
    if method != "euler_maruyama_ref":  # the explicit reference leaves the manifold
        assert max(g_a, hidden_a, g_b, hidden_b) <= 1e-11


@pytest.mark.parametrize("method", README_METHODS)
def test_symplecticity_with_two_constraints(method):
    # The circle's tangent space is the kernel of a 4 x 6 linearization and
    # its Darboux basis has one pair; the explicit reference is the control.
    system = circle_system()
    x = sv.State(q=np.array([np.sqrt(0.91), 0.0, 0.3]), p=np.array([0.0, 1.0, 0.0]))
    dW = np.array([0.01, -0.02, 0.03])
    residual = sv.symplecticity_check(system, method, x, 1e-3, dW=dW)
    if method == "euler_maruyama_ref":
        assert residual >= 1e-6
    else:
        assert residual <= 1e-9


@pytest.mark.parametrize("separable", [True, False], ids=["separable", "general"])
def test_zero_noise_sve_is_euler_b_path_by_path(pendulum, separable):
    system = pendulum if separable else replace(pendulum, mass=None)
    rng = np.random.default_rng(13)
    states = random_states(system, 64, rng)
    x0 = sv.State(q=np.stack([s.q for s in states]), p=np.stack([s.p for s in states]))
    zeros = np.zeros((64, 3, 128))
    sve = list(sv.integrate(system, "stochastic_variational_euler", x0, zeros, 2.0**-7, 128))
    euler_b = list(sv.integrate(system, "euler_b", x0, None, 2.0**-7, 128))
    for a, b in zip(sve, euler_b):
        assert np.array_equal(a.state.q, b.state.q)
        assert np.array_equal(a.state.p, b.state.p)
        assert np.array_equal(a.velocity, b.velocity)


def test_mass_inverse_is_derived_once_and_read_only():
    system = circle_system()
    assert np.allclose(system.mass_inverse @ system.mass, np.eye(3), rtol=0.0, atol=1e-15)
    assert not system.mass_inverse.flags.writeable
    assert "mass_inverse" not in repr(system)
    assert replace(system, mass=None).mass_inverse is None
    with pytest.raises(ValueError, match="init=False"):
        replace(system, mass_inverse=np.eye(3))


@pytest.mark.parametrize(
    "method, per_step",
    [("stochastic_variational_euler", 1), ("rattle", 1), ("euler_maruyama_ref", 0)],
)
@pytest.mark.parametrize("paths", [1, 8])
def test_separable_steps_invert_the_mass_only_in_the_projection(
    monkeypatch, method, per_step, paths
):
    # M^{-1} is formed when the system is built: the multiplier Newton and
    # the reduction only apply it.  The closed-form projection calls the
    # public schur_multiplier_solve with the bare M, which inverts it once
    # for the batch.
    system = sv.spherical_pendulum()
    increments = sv.generate(19, paths, 3, 64).increments
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(np.shape(a)) or inv(a))
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.4, 0.1]))
    assert len(list(sv.integrate(system, method, x0, increments, 1 / 64, 64))) == 64
    assert calls == [(3, 3)] * (64 * per_step)


@pytest.mark.parametrize("model", ["pendulum", "circle"])
def test_separable_legendre_velocity_is_checked_not_iterated(monkeypatch, model):
    from svpark import model as model_module

    system = sv.spherical_pendulum() if model == "pendulum" else circle_system()
    p = np.random.default_rng(23).standard_normal((16, 3))
    q = np.broadcast_to(np.array([1.0, 0.0, 0.0]), p.shape)
    iterations = []
    newton_solve = model_module.newton_solve

    def counted(*args, **kwargs):
        sol = newton_solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(model_module, "newton_solve", counted)
    v = sv.legendre_velocity(system, q, p)
    general = sv.legendre_velocity(replace(system, mass=None), q, p)
    assert iterations[0] == 0 and iterations[1] >= 1
    assert np.max(np.abs(system.dL_dv(q, v) - p)) <= 1e-12
    assert np.max(np.abs(v - general)) <= 1e-15


@pytest.mark.parametrize("model", ["pendulum", "circle"])
def test_reduction_agrees_with_and_without_the_mass_declaration(model):
    system = sv.spherical_pendulum() if model == "pendulum" else circle_system()
    general = replace(system, mass=None)
    states = random_states(system, 64, np.random.default_rng(29))
    q = np.stack([s.q for s in states])
    v = sv.legendre_velocity(general, q, np.stack([s.p for s in states]))
    a, b = sv.reduced_drift_diffusion(system, q, v), sv.reduced_drift_diffusion(general, q, v)
    assert np.max(np.abs(a.drift_p - b.drift_p)) <= 1e-14
    assert np.max(np.abs(a.diffusion_p - b.diffusion_p)) <= 1e-14
    a, b = sv.projection_matrices(system, q, v), sv.projection_matrices(general, q, v)
    assert np.max(np.abs(a.gram - b.gram)) <= 1e-14
    assert np.max(np.abs(a.projector - b.projector)) <= 1e-14


@pytest.mark.parametrize("model", ["pendulum", "circle"])
def test_noise_force_is_bitwise_the_einsum_of_the_stacked_gradients(model):
    from svpark.model import noise_force, noise_gradients

    system = sv.spherical_pendulum() if model == "pendulum" else circle_system()
    rng = np.random.default_rng(31)
    q = np.stack([s.q for s in random_states(system, 64, rng)])
    # -0.0 increments make every product -0.0: the fold starts from +0.0,
    # as einsum does, so the sum is +0.0 on both sides.
    increments = (rng.standard_normal((64, 3)), np.full((64, 3), -0.0), rng.standard_normal(3))
    for dW in increments:
        stacked = np.einsum("...m,...mn->...n", dW, noise_gradients(system, q))
        folded = noise_force(system, q, dW)
        assert folded.shape == stacked.shape
        assert np.array_equal(folded.view(np.uint64), stacked.view(np.uint64))


def oblique_noise(system):
    """The system with noise gamma_r(q) = sin(a_r . q) along three oblique
    directions a_r, so every gradient has three non-zero entries and the
    channel sums overlap in every component."""
    directions = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.7], [-0.6, 0.4, 1.0]])

    def make(a):
        return (lambda q: np.sin(q @ a)), (lambda q: np.cos(q @ a)[..., None] * a)

    gammas, dgammas = zip(*(make(a) for a in directions))
    return replace(system, gamma=gammas, dgamma_dq=dgammas)


def test_stochastic_vprk_noise_fold_agrees_with_the_stacked_gradients(monkeypatch):
    # Folding dW_r grad gamma_r channel by channel is not bitwise the matmul
    # of dW with the stacked gradients when several channels add to one
    # component (BLAS may fuse the multiply-adds), so only closeness holds.
    from svpark import deterministic
    from svpark.model import noise_gradients

    system = oblique_noise(sv.spherical_pendulum())
    sample = (np.array([np.sqrt(0.91), 0.0, 0.3]), np.array([0.0, 0.7, 0.0]))
    assert sv.validate_system(system, [sample]).passed
    paths = sv.generate(17, 16, 3, 64)
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.5, 0.0]))
    folded = _run(system, "stochastic_vprk", x0, paths.increments, paths.h_base, 64)[0]

    def stacked_force(system, q, dW):
        return (dW[..., None, :] @ noise_gradients(system, q))[..., 0, :]

    monkeypatch.setattr(deterministic, "noise_force", stacked_force)
    stacked = _run(system, "stochastic_vprk", x0, paths.increments, paths.h_base, 64)[0]
    assert np.max(np.abs(folded.q - stacked.q)) <= 1e-12
    assert np.max(np.abs(folded.p - stacked.p)) <= 1e-12
