from dataclasses import replace

import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import RankDeficient

from conftest import random_states


def test_pendulum_gram_is_four(pendulum):
    rng = np.random.default_rng(1)
    for state in random_states(pendulum, 20, rng):
        P = sv.projection_matrices(pendulum, state.q, rng.standard_normal(3)).gram
        assert np.allclose(P, [[4.0]], atol=1e-12)


def test_pendulum_projector_is_outer_product(pendulum):
    rng = np.random.default_rng(2)
    for state in random_states(pendulum, 20, rng):
        B = sv.projection_matrices(pendulum, state.q, rng.standard_normal(3)).projector
        assert np.allclose(B, np.outer(state.q, state.q), atol=1e-12)


def test_projector_annihilates_tangent_vectors(pendulum):
    q = np.array([1.0, 0.0, 0.0])
    B = sv.projection_matrices(pendulum, q, np.zeros(3)).projector
    tangent = np.array([0.0, 0.7, -0.3])
    assert np.max(np.abs(B @ tangent)) <= 1e-13


def test_gram_matches_definition_for_linear_constraint():
    # With a diagonal kinetic metric and a linear constraint the Gram matrix
    # reduces to G M^{-1} G^T, computable directly.
    base = sv.spherical_pendulum()
    Mdiag = np.array([2.0, 3.0, 5.0])
    Gmat = np.array([[1.0, 1.0, 0.0]])
    system = replace(
        base,
        num_noise=0,
        gamma=(),
        dgamma_dq=(),
        dL_dv=lambda q, v: Mdiag * v,
        d2L_dv2=lambda q, v: np.broadcast_to(np.diag(Mdiag), q.shape + (3,)).copy(),
        lagrangian=lambda q, v: 0.5 * np.sum(Mdiag * v * v, axis=-1),
        constraint=lambda q: (q @ Gmat[0])[..., None],
        dg_dq=lambda q: np.broadcast_to(Gmat, q.shape[:-1] + (1, 3)).copy(),
        d2g_dq2_vv=lambda q, v: np.zeros(q.shape[:-1] + (1,)),
        mass=np.diag(Mdiag),
    )
    q = np.array([1.0, -1.0, 0.4])
    P = sv.projection_matrices(system, q, np.zeros(3)).gram
    assert np.allclose(P, Gmat @ np.diag(1.0 / Mdiag) @ Gmat.T, atol=1e-14)


def test_rank_deficient_gradient_detected(pendulum):
    with pytest.raises(RankDeficient):
        sv.projection_matrices(pendulum, np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("fn", [sv.projection_matrices, sv.reduced_drift_diffusion])
def test_non_finite_state_is_rank_deficient(pendulum, fn, entry):
    # A non-finite Gram matrix is judged singular before any SVD could fail.
    with pytest.raises(RankDeficient):
        fn(pendulum, np.array([1.0, entry, 0.0]), np.zeros(3))


def test_projector_identities_random_sweep(pendulum):
    rng = np.random.default_rng(3)
    for state in random_states(pendulum, 100, rng):
        v = rng.standard_normal(3)
        q = state.q
        mats = sv.projection_matrices(pendulum, q, v)
        B = mats.projector
        assert np.max(np.abs(B @ B - B)) <= 1e-10
        assert np.max(np.abs((np.eye(3) - B) @ B)) <= 1e-10
        G = pendulum.dg_dq(q)
        curvature = G.T @ np.linalg.solve(mats.gram, pendulum.d2g_dq2_vv(q, v))
        assert np.max(np.abs((np.eye(3) - B) @ curvature)) <= 1e-10


def test_drift_vanishes_at_equilibrium(pendulum):
    q = np.array([0.0, 0.0, -1.0])
    dyn = sv.reduced_drift_diffusion(pendulum, q, np.zeros(3))
    assert np.max(np.abs(dyn.drift_p)) <= 1e-14
    assert dyn.diffusion_p.shape == (3, 3)


def test_zero_potentials_give_zero_diffusion(pendulum):
    zeroed = replace(
        pendulum,
        gamma=tuple(lambda q: np.zeros(q.shape[:-1]) for _ in range(3)),
        dgamma_dq=tuple(lambda q: np.zeros_like(q) for _ in range(3)),
    )
    dyn = sv.reduced_drift_diffusion(zeroed, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    assert np.max(np.abs(dyn.diffusion_p)) == 0.0


def test_no_channels_give_empty_diffusion(pendulum_quiet):
    dyn = sv.reduced_drift_diffusion(pendulum_quiet, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    assert dyn.diffusion_p.shape == (3, 0)


def test_reduced_drift_against_constrained_flow(pendulum_quiet):
    # Independent check of the drift formula: one explicit step of the
    # reduced dynamics must match the trapezoidal constrained step to
    # second order in h (both are first-order approximations of the same
    # flow, differing at O(h^2)).
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
    v = sv.legendre_velocity(pendulum_quiet, x.q, x.p)
    defects = []
    hs = [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]
    for h in hs:
        em = sv.euler_maruyama_reference_step(pendulum_quiet, x, None, h, v=v).state
        ref = sv.rattle_step(pendulum_quiet, x, h).state
        defects.append(
            np.max(np.abs(np.concatenate([em.q - ref.q, em.p - ref.p])))
        )
    slope, _ = sv.fit_loglog_slope(hs, defects)
    assert 1.8 <= slope <= 2.2


def test_stratonovich_correction_vanishes_on_pendulum(pendulum):
    # The momentum diffusion depends on the configuration only and the
    # position update carries no noise, so a Heun (predictor-corrector)
    # reading of the noise term coincides with the explicit one: the
    # predictor cannot change the diffusion coefficient.
    rng = np.random.default_rng(8)
    for state in random_states(pendulum, 10, rng):
        v = sv.legendre_velocity(pendulum, state.q, state.p)
        h = 1e-3
        dW = rng.standard_normal(3) * np.sqrt(h)
        dyn = sv.reduced_drift_diffusion(pendulum, state.q, v)
        p_em = state.p + h * dyn.drift_p + dyn.diffusion_p @ dW
        # Heun: re-evaluate the diffusion at the predicted point and average.
        # The position is unchanged by the predictor (no noise in q), so the
        # averaged coefficient equals the explicit one.
        v_pred = sv.legendre_velocity(pendulum, state.q, p_em)
        dyn_pred = sv.reduced_drift_diffusion(pendulum, state.q, v_pred)
        p_heun = state.p + h * dyn.drift_p + 0.5 * (
            dyn.diffusion_p + dyn_pred.diffusion_p
        ) @ dW
        assert np.max(np.abs(p_heun - p_em)) <= 1e-14
