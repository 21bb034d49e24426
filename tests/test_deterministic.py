from dataclasses import replace

import numpy as np
import pytest

import svpark as sv
from svpark import deterministic
from svpark.model import noise_force
from svpark.exceptions import ConditionViolated
from svpark.tableau import ButcherTableau

from conftest import (
    free_sphere_system,
    random_states,
    state_residuals,
    variable_mass_sphere,
)


def balancing_multiplier(system, q):
    """Multiplier solving dL_dq + dg_dq^T lam = 0, the fixed-point condition."""
    G = system.dg_dq(q)
    return np.linalg.lstsq(G.T, -system.dL_dq(q, np.zeros_like(q)), rcond=None)[0]


EQUILIBRIUM = np.array([0.0, 0.0, -1.0])


class TestEquilibriumFixedPoints:
    """At the hanging equilibrium every scheme must return the state
    unchanged, with multipliers balancing gravity against the constraint
    force (lam = -1/2 for the unit sphere with unit gravity)."""

    def setup_method(self):
        self.x = sv.State(q=EQUILIBRIUM.copy(), p=np.zeros(3))

    def check_balance(self, system, lam):
        residual = system.dL_dq(EQUILIBRIUM, np.zeros(3)) + system.dg_dq(
            EQUILIBRIUM
        ).T @ np.atleast_1d(lam)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_rattle(self, pendulum):
        res = sv.rattle_step(pendulum, self.x, 0.01)
        assert np.max(np.abs(res.state.q - self.x.q)) <= 1e-12
        assert np.max(np.abs(res.state.p)) <= 1e-12
        expected = balancing_multiplier(pendulum, EQUILIBRIUM)
        for lam in res.multipliers:
            assert np.allclose(lam, expected, atol=1e-10)
            self.check_balance(pendulum, lam)

    def test_vprk(self, pendulum):
        tab = sv.builtin_tableaux()["rattle_trapezoidal"]
        res = sv.vprk_step(pendulum, tab, self.x, 0.01)
        assert np.max(np.abs(res.state.q - self.x.q)) <= 1e-12
        assert np.max(np.abs(res.state.p)) <= 1e-12
        self.check_balance(pendulum, res.stages.Lambda[0])

    def test_euler_a(self, pendulum):
        res = sv.euler_a_with_projection(pendulum, self.x, 0.01)
        assert np.max(np.abs(res.state.q - self.x.q)) <= 1e-12
        assert np.max(np.abs(res.state.p)) <= 1e-12
        self.check_balance(pendulum, res.multipliers[0])

    def test_euler_b(self, pendulum):
        res = sv.euler_b_with_projection(pendulum, self.x, 0.01)
        assert np.max(np.abs(res.state.q - self.x.q)) <= 1e-12
        assert np.max(np.abs(res.state.p)) <= 1e-12


class TestProjection:
    def test_already_satisfying_momentum_unchanged(self, pendulum):
        q = np.array([1.0, 0.0, 0.0])
        p_hat = np.array([0.0, 0.4, -0.1])  # tangent at q
        state = sv.project_state(pendulum, q, p_hat)
        assert np.array_equal(state.q, q)
        assert np.max(np.abs(state.p - p_hat)) <= 1e-12

    def test_south_pole_normal_component_removed(self, pendulum):
        q = np.array([0.0, 0.0, -1.0])
        p_hat = np.array([0.0, 0.0, 1.0])
        state = sv.project_state(pendulum, q, p_hat)
        assert np.max(np.abs(state.p)) <= 1e-12
        assert sv.hidden_residual(pendulum, q, p=state.p) <= 1e-12

    def test_idempotent(self, pendulum):
        rng = np.random.default_rng(4)
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        p_hat = rng.standard_normal(3)
        once = sv.project_state(pendulum, q, p_hat)
        twice = sv.project_state(pendulum, q, once.p)
        assert np.max(np.abs(twice.p - once.p)) <= 1e-12


def test_general_rattle_step_builds_no_tableau(pendulum, monkeypatch):
    # The builtin tableaux are built once, at import, and shared.
    built = []
    post_init = ButcherTableau.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ButcherTableau, "__post_init__", counting_post_init)
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, 0.0]))
    sv.rattle_step(replace(pendulum, mass=None), x, 0.01)
    assert built == []


def test_vprk_requires_admissible_tableau(pendulum):
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))
    with pytest.raises(ConditionViolated):
        sv.vprk_step(pendulum, sv.builtin_tableaux()["euler_a"], x, 0.01)


def test_free_rotation_stays_on_sphere():
    system = free_sphere_system()
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.3, 0.0]))
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    for _ in range(50):
        x = sv.vprk_step(system, tab, x, 0.05).state
    assert sv.constraint_residual(system, x.q) <= 1e-12


def test_rattle_long_run_drift(pendulum_quiet):
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.2, 0.0]))
    traj = sv.simulate_path(pendulum_quiet, "rattle", x0, h=1e-3, num_steps=1000)
    assert np.max(traj.constraint) <= 1e-10
    assert np.max(traj.hidden) <= 1e-10
    # symplectic scheme: energy oscillates at O(h^2), no secular growth
    assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-4


def test_rattle_matches_vprk_on_random_states(pendulum):
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    rng = np.random.default_rng(99)
    worst = 0.0
    for state in random_states(pendulum, 50, rng):
        a = sv.rattle_step(pendulum, state, 0.01)
        b = sv.vprk_step(pendulum, tab, state, 0.01)
        # The separable step keeps no stage record; its multipliers are the
        # trapezoid's stage multipliers.
        assert a.stages is None and a.warm is a.multipliers[0]
        worst = max(
            worst,
            float(np.max(np.abs(a.state.q - b.state.q))),
            float(np.max(np.abs(a.state.p - b.state.p))),
            float(np.max(np.abs(np.stack(a.multipliers, axis=-2) - b.stages.Lambda))),
        )
    assert worst <= 1e-10


def test_vprk_stage_equations_hold(pendulum):
    # The internal momenta must satisfy both their defining update and the
    # Legendre pairing; the update line is not part of the Newton system,
    # so verify it after the fact.
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, -0.1]))
    h = 0.01
    res = sv.vprk_step(pendulum, tab, x, h)
    st = res.stages
    ahat = tab.conjugate_weights()
    for i in range(tab.s):
        forces = np.stack(
            [
                pendulum.dL_dq(st.Q[j], st.V[j]) + pendulum.dg_dq(st.Q[j]).T @ st.Lambda[j]
                for j in range(tab.s)
            ]
        )
        update = x.p + h * np.einsum("j,jn->n", ahat[i], forces)
        assert np.max(np.abs(st.P[i] - update)) <= 1e-10
        assert np.max(np.abs(st.P[i] - pendulum.dL_dv(st.Q[i], st.V[i]))) <= 1e-12
        assert np.max(np.abs(pendulum.constraint(st.Q[i]))) <= 1e-11
    p_final = x.p + h * np.einsum(
        "j,jn->n",
        tab.b,
        np.stack(
            [
                pendulum.dL_dq(st.Q[j], st.V[j]) + pendulum.dg_dq(st.Q[j]).T @ st.Lambda[j]
                for j in range(tab.s)
            ]
        ),
    )
    assert np.max(np.abs(p_final - res.state.p)) <= 1e-10


def test_step_results_satisfy_state_invariants(pendulum):
    rng = np.random.default_rng(55)
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    for state in random_states(pendulum, 10, rng):
        for step in (
            lambda s: sv.rattle_step(pendulum, s, 0.02),
            lambda s: sv.vprk_step(pendulum, tab, s, 0.02),
            lambda s: sv.euler_a_with_projection(pendulum, s, 0.02),
            lambda s: sv.euler_b_with_projection(pendulum, s, 0.02),
        ):
            res = step(state)
            c, hres = state_residuals(pendulum, res.state)
            assert c <= 1e-11
            assert hres <= 1e-11


def test_euler_a_violates_hidden_constraint_before_projection(pendulum):
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.5, 0.0]))
    q, p_hat, _, _, _ = deterministic._euler_a_core(pendulum, x, 0.05)
    assert sv.constraint_residual(pendulum, q) <= 1e-12
    violated = sv.hidden_residual(pendulum, q, p=p_hat)
    assert violated > 1e-4
    projected = sv.project_state(pendulum, q, p_hat)
    assert sv.hidden_residual(pendulum, projected.q, p=projected.p) <= 1e-11


def test_euler_schemes_identical_without_qv_coupling(pendulum):
    # When the Lagrangian separates (kinetic term independent of q,
    # potential independent of v) the two Euler variants solve the same
    # implicit system and coincide exactly.
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.4, 0.2]))
    a = sv.euler_a_with_projection(pendulum, x, 0.05).state
    b = sv.euler_b_with_projection(pendulum, x, 0.05).state
    assert np.max(np.abs(a.q - b.q)) <= 1e-12
    assert np.max(np.abs(a.p - b.p)) <= 1e-12


def test_euler_schemes_agree_at_first_order():
    # With a configuration-dependent mass the variants genuinely differ;
    # they share the O(h) expansion, so the one-step gap shrinks by about 4
    # when h halves.  (The point must not align with the mass-gradient
    # axis, where the coupling degenerates.)
    system = variable_mass_sphere(beta=0.6)
    x = sv.project_state(
        system, np.array([0.5, 0.7, -0.5]), np.array([0.3, 0.4, 0.2])
    )
    gaps = []
    hs = [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8]
    for h in hs:
        a = sv.euler_a_with_projection(system, x, h).state
        b = sv.euler_b_with_projection(system, x, h).state
        gaps.append(np.max(np.abs(np.concatenate([a.q - b.q, a.p - b.p]))))
    slope, _ = sv.fit_loglog_slope(hs, gaps)
    assert 1.8 <= slope <= 2.2


def test_rattle_local_error_is_third_order(pendulum_quiet):
    # One h-step versus two h/2-steps from a moving state: local defect
    # O(h^3).  (From rest the leading coefficient degenerates by symmetry.)
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.4, 0.3]))
    defects = []
    hs = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]
    for h in hs:
        one = sv.rattle_step(pendulum_quiet, x, h).state
        half = sv.rattle_step(pendulum_quiet, x, h / 2)
        two = sv.rattle_step(pendulum_quiet, half.state, h / 2).state
        defects.append(np.max(np.abs(np.concatenate([one.q - two.q, one.p - two.p]))))
    slope, _ = sv.fit_loglog_slope(hs, defects)
    assert 2.7 <= slope <= 3.3


def deterministic_global_errors(system, method, x0, hs, T=1.0, ref_factor=64):
    """Global endpoint errors against the same method at h/ref_factor."""
    errors = []
    for h in hs:
        steps = int(round(T / h))
        traj = sv.simulate_path(system, method, x0, h=h, num_steps=steps)
        ref = sv.simulate_path(
            system, method, x0, h=h / ref_factor, num_steps=steps * ref_factor
        )
        errors.append(
            np.max(
                np.abs(
                    np.concatenate(
                        [traj.q[-1] - ref.q[-1], traj.p[-1] - ref.p[-1]]
                    )
                )
            )
        )
    return errors


def test_rattle_global_order_two(pendulum_quiet):
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))
    hs = [2.0**-4, 2.0**-5, 2.0**-6]
    errors = deterministic_global_errors(pendulum_quiet, "rattle", x0, hs)
    slope, _ = sv.fit_loglog_slope(hs, errors)
    assert 1.8 <= slope <= 2.2


def test_lobatto_iiia_3_global_order_four_on_the_manifold(pendulum_quiet):
    # One reference at h = 2^-8 for the ladder 2^-2 .. 2^-5 on [0, 1].
    method = {"method": "vprk", "tableau": "lobatto_iiia_3"}
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.4, 0.3]))
    ref = sv.simulate_path(pendulum_quiet, method, x0, h=2.0**-8, num_steps=2**8)
    hs = [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5]
    errors = []
    for h in hs:
        traj = sv.simulate_path(pendulum_quiet, method, x0, h=h, num_steps=int(1 / h))
        errors.append(np.max(np.abs(np.concatenate([traj.q[-1] - ref.q[-1],
                                                    traj.p[-1] - ref.p[-1]]))))
        assert np.max(traj.constraint) <= 1e-9 and np.max(traj.hidden) <= 1e-9
    slope, _ = sv.fit_loglog_slope(hs, errors)
    assert 3.5 <= slope <= 4.5


@pytest.mark.parametrize("method", ["euler_a", "euler_b"])
def test_euler_projected_global_order_one(pendulum_quiet, method):
    x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))
    hs = [2.0**-4, 2.0**-5, 2.0**-6]
    errors = deterministic_global_errors(pendulum_quiet, method, x0, hs)
    slope, _ = sv.fit_loglog_slope(hs, errors)
    assert 0.8 <= slope <= 1.2


# ---------------------------------------------------------------------------
# The vprk residual against its full-stage form


def full_stage_residual(system, tableau, q, p, h, nu, dW):
    """The vprk stage equations with forces and noise evaluated at all s
    stages (the last one weighted by exact zeros): the oracle for the
    residual that ``_vprk_core`` hands to Newton."""
    n, k, s = system.dim_q, system.dim_g, tableau.s

    def residual(u):
        lead = u.shape[:-1]
        V = u[..., : s * n].reshape(lead + (s, n))
        lam = u[..., s * n :].reshape(lead + (s - 1, k))
        lam_full = np.concatenate([lam, np.zeros(lead + (1, k))], axis=-2)
        Q = q[..., None, :] + h * (tableau.a @ V)
        GT = np.swapaxes(system.dg_dq(Q), -1, -2)
        forces = system.dL_dq(Q, V) + (GT @ lam_full[..., None])[..., 0]
        r1 = system.dL_dv(Q, V) - p[..., None, :] - h * (tableau.conjugate_weights() @ forces)
        if dW is not None:
            weights = tableau.noise_stage_weights() * nu[None, :]
            r1 = r1 - weights @ noise_force(system, Q, dW[..., None, :])
        r2 = system.constraint(Q[..., 1:, :])
        return np.concatenate(
            [r1.reshape(lead + (s * n,)), r2.reshape(lead + ((s - 1) * k,))], axis=-1
        )

    return residual


def captured_residual(monkeypatch, step):
    """Run ``step`` and return the residual ``_vprk_core`` passed to Newton."""
    captured = []

    def recording(F, x0, *args, **kwargs):
        captured.append(F)
        return sv.newton_solve(F, x0, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(deterministic, "newton_solve", recording)
        step()
    return captured[0]


def vprk_models():
    from test_separable import circle_system

    pendulum = sv.spherical_pendulum()
    return {
        "pendulum": pendulum,
        "pendulum-without-mass": replace(pendulum, mass=None),
        "circle": circle_system(),
    }


@pytest.mark.parametrize("model", ["pendulum", "pendulum-without-mass", "circle"])
@pytest.mark.parametrize("name", ["rattle_trapezoidal", "lobatto_iiia_3"])
@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
def test_vprk_residual_is_bitwise_the_full_stage_residual(monkeypatch, model, name, noisy):
    system = vprk_models()[model]
    tableau = sv.builtin_tableaux()[name]
    rng = np.random.default_rng(sum(map(ord, model + name)) + noisy)
    batch, h = 5, 0.05
    states = random_states(system, batch, rng)
    q = np.stack([state.q for state in states])
    p = np.stack([state.p for state in states])
    dW = np.sqrt(h) * rng.standard_normal((batch, system.num_noise)) if noisy else None
    nu = tableau.b
    if noisy:
        step = lambda: sv.stochastic_vprk_step(system, tableau, None, sv.State(q, p), dW, h)
    else:
        step = lambda: sv.vprk_step(system, tableau, sv.State(q, p), h)
    residual = captured_residual(monkeypatch, step)
    oracle = full_stage_residual(system, tableau, q, p, h, nu, dW)
    d = tableau.s * system.dim_q + (tableau.s - 1) * system.dim_g
    for lead in [(batch,), (d, batch)]:  # one Newton iterate; the stacked FD columns
        for _ in range(5):
            u = rng.standard_normal(lead + (d,))
            assert np.array_equal(residual(u), oracle(u))


def test_trapezoidal_step_evaluates_noise_gradients_a_fixed_number_of_times(pendulum):
    # Stage 1's noise is formed once per step and the stage record once
    # more: two evaluations of each gradient per step, however many Newton
    # iterations (and residual calls) the step takes.
    calls = [0]

    def counting(dgamma):
        def wrapped(q):
            calls[0] += 1
            return dgamma(q)

        return wrapped

    system = replace(pendulum, dgamma_dq=tuple(counting(f) for f in pendulum.dgamma_dq))
    tableau = sv.builtin_tableaux()["rattle_trapezoidal"]
    x = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, -0.1]))
    iterations = set()
    for h, tol in [(2.0**-8, 1e-6), (2.0**-2, 1e-13), (0.5, 1e-13)]:
        calls[0] = 0
        config = sv.NewtonConfig(tol_residual=tol)
        result = sv.stochastic_vprk_step(system, tableau, None, x, np.full(3, 0.1), h, config)
        assert calls[0] == 2 * system.num_noise
        iterations.add(result.newton_iters)
    assert len(iterations) == 3
