"""Deterministic variational integrators for holonomically constrained systems.

All steps solve an implicit system built from a discrete action: internal
stage velocities and Lagrange multipliers are the Newton unknowns, internal
positions are explicit combinations of them, and the configuration
constraint is imposed at every internal position.  The momentum produced by
the discrete action does not automatically satisfy the hidden velocity
constraint, so each step ends with a projection that adds a constraint
force to the momentum; for the trapezoidal (RATTLE) scheme that projection
is part of the step's own equations.

For a separable system (one that declares a constant ``mass`` M) the
velocities are explicit in the multipliers: the Euler, SVE and RATTLE
steps are one kick-SHAKE-kick map, force weight theta = 1 or 1/2, its SHAKE
equation g(q + h M^{-1}(d + theta h G^T lam)) = 0 a Newton on the k
multipliers alone, and the projection is one closed-form saddle solve
(Hairer, Lubich and Wanner, Geometric Numerical Integration, VII.1).

Every function broadcasts over leading batch dimensions of the state
arrays, which is how trajectory ensembles are integrated in one sweep.
"""

from dataclasses import dataclass

import numpy as np

from .model import State, legendre_velocity, noise_force
from .solver import NewtonConfig, _apply, _apply_inverse, newton_solve, schur_multiplier_solve
from .tableau import ButcherTableau, builtin_tableaux

__all__ = [
    "InternalStages",
    "StepResult",
    "project_state",
    "euler_a_with_projection",
    "euler_b_with_projection",
    "rattle_step",
    "vprk_step",
]


@dataclass
class InternalStages:
    """Internal positions, velocities, momenta and multipliers of one step.

    Arrays have shapes (..., s, n) for Q, V, P and (..., s, k) for Lambda.
    """

    Q: np.ndarray
    V: np.ndarray
    P: np.ndarray
    Lambda: np.ndarray


@dataclass
class StepResult:
    """One step's state, stages and multipliers, and what the next step reads.

    ``newton_iters`` counts the step's Newton iterations plus the
    projection's: for a separable system the multiplier Newton's iterations
    plus 1 for the closed-form projection.  ``velocity`` is the Legendre
    velocity of the new state.  ``stages`` is filled by the partitioned
    Runge-Kutta solve only (``vprk_step``, ``stochastic_vprk_step``, and
    ``rattle_step`` without a ``mass``) and is None for every other step.
    ``warm`` is the step's position multipliers ``multipliers[0]`` on a
    separable system, where they start the next step's multiplier Newton,
    and None otherwise: every other Newton starts from the carried velocity
    and zero multipliers.
    """

    state: State
    stages: InternalStages | None
    multipliers: list
    newton_iters: int
    velocity: np.ndarray = None
    warm: np.ndarray = None


def _gt(mat):
    return np.swapaxes(mat, -1, -2)


def _stage_sum(weights, X):
    """weights @ X for stage weights of shape (s, r) and stage values X of
    shape (..., r, n).  With one stage (r = 1) it is the product
    weights * X, the one product matmul forms, without a BLAS call per
    batch element."""
    return weights * X if weights.shape[-1] == 1 else weights @ X


# ---------------------------------------------------------------------------
# Hidden-constraint projection


def _project(system, q, p_hat, scale, config=None, v0=None):
    """Add a constraint force scale * dg_dq^T mu to p_hat so that the
    Legendre velocity at (q, p) is annihilated by the constraint Jacobian.

    Newton on (v, mu) for dL_dv(q, v) = p_hat + scale * G^T mu, G v = 0;
    for Lagrangians quadratic in v one iteration is exact.  A separable
    system takes that one closed-form saddle solve without forming
    residuals (counted as one iteration).  Returns (p, v, mu, iterations).
    """
    G = system.dg_dq(q)
    GT = _gt(G)
    if system.mass is not None:
        # M v + G^T lam = p_hat, G v = 0: lam = -scale * mu.
        v, lam = schur_multiplier_solve(system.mass, G, p_hat, np.zeros(G.shape[:-1]))
        return p_hat - _apply(GT, lam), v, -lam / scale, 1
    n = system.dim_q

    def residual(u):
        v, mu = u[..., :n], u[..., n:]
        r1 = system.dL_dv(q, v) - p_hat - scale * _apply(GT, mu)
        return np.concatenate([r1, _apply(G, v)], axis=-1)

    def jacobian(u):
        return _saddle_jacobian(system.d2L_dv2(q, u[..., :n]), -scale * GT, G)

    v = legendre_velocity(system, q, p_hat, config) if v0 is None else v0
    start = np.concatenate([v, np.zeros(G.shape[:-1])], axis=-1)
    sol = newton_solve(residual, start, config, jacobian=jacobian)
    v, mu = sol.x[..., :n], sol.x[..., n:]
    return p_hat + scale * _apply(GT, mu), v, mu, sol.iterations


_RETRACT = NewtonConfig(tol_residual=1e-13)


def project_state(system, q, p, config=None) -> State:
    """Retract an ambient point onto the phase-space constraint set.

    The position moves along the constraint normals at q to g = 0, that is
    q + dg_dq(q)^T lam with Newton on the multipliers lam (SHAKE's
    equation, stopping at |g| <= 1e-13); the momentum then receives the
    constraint force dg_dq^T mu of the hidden-constraint projection.
    A point already on the constraint set (|g| <= 1e-13) keeps its q, as
    the retraction takes 0 iterations, and its p to solver tolerance: the
    property the symplecticity check and state validation rely on.
    Raises SingularJacobian when the constraint gradients at q are
    degenerate (for a batch, naming the batch index) and NoConvergence when
    the retraction does not converge.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    q, _ = _shake_newton(system, q, _gt(system.dg_dq(q)), _RETRACT, None)
    p, _, _, _ = _project(system, q, p, 1.0, config)
    return State(q=q, p=p)


# ---------------------------------------------------------------------------
# First-order variational Euler steps


def _saddle_jacobian(J11, J12, J21):
    batch = J11.shape[:-2]
    n = J11.shape[-1]
    k = J12.shape[-1]
    J = np.zeros(batch + (n + k, n + k))
    J[..., :n, :n] = J11
    J[..., :n, n:] = J12
    J[..., n:, :n] = J21
    return J


def _shake_newton(system, start, W, config, warm):
    """Newton on the k multipliers lam for g(start + W lam) = 0, with the
    k x k Jacobian G(start + W lam) W.  Returns the position and the
    NewtonResult."""

    def position(lam):
        return start + _apply(W, lam)

    def residual(lam):
        return system.constraint(position(lam))

    def jacobian(lam):
        return system.dg_dq(position(lam)) @ W

    if warm is None:
        warm = np.zeros(start.shape[:-1] + W.shape[-1:])
    sol = newton_solve(residual, warm, config, jacobian=jacobian)
    return position(sol.x), sol


def _separable_core(system, x: State, h, theta, kick, config, v, warm):
    """The kick-SHAKE-kick map of a separable system, with force weight theta.

    d = p + theta h dL_dq(q, v), plus ``kick`` when given, then Newton on
    the multipliers lam, started from ``warm``, for SHAKE's equation
    g(q + h M^{-1}(d + theta h G(q)^T lam)) = 0; when theta != 1 the momentum
    then gains (1 - theta) h dL_dq(q_next).  theta = 1 is the Euler and SVE
    step, theta = 1/2 RATTLE's.  Returns (q_next, p_hat, v_hat, lam,
    iterations), for ``_projected_step`` with weight theta h.
    """
    q, p = x.q, x.p
    if v is None:
        v = legendre_velocity(system, q, p, config)
    c = theta * h
    d = p + c * system.dL_dq(q, v)
    if kick is not None:
        d = d + kick
    GT = _gt(system.dg_dq(q))
    k = GT.shape[-1]
    solved = _apply_inverse(system.mass_inverse, np.concatenate([GT, d[..., None]], axis=-1))
    MinvGT, Minv_d = solved[..., :k], solved[..., k]
    q_next, sol = _shake_newton(system, q + h * Minv_d, (h * c) * MinvGT, config, warm)
    lam = sol.x
    p_hat = d + c * _apply(GT, lam)
    v_hat = Minv_d + c * _apply(MinvGT, lam)
    if theta != 1:
        p_hat = p_hat + ((1 - theta) * h) * system.dL_dq(q_next, v_hat)
    return q_next, p_hat, v_hat, lam, sol.iterations


def _euler_newton(system, q, h, target, momentum, momentum_jacobian, config, v):
    """Newton on (v_hat, lam) for momentum(v_hat) = target + h G(q)^T lam and
    g(q + h v_hat) = 0, started from (v, 0).
    ``momentum_jacobian`` is the v_hat-Jacobian of ``momentum``.  Returns
    v_hat, lam and the Newton iteration count.
    """
    n = system.dim_q
    GT = _gt(system.dg_dq(q))

    def residual(u):
        v_hat, lam = u[..., :n], u[..., n:]
        r1 = momentum(v_hat) - target - h * _apply(GT, lam)
        return np.concatenate([r1, system.constraint(q + h * v_hat)], axis=-1)

    def jacobian(u):
        v_hat = u[..., :n]
        J21 = h * system.dg_dq(q + h * v_hat)
        return _saddle_jacobian(momentum_jacobian(v_hat), -h * GT, J21)

    start = np.concatenate([v, np.zeros(q.shape[:-1] + (system.dim_g,))], axis=-1)
    sol = newton_solve(residual, start, config, jacobian=jacobian)
    return sol.x[..., :n], sol.x[..., n:], sol.iterations


def _euler_a_core(system, x: State, h, config=None, v=None, warm=None):
    """Implicit solve of the first Euler scheme (see ``euler_a_with_projection``).
    Returns (q_next, p_hat, v_hat, lam, iterations), as ``_separable_core``
    does; p_hat satisfies g(q_next) = 0 but not the hidden constraint."""
    if system.mass is not None:
        return _separable_core(system, x, h, 1.0, None, config, v, warm)
    q, p = x.q, x.p
    if v is None:
        v = legendre_velocity(system, q, p, config)
    v_hat, lam, iters = _euler_newton(
        system, q, h, p,
        lambda v_hat: system.dL_dv(q, v_hat) - h * system.dL_dq(q, v_hat),
        lambda v_hat: system.d2L_dv2(q, v_hat) - h * _gt(system.d2L_dqdv(q, v_hat)),
        config, v,
    )
    return q + h * v_hat, system.dL_dv(q, v_hat), v_hat, lam, iters


def _euler_b_core(system, x: State, h, kick, config=None, v=None, warm=None):
    """Shared implicit solve for the second Euler scheme and its stochastic
    extension: drift at (q, v) with v the current Legendre velocity, an
    additive momentum kick, and the Legendre pairing at the new position.
    Returns the tuple of ``_euler_a_core``.
    """
    if system.mass is not None:
        return _separable_core(system, x, h, 1.0, kick, config, v, warm)
    q, p = x.q, x.p
    if v is None:
        v = legendre_velocity(system, q, p, config)
    drift = p + h * system.dL_dq(q, v)
    if kick is not None:
        drift = drift + kick

    def momentum_jacobian(v_hat):
        q_next = q + h * v_hat
        return system.d2L_dv2(q_next, v_hat) + h * system.d2L_dqdv(q_next, v_hat)

    v_hat, lam, iters = _euler_newton(
        system, q, h, drift, lambda v_hat: system.dL_dv(q + h * v_hat, v_hat),
        momentum_jacobian, config, v,
    )
    q_next = q + h * v_hat
    return q_next, system.dL_dv(q_next, v_hat), v_hat, lam, iters


def _projected_step(system, solved, scale, config) -> StepResult:
    """The StepResult of a core's tuple, its momentum projected with weight
    ``scale``: h after an Euler core, theta h after ``_separable_core``."""
    q, p_hat, v_hat, lam, iters = solved
    p, v, mu, proj_iters = _project(system, q, p_hat, scale, config, v0=v_hat)
    warm = lam if system.mass is not None else None
    return StepResult(State(q=q, p=p), stages=None, multipliers=[lam, mu],
                      newton_iters=iters + proj_iters, velocity=v, warm=warm)


def euler_a_with_projection(
    system, x: State, h, config=None, v=None, warm=None
) -> StepResult:
    """One step of the first variational Euler scheme, then the projection.

    The position update is q_next = q + h * v_hat with the momentum drift
    and the Legendre pairing both evaluated at (q, v_hat); the projection
    restores the hidden velocity constraint.  For a separable system dL_dq
    does not depend on v and the scheme is ``euler_b_with_projection``.
    ``v``, the Legendre velocity of ``x`` when the caller has it, saves a
    Legendre solve; ``warm``, the previous step's position multipliers,
    starts a separable system's multiplier Newton.
    """
    return _projected_step(system, _euler_a_core(system, x, h, config, v, warm), h, config)


def euler_b_with_projection(
    system, x: State, h, config=None, v=None, warm=None
) -> StepResult:
    """One step of the implicit-Euler variational scheme, then the projection.

    The momentum drift uses the current velocity while the Legendre pairing
    is taken at the new position.  ``v`` and ``warm`` are as for
    ``euler_a_with_projection``.
    """
    return _projected_step(system, _euler_b_core(system, x, h, None, config, v, warm), h, config)


# ---------------------------------------------------------------------------
# RATTLE


def rattle_step(system, x: State, h, config=None, v=None, warm=None) -> StepResult:
    """One step of variational RATTLE (two-stage trapezoidal scheme).

    For a separable system this is the classical form, ``_separable_core``
    with theta = 1/2: the half-step momentum p_half = p + (h/2)(dL_dq(q) +
    G(q)^T lam1) moves q to q + h M^{-1} p_half on g = 0, and p_half + (h/2)
    dL_dq(q_next) is projected with the velocity multiplier lam2; ``stages``
    is None.  Any other system takes ``vprk_step`` on the trapezoidal
    tableau, with which the separable form agrees to solver tolerance.
    """
    if system.mass is None:
        tableau = builtin_tableaux()["rattle_trapezoidal"]
        return _vprk_core(system, tableau, x, h, config, nu=None, dW=None, v=v)
    return _projected_step(system, _separable_core(system, x, h, 0.5, None, config, v, warm),
                           0.5 * h, config)


# ---------------------------------------------------------------------------
# General constrained partitioned Runge-Kutta step


def _vprk_core(system, tableau, x, h, config, nu, dW, v):
    """Shared implicit solve behind the deterministic and stochastic
    partitioned Runge-Kutta steps.

    Unknowns are the s stage velocities and the first s-1 multipliers.
    Because the tableau is stiffly accurate with an explicit first stage,
    the first internal position equals the current position (so its
    constraint is vacuous) and the last multiplier enters only the final
    momentum update, where it is determined by the end-of-step projection.
    When ``nu``/``dW`` are given, stage noise increments weighted by
    nu_j * (1 - a_ji / b_i) enter the internal momenta and nu-weighted
    increments enter the final momentum.  Newton starts every stage
    velocity at the Legendre velocity ``v`` of ``x`` and the multipliers at 0.

    The residual evaluates only the stage terms that vary and carry weight.
    a_sj = b_j makes the last column of both stage weight matrices exactly
    0, so the stage equations read the forces and noise of stages 1..s-1
    only.  With s = 2 that is stage 1 alone, which sits at q (a_1j = 0): its
    constraint gradients G(q)^T and the whole noise term are formed once per
    step, and a residual call evaluates no constraint or noise gradient.
    Only exact 0 * x products are dropped, so the Newton iterates are those
    of the full-stage residual, bit for bit up to the sign of zero.  The
    end-of-step update reads the forces and noise of every stage.
    """
    q, p = x.q, x.p
    n = system.dim_q
    k = system.dim_g
    s = tableau.s
    a, b = tableau.a, tableau.b
    # The weights of stages 1..s-1 in the stage equations.
    ahat = tableau.conjugate_weights()[:, :-1]
    with_noise = dW is not None and system.num_noise > 0
    if with_noise:
        dW = np.asarray(dW, dtype=float)
        noise_w = (tableau.noise_stage_weights() * np.asarray(nu)[None, :])[:, :-1]

    if v is None:
        v = legendre_velocity(system, q, p, config)

    def stage_sigma(Q):
        # dW gains a stage axis to align with Q's (..., stages, n).
        return noise_force(system, Q, dW[..., None, :])

    if s == 2:
        GT1 = _gt(system.dg_dq(q))[..., None, :, :]
        if with_noise:
            noise1 = _stage_sum(noise_w, stage_sigma(q[..., None, :]))

    # The batch shape comes from u, not from q: the finite-difference
    # Jacobian stacks its perturbed columns on an added leading axis.
    def unpack(u):
        lead = u.shape[:-1]
        V = u[..., : s * n].reshape(lead + (s, n))
        lam = u[..., s * n :].reshape(lead + (s - 1, k))
        return V, lam, q[..., None, :] + h * (a @ V)

    def residual(u):
        V, lam, Q = unpack(u)
        Qa = Q[..., :-1, :]
        GT = GT1 if s == 2 else _gt(system.dg_dq(Qa))
        forces = system.dL_dq(Qa, V[..., :-1, :]) + _apply(GT, lam)
        r1 = system.dL_dv(Q, V) - p[..., None, :] - h * _stage_sum(ahat, forces)
        if with_noise:
            r1 = r1 - (noise1 if s == 2 else _stage_sum(noise_w, stage_sigma(Qa)))
        r2 = system.constraint(Q[..., 1:, :])
        lead = u.shape[:-1]
        return np.concatenate(
            [r1.reshape(lead + (s * n,)), r2.reshape(lead + ((s - 1) * k,))],
            axis=-1,
        )

    start = np.concatenate([np.tile(v, s), np.zeros(q.shape[:-1] + ((s - 1) * k,))], axis=-1)
    sol = newton_solve(residual, start, config, stacked_fd=True)
    V, lam, Q = unpack(sol.x)
    lam_full = np.concatenate([lam, np.zeros(lam.shape[:-2] + (1, k))], axis=-2)
    forces = system.dL_dq(Q, V) + _apply(_gt(system.dg_dq(Q)), lam_full)
    q_next = q + h * np.einsum("j,...jn->...n", b, V)
    p_hat = p + h * np.einsum("j,...jn->...n", b, forces)
    if with_noise:
        sigma = stage_sigma(Q)
        p_hat = p_hat + np.einsum("j,...jn->...n", np.asarray(nu, dtype=float), sigma)
    p_next, v_next, mu, proj_iters = _project(system, q_next, p_hat, h, config, v0=V[..., -1, :])
    # The projection multiplier carries weight h; expressed as the last
    # internal multiplier (weight h * b_s) it must be rescaled by 1 / b_s.
    lam_last = mu / b[-1]
    stages = InternalStages(
        Q=Q,
        V=V,
        P=system.dL_dv(Q, V),
        Lambda=np.concatenate([lam, lam_last[..., None, :]], axis=-2),
    )
    return StepResult(
        state=State(q=q_next, p=p_next),
        stages=stages,
        multipliers=[lam, lam_last],
        newton_iters=sol.iterations + proj_iters,
        velocity=v_next,
    )


def vprk_step(
    system, tableau: ButcherTableau, x: State, h, config=None, v=None
) -> StepResult:
    """One step of the constrained variational partitioned Runge-Kutta scheme.

    Requires an admissible tableau (see ``check_admissibility``); raises
    ConditionViolated otherwise.  The returned state satisfies both the
    configuration constraint and the hidden velocity constraint to solver
    tolerance, and the internal stages satisfy the discrete stage equations.
    """
    tableau.admissibility.require()
    return _vprk_core(system, tableau, x, h, config, nu=None, dW=None, v=v)
