"""Mechanical systems with holonomic constraints and their builtin examples.

A system is described by closed-form callbacks for the Lagrangian L(q, v),
the constraint g(q), the stochastic potentials gamma_r(q) and every
derivative the integrators need.  All callbacks must broadcast over leading
batch dimensions (positions of shape (..., n) and so on) and must be pure,
so one system value can be shared across concurrent simulations.

Derivative conventions:

- ``dg_dq(q)`` has shape (..., k, n), row r is the gradient of g_r.
- ``d2L_dv2(q, v)`` is the (..., n, n) Jacobian of ``dL_dv`` in v.
- ``d2L_dqdv(q, v)`` is the (..., n, n) Jacobian of ``dL_dv`` in q
  (entry (a, b) is the derivative of dL/dv_a with respect to q_b); the
  reduced dynamics contract it with v on the right.
- ``d2g_dq2_vv(q, v)`` is the constraint Hessian contracted twice with v,
  shape (..., k); the full third-order tensor is never needed.

A system may declare a constant mass matrix M (``mass``): the Lagrangian is
then separable, L(q, v) = v^T M v / 2 + (a function of q alone), and the
integrators solve for the Lagrange multipliers only.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DerivativeMismatch
from .solver import _COND_LIMIT, newton_solve

__all__ = [
    "MechanicalSystem",
    "State",
    "spherical_pendulum",
    "builtin_models",
    "without_noise",
    "validate_system",
    "ValidationReport",
    "legendre_velocity",
    "energy",
    "constraint_residual",
    "hidden_residual",
    "noise_gradients",
    "noise_force",
]


@dataclass(frozen=True)
class MechanicalSystem:
    """Callbacks defining a constrained mechanical system on R^n.

    ``mass`` is optional: a constant, symmetric, invertible (n, n) matrix M
    declares the Lagrangian separable, L(q, v) = v^T M v / 2 - V(q), so that
    dL_dv = M v, d2L_dv2 = M and d2L_dqdv = 0 (``validate_system`` checks
    all three).  The Euler, SVE and RATTLE steps then solve for the k
    multipliers alone and the hidden-constraint projection is one
    closed-form saddle solve; without it (the default) every step solves
    for velocities and multipliers together.  M^{-1} is formed once, here,
    as the read-only ``mass_inverse`` (None without a declaration); the
    multiplier Newton, the Legendre inverse and the reduction apply it
    instead of solving with M.  A copy made with
    ``dataclasses.replace`` keeps the declaration, so a copy with other
    kinetic callbacks must restate or drop it (``mass=None``).
    """

    dim_q: int
    dim_g: int
    num_noise: int
    lagrangian: callable
    dL_dq: callable
    dL_dv: callable
    d2L_dv2: callable
    d2L_dqdv: callable
    constraint: callable
    dg_dq: callable
    d2g_dq2_vv: callable
    gamma: tuple = field(default=())
    dgamma_dq: tuple = field(default=())
    # Left out of == and hash(): an array has neither a truth value nor a hash.
    mass: np.ndarray = field(default=None, compare=False)
    # M^{-1}, formed once from ``mass`` (None without it); derived, not an argument.
    mass_inverse: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.dim_g < self.dim_q:
            raise ValueError("need 0 < dim_g < dim_q")
        if len(self.gamma) != self.num_noise or len(self.dgamma_dq) != self.num_noise:
            raise ValueError("gamma and dgamma_dq must each have num_noise entries")
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "dgamma_dq", tuple(self.dgamma_dq))
        if self.mass is not None:
            mass = np.array(self.mass, dtype=float)
            n = self.dim_q
            if (
                mass.shape != (n, n)
                or not np.all(np.isfinite(mass))
                or not np.allclose(mass, mass.T, rtol=1e-12, atol=0.0)
                or not np.linalg.cond(mass) < _COND_LIMIT
            ):
                raise ValueError(
                    f"mass must be a finite, symmetric, invertible ({n}, {n}) array"
                )
            mass.setflags(write=False)
            inverse = np.linalg.inv(mass)
            inverse.setflags(write=False)
            object.__setattr__(self, "mass", mass)
            object.__setattr__(self, "mass_inverse", inverse)


@dataclass
class State:
    """A phase-space point (q, p); arrays may carry leading batch dimensions."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching shapes")


def spherical_pendulum() -> MechanicalSystem:
    """Unit-mass pendulum on the unit sphere with gravity along e3.

    L(q, v) = ||v||^2 / 2 - q . e3, constraint g(q) = ||q||^2 - 1, and three
    stochastic potentials gamma_i(q) = sin(q_i), one per coordinate axis.
    Declares the constant mass matrix I.
    """
    e3 = np.array([0.0, 0.0, 1.0])

    def lagrangian(q, v):
        return 0.5 * np.sum(v * v, axis=-1) - q @ e3

    def dL_dq(q, v):
        # -e3 in every row, its zeros -0.0 as in -e3, in a fresh array.
        out = np.full(q.shape, -0.0)
        out[..., 2] = -1.0
        return out

    def dL_dv(q, v):
        return np.array(v, dtype=float, copy=True)

    def d2L_dv2(q, v):
        return np.broadcast_to(np.eye(3), q.shape + (3,)).copy()

    def d2L_dqdv(q, v):
        return np.zeros(q.shape + (3,))

    def constraint(q):
        return (np.sum(q * q, axis=-1) - 1.0)[..., None]

    def dg_dq(q):
        return 2.0 * q[..., None, :]

    def d2g_dq2_vv(q, v):
        return 2.0 * np.sum(v * v, axis=-1)[..., None]

    def make_gamma(i):
        def gamma_i(q):
            return np.sin(q[..., i])

        def dgamma_i(q):
            out = np.zeros_like(q)
            out[..., i] = np.cos(q[..., i])
            return out

        return gamma_i, dgamma_i

    gammas, dgammas = zip(*(make_gamma(i) for i in range(3)))
    return MechanicalSystem(
        dim_q=3,
        dim_g=1,
        num_noise=3,
        lagrangian=lagrangian,
        dL_dq=dL_dq,
        dL_dv=dL_dv,
        d2L_dv2=d2L_dv2,
        d2L_dqdv=d2L_dqdv,
        constraint=constraint,
        dg_dq=dg_dq,
        d2g_dq2_vv=d2g_dq2_vv,
        gamma=gammas,
        dgamma_dq=dgammas,
        mass=np.eye(3),
    )


def builtin_models() -> dict:
    return {"spherical_pendulum": spherical_pendulum}


def without_noise(system: MechanicalSystem) -> MechanicalSystem:
    """Copy of a system with all noise channels removed."""
    return replace(system, num_noise=0, gamma=(), dgamma_dq=())


def noise_gradients(system, q):
    """Stack the stochastic potential gradients into shape (..., m, n)."""
    if system.num_noise == 0:
        return np.zeros(q.shape[:-1] + (0, q.shape[-1]))
    return np.stack([dg(q) for dg in system.dgamma_dq], axis=-2)


def noise_force(system, q, dW):
    """The noise force sum_r dW_r dgamma_r(q), shape (..., n), for
    increments dW of shape (..., m) at positions q of shape (..., n).

    Folded channel by channel, in channel order, from +0.0: the bits of
    np.einsum("...m,...mn->...n", dW, noise_gradients(system, q)), without
    stacking the m gradients.
    """
    if system.num_noise == 0:
        return np.zeros(q.shape)
    dW = np.asarray(dW, dtype=float)
    force = 0.0
    for r, dgamma in enumerate(system.dgamma_dq):
        force = force + dW[..., r, None] * dgamma(q)
    return force


# ---------------------------------------------------------------------------
# Legendre transform, energy and constraint residuals


def legendre_velocity(system, q, p, config=None, v0=None):
    """Invert the Legendre transform: the v with dL_dv(q, v) = p.

    Newton iteration with the exact Jacobian d2L_dv2, started at ``v0``
    (default 0); a single iteration suffices when L is quadratic in v.  A
    separable system starts at the root M^{-1} p instead, so Newton only
    checks its residual and returns after 0 iterations.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if system.mass is not None:
        v0 = p @ system.mass_inverse.T

    def residual(v):
        return system.dL_dv(q, v) - p

    def jac(v):
        return system.d2L_dv2(q, v)

    start = np.zeros_like(p) if v0 is None else np.asarray(v0, dtype=float)
    return newton_solve(residual, start, config, jacobian=jac).x


def _given_velocity(name, system, q, p, v, config):
    """``v``, or the Legendre velocity of ``p``; ValueError without either."""
    if v is not None:
        return v
    if p is None:
        raise ValueError(f"{name} needs the momentum p or the velocity v, got neither")
    return legendre_velocity(system, q, p, config)


def energy(system, q, p=None, v=None, config=None):
    """Legendre-consistent energy <p, v> - L(q, v); needs ``p`` or ``v``."""
    v = _given_velocity("energy", system, q, p, v, config)
    if p is None:
        p = system.dL_dv(q, v)
    return np.sum(p * v, axis=-1) - system.lagrangian(q, v)


def constraint_residual(system, q):
    """Max-norm of g(q) over constraint components."""
    return np.max(np.abs(system.constraint(q)), axis=-1)


def hidden_residual(system, q, p=None, v=None, config=None):
    """Max-norm of dg_dq(q) . v with v Legendre-consistent when p is given;
    needs ``p`` or ``v``."""
    v = _given_velocity("hidden_residual", system, q, p, v, config)
    Gv = (system.dg_dq(q) @ v[..., None])[..., 0]
    return np.max(np.abs(Gv), axis=-1)


# ---------------------------------------------------------------------------
# Finite-difference validation of the derivative callbacks


@dataclass
class ValidationReport:
    """Per-callback outcome of the finite-difference consistency sweep."""

    max_errors: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e <= self.tolerance for e in self.max_errors.values())

    def failures(self):
        return {k: v for k, v in self.max_errors.items() if v > self.tolerance}


def _central(f, x, eps):
    """Central-difference Jacobian of f at x; f maps (..., n) to (...,) or (..., r)."""
    cols = []
    for j in range(x.shape[-1]):
        dx = np.zeros_like(x)
        dx[..., j] = eps
        cols.append((np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2 * eps))
    return np.stack(cols, axis=-1)


def _rel_err(approx, exact):
    scale = 1.0 + np.max(np.abs(exact))
    return float(np.max(np.abs(approx - exact)) / scale)


def validate_system(system, samples, tol=1e-5, eps=1e-6) -> ValidationReport:
    """Check every derivative callback against finite differences.

    ``samples`` is a list of (q, v) pairs; each q must satisfy
    |g(q)| <= 1e-8.  A declared ``mass`` M is checked too, under that name:
    dL_dv = M v, d2L_dv2 = M and d2L_dqdv = 0 at every sample.  Raises
    DerivativeMismatch naming the worst callback when any check exceeds
    ``tol``; otherwise returns the all-pass report.
    """
    errors = {
        "dL_dq": 0.0,
        "dL_dv": 0.0,
        "d2L_dv2": 0.0,
        "d2L_dqdv": 0.0,
        "dg_dq": 0.0,
        "d2g_dq2_vv": 0.0,
    }
    if system.num_noise:
        errors["dgamma_dq"] = 0.0
    if system.mass is not None:
        errors["mass"] = 0.0
    for q, v in samples:
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.max(np.abs(system.constraint(q))) > 1e-8:
            raise ValueError("validation samples must lie on the constraint set")
        checks = {
            "dL_dq": (_central(lambda x: system.lagrangian(x, v), q, eps), system.dL_dq(q, v)),
            "dL_dv": (_central(lambda x: system.lagrangian(q, x), v, eps), system.dL_dv(q, v)),
            "d2L_dv2": (_central(lambda x: system.dL_dv(q, x), v, eps), system.d2L_dv2(q, v)),
            "d2L_dqdv": (_central(lambda x: system.dL_dv(x, v), q, eps), system.d2L_dqdv(q, v)),
            "dg_dq": (_central(system.constraint, q, eps), system.dg_dq(q)),
        }
        # Second difference of g along v approximates the (v, v)-contracted Hessian.
        e2 = np.sqrt(eps)
        second = (
            system.constraint(q + e2 * v)
            - 2.0 * system.constraint(q)
            + system.constraint(q - e2 * v)
        ) / e2**2
        checks["d2g_dq2_vv"] = (second, system.d2g_dq2_vv(q, v))
        for r in range(system.num_noise):
            fd = _central(system.gamma[r], q, eps)
            errors["dgamma_dq"] = max(
                errors["dgamma_dq"], _rel_err(fd, system.dgamma_dq[r](q))
            )
        if system.mass is not None:
            M = system.mass
            errors["mass"] = max(
                errors["mass"],
                _rel_err(system.dL_dv(q, v), M @ v),
                _rel_err(system.d2L_dv2(q, v), M),
                _rel_err(system.d2L_dqdv(q, v), np.zeros_like(M)),
            )
        for name, (fd, exact) in checks.items():
            errors[name] = max(errors[name], _rel_err(fd, exact))
    report = ValidationReport(max_errors=errors, tolerance=tol)
    if not report.passed:
        worst = max(report.failures().items(), key=lambda kv: kv[1])
        raise DerivativeMismatch(worst[0], worst[1], report)
    return report
