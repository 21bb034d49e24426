"""Stochastic constrained integrators, the method table and the integration loop.

The stochastic steps reuse the deterministic implicit cores: Brownian
increments enter the residuals as fixed per-step constants (no
approximation is involved, the increments are known once the step begins),
so setting all increments to zero reproduces the deterministic schemes
exactly, down to the bit pattern of the Newton iterates.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import noise
from .deterministic import (
    StepResult,
    _euler_b_core,
    _projected_step,
    _vprk_core,
    euler_a_with_projection,
    euler_b_with_projection,
    rattle_step,
)
from .exceptions import ConditionViolated, ConfigInvalid, NameNotFound
from .model import (
    State,
    constraint_residual,
    energy,
    hidden_residual,
    legendre_velocity,
    noise_force,
)
from .reduction import reduced_drift_diffusion
from .tableau import _array_key, tableau_from_config

__all__ = [
    "StochasticQuadrature",
    "stochastic_variational_euler_step",
    "stochastic_vprk_step",
    "euler_maruyama_reference_step",
    "Stepper",
    "make_stepper",
    "integrate",
    "simulate_path",
    "Trajectory",
]


@dataclass(frozen=True)
class StochasticQuadrature:
    """Stage weights ``nu`` for the noise quadrature of the stochastic RK step.

    The shipped realization draws the stage noise from the step's Brownian
    increment, which yields the first-order schemes; the higher-order
    realizations require auxiliary random variables that this package does
    not generate.  ``nu`` should sum to one for consistency.  Raises
    ConditionViolated unless ``nu`` is a non-empty 1-D array of finite
    numbers (and ValueError or TypeError when it does not convert to
    floats); that it has one weight per stage is checked against the
    tableau it is used with.  Quadratures compare and hash by the shape
    and bytes of ``nu``.
    """

    nu: np.ndarray

    def __post_init__(self):
        nu = np.array(self.nu, dtype=float)
        if nu.ndim != 1 or nu.size == 0 or not np.isfinite(nu).all():
            raise ConditionViolated([f"quadrature nu = {nu.tolist()} of shape {nu.shape} is not "
                                     "a non-empty 1-D array of finite numbers"])
        nu.setflags(write=False)
        object.__setattr__(self, "nu", nu)

    def __eq__(self, other):
        if not isinstance(other, StochasticQuadrature):
            return NotImplemented
        return _array_key(self.nu) == _array_key(other.nu)

    def __hash__(self):
        return hash(_array_key(self.nu))


def _stage_weights(tableau, quad):
    """Check the tableau's admissibility and that the quadrature's nu (finite
    numbers, as its constructor checks) has one weight per stage; returns
    nu, or b, which sums to one for a consistent tableau, without ``quad``."""
    tableau.admissibility.require()
    if quad is None:
        return tableau.b
    nu = quad.nu
    if nu.shape != (tableau.s,):
        raise ConditionViolated([f"quadrature nu = {nu.tolist()} of shape {nu.shape} is not "
                                 f"{tableau.s} finite numbers, one per stage"])
    return nu


def _require_increments(name, system, dW):
    """The noise rule: a step of a method that reads noise, on a system with
    m > 0 noise channels, raises ValueError unless ``dW`` has last axis m."""
    m = system.num_noise
    if m and np.shape(dW)[-1:] != (m,):
        got = "none" if dW is None else f"shape {np.shape(dW)}"
        raise ValueError(f"{name} needs increments dW with last axis {m}, got {got}")


def stochastic_variational_euler_step(
    system, x: State, dW, h, config=None, v=None, warm=None
) -> StepResult:
    """One step of the constrained stochastic variational Euler scheme.

    The momentum drift uses the current velocity, the Brownian increments
    kick the momentum through the stochastic potential gradients at the
    current position, the configuration constraint is enforced at the new
    position, and the end-of-step projection restores the hidden velocity
    constraint.  With zero increments this is exactly the deterministic
    implicit-Euler variational step composed with the projection.  Raises
    ValueError unless ``dW`` has last axis m on a system with m > 0 channels.
    """
    _require_increments("stochastic_variational_euler", system, dW)
    kick = noise_force(system, x.q, dW) if system.num_noise else None
    return _projected_step(system, _euler_b_core(system, x, h, kick, config, v, warm), h, config)


def stochastic_vprk_step(
    system, tableau, quad: StochasticQuadrature | None, x: State, dW, h, config=None, v=None
) -> StepResult:
    """One step of the stochastic constrained partitioned Runge-Kutta scheme.

    Requires an admissible tableau and one finite weight per stage; ``quad``
    defaults to nu = b.  The increments ``dW`` (shape (..., m), required
    when m > 0) are treated as known constants inside the implicit stage
    equations.
    """
    _require_increments("stochastic_vprk", system, dW)
    nu = _stage_weights(tableau, quad)
    return _vprk_core(system, tableau, x, h, config, nu=nu, dW=dW, v=v)


def euler_maruyama_reference_step(system, x: State, dW, h, config=None, v=None) -> StepResult:
    """Explicit Euler-Maruyama step of the multiplier-eliminated dynamics.

    Integrates the reduced momentum equation without re-enforcing the
    constraint, so trajectories drift off the constraint set at O(h); the
    scheme exists as an error oracle and negative control, not as a
    production integrator.  The step reads the Legendre velocity ``v`` of
    ``x`` (solved for when omitted) and re-derives p = dL_dv(q, v) from it.
    Returns a StepResult without stages or multipliers.  Raises ValueError
    unless ``dW`` has last axis m on a system with m > 0 channels.
    """
    _require_increments("euler_maruyama_ref", system, dW)
    q = x.q
    v = legendre_velocity(system, q, x.p, config) if v is None else np.asarray(v, dtype=float)
    p = system.dL_dv(q, v)
    dyn = reduced_drift_diffusion(system, q, v)
    p_next = p + h * dyn.drift_p
    if system.num_noise > 0:
        dW = np.asarray(dW, dtype=float)
        p_next = p_next + np.einsum("...nm,...m->...n", dyn.diffusion_p, dW)
    q_next = q + h * v
    v_next = legendre_velocity(system, q_next, p_next, config, v0=v)
    return StepResult(State(q=q_next, p=p_next), stages=None, multipliers=[], newton_iters=0,
                      velocity=v_next)


# ---------------------------------------------------------------------------
# Method table, the integration loop and the trajectory recorder


# step(state, v, dW, h, warm) -> StepResult; uses_noise: reads dW.
Stepper = namedtuple("Stepper", "step uses_noise")


def _stochastic_vprk_step(system, cfg, rk, x, v, dW, h, warm):
    # stochastic_vprk_step with the tableau and nu checked once, at build.
    _require_increments("stochastic_vprk", system, dW)
    return _vprk_core(system, rk[0], x, h, cfg, nu=rk[1], dW=dW, v=v)


# name -> (uses_noise, the keys of a dict spec besides "method" that the
# method reads, step(system, config, (tableau, nu), x, v, dW, h, warm)).
# The step functions are looked up in this module each time a step runs, so
# replacing a module attribute (as a profiler does) reaches every stepper.
_METHODS = {
    "rattle": (False, (), lambda system, cfg, rk, x, v, dW, h, warm:
        rattle_step(system, x, h, cfg, v=v, warm=warm)),
    "vprk": (False, ("tableau",), lambda system, cfg, rk, x, v, dW, h, warm:
        _vprk_core(system, rk[0], x, h, cfg, nu=None, dW=None, v=v)),
    "stochastic_vprk": (True, ("tableau", "quad"), _stochastic_vprk_step),
    "euler_a": (False, (), lambda system, cfg, rk, x, v, dW, h, warm:
        euler_a_with_projection(system, x, h, cfg, v=v, warm=warm)),
    "euler_b": (False, (), lambda system, cfg, rk, x, v, dW, h, warm:
        euler_b_with_projection(system, x, h, cfg, v=v, warm=warm)),
    "stochastic_variational_euler": (True, (), lambda system, cfg, rk, x, v, dW, h, warm:
        stochastic_variational_euler_step(system, x, dW, h, cfg, v=v, warm=warm)),
    "euler_maruyama_ref": (True, (), lambda system, cfg, rk, x, v, dW, h, warm:
        euler_maruyama_reference_step(system, x, dW, h, cfg, v=v)),
}


def _are_zeros(value, count):
    """Whether ``value`` is ``count`` zeros; a ragged or non-numeric value is not."""
    try:
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    return value.shape == (count,) and not np.any(value)


def make_stepper(system, method, config=None) -> Stepper:
    """Build a stepper from a method spec, validating the spec once.

    ``method`` is either a name or a dict {"method": name, "tableau": ...,
    "quad": {"nu": [...]}}.  Known names: rattle, vprk, euler_a, euler_b,
    stochastic_variational_euler, stochastic_vprk, euler_maruyama_ref.
    ``tableau`` is read by the two vprk methods and ``quad`` by
    stochastic_vprk only.  Raises NameNotFound for an unknown name,
    ConfigInvalid for a spec without a method name or with a key the method
    does not read, and ConditionViolated for an inadmissible tableau, a
    ``nu`` other than s finite numbers, or a ``quad.kappa`` other than s
    zeros, one per stage (zeros are accepted so that old manifests replay).
    A step of a method that reads noise, on a system with m > 0 noise
    channels, raises ValueError unless ``dW`` has last axis m.
    """
    spec = {"method": method} if isinstance(method, str) else method
    if not isinstance(spec, dict) or not isinstance(spec.get("method"), str):
        raise ConfigInvalid("integrator must be a method name or an object with one")
    name = spec["method"]
    if name not in _METHODS:
        raise NameNotFound(f"unknown integrator {name!r}")
    uses_noise, keys, step_fn = _METHODS[name]
    quad = spec.get("quad")
    unread = set(spec) - {"method", *keys}
    if quad is not None and "quad" not in unread:
        if not isinstance(quad, dict) or "nu" not in quad:
            raise ConfigInvalid("integrator.quad must be an object with 'nu'")
        unread |= {f"quad.{key}" for key in set(quad) - {"nu", "kappa"}}
    if unread:
        raise ConfigInvalid(f"integrator keys not read by {name}: {sorted(unread)}")
    rk = None
    if "tableau" in keys:
        tableau = tableau_from_config(spec.get("tableau", "rattle_trapezoidal"))
        if quad is not None:
            if "kappa" in quad and not _are_zeros(quad["kappa"], tableau.s):
                raise ConditionViolated(
                    [f"quadrature kappa = {quad['kappa']!r} is not realized "
                     f"(only {tableau.s} zeros, one per stage, are)"]
                )
            try:
                quad = StochasticQuadrature(nu=quad["nu"])
            except (TypeError, ValueError):  # ragged or not numbers
                raise ConditionViolated(
                    [f"quadrature nu = {quad['nu']!r} is not {tableau.s} numbers"]) from None
        rk = (tableau, _stage_weights(tableau, quad))

    def step(state, v, dW, h, warm):
        return step_fn(system, config, rk, state, v, dW, h, warm)

    return Stepper(step, uses_noise)


def _check_steps(h, num_steps=0):
    """The run rule: ValueError unless ``h`` is a finite number > 0 and
    ``num_steps`` an integer >= 0."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be a finite number > 0, got {h!r}")
    if not noise._is_count(num_steps, 0):
        raise ValueError(f"num_steps must be an integer >= 0, got {num_steps!r}")


def integrate(system, method, x0: State, increments, h, num_steps, config=None):
    """Advance ``x0`` by ``num_steps`` steps of size ``h``; returns a generator.

    ``increments`` has shape (..., m, steps), or is None for a method that
    reads no noise; ``x0`` is broadcast to its batch shape (...).  The
    arguments are checked, and the initial Legendre velocity formed, at the
    call, before any step: ValueError unless ``h`` is a finite number > 0
    and ``num_steps`` an integer >= 0, ``make_stepper``'s errors for the
    method, and ValueError when ``num_steps`` exceeds the increments'
    steps.  The generator yields each step's StepResult, whose ``velocity``
    is the Legendre velocity of its state.  Errors raised by a step are
    re-raised with the step index, step count and step size prepended.
    """
    stepper, state, v = _start(system, method, x0, increments, h, num_steps, config)
    return _steps(stepper, state, v, increments, h, num_steps)


def _start(system, method, x0, increments, h, num_steps, config):
    """The call-time part of ``integrate``: its checks, the stepper, the
    initial state broadcast to the batch shape and its Legendre velocity."""
    _check_steps(h, num_steps)
    stepper = make_stepper(system, method, config)
    if increments is None:
        batch = np.shape(x0.q)[:-1]
    else:
        batch = increments.shape[:-2]
        available = increments.shape[-1]
        if num_steps > available:
            raise ValueError(f"num_steps = {num_steps} exceeds the {available} increment steps")
    shape = batch + (system.dim_q,)
    state = State(
        q=np.array(np.broadcast_to(x0.q, shape), dtype=float),
        p=np.array(np.broadcast_to(x0.p, shape), dtype=float),
    )
    v = legendre_velocity(system, state.q, state.p, config)
    return stepper, state, v


def _steps(stepper, state, v, increments, h, num_steps):
    """The integration loop behind ``integrate``."""
    warm = None
    for step_index in range(num_steps):
        dW = increments[..., step_index] if increments is not None else None
        try:
            result = stepper.step(state, v, dW, h, warm)
        except Exception as err:
            detail = err.args[0] if err.args else err
            err.args = (f"step {step_index} of {num_steps} at h = {h}: {detail}",)
            raise
        state, v, warm = result.state, result.velocity, result.warm
        yield result


@dataclass
class Trajectory:
    """Recorded output of ``simulate_path``.

    Arrays are indexed by step: ``q``/``p``/``v`` have N + 1 rows (initial
    state included), the residual and energy series likewise; multipliers
    and Newton iteration counts have one entry per executed step.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    v: np.ndarray
    constraint: np.ndarray
    hidden: np.ndarray
    energy: np.ndarray
    multipliers: list
    newton_iters: np.ndarray


def simulate_path(
    system,
    method,
    x0: State,
    paths=None,
    path_index=0,
    h=None,
    num_steps=None,
    config=None,
) -> Trajectory:
    """Integrate one sample path and record its invariants.

    ``paths`` is a BrownianPaths ensemble; only path ``path_index`` is
    drawn, and it is coarsened to the step ``h`` (default ``paths.h_base``),
    which must be a power-of-two multiple of ``paths.h_base``.
    ``num_steps`` defaults to the steps of the coarsened path and may not
    exceed them.  Deterministic methods may omit ``paths`` and then need
    ``h`` and ``num_steps``.  ``h`` and ``num_steps`` are checked as
    ``integrate`` checks them, before any step.  The residual and energy
    series are evaluated once, on the stacked states.  Errors raised by a
    step are re-raised as ``integrate`` re-raises them.
    """
    increments = None
    if paths is not None:
        if h is None:
            h = paths.h_base
        _check_steps(h)  # before h sets the coarsening factor
        factor = round(h / paths.h_base)
        if abs(h / paths.h_base - factor) > 1e-9:
            raise ValueError(f"step size {h} is not a multiple of the base step {paths.h_base}")
        # coarsen_array and the increment_block behind block() are looked up in
        # svpark.noise at call time, so replacing them there (as a profiler
        # does) reaches this path too.
        increments = noise.coarsen_array(paths.block(path_index, path_index + 1), factor)[0]
        if num_steps is None:
            num_steps = increments.shape[-1]
    elif num_steps is None or h is None:
        raise ValueError("h and num_steps are required without paths")

    stepper, state, v0 = _start(system, method, x0, increments, h, num_steps, config)
    q = np.empty((num_steps + 1,) + state.q.shape)
    p = np.empty_like(q)
    v = np.empty_like(q)
    q[0], p[0], v[0] = state.q, state.p, v0
    iters, multipliers = [], []
    steps = _steps(stepper, state, v0, increments, h, num_steps)
    for i, result in enumerate(steps, 1):
        q[i], p[i], v[i] = result.state.q, result.state.p, result.velocity
        iters.append(result.newton_iters)
        if result.multipliers:
            multipliers.append(np.concatenate([np.ravel(m) for m in result.multipliers]))
    return Trajectory(
        times=np.arange(num_steps + 1) * h,
        q=q,
        p=p,
        v=v,
        constraint=constraint_residual(system, q),
        hidden=hidden_residual(system, q, v=v),
        energy=energy(system, q, p=p, v=v),
        multipliers=multipliers,
        newton_iters=np.array(iters, dtype=int),
    )
