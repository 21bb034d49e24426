"""Convergence-order estimation, symplecticity checking and drift metrics.

Strong and weak orders are measured on shared Brownian paths: every step
size in the ladder consumes dyadic coarsenings of one fine increment
ensemble, and the reference solution integrates the same ensemble at the
finest resolution.  Sharing the paths couples the estimators, which is what
makes the pathwise (strong) errors meaningful and shrinks the Monte Carlo
variance of the weak-error estimates by orders of magnitude.

Path ensembles are processed in fixed-size blocks so memory stays bounded;
because each path owns an independent random stream and the accumulation
order is fixed, the results do not depend on the blocking.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.stats import linregress

from .exceptions import (
    LadderTooShort,
    RankDeficient,
    StatisticallyInconclusive,
)
from .model import State, legendre_velocity, project_state
from .noise import coarsen_array
from .solver import DEFAULT_NEWTON
from .stochastic import integrate, make_stepper

__all__ = [
    "ConvergenceReport",
    "StrongErrorResult",
    "WeakErrorResult",
    "DriftMetrics",
    "fit_loglog_slope",
    "strong_error_study",
    "weak_error_study",
    "symplecticity_check",
    "drift_metrics",
    "write_strong_csv",
    "write_weak_csv",
]

DEFAULT_BLOCK_SIZE = 512


def fit_loglog_slope(step_sizes, errors, point_stderr=None):
    """Least-squares slope of log2(error) against log2(h), with its stderr.

    When per-point measurement errors are supplied, the slope uncertainty
    also propagates them through the least-squares weights and the larger
    of the two estimates is reported.  With shared-path Monte Carlo
    estimates the ladder points co-move, so the residual-based standard
    error alone badly understates how much the slope varies between
    replicates.
    """
    x = np.log2(step_sizes)
    fit = linregress(x, np.log2(np.asarray(errors, dtype=float)))
    stderr = float(fit.stderr)
    if point_stderr is not None:
        rel = np.asarray(point_stderr, dtype=float) / np.asarray(errors, dtype=float)
        sigma_log = rel / np.log(2.0)
        weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
        propagated = float(np.sqrt(np.sum(weights**2 * sigma_log**2)))
        stderr = max(stderr, propagated)
    return float(fit.slope), stderr


@dataclass
class ConvergenceReport:
    """One error curve with its fitted order.

    ``slope`` is NaN when any error vanishes (the log-log fit is undefined
    there); at least three ladder points are required.
    """

    step_sizes: np.ndarray
    errors: np.ndarray
    slope: float
    slope_stderr: float
    num_paths: int

    @classmethod
    def from_errors(cls, step_sizes, errors, num_paths, point_stderr=None):
        step_sizes = np.asarray(step_sizes, dtype=float)
        errors = np.asarray(errors, dtype=float)
        if len(step_sizes) != len(errors):
            raise ValueError("step_sizes and errors must have equal length")
        if len(step_sizes) < 3:
            raise LadderTooShort(f"need at least 3 step sizes, got {len(step_sizes)}")
        if np.all(errors > 0):
            slope, stderr = fit_loglog_slope(step_sizes, errors, point_stderr)
        else:
            slope, stderr = float("nan"), float("nan")
        return cls(
            step_sizes=step_sizes,
            errors=errors,
            slope=slope,
            slope_stderr=stderr,
            num_paths=num_paths,
        )


@dataclass
class StrongErrorResult:
    """Position and momentum error curves of one strong-order study."""

    position: ConvergenceReport
    momentum: ConvergenceReport
    pooled_stderr: np.ndarray


@dataclass
class WeakErrorResult:
    report: ConvergenceReport
    mc_stderr: np.ndarray


@dataclass
class DriftMetrics:
    max_constraint: float
    max_hidden: float
    energy_series: np.ndarray


# ---------------------------------------------------------------------------
# Shared-path sweep


def _validate_ladder(paths, h_ladder, T, ref_refine):
    if T is not None and abs(T - (paths.t1 - paths.t0)) > 1e-12 * max(1.0, abs(T)):
        raise ValueError("horizon does not match the path ensemble")
    h_ladder = sorted(set(float(h) for h in h_ladder), reverse=True)
    if len(h_ladder) < 3:
        raise LadderTooShort(f"need at least 3 distinct step sizes, got {len(h_ladder)}")
    if ref_refine < 2:
        raise LadderTooShort(
            "reference resolution coincides with the finest ladder rung; "
            "errors there would be identically zero"
        )
    h_base = paths.h_base
    factors = []
    for h in h_ladder:
        factor = h / h_base
        rounded = int(round(factor))
        if abs(factor - rounded) > 1e-9 or rounded & (rounded - 1) or rounded < 2:
            raise ValueError(
                f"step size {h} is not a dyadic coarsening of the base resolution"
            )
        factors.append(rounded)
    h_ref = min(h_ladder) / ref_refine
    if abs(h_ref - h_base) > 1e-12 * max(1.0, h_base):
        raise ValueError(
            f"path base resolution {h_base} must equal min(h)/ref_refine = {h_ref}"
        )
    return h_ladder, factors


def _sweep(system, method, x0, paths, h_ladder, T, ref_refine, config, block_size):
    """Validate the ladder, then integrate the paths block by block.

    For each block yields (None, q, p) with the reference endpoints at the
    paths' base resolution, then (h, q, p) for every ladder rung, coarsest
    first; the rungs consume dyadic coarsenings of the block's increments.
    """
    h_ladder, factors = _validate_ladder(paths, h_ladder, T, ref_refine)

    def endpoints(increments, h):
        for result, _ in integrate(
            system, method, x0, increments, h, increments.shape[-1], config
        ):
            pass
        return result.state.q, result.state.p

    for start in range(0, paths.num_paths, block_size):
        block = paths.block(start, min(start + block_size, paths.num_paths))
        yield (None, *endpoints(block, paths.h_base))
        for h, factor in zip(h_ladder, factors):
            yield (h, *endpoints(coarsen_array(block, factor), h))


def strong_error_study(
    system,
    method,
    x0: State,
    paths,
    h_ladder,
    T=None,
    ref_refine=64,
    config=None,
    block_size=DEFAULT_BLOCK_SIZE,
) -> StrongErrorResult:
    """Root-mean-square endpoint error against a fine-step reference.

    For each ladder step size h the method integrates to the horizon on
    every path; the reference is the same method at the paths' base
    resolution (min(h_ladder) / ref_refine).  Errors are reported
    separately for position and momentum in the ambient Euclidean norm,
    together with the fitted log-log slopes.
    """
    cfg = config or DEFAULT_NEWTON
    sums = defaultdict(lambda: np.zeros(3))         # sum ||dq||^2, ||dp||^2, pooled
    sumsq_pooled = defaultdict(float)
    for h, q, p in _sweep(
        system, method, x0, paths, h_ladder, T, ref_refine, cfg, block_size
    ):
        if h is None:
            q_ref, p_ref = q, p
            continue
        eq = np.sum((q - q_ref) ** 2, axis=-1)
        ep = np.sum((p - p_ref) ** 2, axis=-1)
        pooled = eq + ep
        sums[h] += [eq.sum(), ep.sum(), pooled.sum()]
        sumsq_pooled[h] += float(np.sum(pooled**2))
    h_ladder = list(sums)
    M = paths.num_paths
    err_q = np.sqrt([sums[h][0] / M for h in h_ladder])
    err_p = np.sqrt([sums[h][1] / M for h in h_ladder])
    pooled_stderr = []
    for h in h_ladder:
        mean = sums[h][2] / M
        var = max(sumsq_pooled[h] / M - mean**2, 0.0) / max(M - 1, 1)
        rms = np.sqrt(mean)
        pooled_stderr.append(np.sqrt(var) / (2 * rms) if rms > 0 else 0.0)
    return StrongErrorResult(
        position=ConvergenceReport.from_errors(h_ladder, err_q, M),
        momentum=ConvergenceReport.from_errors(h_ladder, err_p, M),
        pooled_stderr=np.asarray(pooled_stderr),
    )


def weak_error_study(
    system,
    method,
    x0: State,
    paths,
    h_ladder,
    observable,
    T=None,
    ref_refine=64,
    config=None,
    block_size=DEFAULT_BLOCK_SIZE,
) -> WeakErrorResult:
    """Error of the observable's ensemble mean against the fine reference.

    ``observable`` maps endpoint arrays (q, p) to scalars and must
    broadcast over the path batch.  Because the reference shares the
    Brownian paths, the Monte Carlo standard error reported per ladder
    point is that of the paired difference, not of two independent means.
    Raises StatisticallyInconclusive when the largest standard error
    reaches half the largest weak error.
    """
    cfg = config or DEFAULT_NEWTON
    sum_d = defaultdict(float)
    sum_d2 = defaultdict(float)
    for h, q, p in _sweep(
        system, method, x0, paths, h_ladder, T, ref_refine, cfg, block_size
    ):
        phi = np.asarray(observable(q, p), dtype=float)
        if h is None:
            phi_ref = phi
            continue
        d = phi - phi_ref
        sum_d[h] += float(d.sum())
        sum_d2[h] += float(np.sum(d * d))
    h_ladder = list(sum_d)
    M = paths.num_paths
    errors = np.array([abs(sum_d[h] / M) for h in h_ladder])
    stderr = []
    for h in h_ladder:
        mean = sum_d[h] / M
        # standard error of the paired-difference mean: s / sqrt(M)
        stderr.append(np.sqrt(max(sum_d2[h] / M - mean**2, 0.0) / max(M - 1, 1)))
    stderr = np.asarray(stderr)
    if errors.max() > 0 and stderr.max() >= 0.5 * errors.max():
        raise StatisticallyInconclusive(
            f"Monte Carlo noise (max stderr {stderr.max():.3e}) dominates the "
            f"weak errors (max {errors.max():.3e}); increase the path count",
            step_sizes=np.asarray(h_ladder),
            errors=errors,
            mc_stderrs=stderr,
        )
    point_stderr = stderr if np.all(errors > 0) else None
    return WeakErrorResult(
        report=ConvergenceReport.from_errors(h_ladder, errors, M, point_stderr),
        mc_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Symplecticity check


def _canonical_J(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _tangent_darboux_basis(system, x0: State, config):
    """Orthonormal-then-symplectic basis of the phase-manifold tangent space.

    The tangent space at (q, p) is the kernel of the linearization of the
    configuration constraint and the hidden velocity constraint.  A plain
    orthonormal kernel basis is rotated and scaled (via the real Schur form
    of the restricted symplectic form) into a Darboux basis E with
    E^T J E equal to the canonical block matrix, so a symplectic step map
    must satisfy D^T J D = Omega exactly in these coordinates.
    """
    q, p = x0.q, x0.p
    n = system.dim_q
    k = system.dim_g
    cfg = config or DEFAULT_NEWTON
    v = legendre_velocity(system, q, p, cfg)
    G = system.dg_dq(q)
    M = system.d2L_dv2(q, v)
    Minv = np.linalg.inv(M)
    dv_dq = -Minv @ system.d2L_dqdv(q, v)
    eps = 1e-6 * (1.0 + float(np.max(np.abs(v))))
    H = (system.dg_dq(q + eps * v) - system.dg_dq(q - eps * v)) / (2 * eps)
    C = np.zeros((2 * k, 2 * n))
    C[:k, :n] = G
    C[k:, :n] = H + G @ dv_dq
    C[k:, n:] = G @ Minv
    _, svals, Vt = np.linalg.svd(C)
    if svals[2 * k - 1] <= 1e-10 * svals[0]:
        raise RankDeficient("constraint linearization is rank deficient")
    K = Vt[2 * k :].T
    d = n - k
    J = _canonical_J(n)
    S = K.T @ J @ K
    T, Z = schur(S, output="real")
    us, ws = [], []
    for i in range(d):
        mu = T[2 * i, 2 * i + 1]
        z1, z2 = Z[:, 2 * i], Z[:, 2 * i + 1]
        if mu < 0:
            mu, z1, z2 = -mu, z2, z1
        if mu <= 1e-12:
            raise RankDeficient("restricted symplectic form is degenerate")
        us.append(z1 / np.sqrt(mu))
        ws.append(z2 / np.sqrt(mu))
    E = K @ np.stack(us + ws, axis=1)
    omega = _canonical_J(d)
    if np.max(np.abs(E.T @ J @ E - omega)) > 1e-9:
        raise RankDeficient("failed to build a Darboux basis")
    return E, omega, J


def symplecticity_check(system, step, x0: State, h, dW=None, eps=1e-5, config=None):
    """Finite-difference test of canonical-form preservation by a step map.

    Builds a Darboux basis of the tangent space of the phase manifold at
    ``x0``, perturbs along each basis direction (composing with a
    projection back onto the manifold), applies the step map, and returns
    the infinity norm of D^T J D - Omega for the central-difference
    Jacobian D.  Values at the finite-difference floor (about 1e-7 with the
    default eps and solver tolerance) indicate a symplectic map;
    non-symplectic maps show residuals growing with h.

    ``step`` is either a method name/spec or a callable
    (system, state, h, dW) -> State.  ``dW`` is held fixed, so for
    stochastic methods this tests the map at one frozen realization.
    """
    cfg = config or DEFAULT_NEWTON
    q0, p0 = x0.q, x0.p
    from .model import constraint_residual, hidden_residual

    if max(constraint_residual(system, q0), hidden_residual(system, q0, p=p0)) > 1e-9:
        raise ValueError("x0 must lie on the phase manifold")
    if callable(step):
        step_map = step
    else:
        stepper = make_stepper(system, step, cfg)

        def step_map(sys_, state, h_, dW_):
            result, _, _ = stepper.step(state, None, dW_, h_, None)
            return result.state

    E, omega, J = _tangent_darboux_basis(system, x0, cfg)
    n = system.dim_q
    dim = E.shape[1]
    D = np.empty((2 * n, dim))
    for i in range(dim):
        cols = []
        for sign in (+1.0, -1.0):
            dq = sign * eps * E[:n, i]
            dp = sign * eps * E[n:, i]
            xs = project_state(system, q0 + dq, p0 + dp, config=cfg)
            ys = step_map(system, xs, h, dW)
            cols.append(np.concatenate([ys.q, ys.p]))
        D[:, i] = (cols[0] - cols[1]) / (2 * eps)
    return float(np.max(np.abs(D.T @ J @ D - omega)))


# ---------------------------------------------------------------------------
# Drift metrics and CSV output


def drift_metrics(trajectory) -> DriftMetrics:
    """Constraint, hidden-constraint and energy series of a trajectory."""
    return DriftMetrics(
        max_constraint=float(np.max(trajectory.constraint)),
        max_hidden=float(np.max(trajectory.hidden)),
        energy_series=np.array(trajectory.energy),
    )


def _fmt(x):
    return repr(float(x))


def write_strong_csv(path, result: StrongErrorResult):
    """Columns: h, error_q, error_p, stderr (stderr of the pooled error)."""
    lines = ["h,error_q,error_p,stderr"]
    for i, h in enumerate(result.position.step_sizes):
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    h,
                    result.position.errors[i],
                    result.momentum.errors[i],
                    result.pooled_stderr[i],
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def write_weak_csv(path, result: WeakErrorResult):
    """Columns: h, weak_error, mc_stderr."""
    lines = ["h,weak_error,mc_stderr"]
    for i, h in enumerate(result.report.step_sizes):
        lines.append(
            ",".join(_fmt(x) for x in (h, result.report.errors[i], result.mc_stderr[i]))
        )
    path.write_text("\n".join(lines) + "\n")
