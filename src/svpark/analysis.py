"""Convergence-order estimation and symplecticity checking.

Strong and weak orders are measured on shared Brownian paths: every step
size in the ladder consumes dyadic coarsenings of one fine increment
ensemble, and the reference solution integrates the same ensemble at the
finest resolution.  Sharing the paths couples the estimators, which is what
makes the pathwise (strong) errors meaningful and shrinks the Monte Carlo
variance of the weak-error estimates by orders of magnitude.

Path ensembles are processed in fixed-size blocks so memory stays bounded.
Each path owns an independent random stream, and the studies reduce the
per-path samples of all blocks once, concatenated in path order, so their
results are the same bits for every block size.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    LadderTooShort,
    NoConvergence,
    RankDeficient,
    SingularJacobian,
    StatisticallyInconclusive,
)
from .deterministic import project_state
from .model import State, constraint_residual, hidden_residual, legendre_velocity
from .noise import coarsen_array
from .stochastic import integrate, make_stepper

__all__ = [
    "ConvergenceReport",
    "StrongErrorResult",
    "WeakErrorResult",
    "fit_loglog_slope",
    "strong_error_study",
    "weak_error_study",
    "symplecticity_check",
]

DEFAULT_BLOCK_SIZE = 512
DEFAULT_REF_REFINE = 64  # base steps per finest ladder step
_SYMPLECTIC_EPS = 1e-5  # perturbation of the central differences


def _linregress_slope(x, y):
    """Slope and its standard error, computed as ``scipy.stats.linregress``
    computes them, operation for operation, so the results are bitwise
    equal without a dependency on scipy."""
    if np.amax(x) == np.amin(x) and len(x) > 1:
        raise ValueError("cannot fit a slope: all step sizes are equal")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    if len(x) == 2:
        return float(slope), 0.0
    return float(slope), float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))


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
    slope, stderr = _linregress_slope(x, np.log2(np.asarray(errors, dtype=float)))
    if point_stderr is not None:
        rel = np.asarray(point_stderr, dtype=float) / np.asarray(errors, dtype=float)
        sigma_log = rel / np.log(2.0)
        weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
        propagated = float(np.sqrt(np.sum(weights**2 * sigma_log**2)))
        stderr = max(stderr, propagated)
    return slope, stderr


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


# ---------------------------------------------------------------------------
# Shared-path sweep


def _validate_ladder(paths, h_ladder, ref_refine):
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


def _collect(system, method, x0, paths, h_ladder, ref_refine, config, block_size, sample):
    """Validate the ladder; return it, coarsest first, and per rung the samples
    ``sample(q, p, q_ref, p_ref)`` of all paths, concatenated in path order
    along the last axis.  Each block is integrated at the paths' base
    resolution (the reference) and on dyadic coarsenings of its increments.
    """
    h_ladder, factors = _validate_ladder(paths, h_ladder, ref_refine)

    def endpoints(increments, h):
        for result in integrate(
            system, method, x0, increments, h, increments.shape[-1], config
        ):
            pass
        return result.state.q, result.state.p

    chunks = [[] for _ in h_ladder]
    for start in range(0, paths.num_paths, block_size):
        stop = min(start + block_size, paths.num_paths)
        block = paths.block(start, stop)
        try:
            reference = endpoints(block, paths.h_base)
            for rung, h, factor in zip(chunks, h_ladder, factors):
                rung.append(sample(*endpoints(coarsen_array(block, factor), h), *reference))
        except (NoConvergence, RankDeficient, SingularJacobian) as err:
            # A step failure names a batch index; the block says which paths.
            err.args = (f"paths {start} to {stop - 1}: {err.args[0] if err.args else err}",)
            raise
    return h_ladder, [np.concatenate(rung, axis=-1) for rung in chunks]


def _mean_and_stderr(x):
    """Mean of the 1-D samples ``x`` and the standard error of that mean."""
    M = len(x)
    mean = x.sum() / M
    return mean, np.sqrt(max(np.sum(x * x) / M - mean**2, 0.0) / max(M - 1, 1))


def strong_error_study(
    system,
    method,
    x0: State,
    paths,
    h_ladder,
    ref_refine=DEFAULT_REF_REFINE,
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

    def squared_errors(q, p, q_ref, p_ref):
        eq = np.sum((q - q_ref) ** 2, axis=-1)
        ep = np.sum((p - p_ref) ** 2, axis=-1)
        return np.stack([eq, ep, eq + ep])

    h_ladder, samples = _collect(
        system, method, x0, paths, h_ladder, ref_refine, config, block_size, squared_errors
    )
    M = paths.num_paths
    err_q = np.sqrt([eq.sum() / M for eq, _, _ in samples])
    err_p = np.sqrt([ep.sum() / M for _, ep, _ in samples])
    pooled_stderr = []
    for _, _, pooled in samples:
        mean, stderr = _mean_and_stderr(pooled)
        pooled_stderr.append(stderr / (2 * np.sqrt(mean)) if mean > 0 else 0.0)
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
    ref_refine=DEFAULT_REF_REFINE,
    config=None,
    block_size=DEFAULT_BLOCK_SIZE,
) -> WeakErrorResult:
    """Error of the observable's ensemble mean against the fine reference.

    ``observable`` maps endpoint arrays (q, p) to one value per path, an
    array of shape ``q.shape[:-1]``; any other shape raises ValueError.
    Because the reference shares the Brownian paths, the Monte Carlo
    standard error reported per ladder point is that of the paired
    difference, not of two independent means.  Raises
    StatisticallyInconclusive when the largest standard error reaches half
    the largest weak error.
    """

    def phi(q, p):
        value = np.asarray(observable(q, p), dtype=float)
        if value.shape != q.shape[:-1]:
            raise ValueError(f"observable must return shape {q.shape[:-1]}, got {value.shape}")
        return value

    h_ladder, samples = _collect(
        system, method, x0, paths, h_ladder, ref_refine, config, block_size,
        lambda q, p, q_ref, p_ref: phi(q, p) - phi(q_ref, p_ref),
    )
    stats = [_mean_and_stderr(d) for d in samples]  # paired differences
    errors = np.array([abs(mean) for mean, _ in stats])
    stderr = np.array([s for _, s in stats])
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
        report=ConvergenceReport.from_errors(h_ladder, errors, paths.num_paths, point_stderr),
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
    configuration constraint and the hidden velocity constraint.  On an
    orthonormal kernel basis K the symplectic form restricts to the real
    skew matrix S = K^T J K, so iS is Hermitian.  For each positive
    eigenvalue mu of iS, with eigenvector x + iy, S x = mu y and
    S y = -mu x; the pairs (y, x) sqrt(2 / mu) form a Darboux basis E with
    E^T J E equal to the canonical block matrix, so a symplectic step map
    must satisfy D^T J D = Omega exactly in these coordinates.
    """
    q, p = x0.q, x0.p
    n = system.dim_q
    k = system.dim_g
    v = legendre_velocity(system, q, p, config)
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
    mu, Z = np.linalg.eigh(1j * (K.T @ J @ K))
    mu, Z = mu[d:], Z[:, d:]  # ascending, so the d positive eigenvalues come last
    if mu[0] <= 1e-12:
        raise RankDeficient("restricted symplectic form is degenerate")
    scale = np.sqrt(2.0 / mu)
    E = K @ np.concatenate([Z.imag * scale, Z.real * scale], axis=1)
    omega = _canonical_J(d)
    if np.max(np.abs(E.T @ J @ E - omega)) > 1e-9:
        raise RankDeficient("failed to build a Darboux basis")
    return E, omega, J


def symplecticity_check(system, step, x0: State, h, dW=None, config=None):
    """Finite-difference test of canonical-form preservation by a step map.

    Builds a Darboux basis of the tangent space of the phase manifold at
    the single state ``x0``, perturbs along each basis direction by
    +-1e-5 (composing with a projection back onto the manifold), applies
    the step map, and returns the infinity norm of D^T J D - Omega for the
    central-difference Jacobian D.  Values at the finite-difference floor
    (about 5e-11 with the default solver tolerance) indicate a symplectic
    map; non-symplectic maps show residuals growing with h.

    ``step`` is either a method name/spec or a callable
    (system, state, h, dW) -> State.  All perturbed states are projected
    and stepped as one batch, so a callable receives a State whose arrays
    have a leading batch axis and must broadcast over it, as every svpark
    step does.  ``dW`` is held fixed, so for stochastic methods this tests
    the map at one frozen realization; a named method that reads noise
    raises ValueError without it (see ``make_stepper``).
    """
    q0, p0 = x0.q, x0.p
    n = system.dim_q
    if np.shape(q0) != (n,) or np.shape(p0) != (n,):
        raise ValueError(f"symplecticity_check takes one state: q and p of shape ({n},)")
    if max(constraint_residual(system, q0), hidden_residual(system, q0, p=p0)) > 1e-9:
        raise ValueError("x0 must lie on the phase manifold")
    if callable(step):
        step_map = step
    else:
        stepper = make_stepper(system, step, config)

        def step_map(sys_, state, h_, dW_):
            return stepper.step(state, None, dW_, h_, None).state

    E, omega, J = _tangent_darboux_basis(system, x0, config)
    dim = E.shape[1]
    offsets = _SYMPLECTIC_EPS * np.concatenate([E.T, -E.T])  # +eps rows, then -eps rows
    xs = project_state(system, q0 + offsets[:, :n], p0 + offsets[:, n:], config=config)
    ys = step_map(system, xs, h, dW)
    Y = np.concatenate([ys.q, ys.p], axis=-1)
    D = ((Y[:dim] - Y[dim:]) / (2 * _SYMPLECTIC_EPS)).T
    return float(np.max(np.abs(D.T @ J @ D - omega)))
