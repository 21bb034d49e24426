"""Damped Newton iteration and the saddle-point solve for multipliers.

Both routines broadcast over leading batch dimensions: a residual of shape
(..., d) with unknowns of shape (..., d) is solved independently for every
batch element.  Convergence, damping and freezing are tracked per element,
so the result for one element does not depend on how many iterations its
batch neighbours needed.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NoConvergence, RankDeficient, SingularJacobian

__all__ = ["NewtonConfig", "NewtonResult", "newton_solve", "schur_multiplier_solve"]

_MAX_HALVINGS = 30
_FD_JACOBIAN_EPS = 1e-7
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters for the Newton iteration."""

    tol_residual: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_NEWTON = NewtonConfig()


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float


def _inf_norm(r):
    # |r| laid out column-major, so the max over the short last axis runs
    # across whole columns instead of one row at a time (the same values).
    return np.abs(r, order="F").max(axis=-1)


def _fd_jacobian(F, x, Fx, stacked=False):
    """Forward differences: column j is (F(x + step_j e_j) - Fx) / step_j
    with step_j = eps (1 + |x_j|).  The d perturbed copies are built as one
    (d,) + x.shape array; F sees that stack in one call when ``stacked``,
    otherwise one copy per call."""
    d = x.shape[-1]
    step = np.moveaxis(_FD_JACOBIAN_EPS * (1.0 + np.abs(x)), -1, 0)
    columns = np.arange(d)
    xp = np.broadcast_to(x, (d,) + x.shape).copy()
    xp[columns, ..., columns] += step
    Fp = F(xp) if stacked else np.stack([F(xj) for xj in xp])
    return np.moveaxis((Fp - Fx) / step[..., None], 0, -1)


def _worst(norm, among):
    """'residual R' for the largest residual among the flagged elements,
    followed by ' at batch index i, j' when the solve is batched."""
    masked = np.where(among, norm, -np.inf)
    flat = int(np.argmax(masked))
    where = ""
    if masked.ndim:
        index = np.unravel_index(flat, masked.shape)
        where = " at batch index " + ", ".join(str(int(i)) for i in index)
    return f"residual {masked.flat[flat]:.3e}{where}"


def _solve_linear(J, r):
    if J.shape[-1] == 1:
        # A 1x1 system: the division LAPACK's solve performs, without its
        # per-matrix call, and its rule that a zero pivot is singular.  Like
        # LAPACK it is quiet about inf / inf; the NaN is rejected below.
        if np.any(J == 0.0):
            raise SingularJacobian("Singular matrix")
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = r / J[..., 0]
    else:
        try:
            delta = np.linalg.solve(J, r[..., None])[..., 0]
        except np.linalg.LinAlgError as err:
            raise SingularJacobian(str(err)) from err
    if not np.all(np.isfinite(delta)):
        raise SingularJacobian("linear solve produced non-finite update")
    return delta


def newton_solve(F, x0, config=None, jacobian=None, *, stacked_fd=False) -> NewtonResult:
    """Solve F(x) = 0 with damped Newton iteration.

    Parameters
    ----------
    F : callable mapping (..., d) arrays to (..., d) arrays.
    x0 : initial guess, shape (..., d).
    config : NewtonConfig, defaults to the module default.
    jacobian : optional callable returning (..., d, d); finite differences
        are used when omitted.
    stacked_fd : declares that F also maps (d, ..., d) arrays to
        (d, ..., d), one added leading axis.  The finite-difference
        Jacobian then evaluates all d perturbed columns in one call of F;
        by default it calls F once per column with x0's shape.  The
        Jacobian is the same either way.

    Stops when the per-element infinity norm of the residual is at or below
    ``tol_residual``.  Full steps are halved (up to 30 times, per element)
    whenever they fail to reduce the residual.  Raises NoConvergence when
    the iteration budget runs out or an element stalls, SingularJacobian
    when the linear solve fails; for a batched solve the message names the
    batch index of the unconverged element with the largest residual.  A
    1x1 system is solved by division, bitwise as LAPACK solves it.
    """
    cfg = config or DEFAULT_NEWTON
    x = np.array(x0, dtype=float)
    if x.ndim == 0:
        raise ValueError("x0 must have at least one dimension")
    Fx = np.asarray(F(x), dtype=float)
    if Fx.shape != x.shape:
        raise ValueError(f"F returned shape {Fx.shape}, expected {x.shape}")
    norm = _inf_norm(Fx)
    converged = norm <= cfg.tol_residual
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if np.all(converged):
            iterations -= 1
            break
        J = jacobian(x) if jacobian is not None else _fd_jacobian(F, x, Fx, stacked_fd)
        try:
            delta = _solve_linear(J, Fx)
        except SingularJacobian as err:
            raise SingularJacobian(f"{err} ({_worst(norm, ~converged)})") from err
        alpha = np.ones(norm.shape)
        accepted = converged
        trial_x, trial_F = x, Fx
        for _ in range(_MAX_HALVINGS + 1):
            candidate = x - alpha[..., None] * delta
            Fc = np.asarray(F(candidate), dtype=float)
            cnorm = _inf_norm(Fc)
            better = ~accepted & ((cnorm < norm) | (cnorm <= cfg.tol_residual))
            trial_x = np.where(better[..., None], candidate, trial_x)
            trial_F = np.where(better[..., None], Fc, trial_F)
            accepted = accepted | better
            if np.all(accepted):
                break
            alpha = np.where(accepted, alpha, alpha / 2.0)
        if not np.all(accepted):
            raise NoConvergence(
                float(np.max(norm)),
                iterations,
                f"Newton step stalled after {_MAX_HALVINGS} halvings "
                f"({_worst(norm, ~accepted)})",
            )
        x, Fx = trial_x, trial_F
        norm = _inf_norm(Fx)
        converged = norm <= cfg.tol_residual
    if not np.all(converged):
        raise NoConvergence(
            float(np.max(norm)),
            cfg.max_iter,
            f"no convergence after {cfg.max_iter} iterations ({_worst(norm, ~converged)})",
        )
    return NewtonResult(x=x, iterations=iterations, residual=float(np.max(norm)))


def _apply(mat, vec):
    """mat @ vec for mat of shape (..., n, k) and vec of shape (..., k).

    With one column (k = 1) this is the elementwise product
    mat[..., 0] * vec: the one product matmul forms, without its
    per-element loop.  The bits are matmul's, except that matmul adds the
    product to +0.0, so where the product is -0.0 matmul returns +0.0.
    """
    if mat.shape[-1] == 1:
        return mat[..., 0] * vec
    return (mat @ vec[..., None])[..., 0]


def _apply_inverse(inverse, rhs):
    """inverse @ rhs for an unbatched (n, n) inverse and rhs of shape (..., n, r).

    The right-hand sides of the whole batch are the columns of one matrix
    product, which is far cheaper than broadcasting M into one LAPACK solve
    per element, or than one LAPACK solve with all the columns.  Like a
    LAPACK solve it does not warn on an infinite entry (inf * 0); the
    caller rejects the non-finite result.
    """
    columns = rhs.swapaxes(0, -2)
    with np.errstate(invalid="ignore"):
        solved = inverse @ columns.reshape(inverse.shape[-1], -1)
    return solved.reshape(columns.shape).swapaxes(0, -2)


def _solve_mass(M, rhs):
    """M^{-1} rhs for rhs of shape (..., n, r).

    An unbatched (n, n) M against a batched rhs is factored (inverted) once
    and applied with ``_apply_inverse``.  Otherwise each M is solved
    against its rhs.
    """
    if M.ndim > 2 or rhs.ndim == 2:
        return np.linalg.solve(M, rhs)
    return _apply_inverse(np.linalg.inv(M), rhs)


def _schur_complement(M, G, extra=None, *, inverse=None):
    """Solve M against G^T and the columns of ``extra`` (..., n, r), and form
    S = G M^{-1} G^T, with G and ``extra`` broadcast to their common batch
    shape.  Returns (M^{-1} G^T, M^{-1} extra or None, S).  A separable
    system passes M=None and its ``mass_inverse`` as ``inverse``, which is
    applied instead of solving with M.

    The one singularity rule for S, raising RankDeficient: a non-finite
    entry; for k = 1 a zero pivot (a finite non-zero 1x1 matrix has
    condition number one, so no SVD runs); for k >= 2 cond(S) >= 1e12.
    """
    GT = np.swapaxes(G, -1, -2)
    k = GT.shape[-1]
    rhs = GT
    if extra is not None:
        if GT.shape[:-2] != extra.shape[:-2]:
            batch = np.broadcast_shapes(GT.shape[:-2], extra.shape[:-2])
            GT, extra = (np.broadcast_to(a, batch + a.shape[-2:]) for a in (GT, extra))
        rhs = np.concatenate([GT, extra], axis=-1)
    if inverse is not None:
        solved = _apply_inverse(inverse, rhs)
    else:
        try:
            solved = _solve_mass(M, rhs)
        except np.linalg.LinAlgError as err:
            raise RankDeficient(f"primal block not invertible: {err}") from err
    MinvGT = solved[..., :k]
    S = G @ MinvGT
    if not np.all(np.isfinite(S)):
        raise RankDeficient("Schur complement G M^-1 G^T is not finite")
    if k == 1:
        if np.any(S == 0.0):
            raise RankDeficient("Schur complement numerically singular (zero pivot)")
    else:
        cond = np.linalg.cond(S)
        if not np.all(np.isfinite(cond)) or np.max(cond) >= _COND_LIMIT:
            raise RankDeficient(
                f"Schur complement numerically singular (cond = {np.max(cond):.3e})"
            )
    return MinvGT, None if extra is None else solved[..., k:], S


def _solve_schur(S, rhs):
    """S^{-1} rhs for rhs of shape (..., k, r), with S already judged
    non-singular by ``_schur_complement``: by division when k = 1."""
    if S.shape[-1] == 1:
        return rhs / S
    return np.linalg.solve(S, rhs)


def schur_multiplier_solve(M, G, rhs_primal, rhs_constraint):
    """Solve the saddle system M x + G^T lam = rhs_primal, G x = rhs_constraint.

    M is (..., n, n) invertible, G is (..., k, n) with full row rank; an
    unbatched (n, n) M is factored once for the whole batch.  The
    multiplier is eliminated through the Schur complement S = G M^{-1} G^T,
    by division when k = 1; raises RankDeficient when S is numerically
    singular (see ``_schur_complement``).  Returns (x, lam) with shapes
    (..., n) and (..., k).
    """
    M = np.asarray(M, dtype=float)
    G = np.asarray(G, dtype=float)
    rp = np.asarray(rhs_primal, dtype=float)
    rc = np.asarray(rhs_constraint, dtype=float)
    MinvGT, Minv_rp, S = _schur_complement(M, G, rp[..., None])
    Minv_rp = Minv_rp[..., 0]
    resid = (G @ Minv_rp[..., None])[..., 0] - rc
    lam = _solve_schur(S, resid[..., None])[..., 0]
    x = Minv_rp - _apply(MinvGT, lam)
    return x, lam
