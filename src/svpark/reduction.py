"""Multiplier elimination: constraint Gram matrix, force projector, reduced SDE.

Differentiating the constraint twice along the flow and substituting the
momentum equation determines the multiplier in closed form.  The algebra is
organized around two matrices built from the constraint Jacobian G = dg_dq
and the kinetic metric M = d2L_dv2:

- the Gram matrix  G M^{-1} G^T  (k x k, invertible when G has full rank),
- the oblique projector  G^T Gram^{-1} G M^{-1}  (n x n, idempotent),

whose ranges are the constraint-force directions.  Eliminating the
multiplier leaves an unconstrained SDE for (q, p) whose momentum noise
depends only on the configuration, so its Ito and Stratonovich readings
coincide and the drift needs no correction term.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficient
from .model import noise_gradients

__all__ = [
    "ProjectionMatrices",
    "constraint_gram",
    "constraint_projector",
    "projection_matrices",
    "reduced_drift_diffusion",
    "ReducedDynamics",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ProjectionMatrices:
    """Gram matrix and constraint-force projector at one (q, v)."""

    gram: np.ndarray
    projector: np.ndarray


@dataclass(frozen=True)
class ReducedDynamics:
    """Momentum drift (..., n) and per-channel diffusion columns (..., n, m)."""

    drift_p: np.ndarray
    diffusion_p: np.ndarray


def _gram_pieces(system, q, v):
    """G^T, the Gram matrix and the projector B, from one solve with M."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    G = system.dg_dq(q)
    M = system.d2L_dv2(q, v)
    GT = np.swapaxes(G, -1, -2)
    try:
        MinvGT = np.linalg.solve(M, GT)
    except np.linalg.LinAlgError as err:
        raise RankDeficient(f"velocity Hessian not invertible: {err}") from err
    gram = G @ MinvGT
    cond = np.linalg.cond(gram)
    if not np.all(np.isfinite(cond)) or np.max(cond) >= _COND_LIMIT:
        raise RankDeficient(
            f"constraint Gram matrix singular (cond = {np.max(cond):.3e}); "
            "constraint Jacobian is rank deficient"
        )
    B = GT @ np.linalg.solve(gram, np.swapaxes(MinvGT, -1, -2))
    return GT, gram, B


def constraint_gram(system, q, v):
    """G M^{-1} G^T, shape (..., k, k).  Raises RankDeficient when singular."""
    return _gram_pieces(system, q, v)[1]


def constraint_projector(system, q, v):
    """G^T Gram^{-1} G M^{-1}, the idempotent projector onto constraint forces."""
    return _gram_pieces(system, q, v)[2]


def projection_matrices(system, q, v) -> ProjectionMatrices:
    _, gram, B = _gram_pieces(system, q, v)
    return ProjectionMatrices(gram=gram, projector=B)


def reduced_drift_diffusion(system, q, v) -> ReducedDynamics:
    """Drift and diffusion of the multiplier-eliminated momentum equation.

    drift_p = (I - B) dL_dq - G^T Gram^{-1} d2g_dq2(v, v) + B d2L_dqdv v
    and diffusion column r = (I - B) dgamma_r, with B the constraint-force
    projector.  Valid on the constraint set with the hidden velocity
    constraint satisfied.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    GT, gram, B = _gram_pieces(system, q, v)

    force = system.dL_dq(q, v)
    hess_vv = system.d2g_dq2_vv(q, v)
    curvature = (GT @ np.linalg.solve(gram, hess_vv[..., None]))[..., 0]
    coriolis = (system.d2L_dqdv(q, v) @ v[..., None])[..., 0]

    def project_out(w):
        return w - (B @ w[..., None])[..., 0]

    drift = project_out(force) - curvature + (B @ coriolis[..., None])[..., 0]
    grads = noise_gradients(system, q)
    projected_rows = grads - grads @ np.swapaxes(B, -1, -2)
    return ReducedDynamics(
        drift_p=drift, diffusion_p=np.swapaxes(projected_rows, -1, -2)
    )
