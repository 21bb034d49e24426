"""Butcher tableaux and the admissibility test for constrained updates.

An s-stage Runge-Kutta discretization of the kinematic relation dq/dt = v
only yields a well-defined constrained update on the cotangent bundle of the
constraint manifold when its coefficients satisfy a structural condition:
the first stage must be explicit (so the first internal position is the
current position, already on the manifold), the last stage must reproduce
the step endpoint (so the final multiplier can be repurposed to enforce the
hidden velocity constraint), all weights must be nonzero, and the stage
coupling between multipliers and internal constraints must be invertible.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConditionViolated, NameNotFound
from .solver import _COND_LIMIT

__all__ = [
    "ButcherTableau",
    "AdmissibilityReport",
    "check_admissibility",
    "builtin_tableaux",
    "tableau_from_config",
]

_COEFF_TOL = 1e-14


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b); the nodes c (the row sums of a) and
    the stage count s are derived from them.

    Entries of the first row of a within 1e-14 of 0, and of the last row
    within 1e-14 of b, are set to 0 and b exactly (the tolerance of
    ``check_admissibility``), so an admissible tableau satisfies
    a_1i = 0 and a_si = b_i bit for bit.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(init=False)
    s: int = field(init=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got shape {a.shape}")
        if not a.size:
            raise ValueError("a must have at least one stage")
        if b.shape != (a.shape[0],):
            raise ValueError(f"b must have length {a.shape[0]}, got {b.shape}")
        # Snapped to a_1i = 0 and a_si = b_i within the admissibility tolerance,
        # so the weights these conditions zero (the last columns of
        # conjugate_weights and noise_stage_weights) are exact zeros.
        a[0, np.abs(a[0]) <= _COEFF_TOL] = 0.0
        last = np.abs(a[-1] - b) <= _COEFF_TOL
        a[-1, last] = b[last]
        c = a.sum(axis=1)
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", a.shape[0])

    def conjugate_weights(self):
        """Partner coefficients for the momentum stages.

        Entry (i, j) weighs the j-th stage force in the i-th internal
        momentum; it is b_j * (1 - a_ji / b_i).  Requires nonzero b.
        """
        b, a = self.b, self.a
        return b[None, :] * (1.0 - a.T / b[:, None])

    def noise_stage_weights(self):
        """Entry (i, j) = 1 - a_ji / b_i, weighing stage noise contributions."""
        return 1.0 - self.a.T / self.b[:, None]


@dataclass(frozen=True)
class AdmissibilityReport:
    satisfied: bool
    reasons: tuple

    def require(self):
        if not self.satisfied:
            raise ConditionViolated(self.reasons)


def check_admissibility(tableau: ButcherTableau) -> AdmissibilityReport:
    """Decide whether a tableau admits a well-defined constrained update.

    Checks, in order: a_1i = 0 for all i, a_si = b_i for all i, b_i != 0
    for all i, and invertibility (condition number below 1e12) of the stage
    coupling matrix formed from rows 2..s and columns 1..s-1 of a @ ahat,
    where ahat_kj = b_j - a_jk b_j / b_k.  The last stage's column of ahat
    vanishes identically whenever a_si = b_i, and the first row of a is
    zero, so the informative block is exactly that submatrix.

    Pure function of the coefficients; returns a structured report rather
    than raising.
    """
    a, b, s = tableau.a, tableau.b, tableau.s
    reasons = []
    for i in range(s):
        if abs(a[0, i]) > _COEFF_TOL:
            reasons.append(f"a_1{i + 1} = {a[0, i]:g} violates a_1i = 0")
    for i in range(s):
        if abs(a[s - 1, i] - b[i]) > _COEFF_TOL:
            reasons.append(
                f"a_s{i + 1} = {a[s - 1, i]:g} differs from b_{i + 1} = {b[i]:g}"
            )
    zero_b = [i for i in range(s) if abs(b[i]) <= _COEFF_TOL]
    for i in zero_b:
        reasons.append(f"b_{i + 1} = 0")
    if not zero_b and s >= 2:
        ahat = tableau.conjugate_weights()
        coupling = (a @ ahat)[1:, : s - 1]
        cond = np.linalg.cond(coupling)
        if not np.isfinite(cond) or cond >= _COND_LIMIT:
            reasons.append(
                f"stage coupling matrix is numerically singular (cond = {cond:.3e})"
            )
    return AdmissibilityReport(satisfied=not reasons, reasons=tuple(reasons))


class TableauMap(dict):
    """Name-to-tableau mapping that raises NameNotFound on unknown keys."""

    def __missing__(self, key):
        raise NameNotFound(f"unknown tableau {key!r}; available: {sorted(self)}")


_BUILTINS = {
    "rattle_trapezoidal": ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5]),
    "lobatto_iiia_3": ButcherTableau(
        a=[[0.0, 0.0, 0.0], [5 / 24, 1 / 3, -1 / 24], [1 / 6, 2 / 3, 1 / 6]],
        b=[1 / 6, 2 / 3, 1 / 6],
    ),
    "euler_a": ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[1.0, 0.0]),
    "implicit_euler": ButcherTableau(a=[[1.0]], b=[1.0]),
}


def builtin_tableaux() -> TableauMap:
    """The four tableaux shipped with the package, in a new mapping.

    ``rattle_trapezoidal`` is the two-stage implicit trapezoidal rule behind
    RATTLE and is admissible.  ``lobatto_iiia_3`` is the three-stage
    Lobatto IIIA method (nodes 0, 1/2, 1), admissible and of deterministic
    order four (Jay, SIAM J. Numer. Anal. 33, 1996).  ``euler_a`` and
    ``implicit_euler`` generate the two first-order variational Euler
    schemes; they violate the admissibility condition (b_2 = 0, resp.
    a_11 != 0) and are integrated through their dedicated step functions
    instead.  The tableaux are built once, at import, and shared: they are
    frozen and their arrays are read-only.
    """
    return TableauMap(_BUILTINS)


def tableau_from_config(spec) -> ButcherTableau:
    """Build a tableau from a builtin name or an inline {"a": ..., "b": ...}."""
    if isinstance(spec, str):
        return builtin_tableaux()[spec]
    if isinstance(spec, ButcherTableau):
        return spec
    if isinstance(spec, dict) and set(spec) == {"a", "b"}:
        return ButcherTableau(a=spec["a"], b=spec["b"])
    raise ValueError(f"cannot interpret tableau spec {spec!r}")
