"""Variational partitioned Runge-Kutta integrators for constrained systems.

Deterministic and stochastic structure-preserving integrators for
mechanical systems with holonomic constraints, a reference Euler-Maruyama
scheme on the multiplier-eliminated dynamics, reproducible Brownian path
generation with dyadic coarsening, and an analysis suite for constraint
preservation, numerical symplecticity and strong/weak convergence orders.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConditionViolated,
    ConfigInvalid,
    DerivativeMismatch,
    InvalidResolution,
    LadderTooShort,
    NameNotFound,
    NoConvergence,
    RankDeficient,
    SingularJacobian,
    StatisticallyInconclusive,
    SvparkError,
)
from .model import (
    MechanicalSystem,
    State,
    ValidationReport,
    builtin_models,
    constraint_residual,
    energy,
    hidden_residual,
    legendre_velocity,
    spherical_pendulum,
    validate_system,
    without_noise,
)
from .tableau import (
    AdmissibilityReport,
    ButcherTableau,
    builtin_tableaux,
    check_admissibility,
    tableau_from_config,
)
from .solver import NewtonConfig, NewtonResult, newton_solve, schur_multiplier_solve
from .deterministic import (
    InternalStages,
    StepResult,
    euler_a_with_projection,
    euler_b_with_projection,
    project_state,
    projection_step,
    rattle_step,
    vprk_step,
)
from .reduction import (
    ProjectionMatrices,
    ReducedDynamics,
    projection_matrices,
    reduced_drift_diffusion,
)
from .noise import BrownianPaths, coarsen_array, generate
from .stochastic import (
    Stepper,
    StochasticQuadrature,
    Trajectory,
    default_quadrature,
    euler_maruyama_reference_step,
    integrate,
    make_stepper,
    simulate_path,
    stochastic_variational_euler_step,
    stochastic_vprk_step,
)
from .analysis import (
    ConvergenceReport,
    StrongErrorResult,
    WeakErrorResult,
    fit_loglog_slope,
    strong_error_study,
    symplecticity_check,
    weak_error_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
