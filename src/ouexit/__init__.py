"""Mean first-exit times of d-dimensional Ornstein-Uhlenbeck processes.

Three independent routes to the same quantity, cross-validated against each
other: exact adaptive quadrature of the closed form, elementary two-sided
bounds, and Monte-Carlo path simulation.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    EstimationError,
    EvaluationError,
    OuexitError,
    QuadratureError,
)
from .mfet import (
    ExitProblem,
    MfetBounds,
    OupParams,
    asymptotic_ratio,
    avp_residual,
    drift_ratio,
    mfet_bm,
    mfet_bounds,
    mfet_exact,
)
from .quadrature import QuadConfig, QuadResult, integrate, integrate_log
from .simulate import (
    McConfig,
    McEstimate,
    PathRecord,
    Scheme,
    estimate_mfet,
    record_path,
)
from .special import ln_gamma, ln_lower_gamma, neuman_log_bounds, reg_lower_gamma

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "EstimationError",
    "EvaluationError",
    "ExitProblem",
    "McConfig",
    "McEstimate",
    "MfetBounds",
    "OuexitError",
    "OupParams",
    "PathRecord",
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "Scheme",
    "asymptotic_ratio",
    "avp_residual",
    "drift_ratio",
    "estimate_mfet",
    "integrate",
    "integrate_log",
    "ln_gamma",
    "ln_lower_gamma",
    "mfet_bm",
    "mfet_bounds",
    "mfet_exact",
    "neuman_log_bounds",
    "record_path",
    "reg_lower_gamma",
    "__version__",
]
