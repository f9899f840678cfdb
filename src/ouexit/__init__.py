"""Mean first-exit times of d-dimensional Ornstein-Uhlenbeck processes.

Three independent routes to the same quantity, cross-validated against each
other: the exact closed form (a positive series for theta >= 0, adaptive
quadrature below), elementary two-sided bounds, and Monte-Carlo path
simulation.

Only the Monte-Carlo route needs numpy.  Its names are bound on
first access (PEP 562), so importing the package and the exact route load
the standard library alone.
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
from .schemes import Scheme

__version__ = "0.1.0"

_SIMULATE_NAMES = ("McConfig", "McEstimate", "PathRecord", "estimate_mfet", "record_path")


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        value = globals()[name] = getattr(simulate, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "QuadratureError",
    "Scheme",
    "asymptotic_ratio",
    "avp_residual",
    "drift_ratio",
    "estimate_mfet",
    "mfet_bm",
    "mfet_bounds",
    "mfet_exact",
    "record_path",
    "__version__",
]
