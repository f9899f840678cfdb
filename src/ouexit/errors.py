"""Exception types shared across the package."""


class OuexitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OuexitError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ConvergenceError(OuexitError, RuntimeError):
    """An iterative evaluation did not converge.

    In the package's routes that is mfet_exact's positive series, past its cap
    of 2**22 terms up from its largest; ``special``, which only the tests and
    the benchmark use, raises it for its gamma series and continued fraction
    too.
    """


class EvaluationError(OuexitError, RuntimeError):
    """An integrand returned a non-finite value.

    Carries the offending abscissa so callers can locate the problem.
    """

    def __init__(self, message, abscissa):
        super().__init__(f"{message} (at abscissa {abscissa!r})")
        self.abscissa = abscissa


class QuadratureError(OuexitError, RuntimeError):
    """Adaptive quadrature exhausted its panel budget before converging.

    Carries the partial result so callers can decide what to do with it.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class EstimationError(OuexitError, RuntimeError):
    """Monte-Carlo estimation failed (e.g. every path hit the safety horizon)."""

    def __init__(self, message, n_censored):
        super().__init__(message)
        self.n_censored = n_censored
