"""Deterministic adaptive quadrature, in log space, for mfet_exact's lam < 0 route.

``integrate_log`` takes the integrand as its logarithm and returns the log
of the integral over [a, b], a < b both finite, which the caller
guarantees.  Each panel applies one fixed-order nested rule (15-point
Kronrod with the embedded 7-point Gauss rule for the error estimate) after
subtracting its largest log-sample (log-sum-exp discipline), so integrands
spanning thousands of orders of magnitude integrate without overflow.  The
worst panel is bisected until the relative tolerance alone, interpreted on
the linear value, is met; a run the panel budget stops raises
QuadratureError carrying its partial result.  Neither is an argument.  No
randomness anywhere, so results are bit-reproducible across runs.

All rule nodes are interior points, so endpoints are never sampled; an
integrand with a removable 0*inf ambiguity at an endpoint is fine.
"""

import math
from dataclasses import dataclass

from .errors import EvaluationError, QuadratureError

# 15-point Kronrod nodes/weights on [-1, 1] with the embedded 7-point Gauss
# weights (QUADPACK dqk15 constants).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.1294849661688697,
    0.2797053914892766,
    0.3818300505051189,
    0.41795918367346935,
)

# Flattened 15-node layout, left to right; Gauss nodes sit at odd positions.
# The Gauss weight is 0.0 at the others, an exact zero that changes no bit.
# One fused pass over all 15 costs less than a separate pass over the 7
# Gauss nodes, which needs the exponentials kept in a list.
_NODES = tuple([-t for t in _XGK[:7]] + [0.0] + [t for t in reversed(_XGK[:7])])
_WK = tuple(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_WG_AT_NODES = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)


# Relative tolerance and panel budget of the adaptive loop.
_REL_TOL = 1e-10
_MAX_PANELS = 4096


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one converged adaptive integration (or the partial one
    a QuadratureError carries).

    ``value`` is the log of the integral and ``err_estimate`` is the
    estimated absolute error of that log (which is the estimated relative
    error of the linear value).
    """

    value: float
    err_estimate: float
    panels_used: int


def _panel(log_f, lo, hi):
    """(log Kronrod value, log |Kronrod - Gauss|) of exp(log_f) on [lo, hi].

    A -inf sample is log-zero; any other non-finite one is an
    EvaluationError at its abscissa.
    """
    center = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    inf = math.inf
    lfs = []
    for t in _NODES:
        y = log_f(center + halfw * t)
        if not y < inf:  # NaN or +inf
            raise EvaluationError("log-integrand returned a non-finite value", center + halfw * t)
        lfs.append(y)
    m = max(lfs)
    if m == -inf:
        return -inf, -inf
    exp = math.exp
    kron = 0.0
    gauss = 0.0
    for wk, wg, y in zip(_WK, _WG_AT_NODES, lfs):
        e = exp(y - m)
        kron += wk * e
        gauss += wg * e
    err = halfw * abs(kron - gauss)
    log_err = m + math.log(err) if err > 0.0 else -inf
    return m + math.log(halfw * kron), log_err


def _logsumexp(values):
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def integrate_log(log_f, a, b):
    """log of the integral of exp(log_f) over [a, b], a < b both finite.

    ``log_f`` may return -inf (log-zero); +inf or NaN is an evaluation
    error.  Convergence is judged on the linear value: the result is
    converged when err <= _REL_TOL * value would hold after exponentiating,
    checked without leaving log space.  Otherwise the worst panel is
    bisected; a run still unconverged at _MAX_PANELS panels raises
    QuadratureError with the partial QuadResult as ``result``.
    """
    log_rel_tol = math.log(_REL_TOL)
    # (lo, hi, log_value, log_err) in the order the panels were made
    panels = [(a, b, *_panel(log_f, a, b))]
    while True:
        log_total = _logsumexp([p[2] for p in panels])
        log_err = _logsumexp([p[3] for p in panels])
        converged = log_err <= log_rel_tol + log_total
        if converged or len(panels) >= _MAX_PANELS:
            res = QuadResult(log_total, _rel_err_of_log(log_err, log_total), len(panels))
            if converged:
                return res
            raise QuadratureError(f"quadrature did not converge within {_MAX_PANELS} panels", res)
        # the first panel of largest error: ties go to the earliest made
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels += [(lo, mid, *_panel(log_f, lo, mid)), (mid, hi, *_panel(log_f, mid, hi))]


def _rel_err_of_log(log_err, log_val):
    """Estimated absolute error of the log value (= relative linear error)."""
    if log_err == -math.inf:
        return 0.0
    d = log_err - log_val
    return math.exp(d) if d < 700.0 else math.inf
