"""Deterministic adaptive quadrature over finite intervals.

One fixed-order nested rule per panel (15-point Kronrod with the embedded
7-point Gauss rule for the error estimate), bisecting the worst panel until
the tolerance or the panel budget is hit.  No randomness anywhere, so
results are bit-reproducible across runs.

Two evaluation modes share that rule and one bisection loop:

* ``integrate``     -- plain linear arithmetic.
* ``integrate_log`` -- the integrand is supplied as its logarithm and the
  log of the integral is returned.  Each panel subtracts its running
  maximum of the log-integrand before exponentiating (log-sum-exp
  discipline), so integrands spanning thousands of orders of magnitude
  integrate without overflow.  The tolerance contract is interpreted on
  the linear value.

All rule nodes are interior points, so endpoints are never sampled; an
integrand with a removable 0*inf ambiguity at an endpoint is fine.
"""

import heapq
import math
from dataclasses import dataclass

from .errors import DomainError, EvaluationError

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
_NODES = tuple([-t for t in _XGK[:7]] + [0.0] + [t for t in reversed(_XGK[:7])])
_WK = tuple(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_WG_AT_NODES = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)


# Absolute tolerance and panel budget of the adaptive loop; the relative
# tolerance is the callers' one setting.
_ABS_TOL = 1e-14
_MAX_PANELS = 4096


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one adaptive integration.

    For ``integrate_log``, ``value`` is the log of the integral and
    ``err_estimate`` is the estimated absolute error of that log (which is
    the estimated relative error of the linear value).
    """

    value: float
    err_estimate: float
    panels_used: int
    converged: bool


def _check_args(a, b, rel_tol):
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise DomainError(f"rel_tol must be positive, got {rel_tol!r}")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise DomainError(f"integration limits must satisfy a <= b, got [{a!r}, {b!r}]")
    return a, b


def _sample(f, lo, hi, log_mode):
    """(halfw, f at the 15 nodes of [lo, hi]); a non-finite sample is an
    EvaluationError at its abscissa, except -inf (log-zero) in log mode."""
    center = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    ys = []
    for t in _NODES:
        y = f(center + halfw * t)
        if not math.isfinite(y) and not (log_mode and y == -math.inf):
            what = "log-integrand" if log_mode else "integrand"
            raise EvaluationError(f"{what} returned a non-finite value", center + halfw * t)
        ys.append(y)
    return halfw, ys


def _rule(halfw, ys):
    """Kronrod value and |Kronrod - Gauss| error of a panel from its 15 samples."""
    kron = 0.0
    gauss = 0.0
    for wk, wg, y in zip(_WK, _WG_AT_NODES, ys):
        kron += wk * y
        gauss += wg * y
    return halfw * kron, halfw * abs(kron - gauss)


def _eval_panel(f, lo, hi):
    """Kronrod/Gauss pair on one panel; returns (value, err)."""
    return _rule(*_sample(f, lo, hi, False))


def _eval_panel_log(log_f, lo, hi):
    """Kronrod/Gauss pair in log space; returns (log_value, log_err)."""
    halfw, lfs = _sample(log_f, lo, hi, True)
    m = max(lfs)
    if m == -math.inf:
        return -math.inf, -math.inf
    val, err = _rule(halfw, [math.exp(y - m) for y in lfs])
    log_err = m + math.log(err) if err > 0.0 else -math.inf
    return m + math.log(val), log_err


def _adapt(eval_panel, f, a, b, total, tol):
    """Bisect the worst panel until total_err <= tol(total_val) or there are
    _MAX_PANELS panels; ``total`` reduces the panels' values or errors.
    Returns (total_val, total_err, panels_used, converged)."""
    val, err = eval_panel(f, a, b)
    # heap entries: (-err, tiebreak, lo, hi, value, err)
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    while True:
        total_val = total([p[4] for p in heap])
        total_err = total([p[5] for p in heap])
        converged = total_err <= tol(total_val)
        if converged or len(heap) >= _MAX_PANELS:
            return total_val, total_err, len(heap), converged
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            v, e = eval_panel(f, sub_lo, sub_hi)
            counter += 1
            heapq.heappush(heap, (-e, counter, sub_lo, sub_hi, v, e))


def integrate(f, a, b, rel_tol=1e-10):
    """Adaptive integral of ``f`` over [a, b], converged when
    err <= max(_ABS_TOL, rel_tol * |value|)."""
    a, b = _check_args(a, b, rel_tol)
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    return QuadResult(*_adapt(_eval_panel, f, a, b, math.fsum,
                              lambda val: max(_ABS_TOL, rel_tol * abs(val))))


def _logsumexp(values):
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def integrate_log(log_f, a, b, rel_tol=1e-10):
    """log of the integral of exp(log_f) over [a, b].

    ``log_f`` may return -inf (log-zero); +inf or NaN is an evaluation
    error.  Convergence is judged on the linear value: the result is
    converged when err <= max(_ABS_TOL, rel_tol * value) would hold after
    exponentiating, checked without leaving log space.
    """
    a, b = _check_args(a, b, rel_tol)
    if a == b:
        return QuadResult(-math.inf, 0.0, 0, True)

    log_abs_tol, log_rel_tol = math.log(_ABS_TOL), math.log(rel_tol)
    log_total, log_err, panels, converged = _adapt(
        _eval_panel_log, log_f, a, b, _logsumexp,
        lambda log_val: max(log_abs_tol, log_rel_tol + log_val))
    return QuadResult(log_total, _rel_err_of_log(log_err, log_total), panels, converged)


def _rel_err_of_log(log_err, log_val):
    """Estimated absolute error of the log value (= relative linear error)."""
    if log_err == -math.inf:
        return 0.0
    if log_val == -math.inf:
        return math.inf
    d = log_err - log_val
    return math.exp(d) if d < 700.0 else math.inf
