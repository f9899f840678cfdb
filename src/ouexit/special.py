"""Incomplete-gamma machinery, evaluated stably over a huge dynamic range.

Everything is built around the lower incomplete gamma integral

    lig(a, x) = integral of t**(a-1) * exp(-t) over t in [0, x],

and its logarithm ln_lower_gamma, a public function that selftest checks
against its reference table (mfet_exact sums a positive series for
lam >= 0 and integrates no incomplete gamma).  At large shapes lig over-
or underflows doubles by thousands of orders of magnitude, so it is
represented by its logarithm, assembled directly from the series or
continued-fraction pieces (never as log(exp(...))).

Evaluation follows the classic split: power series for x < a + 1,
Lentz continued fraction for the complementary function otherwise.  Every
term of the series is positive, so it stops at the first term below _TOL
times the running sum, with no abs().

Every pair given to ln_lower_gamma goes through _check_args, which converts
it to floats or raises DomainError, so an int pair has the float pair's bits
and every rejection keeps its message.
"""

import math

from .errors import ConvergenceError, DomainError

# Iteration policy (gamma series, continued fraction): stop when the running
# term falls below _TOL relative to the sum, fail loudly after _max_iter(a)
# terms rather than return a silent partial sum.  Near x = a the series needs
# about 9.5 sqrt(a) terms, so the cap grows with sqrt(a).
_TOL = 1e-16
_MAX_ITER = 500

_TINY = 1e-300


def _check_args(a, x):
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise DomainError(f"shape parameter must be a positive finite real, got {a!r}")
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise DomainError(f"argument must be a nonnegative finite real, got {x!r}")
    return float(a), float(x)


def _max_iter(a):
    return _MAX_ITER + int(20.0 * math.sqrt(a))


def _series_log_sum(a, x):
    """log of S in the series representation lig(a, x) = x**a * exp(-x) * S.

    S = sum_{n>=0} x**n / (a * (a+1) * ... * (a+n)).  Converges for any
    x >= 0; used when x < a + 1 where it converges fast.  S stays within
    double range whenever the series branch is selected (and in a generous
    band above the branch point, which the consistency tests exercise).
    """
    term = 1.0 / a
    total = term
    ap = a
    tol = _TOL
    for _ in range(_max_iter(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * tol:  # every term is positive
            return math.log(total)
    raise ConvergenceError(
        f"lower-gamma series did not converge for a={a!r}, x={x!r}"
    )


def _contfrac_factor(a, x):
    """Continued-fraction factor h with Q(a, x) = exp(a*ln x - x - lnGamma(a)) * h.

    Modified Lentz evaluation of the classic continued fraction for the
    regularized upper function; reliable for x >= a + 1 (and somewhat below,
    which the branch-consistency tests exercise).
    """
    tiny, tol = _TINY, _TOL
    neg_tiny, neg_tol = -tiny, -tol  # negated once, not per comparison
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _max_iter(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if neg_tiny < d < tiny:
            d = tiny
        c = b + an / c
        if neg_tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if neg_tol < delta - 1.0 < tol:
            return h
    raise ConvergenceError(
        f"upper-gamma continued fraction did not converge for a={a!r}, x={x!r}"
    )


def _log_q_contfrac(a, x):
    """log of the regularized upper function Q(a, x), continued-fraction branch."""
    return a * math.log(x) - x - math.lgamma(a) + math.log(_contfrac_factor(a, x))


def ln_lower_gamma(a, x):
    """log of the (unregularized) lower incomplete gamma lig(a, x).

    Returns -inf for x = 0 (the empty integral) as a log-zero value; no
    intermediate quantity over- or underflows for shape parameters up to
    2**19 (checked against mpmath at 5e5), which direct evaluation of lig
    would not survive.
    """
    a, x = _check_args(a, x)
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:
        return a * math.log(x) - x + _series_log_sum(a, x)
    q = math.exp(_log_q_contfrac(a, x))
    return math.lgamma(a) + math.log1p(-q)


def exp_saturating(v):
    """exp(v), or inf where math.exp would overflow (exp(-inf) is 0.0 already)."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf
