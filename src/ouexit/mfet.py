"""Mean first-exit time of a d-dimensional Ornstein-Uhlenbeck process from a ball.

The process dX = -theta*X dt + sigma*dB started on the sphere of radius x
exits the centered ball of radius L at a mean time that admits the exact
representation

    E tau = (2/sigma^2) * int_x^L z^(1-d) exp(lam z^2)
                          * [int_0^z t^(d-1) exp(-lam t^2) dt] dz,

with lam = theta/sigma^2, valid for every real lam.  For lam > 0 the inner
integral collapses to a lower incomplete gamma and the whole thing becomes a
single integral,

    E tau = (1/(lam^(d/2) sigma^2)) * int_x^L z^(1-d) exp(lam z^2)
                                      * lig(d/2, lam z^2) dz.

For lam <= 0 the inner integral is (z^d/d) M(d/2, d/2+1, -lam z^2) (DLMF
13.2.2, 8.5.1), a Kummer series of positive terms, exactly z^d/d at lam = 0.
Either way one quadrature gives E tau, in log space: the linear integrand
overflows doubles for d beyond a few hundred.  integrate_log raises
QuadratureError when its panel budget runs out, so no caller here checks.

Kummer's transformation (DLMF 13.2.39) integrated term by term gives, with
y = lam L^2 and b = d/2 + 1,

    E tau = (L^2/(sigma^2 d)) * sum_{n>=0} y^n (1 - (x/L)^(2n+2)) / ((n+1) (b)_n).

For lam > 0 every term is positive, so any one term is a lower bound on
E tau.  mfet_exact takes the largest, in O(1), and returns inf without
integrating when its log, less a rounding slack, exceeds 709.78: the
quadrature would end in inf there too (or fail on the way).

Also here: the Brownian-motion closed form (L^2-x^2)/(sigma^2 d), the
two-sided closed-form bounds obtained by pushing the Neuman inequalities
through the single-integral form (valid for theta > 0), the ratio to the
Brownian value (which tends to 1 as d grows, for any theta >= 0), the drift
ratio of the squared radial process against its Brownian counterpart, and a
finite-difference residual of the exit-time ODE

    u'' = [2 lam x - (d-1)/x] u' - 2/sigma^2,   u(L) = 0,

used as an independent correctness probe on the computed solution.
"""

import math
import sys
from dataclasses import dataclass

from . import special
from .errors import DomainError
from .quadrature import integrate_log

_MAX_EXP = 709.782712893384
_TINY = sys.float_info.min  # the smallest normal double; below it digits are lost


@dataclass(frozen=True)
class OupParams:
    """Process parameters: drift weight theta, diffusion weight sigma, dimension d."""

    theta: float
    sigma: float
    d: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise DomainError(f"dimension must be an integer >= 1, got {self.d!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be a positive finite real, got {self.sigma!r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta!r}")
        # a subnormal theta, sigma**2 or lam carries too few digits: lower_exp
        # turns nan or inf and mfet_exact drifts or fails to converge
        if 0.0 < abs(self.theta) < _TINY:
            raise DomainError(f"theta leaves the double range at theta={self.theta!r}")
        if not _TINY <= self.sigma * self.sigma < math.inf:
            raise DomainError(f"sigma**2 leaves the double range at sigma={self.sigma!r}")
        # sigma**2 * d is the Brownian rate of |X|^2: mfet_bm's divisor, the
        # squared-radial drift and the drift ratio's numerator
        if not self.sigma * self.sigma * self.d < math.inf:
            raise DomainError(f"sigma**2 * d leaves the double range at sigma={self.sigma!r}, "
                              f"d={self.d!r}")
        # lam shares theta's sign, so both name the same regime, and is normal
        lam = self.lam
        if not (math.isfinite(lam) and (lam == 0.0 if self.theta == 0.0 else abs(lam) >= _TINY)):
            raise DomainError(f"theta/sigma**2 = {lam!r} leaves the double range at "
                              f"theta={self.theta!r}, sigma={self.sigma!r}")

    @property
    def lam(self):
        """Mean-reversion per unit squared length: theta / sigma**2 (recomputed, never stored)."""
        return self.theta / (self.sigma * self.sigma)


@dataclass(frozen=True)
class ExitProblem:
    """An OUP together with the ball radius L and the start radius x."""

    params: OupParams
    L: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise DomainError(f"ball radius must be a positive finite real, got {self.L!r}")
        if self.L * self.L < _TINY:
            raise DomainError(f"L**2 leaves the double range at ball radius L={self.L!r}")
        if not (math.isfinite(self.x) and 0 <= self.x <= self.L):
            raise DomainError(f"start radius must lie in [0, L], got {self.x!r}")


@dataclass(frozen=True)
class MfetBounds:
    """The four closed-form bounds, ordered lower_bm <= lower_exp <= E tau <= upper_mixed <= upper_exp."""

    upper_mixed: float
    upper_exp: float
    lower_exp: float
    lower_bm: float


def _exp_diff(lo, hi):
    """exp(hi) - exp(lo) for hi >= lo, cancellation-safe; inf on overflow."""
    if hi > _MAX_EXP:
        return math.inf
    return math.exp(lo) * math.expm1(hi - lo)


def _outer_log_integrand(params):
    """log f(z), the log of the outer integrand with constants folded in:

        lam > 0:  (1-d) ln z + lam z^2 + ln lig(d/2, lam z^2) - (d/2) ln lam - 2 ln sigma
        lam <= 0: ln z + lam z^2 + ln_kummer_sum(d/2, -lam z^2) - 2 ln sigma

    so that the integral of exp(log f) over [x, L] is the mean exit time
    itself (keeping the constant inside keeps the linear value of the
    quadrature at the scale the tolerances refer to).
    """
    lam = params.lam
    d = params.d
    a = 0.5 * d
    log_s2 = 2.0 * math.log(params.sigma)
    if lam <= 0:
        def log_f(z):
            return math.log(z) + lam * z * z + special.ln_kummer_sum(a, -lam * z * z) - log_s2

        return log_f
    log_c = -a * math.log(lam) - log_s2

    def log_f(z):
        u = lam * z * z
        return (1.0 - d) * math.log(z) + u + special.ln_lower_gamma(a, u) + log_c

    return log_f


def _ln_peak_term(problem):
    """(n, ln t_n, slack) for the largest term t_n of the lam > 0 series.

    t_n = (L^2/(sigma^2 d)) y^n (1 - (x/L)^(2n+2)) / ((n+1) (b)_n), with
    y = lam L^2 and b = d/2 + 1 (module docstring).  Past the factor in x,
    t_(n+1)/t_n = y(n+1)/((n+2)(b+n)), so the terms rise while
    (n+2)(b+n) < y(n+1) and fall after the larger root of that quadratic:
    n is that root rounded up, or 0 if it has no positive root.  Any n
    gives a lower bound on E tau, so rounding in the root costs tightness,
    never rigour.  n stops at 2**52, where it is still an exact float, and
    is 0 for b past 2**52.

    ln t_n is exact to within ``slack``: lgamma is not correctly rounded
    and ln (b)_n = lgamma(b+n) - lgamma(b) cancels, so the slack scales
    with every log added up, not with their sum.  A start factor that
    rounds to 0 (x next to L) gives ln t_n = -inf, no bound; y = inf
    (lam L^2 past the double range) gives ln t_n = inf.
    """
    p = problem.params
    big_l = problem.L
    y = p.lam * big_l * big_l
    if y == math.inf:
        return math.inf, math.inf, 0.0
    b = 0.5 * p.d + 1.0
    n = 0.0
    # larger root of n^2 + (b+2-y) n + (2b-y) = 0; its discriminant
    # (y-b)^2 - 4(b-1) is taken as a product, which cannot overflow, and is
    # negative (no rise anywhere) unless y - b >= 2 sqrt(b-1), where the
    # root is above -1
    gap, w = y - b, 2.0 * math.sqrt(b - 1.0)
    if gap >= w and b < 2.0**52:  # so lgamma(b + n) stays far from overflow
        root = 0.5 * (gap - 2.0) + 0.5 * math.sqrt(gap - w) * math.sqrt(gap + w)
        n = min(float(math.ceil(root)), 2.0**52)
    ln_c = 2.0 * math.log(big_l) - math.log(p.sigma * p.sigma * p.d)
    parts = [ln_c, -math.log(n + 1.0)]
    if n:
        parts += [n * math.log(y), -math.lgamma(b + n), math.lgamma(b)]
    slack = 1e-9 * (math.fsum(map(abs, parts)) + 1.0)
    # 1 - (x/L)^(2n+2) with ln(x/L) = log1p(r): x - L is exact where x/L
    # nears 1 (x >= L/2); the factor is 1 where x/L rounds to 0
    r = (problem.x - big_l) / big_l
    f = -math.expm1((2.0 * n + 2.0) * math.log1p(r)) if r > -1.0 else 1.0
    if not f > 0.0:
        return n, -math.inf, slack
    return n, math.fsum(parts) + math.log(f), slack


def mfet_exact(problem):
    """Exact mean first-exit time, by adaptive quadrature of the closed form.

    One quadrature for every lam (exact at lam = 0).  Returns exactly 0 when
    the start radius sits on the boundary and inf once ln E tau exceeds
    709.78.  For lam > 0, inf is decided before integrating when the
    largest term of the positive series (module docstring), a lower bound
    on E tau, is already past 709.78 after its rounding slack; only
    problems inside that slack reach the quadrature and overflow there.
    QuadratureError (carrying the partial result) from integrate_log
    passes through if the panel budget is exhausted.
    """
    if problem.x == problem.L:
        return 0.0
    if problem.params.lam > 0:
        _, ln_term, slack = _ln_peak_term(problem)
        if ln_term - slack > _MAX_EXP:
            return math.inf
    log_f = _outer_log_integrand(problem.params)
    return special.exp_saturating(integrate_log(log_f, problem.x, problem.L).value)


def mfet_bm(problem):
    """Brownian-motion mean exit time (L^2 - x^2) / (sigma^2 d); theta is ignored."""
    p = problem.params
    return (problem.L * problem.L - problem.x * problem.x) / (p.sigma * p.sigma * p.d)


def mfet_bounds(problem):
    """Closed-form two-sided bounds on the mean exit time, for theta > 0.

    upper_mixed = 2/(sigma^2 d (d+2)) * ( (exp(lam L^2) - exp(lam x^2))/lam
                                          + (d/2)(L^2 - x^2) )
    upper_exp   = (exp(lam L^2) - exp(lam x^2)) / (theta d)
    lower_exp   = (1 + 2/d)/(2 lam sigma^2)
                  * (exp(2 lam L^2/(d+2)) - exp(2 lam x^2/(d+2)))
    lower_bm    = (L^2 - x^2) / (sigma^2 d)

    Exponentials beyond double range come back as inf rather than raising.
    """
    p = problem.params
    lam = p.lam
    if lam <= 0:
        raise DomainError("bounds require theta > 0 (positively recurrent regime)")
    d = p.d
    s2 = p.sigma * p.sigma
    l2 = problem.L * problem.L
    x2 = problem.x * problem.x

    diff_full = _exp_diff(lam * x2, lam * l2)
    g = 2.0 * lam / (d + 2.0)
    diff_inner = _exp_diff(g * x2, g * l2)

    upper_mixed = (2.0 / (s2 * d * (d + 2.0))) * (diff_full / lam + 0.5 * d * (l2 - x2))
    upper_exp = diff_full / (p.theta * d)
    lower_exp = (1.0 + 2.0 / d) / (2.0 * lam * s2) * diff_inner
    lower_bm = (l2 - x2) / (s2 * d)
    return MfetBounds(
        upper_mixed=upper_mixed,
        upper_exp=upper_exp,
        lower_exp=lower_exp,
        lower_bm=lower_bm,
    )


def asymptotic_ratio(problem):
    """Mean exit time relative to the Brownian closed form; tends to 1 as d grows."""
    if problem.x == problem.L:
        raise DomainError("ratio is 0/0 when starting on the boundary")
    return mfet_exact(problem) / mfet_bm(problem)


def drift_ratio(params, rho):
    """Drift of the squared radial OUP over the squared-Bessel drift at radius rho.

    (sigma^2 d - 2 theta rho^2) / (sigma^2 d); identically 1 for theta = 0,
    and increases toward 1 as d grows for fixed rho.  A ratio that leaves
    the double range is a DomainError.
    """
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho >= 0):
        raise DomainError(f"rho must be a nonnegative finite real, got {rho!r}")
    s2d = params.sigma * params.sigma * params.d
    ratio = (s2d - 2.0 * params.theta * rho * rho) / s2d
    if not math.isfinite(ratio):
        raise DomainError(f"the drift ratio at rho={rho!r} leaves the double range")
    return ratio


def avp_residual(problem, x_eval, h=None):
    """Finite-difference residual of the exit-time ODE at an interior radius.

    With u the mean exit time as a function of the start radius, returns

        u''(x) - [2 lam x - (d-1)/x] u'(x) + 2/sigma^2

    at x = x_eval, with u', u'' by the fourth-order central differences on
    the five nodes x, x +- h/2, x +- h (h defaults to 1e-3 * L).  Near 0 for
    the true solution; the leftover is the O(h^4) stencil truncation plus
    the quadrature and rounding noise floor.

    The derivatives are assembled from four short integrals of the outer
    integrand, with k = h/2:

        A1 = u(x-h) - u(x-k),  A2 = u(x-k) - u(x),
        B1 = u(x) - u(x+k),    B2 = u(x+k) - u(x+h),

        u''(x) ~ (15 (A2 - B1) + (B2 - A1)) / (12 k^2),
        u'(x)  ~ (A1 + B2 - 7 (A2 + B1)) / (12 k).

    This is algebraically the same five-point stencil on u but avoids the
    catastrophic cancellation of differencing nearly equal quadrature
    results.  A stencil that leaves the double range (an integral, or a
    sum of them, past 1.8e308) is a DomainError.
    """
    if h is None:
        h = 1e-3 * problem.L
    if not (h > 0 and x_eval - h > 0 and x_eval + h < problem.L):
        raise DomainError(
            f"need 0 < x_eval-h and x_eval+h < L, got x_eval={x_eval!r}, h={h!r}"
        )
    p = problem.params
    log_f = _outer_log_integrand(p)
    k = 0.5 * h

    nodes = (x_eval - h, x_eval - k, x_eval, x_eval + k, x_eval + h)
    # a1, a2, b1, b2 as in the docstring; an inf among them makes d2u,
    # and so the residual, non-finite
    a1, a2, b1, b2 = (special.exp_saturating(integrate_log(log_f, lo, hi).value)
                      for lo, hi in zip(nodes, nodes[1:]))

    d2u = (15.0 * (a2 - b1) + (b2 - a1)) / (12.0 * k * k)
    d1u = (a1 + b2 - 7.0 * (a2 + b1)) / (12.0 * k)
    coeff = 2.0 * p.lam * x_eval - (p.d - 1.0) / x_eval
    residual = d2u - coeff * d1u + 2.0 / (p.sigma * p.sigma)
    if not math.isfinite(residual):
        raise DomainError(f"the ODE residual at x_eval={x_eval!r} leaves the double range")
    return residual
