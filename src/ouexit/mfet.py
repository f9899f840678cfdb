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
                                      * lig(d/2, lam z^2) dz,

through which the closed-form bounds below are derived.  For lam <= 0 the
inner integral is (z^d/d) M(d/2, d/2+1, -lam z^2) (DLMF 13.2.2, 8.5.1), a
Kummer series of positive terms, exactly z^d/d at lam = 0.

Kummer's transformation (DLMF 13.2.39) integrated term by term gives, with
y = lam L^2 and b = d/2 + 1,

    E tau = (L^2/(sigma^2 d)) * sum_{n>=0} y^n (1 - (x/L)^(2n+2)) / ((n+1) (b)_n).

For lam >= 0 every term is positive, so any one term is a lower bound on
E tau, and the sum needs no quadrature.  mfet_exact takes the largest term,
in O(1), and returns inf when its log, less a rounding slack, exceeds
709.78; otherwise it sums the series outward from that term.  Only lam < 0
integrates: one quadrature of the Kummer form, in log space, since the
linear integrand overflows doubles for d beyond a few hundred.
integrate_log raises QuadratureError when its panel budget runs out, so no
caller here checks.

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
from .errors import ConvergenceError, DomainError
from .quadrature import integrate_log

_MAX_EXP = 709.782712893384
# the positive series (_sum_from_peak): each side stops once its rest is
# below _SERIES_TOL of the running total, and fails past _MAX_TERMS terms
_SERIES_TOL = 1e-17
_MAX_TERMS = 2**22
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
        # an int past the largest double has no float value (OverflowError)
        if self.d > sys.float_info.max:
            raise DomainError(f"dimension d leaves the double range: a {self.d.bit_length()}-bit "
                              "integer")
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
        p = self.params
        # an L**2 that overflows makes E tau inf for theta >= 0, which
        # mfet_exact decides; for theta < 0 the Kummer sum needs it finite
        if self.L * self.L < _TINY or (self.L * self.L == math.inf and p.theta < 0):
            raise DomainError(f"L**2 leaves the double range at ball radius L={self.L!r}")
        # L**2 / (sigma**2 d) is the Brownian value, which bounds E tau (from
        # below for theta > 0, above for theta < 0); a subnormal one has too
        # few digits, and mfet_exact came out above its own upper_mixed
        if self.L * self.L / (p.sigma * p.sigma * p.d) < _TINY:
            raise DomainError(f"L**2 / (sigma**2 * d) leaves the double range at ball radius "
                              f"L={self.L!r}, sigma={p.sigma!r}, d={p.d!r}")
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
    """log f(z), the log of the lam < 0 outer integrand with constants folded in:

        ln z + lam z^2 + ln_kummer_sum(d/2, -lam z^2) - 2 ln sigma

    so that the integral of exp(log f) over [x, L] is the mean exit time
    itself (keeping the constant inside keeps the linear value of the
    quadrature at the scale the tolerances refer to).
    """
    lam = params.lam
    a = 0.5 * params.d
    log_s2 = 2.0 * math.log(params.sigma)

    def log_f(z):
        return math.log(z) + lam * z * z + special.ln_kummer_sum(a, -lam * z * z) - log_s2

    return log_f


def _ln_peak_term(problem):
    """(n, ln t_n, slack, ln g_n - ln g_0) for the largest term t_n of the lam >= 0 series.

    t_n = (L^2/(sigma^2 d)) y^n (1 - (x/L)^(2n+2)) / ((n+1) (b)_n), with
    y = lam L^2 and b = d/2 + 1 (module docstring).  Past the factor in x,
    t_(n+1)/t_n = y(n+1)/((n+2)(b+n)), so the terms rise while
    (n+2)(b+n) < y(n+1) and fall after the larger root of that quadratic:
    n is that root rounded up, or 0 if it has no positive root.  Any n
    gives a lower bound on E tau, so rounding in the root costs tightness,
    never rigour.  n stops at 2**52, where it is still an exact float, and
    is 0 for b past 2**52.

    With g_n = (L^2/(sigma^2 d)) y^n / ((n+1) (b)_n), so t_n = g_n times
    the factor in x, ln g_n - ln g_0 is formed without the cancellation of
    lgamma(b+n) - lgamma(b), from Binet's function (_binet):

        ln (b)_n - n ln y = (b - 1/2) log1p(n/b) + n log1p((b+n-y)/y) - n
                            + binet(b+n) - binet(b).

    _sum_from_peak scales its sum by it.  ln t_n is exact to within
    ``slack``, which scales with every log added up, not with their sum.
    A start factor that rounds to 0 (x next to L) gives ln t_n = -inf, no
    bound; y = inf (lam L^2 past the double range) gives ln t_n = inf.
    """
    p = problem.params
    big_l = problem.L
    y = p.lam * big_l * big_l
    if y == math.inf:
        return math.inf, math.inf, 0.0, math.inf
    b = 0.5 * p.d + 1.0
    n = 0.0
    # larger root of n^2 + (b+2-y) n + (2b-y) = 0; its discriminant
    # (y-b)^2 - 4(b-1) is taken as a product, which cannot overflow, and is
    # negative (no rise anywhere) unless y - b >= 2 sqrt(b-1), where the
    # root is above -1
    gap, w = y - b, 2.0 * math.sqrt(b - 1.0)
    if gap >= w and b < 2.0**52:
        root = 0.5 * (gap - 2.0) + 0.5 * math.sqrt(gap - w) * math.sqrt(gap + w)
        n = min(float(math.ceil(root)), 2.0**52)
    ln_c = 2.0 * math.log(big_l) - math.log(p.sigma * p.sigma * p.d)
    ln_rise, abs_logs = 0.0, abs(ln_c)
    if n:
        pochhammer = [(b - 0.5) * math.log1p(n / b), n * math.log1p((b + n - y) / y), -n,
                      _binet(b + n), -_binet(b)]
        ln_rise = -math.log(n + 1.0) - math.fsum(pochhammer)
        abs_logs += math.log(n + 1.0) + math.fsum(map(abs, pochhammer))
    slack = 1e-9 * (abs_logs + 1.0)
    # 1 - (x/L)^(2n+2) with ln(x/L) = log1p(r): x - L is exact where x/L
    # nears 1 (x >= L/2); the factor is 1 where x/L rounds to 0
    r = (problem.x - big_l) / big_l
    f = -math.expm1((2.0 * n + 2.0) * math.log1p(r)) if r > -1.0 else 1.0
    if not f > 0.0:
        return n, -math.inf, slack, ln_rise
    return n, ln_c + ln_rise + math.log(f), slack, ln_rise


def _binet(z):
    """Binet's function lgamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2.

    Its asymptotic series to the z**-13 term for z >= 10, where the next
    term is below 3e-17; lgamma directly below, where nothing above 22
    cancels.
    """
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    u = 1.0 / (z * z)
    return (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u * (
        1 / 1188 - u * (691 / 360360 - u / 156)))))) / z


def _sum_from_peak(problem, n0, ln_rise):
    """E tau for lam >= 0 as the positive series, summed outward from term n0.

    With g_n = (L^2/(sigma^2 d)) y^n / ((n+1) (b)_n), the terms are
    t_n = g_n f_n, f_n = 1 - (x/L)^(2n+2) (module docstring).  g_(n+1)/g_n
    = y(n+1)/((n+2)(b+n)) < y/(b+n) =: Q, and Q falls with n, so once
    Q < 1 every later term sums to at most g_n Q/(1-Q); each side stops
    where its rest is below _SERIES_TOL of the running total, the down side
    bounding its rest, from n down to 0, by n max(g_n, g_0).  f_n is
    -expm1((2n+2) ln(x/L)) with ln(x/L) = log1p((x-L)/L), exact in x - L
    for x >= L/2, and 1 where x/L rounds to 0.

    The sum is taken in units of g_n0 and stays linear wherever it reaches
    n = 0, whose g_0 = L^2/(sigma^2 d) then scales it: always for n0 = 0 (y
    below about b + 2 sqrt(b-1), most problems), so lam = 0 gives the
    Brownian value to rounding.  A log round trip would cost about
    |ln E tau| ulps.  Where g_0 is negligible the sum is scaled by ln g_n0
    = ln g_0 + ln_rise, with ln_rise = ln g_n0 - ln g_0 from _ln_peak_term.
    Either way E tau is as exact as y = lam L^2 itself: its condition
    number in y is the mean index of the terms, about n0.

    ConvergenceError past _MAX_TERMS terms a side, which only y near or past
    b with d past about 2**38 needs (about 9 sqrt(y) terms a side).
    """
    p = problem.params
    big_l = problem.L
    y = p.lam * big_l * big_l
    b = 0.5 * p.d + 1.0
    r = (problem.x - big_l) / big_l
    ln_s = math.log1p(r) if r > -1.0 else 0.0  # ln(x/L); 0 flags f_n = 1
    tol = _SERIES_TOL

    total = -math.expm1((2.0 * n0 + 2.0) * ln_s) if ln_s else 1.0
    terms = [total]
    g, n = 1.0, n0
    for _ in range(_MAX_TERMS):
        g *= y * (n + 1.0) / ((n + 2.0) * (b + n))
        n += 1.0
        t = g * -math.expm1((2.0 * n + 2.0) * ln_s) if ln_s else g
        terms.append(t)
        total += t
        if t < tol * total:
            q = y / (b + n)
            if g * q < (1.0 - q) * tol * total:
                break
    else:
        raise ConvergenceError(f"positive series did not converge within {_MAX_TERMS} terms "
                               f"for y={y!r}, b={b!r}")
    scale = 1.0  # g_0/g_n0 once the sum reaches n = 0
    if n0:
        g0 = math.exp(-ln_rise)
        g, n = 1.0, n0
        for _ in range(min(int(n0), _MAX_TERMS)):
            g *= (n + 1.0) * (b + n - 1.0) / (y * n)
            n -= 1.0
            t = g * -math.expm1((2.0 * n + 2.0) * ln_s) if ln_s else g
            terms.append(t)
            total += t
            if t < tol * total and n * max(g, g0) < tol * total:
                break
        else:
            if n > 0.0:
                raise ConvergenceError(f"positive series did not converge within {_MAX_TERMS} "
                                       f"terms for y={y!r}, b={b!r}")
        scale = g if n == 0.0 else 0.0
    total = math.fsum(terms)
    c = big_l * big_l / (p.sigma * p.sigma * p.d)
    if scale and c < math.inf:
        return c * (total / scale)
    ln_c = 2.0 * math.log(big_l) - math.log(p.sigma * p.sigma * p.d)
    return special.exp_saturating(math.fsum([ln_c, ln_rise, math.log(total)]))


def mfet_exact(problem):
    """Exact mean first-exit time: the positive series for lam >= 0, a quadrature below.

    Returns exactly 0 when the start radius sits on the boundary and inf
    once ln E tau exceeds 709.78.  For lam >= 0, E tau is the series of
    positive terms in the module docstring, summed outward from its
    largest term (_sum_from_peak), and the Brownian value to rounding at
    lam = 0; inf is decided first, in O(1), when that largest term, a lower
    bound on E tau, is already past 709.78 after its rounding slack.  For
    lam < 0 it is one log-space quadrature of the Kummer integrand, and
    QuadratureError (carrying the partial result) from integrate_log
    passes through if the panel budget is exhausted.
    """
    if problem.x == problem.L:
        return 0.0
    if problem.params.lam < 0:
        log_f = _outer_log_integrand(problem.params)
        return special.exp_saturating(integrate_log(log_f, problem.x, problem.L).value)
    n, ln_term, slack, ln_rise = _ln_peak_term(problem)
    if ln_term - slack > _MAX_EXP:
        return math.inf
    return _sum_from_peak(problem, n, ln_rise)


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

    Exponentials beyond double range come back as inf rather than raising;
    a divisor that overflows is divided out one factor at a time, so an
    upper bound never underflows to 0.
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

    scale = s2 * d * (d + 2.0)
    if scale < math.inf:
        upper_mixed = (2.0 / scale) * (diff_full / lam + 0.5 * d * (l2 - x2))
    else:  # 2 / scale would be 0, below E tau: divide by one factor at a time
        upper_mixed = (2.0 * diff_full / lam / (d + 2.0) + d / (d + 2.0) * (l2 - x2)) / (s2 * d)
    theta_d = p.theta * d
    upper_exp = diff_full / theta_d if theta_d < math.inf else diff_full / p.theta / d
    lower_exp = (1.0 + 2.0 / d) / (2.0 * lam * s2) * diff_inner
    return MfetBounds(
        upper_mixed=upper_mixed,
        upper_exp=upper_exp,
        lower_exp=lower_exp,
        lower_bm=mfet_bm(problem),
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
    the rounding of the four exit times below.

    The derivatives are assembled from four differences of u, with k = h/2:

        A1 = u(x-h) - u(x-k),  A2 = u(x-k) - u(x),
        B1 = u(x) - u(x+k),    B2 = u(x+k) - u(x+h),

        u''(x) ~ (15 (A2 - B1) + (B2 - A1)) / (12 k^2),
        u'(x)  ~ (A1 + B2 - 7 (A2 + B1)) / (12 k).

    By the strong Markov property u(x1) - u(x2), for x1 < x2, is the mean
    time to exit the ball of radius x2 from x1, so each difference is one
    mfet_exact call on a sub-ball: the probe checks the route mfet_exact
    takes (the positive series for lam >= 0, the quadrature below), and
    avoids the catastrophic cancellation of differencing nearly equal
    exit times.  A stencil that leaves the double range (an exit time, or a
    sum of them, past 1.8e308) is a DomainError.
    """
    if h is None:
        h = 1e-3 * problem.L
    if not (h > 0 and x_eval - h > 0 and x_eval + h < problem.L):
        raise DomainError(
            f"need 0 < x_eval-h and x_eval+h < L, got x_eval={x_eval!r}, h={h!r}"
        )
    p = problem.params
    k = 0.5 * h

    nodes = (x_eval - h, x_eval - k, x_eval, x_eval + k, x_eval + h)
    # a1, a2, b1, b2 as in the docstring; an inf among them makes d2u,
    # and so the residual, non-finite
    a1, a2, b1, b2 = (mfet_exact(ExitProblem(p, L=hi, x=lo)) for lo, hi in zip(nodes, nodes[1:]))

    d2u = (15.0 * (a2 - b1) + (b2 - a1)) / (12.0 * k * k)
    d1u = (a1 + b2 - 7.0 * (a2 + b1)) / (12.0 * k)
    coeff = 2.0 * p.lam * x_eval - (p.d - 1.0) / x_eval
    residual = d2u - coeff * d1u + 2.0 / (p.sigma * p.sigma)
    if not math.isfinite(residual):
        raise DomainError(f"the ODE residual at x_eval={x_eval!r} leaves the double range")
    return residual
