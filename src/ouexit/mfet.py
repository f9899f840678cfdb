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

through which the closed-form bounds below are derived.

Kummer's transformation (DLMF 13.2.39) integrated term by term gives, with
y = lam L^2 and b = d/2 + 1,

    E tau = (L^2/(sigma^2 d)) * sum_{n>=0} y^n (1 - (x/L)^(2n+2)) / ((n+1) (b)_n).

For lam >= 0 every term is positive, so any one term is a lower bound on
E tau, and the sum needs no quadrature.  mfet_exact takes the largest term,
in O(1), and returns inf when its log, less a rounding slack, exceeds
709.78; otherwise it sums the series outward from that term.

For lam < 0 (mu = -lam, a = d/2) the inner integral is (z^d/d) M(a, a+1,
mu z^2) (DLMF 13.2.2, 8.5.1).  With M(a, a+1, w) = a int_0^1 t^(a-1) e^(w t) dt
(DLMF 13.4.1) and the two integrals swapped, s = 1 - t, A = mu x^2 and
D = mu (L^2 - x^2):

    E tau = (1/(2 sigma^2 mu)) int_0^1 t^(a-1) e^(-A s) (1 - e^(-D s)) / s dt,

one integral of a bounded elementary function.  With e^(-A s) (1 - e^(-D s))/s
= int_A^(A+D) e^(-w s) dw and int_0^1 t^(a-1) e^(-w (1-t)) dt = E[1/(a + N_w)],
N_w ~ Poisson(w), each Poisson weight integrated over w gives

    2 sigma^2 mu E tau = sum_{n>=0} [P(N_A <= n) - P(N_(A+D) <= n)] / (a + n),

every term positive.  Over D the brackets sum to (E N_(A+D) - E N_A)/D = 1,
so E tau is the Brownian value times a mean of a/(a + n).  mfet_exact sums
it (_transient_series) where mu L^2 <= _SERIES_MAX_Y (150), and takes the
t-integral in log space (_transient_log_integrand) past it, to past the
double range, where the series would need about mu L^2 terms.  integrate_log
raises QuadratureError when its panel budget runs out, so no caller checks.

Also here: the Brownian-motion closed form (L^2-x^2)/(sigma^2 d), the
two-sided closed-form bounds obtained by pushing the Neuman inequalities
through the single-integral form (valid for theta > 0), each the Brownian
value times one factor, the ratio to the Brownian value (which tends to 1 as
d grows, for any theta >= 0), the drift ratio of the squared radial process
against its Brownian counterpart, and a finite-difference residual of the
exit-time ODE

    u'' = [2 lam x - (d-1)/x] u' - 2/sigma^2,   u(L) = 0,

used as an independent correctness probe on the computed solution.
"""

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul, sub, truediv

from .errors import ConvergenceError, DomainError
from .quadrature import integrate_log

_MAX_EXP = 709.782712893384
# the positive series (_sum_from_peak): each side stops once its rest is
# below _SERIES_TOL of the running total, and fails past _MAX_TERMS terms
_SERIES_TOL = 1e-17
_MAX_TERMS = 2**22
_TINY = sys.float_info.min  # the smallest normal double; below it digits are lost
# lam < 0 takes the Poisson series (_transient_series) where mu L^2 is at most
# _SERIES_MAX_Y, a switch on the input alone: its weights stay normal, and its
# mu L^2 + 10 sqrt(mu L^2) + 10 terms cost less than the quadrature's panels
# (150 problems a point, d, sigma and x as in the benchmark: 111 against 181 us
# at mu L^2 = 100, 147 against 189 at 150, 185 against 191 at 200, 216 against 189 at 250)
_SERIES_MAX_Y = 150.0
# the lam < 0 integral's substitution, knee and cut (_transient_log_integrand)
_K = 6.0
_KNEE = 3.0
_CUT = 40.0


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
        # an L**2 past the double range is admitted for theta >= 0, where
        # mfet_bm and the series' scale L**2/(sigma**2 d) are formed without
        # it; refused for theta < 0, where mfet_bm, E tau's upper bound, can be inf
        if self.L * self.L < _TINY or (self.L * self.L == math.inf and p.theta < 0):
            raise DomainError(f"L**2 leaves the double range at ball radius L={self.L!r}")
        if not (math.isfinite(self.x) and 0 <= self.x <= self.L):
            raise DomainError(f"start radius must lie in [0, L], got {self.x!r}")
        # the Brownian value mfet_bm bounds E tau (from below for theta > 0,
        # above for theta < 0); a subnormal one has too few digits, and
        # mfet_exact came out above its own upper_mixed
        if self.x < self.L and mfet_bm(self) < _TINY:
            name = "(L**2 - x**2)" if self.x else "L**2"
            raise DomainError(f"{name} / (sigma**2 * d) leaves the double range at ball radius "
                              f"L={self.L!r}, x={self.x!r}, sigma={p.sigma!r}, d={p.d!r}")


@dataclass(frozen=True)
class MfetBounds:
    """The four closed-form bounds, ordered lower_bm <= lower_exp <= E tau <= upper_mixed <= upper_exp."""

    upper_mixed: float
    upper_exp: float
    lower_exp: float
    lower_bm: float


def _softplus(z):
    """ln(1 + e^z) for every z, -inf and past the double range of e^z included."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _exp_saturating(v):
    """exp(v), or inf where math.exp would overflow (exp(-inf) is 0.0 already)."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _transient_log_integrand(problem):
    """(log f, X, ln scale): E tau = exp(ln scale) * int_0^X exp(log f(xi)) dxi, for lam < 0.

    The t-integral of the module docstring in w = 1 - t^(a/_K), a polynomial
    t^(a-1) dt = k (1-w)^(_K-1) dw with k = _K/a, then in xi with w = w0
    (e^xi - 1): linear below the knee s0 = k w0 = _KNEE/(mu L^2) (w0 <= e^30),
    logarithmic over the up to ln(mu L^2) e-folds of s above it, and cut
    where w = 1 or A s = _CUT (e^-_CUT = 4e-18).  Sizes scaled by mu are
    logs relative to mu L^2, so nothing overflows.  f is divided by Jensen's
    lower bound J = ln((a + mu L^2)/(a + mu x^2)) on the t-integral, so its
    integral is at least 1; integrate_log's relative tolerance alone decides.
    The scale J/(2 sigma^2 mu) takes sigma^2 mu from sigma and lam, as
    _transient_series does, in log space as -theta times (1 + O(ulp)).
    """
    p = problem.params
    big_l, x = problem.L, problem.x
    a = 0.5 * p.d
    k = _K / a
    # ln(a/(mu L^2)), ln(A/(mu L^2)) and ln(D/(mu L^2)), with L - x exact near L;
    # an x/L that rounds to 0 leaves A s below 1e-30, as x = 0 does
    ln_a = math.log(a) - math.log(-p.lam) - 2.0 * math.log(big_l)
    ln_big_a = 2.0 * math.log(x / big_l) if x / big_l > 0.0 else -math.inf
    ln_d = math.log((big_l - x) / big_l) + math.log1p(x / big_l)
    r = ln_d - max(ln_a, ln_big_a) - math.log1p(math.exp(-abs(ln_a - ln_big_a)))  # ln(D/(a+A))
    ln_j = r if r < -40.0 else math.log(_softplus(r))  # ln log1p(e^r), to 2e-18
    ln_w0 = min(math.log(_KNEE / _K) + ln_a, 30.0)
    ln_s0 = math.log(_K) + ln_w0 - ln_a  # ln(s0 mu L^2)
    alpha, delta = ln_s0 + ln_big_a, ln_s0 + ln_d  # ln(A s0), ln(D s0)
    # s >= min(k, 1) w, so w = w0 (e^X - 1) reaches 1, or A s = _CUT
    upper = _softplus(min(-ln_w0, math.log(_CUT) - alpha + max(math.log(k), 0.0)))
    log, exp, expm1, log1p = math.log, math.exp, math.expm1, math.log1p

    def log_f(xi):
        e1 = -expm1(-xi)
        w = exp(max(ln_w0 + xi, -40.0)) * e1  # below e^-40, g/w and s/(k g) are 1
        g = -log1p(-w)
        u = max(k * g, 1e-300)  # no 0/0 where k g underflows, at d near the double range
        q = log(e1 * -expm1(-u) / u * g / w)  # ln(s/s0) - xi
        if alpha + xi + q > 709.0:  # e^(-A s) < e^(-8e307)
            return -math.inf
        ds = delta + xi + q  # ln(D s): ln(1 - e^(-D s)) is ds below -40, 0.0 above 4
        ln_rise = ds if ds < -40.0 else (0.0 if ds > 4.0 else log(-expm1(-exp(ds))))
        return ln_rise - q - (_K - 1.0) * g - exp(alpha + xi + q) - ln_j

    return log_f, upper, ln_j - log(2.0) - log(-p.theta) - log(p.sigma * p.sigma / p.theta * p.lam)


def _poisson_weights(w, n, unit):
    """[e^-w w^k / k! * unit / w for k in 1..n], for 0 <= w < 709 and n >= w.

    unit = w/D gives them in units of D, normal where D or w underflows.
    Each step multiplies by w/(k+1) upward or k/w downward: below w = 10 up
    from e^-w unit, fewer than 10 steps to the mode; from w = 10 on outward
    from the mode m = floor(w), whose weight is formed in Stirling's form
    with Binet's function, each term O(1), so it is exact to a few ulps.
    """
    if w < 10.0:
        return list(accumulate(map(truediv, repeat(w), range(2, n + 1)), mul,
                               initial=math.exp(-w) * unit))
    m = int(w)
    top = math.exp((m + 1.0 - w) + m * math.log1p((w - m - 1.0) / (m + 1.0))
                   - 0.5 * math.log(2.0 * math.pi * (m + 1.0)) - _binet(m + 1.0)) * (unit / w)
    out = list(accumulate(map(truediv, range(m, 1, -1), repeat(w)), mul, initial=top))[::-1]
    out[m - 1:] = accumulate(map(truediv, repeat(w), range(m + 1, n + 1)), mul, initial=top)
    return out


def _transient_series(problem):
    """E tau for lam < 0 as mfet_bm times a mean of a/(a + n) (module docstring).

    With a = d/2, y = mu L^2, A = mu x^2, D = y - A, p_k(w) = e^-w w^k/k!
    and N_w ~ Poisson(w), pi_n = (P(N_A <= n) - P(N_y <= n))/D > 0 sums to
    (E N_y - E N_A)/D = 1, and E tau = mfet_bm sum_n pi_n a/(a + n): at
    most mfet_bm, and at least mfet_bm a/(a + y) by Jensen (the pi-mean of
    n is (y + A)/2).  The weights are in units of D, from y/D and A/D (below
    about 2^53) and never from D, so they stay normal for any theta, d and y.

    pi_n is a partial sum of delta_k = (p_k(A) - p_k(y))/D, forward from
    k = 0 below the crossing k* = D/(-l), l = ln(A/y), where every
    delta_k > 0, and backward from the last term above it, where every
    delta_k < 0, so no sum cancels.  delta_k is the difference of the two
    weights (p_k(A) = 0 at x = 0) where they lie a factor e apart or more,
    and p_k(y)/D expm1(D + k l), whose argument errs by about an ulp of D,
    where closer.  The mean is the sum of each pi_n over (a + n)/a >= 1,
    over the sum of the same pi_n: common errors cancel, and it is <= 1.

    The sums stop at the first n from y + 10 sqrt(y) + 10 on with
    p_n(y) (n+1) (a+y)/a <= _SERIES_TOL (1 - y/(n+1)).  Past n >= y every
    pi_n <= p_n(y), and the p_n(y) fall at least geometrically, by y/(n+1),
    so the terms dropped, and the rest missing from the backward sums, come
    to at most _SERIES_TOL a/(a+y) in each, below _SERIES_TOL of the mean.
    """
    p = problem.params
    big_l, x, d = problem.L, problem.x, p.d
    y = -p.lam * big_l * big_l
    # l = 2 ln(x/L), with L - x exact near L as in _ln_peak_term; -inf at x = 0
    r = x / big_l
    l = 2.0 * (math.log1p((x - big_l) / big_l) if r >= 0.5 else math.log(r)) if r else -math.inf
    ratio, rise = math.exp(l), -math.expm1(l)  # A/y and D/y
    big_a, big_d = y * ratio, y * rise
    n = int(y + 10.0 * math.sqrt(y)) + 10  # at or near the stop below
    weights = _poisson_weights(y, n, 1.0 / rise)  # p_k(y)/D for k >= 1
    scale = (d + 2.0 * y) / d  # (a + y)/a
    while weights[-1] * big_d * (n + 1.0) * scale > _SERIES_TOL * (1.0 - y / (n + 1.0)):
        n += 1
        weights.append(weights[-1] * y / n)
    if big_d < 1.0:  # delta_0, 1 where D underflows
        first = math.exp(-y) * (math.expm1(big_d) / big_d) if big_d else 1.0
    else:
        first = (math.exp(-big_a) - math.exp(-y)) / big_d
    delta = [first, *map(sub, _poisson_weights(big_a, n, ratio / rise) if r else repeat(0.0),
                         weights)]
    # the k >= 1 with |D + k l| < 1
    lo, hi = max(1, math.ceil((big_d - 1.0) / -l)), int(min(n, (big_d + 1.0) / -l)) + 1
    delta[lo:hi] = [w * math.expm1(big_d + k * l)
                    for k, w in zip(range(lo, hi), weights[lo - 1:hi - 1])]
    s = int(min(n - 1, big_d / -l)) + 1  # delta_k > 0 for k < s, < 0 above
    # pi_0..pi_(s-1) forward and -pi_s..-pi_(n-1) backward, over (a + n)/a = (d + 2n)/d;
    # the backward sums reversed, largest first, where fsum runs about 3 times faster
    lows, highs = list(accumulate(delta[:s])), list(accumulate(delta[:s:-1]))[::-1]
    low = math.fsum(map(truediv, lows, map(truediv, range(d, d + 2 * s, 2), repeat(d))))
    high = math.fsum(map(truediv, highs, map(truediv, range(d + 2 * s, d + 2 * n, 2), repeat(d))))
    return mfet_bm(problem) * ((low - high) / (math.fsum(lows) - math.fsum(highs)))


def _ln_peak_term(problem):
    """(ln t_n, slack, scales) for the largest term t_n of the lam >= 0 series.

    t_n = c y^n f_n / ((n+1) (b)_n), with c = L^2/(sigma^2 d), y = lam L^2,
    b = d/2 + 1 and f_n = 1 - (x/L)^(2n+2) (module docstring).  Past f_n,
    t_(n+1)/t_n = y(n+1)/((n+2)(b+n)), so the terms rise while
    (n+2)(b+n) < y(n+1) and fall after the larger root of that quadratic:
    n is that root rounded up, or 0 if it has no positive root.  Any n
    gives a lower bound on E tau, so rounding in the root costs tightness,
    never rigour.  n stops at 2**52, where it is still an exact float.

    With g_n = c y^n / ((n+1) (b)_n), so t_n = g_n f_n, ln_rise =
    ln g_n - ln g_0 is formed without the cancellation of
    lgamma(b+n) - lgamma(b), from Binet's function (_binet):

        ln (b)_n - n ln y = (b - 1/2) log1p(n/b) + n log1p((b+n-y)/y) - n
                            + binet(b+n) - binet(b).

    ln t_n is exact to within ``slack``, which scales with every log added
    up, not with their sum.  scales = (n, ln_rise, y, b, ln(x/L), f_n, c,
    ln c) are _sum_from_peak's arguments; y = inf (lam L^2 past the double
    range) gives ln t_n = inf and no scales.
    """
    p = problem.params
    big_l = problem.L
    y = p.lam * big_l * big_l
    if y == math.inf:
        return math.inf, 0.0, None
    b = 0.5 * p.d + 1.0
    n = 0.0
    # larger root of n^2 + (b+2-y) n + (2b-y) = 0; its discriminant
    # (y-b)^2 - 4(b-1) is taken as a product, which cannot overflow, and is
    # negative (no rise anywhere) unless y - b >= 2 sqrt(b-1), where the
    # root is above -1
    gap, w = y - b, 2.0 * math.sqrt(b - 1.0)
    if gap >= w:
        root = 0.5 * (gap - 2.0) + 0.5 * math.sqrt(gap - w) * math.sqrt(gap + w)
        n = min(float(math.ceil(root)), 2.0**52)
    s2d = p.sigma * p.sigma * p.d
    ln_c = 2.0 * math.log(big_l) - math.log(s2d)
    ln_rise, abs_logs = 0.0, abs(ln_c)
    if n:
        # where n stops at 2**52, (b+n-y)/y can round to -1: log((b+n)/y) there
        ln_q = math.log1p((b + n - y) / y) if b + n > 0.5 * y else math.log((b + n) / y)
        pochhammer = [(b - 0.5) * math.log1p(n / b), n * ln_q, -n, _binet(b + n), -_binet(b)]
        ln_rise = -math.log(n + 1.0) - math.fsum(pochhammer)
        abs_logs += math.log(n + 1.0) + math.fsum(map(abs, pochhammer))
    slack = 1e-9 * (abs_logs + 1.0)
    # ln(x/L) = log1p((x-L)/L), with x - L exact where x/L nears 1 (x >= L/2);
    # 0 flags an x/L that rounds to 0, where every f_n is 1.  x < L, so f_n > 0
    r = (problem.x - big_l) / big_l
    ln_s = math.log1p(r) if r > -1.0 else 0.0
    f = -math.expm1((2.0 * n + 2.0) * ln_s) if ln_s else 1.0
    # mfet_bm at x = 0: L (L/(sigma^2 d)) only where L^2 overflows
    c = big_l * big_l / s2d if big_l * big_l < math.inf else big_l * (big_l / s2d)
    return ln_c + ln_rise + math.log(f), slack, (n, ln_rise, y, b, ln_s, f, c, ln_c)


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


def _sum_from_peak(n0, ln_rise, y, b, ln_s, f0, c, ln_c):
    """E tau for lam >= 0 as the positive series, summed outward from term n0.

    Takes _ln_peak_term's scales.  g_(n+1)/g_n = y(n+1)/((n+2)(b+n))
    < y/(b+n) =: Q, and Q falls with n, so once Q < 1 every later term sums
    to at most g_n Q/(1-Q); each side stops where its rest is below
    _SERIES_TOL of the running total, the down side bounding its rest, from
    n down to 0, by n max(g_n, g_0).

    The sum is taken in units of g_n0 and stays linear wherever it reaches
    n = 0, whose g_0 = c then scales it: always for n0 = 0 (y below about
    b + 2 sqrt(b-1), most problems), so lam = 0 gives the Brownian value to
    rounding.  A log round trip would cost about |ln E tau| ulps.  Where
    g_0 is negligible, or c overflows, the sum is scaled by ln g_n0 =
    ln c + ln_rise.  Either way E tau is as exact as y = lam L^2 itself:
    its condition number in y is the mean index of the terms, about n0.

    ConvergenceError past _MAX_TERMS terms a side, which only y near or past
    b with d past about 2**38 needs (about 9 sqrt(y) terms a side).
    """
    tol, total, terms = _SERIES_TOL, f0, [f0]
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
    if scale and c < math.inf:
        return c * (total / scale)
    return _exp_saturating(math.fsum([ln_c, ln_rise, math.log(total)]))


def mfet_exact(problem):
    """Exact mean first-exit time: a positive series, or a quadrature (module docstring).

    Exactly 0 when the start radius sits on the boundary, and inf once
    ln E tau exceeds 709.78 (module docstring).
    """
    if problem.x == problem.L:
        return 0.0
    lam = problem.params.lam
    if lam < 0:
        if -lam * problem.L * problem.L <= _SERIES_MAX_Y:
            return _transient_series(problem)
        log_f, upper, ln_scale = _transient_log_integrand(problem)
        return _exp_saturating(integrate_log(log_f, 0.0, upper).value + ln_scale)
    ln_term, slack, scales = _ln_peak_term(problem)
    if ln_term - slack > _MAX_EXP:
        return math.inf
    return _sum_from_peak(*scales)


def mfet_bm(problem):
    """Brownian-motion mean exit time D/(sigma^2 d), D = (L - x)(L + x); theta is ignored.

    (L - x)((L + x)/(sigma^2 d)) only where D overflows, so no other bit moves.
    """
    p = problem.params
    big_l, x, s2d = problem.L, problem.x, p.sigma * p.sigma * p.d
    big_d = (big_l - x) * (big_l + x)
    return big_d / s2d if big_d < math.inf else (big_l - x) * ((big_l + x) / s2d)


def _mean_exp(problem, r):
    """(a, m) with e^a m = phi(r) = e^(r x^2) expm1(r D)/(r D), D = (L - x)(L + x).

    phi(r) is the mean of e^(r u) on [x^2, L^2]: 1 at r D = 0 and inf past
    the double range.  Past r D = 709.78, where expm1 overflows and
    -expm1(-r D) rounds to 1, a = r x^2 + r D - ln(r D) and m = 1.  (r x) x
    and (r (L - x)) (L + x) only where x^2 or D overflows, where an r that
    underflowed to 0 gives 0 inf = nan.
    """
    big_l, x = problem.L, problem.x
    x2, big_d = x * x, (big_l - x) * (big_l + x)
    rx2 = r * x2 if x2 < math.inf else r * x * x
    rd = r * big_d if big_d < math.inf else r * (big_l - x) * (big_l + x)
    if rd > _MAX_EXP:
        return (rx2 + rd - math.log(rd) if rd < math.inf else math.inf), 1.0
    return rx2, (math.expm1(rd) / rd if rd else 1.0)


def mfet_bounds(problem):
    """Closed-form two-sided bounds on the mean exit time, for theta > 0.

    Each is the Brownian value lower_bm = mfet_bm = D/(sigma^2 d), D = L^2 - x^2,
    times one factor: with w = 2/(d+2) and phi(r) the mean of e^(r u) over
    u uniform on [x^2, L^2] (_mean_exp), the paper's

        upper_exp   = (e^(lam L^2) - e^(lam x^2)) / (theta d)        = lower_bm phi(lam)
        upper_mixed = (d lower_bm + 2 upper_exp) / (d+2)             = lower_bm (1 - w + w phi(lam))
        lower_exp   = (e^(w lam L^2) - e^(w lam x^2)) / (w theta d)  = lower_bm phi(w lam)

    phi(0) = 1, and phi rises with r and is convex, so lower_bm <= lower_exp
    <= upper_mixed <= upper_exp (the middle link to rounding: its sides agree
    to second order in w lam L^2), and w -> 0 pinches both ends to lower_bm
    as d grows.  Where a factor overflows, its bound is taken in log space,
    inf only past the double range; a start on the boundary gives four zeros.
    """
    p = problem.params
    lam = p.lam
    if lam <= 0:
        raise DomainError("bounds require theta > 0 (positively recurrent regime)")
    if problem.x == problem.L:
        return MfetBounds(upper_mixed=0.0, upper_exp=0.0, lower_exp=0.0, lower_bm=0.0)
    lower_bm = mfet_bm(problem)
    w = 2.0 / (p.d + 2.0)
    (a, m), (lo_a, lo_m) = _mean_exp(problem, lam), _mean_exp(problem, w * lam)
    phi, low = _exp_saturating(a) * m, _exp_saturating(lo_a) * lo_m
    upper_mixed, upper_exp = lower_bm * (1.0 + w * (phi - 1.0)), lower_bm * phi
    lower_exp = lower_bm * low
    # where a factor overflows, its bound in log space, with ln phi = a + ln m
    # and ln(1 - w + w phi) = c + softplus(ln w + ln phi - c), c = ln(1 - w)
    if phi == math.inf:
        ln_bm, ln_phi, c = math.log(lower_bm), a + math.log(m), math.log1p(-w)
        upper_mixed = _exp_saturating(ln_bm + c + _softplus(math.log(w) + ln_phi - c))
        upper_exp = _exp_saturating(ln_bm + ln_phi)
    if low == math.inf:
        lower_exp = _exp_saturating(math.log(lower_bm) + lo_a + math.log(lo_m))
    return MfetBounds(upper_mixed, upper_exp, lower_exp, lower_bm)


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
    takes (a positive series, or for lam < 0 past the Poisson series, the
    quadrature), and avoids the catastrophic cancellation of differencing
    nearly equal exit times.  A stencil that leaves the double range (an
    exit time, or a sum of them, past 1.8e308) is a DomainError.
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
