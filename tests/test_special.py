"""Tests for the incomplete-gamma machinery.

Oracle: plain composite Simpson of the defining integral, with the t = u**2
substitution so the integrand is smooth at the origin for shape parameters
down to 0.5.  The oracle shares no code with the implementation under test.
Large shapes near the diagonal x = a, and points below, at and above the
series / continued-fraction switch x = a + 1, are checked against mpmath
at 40 digits.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouexit import ConvergenceError, DomainError, special
from ouexit.special import _log_q_contfrac, _series_log_sum, ln_lower_gamma

# (a, x): small and large shapes, below, at and above the series /
# continued-fraction switch x = a + 1, and far into the tail
_GAMMA_POINTS = [
    (0.5, 1e-6), (0.5, 1.0), (0.5, 30.0),
    (1.0, 1.0), (1.0, 1e-3),
    (2.5, 0.1), (2.5, 3.5), (2.5, 20.0),
    (10.0, 5.0), (10.0, 11.0), (10.0, 40.0),
    (50.0, 25.0), (50.0, 51.0), (50.0, 200.0),
    (500.0, 499.0), (500.0, 501.0), (500.0, 600.0),
    (2.0**15, 2.0**15), (2.0**15, 1.1 * (2.0**15 + 1.0)),
    (5e5, 5e5), (7.3, 1e-4),
]


def simpson_lower_gamma(a, x, n=40_000):
    """Simpson quadrature of the defining integral, via t = u**2.

    integral of t**(a-1) exp(-t) over [0, x]
      = integral of 2 u**(2a-1) exp(-u**2) over [0, sqrt(x)].
    """
    u = np.linspace(0.0, math.sqrt(x), 2 * n + 1)
    f = 2.0 * u ** (2.0 * a - 1.0) * np.exp(-(u**2))
    if 2.0 * a - 1.0 == 0.0:
        f[0] = 2.0  # u**0 at u=0
    elif 2.0 * a - 1.0 < 0.0:
        raise ValueError("oracle needs a >= 0.5")
    h = u[1] - u[0]
    return float((h / 3.0) * np.sum(f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))


def simpson_log_lower_gamma(a, x, n=200_000):
    """log of the defining integral by Simpson in log space (log-sum-exp)."""
    t = np.linspace(0.0, x, 2 * n + 1)[1:]  # drop t=0; integrand vanishes there for a > 1
    log_f = (a - 1.0) * np.log(t) - t
    w = np.empty_like(t)
    w[0::2] = 4.0
    w[1::2] = 2.0
    w[-1] = 1.0
    m = np.max(log_f)
    h = x / (2 * n)
    return float(m + math.log((h / 3.0) * np.sum(w * np.exp(log_f - m))))


def reg_lower_gamma(a, x):
    """P(a, x) = lig(a, x) / Gamma(a), the regularized form of ln_lower_gamma."""
    return math.exp(ln_lower_gamma(a, x) - math.lgamma(a))


class TestLnGamma:
    # ln_lower_gamma reaches ln Gamma(a) far past the diagonal
    def test_small_integers(self):
        assert ln_lower_gamma(1.0, 1e3) == 0.0
        assert ln_lower_gamma(2.0, 1e3) == 0.0

    def test_half(self):
        want = 0.5 * math.log(math.pi)
        assert ln_lower_gamma(0.5, 1e3) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_recurrence_over_range(self):
        # lig(a+1, x) = a lig(a, x) - x**a exp(-x), on both branches, up to
        # the largest shapes the exit-time route uses
        for a in (0.5, 1.7, 12.0, 345.6, 9999.5, 1e5 - 1):
            for x in (0.5 * a, a, 2.0 * a):
                lig = ln_lower_gamma(a, x)
                log_ratio = a * math.log(x) - x - math.log(a) - lig  # of x**a exp(-x) to a lig
                want = math.log(a) + lig + math.log1p(-math.exp(log_ratio))
                assert ln_lower_gamma(a + 1.0, x) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rejects_bad_args(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                ln_lower_gamma(bad, 1.0)


class TestRegLowerGamma:
    # P(a, x) through exp(ln_lower_gamma - lgamma)
    def test_exponential_case(self):
        # shape 1 reduces to 1 - exp(-x)
        assert reg_lower_gamma(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13, abs=0.0)

    def test_half_shape_is_erf(self):
        assert reg_lower_gamma(0.5, 1.0) == pytest.approx(math.erf(1.0), rel=1e-12, abs=0.0)

    def test_zero_argument(self):
        assert reg_lower_gamma(10.0, 0.0) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
    def test_against_simpson_oracle(self, a):
        for x in np.geomspace(1e-3, 30.0, 12):
            want = simpson_lower_gamma(a, float(x)) / math.exp(math.lgamma(a))
            assert reg_lower_gamma(a, float(x)) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_branches_agree_around_crossover(self):
        # ln P from the series piece and from the continued-fraction piece
        # must match in a band around x = a+1 (the continued fraction is only
        # reliable near and above the crossover, so the band is +/- 5%)
        for a in (0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 500.0):
            for frac in (0.95, 1.0, 1.05):
                x = frac * (a + 1.0)
                s = a * math.log(x) - x - math.lgamma(a) + _series_log_sum(a, x)
                c = math.log1p(-math.exp(_log_q_contfrac(a, x)))
                assert s == pytest.approx(c, abs=1e-12)

    def test_series_cap_is_a_loud_error(self, monkeypatch):
        # near the diagonal at very large shape both branches need thousands
        # of terms; a cap below that must fail loudly, never return junk
        monkeypatch.setattr(special, "_max_iter", lambda a: 50)
        with pytest.raises(ConvergenceError):
            ln_lower_gamma(1e5, 1e5 - 10.0)
        with pytest.raises(ConvergenceError):
            ln_lower_gamma(1e5, 1e5 + 10.0)

    def test_rejects_bad_args(self):
        # only in-range plain floats skip the argument check, so every other
        # input meets it and its message
        for a, x, msg in ((-1.0, 1.0, "shape"), (1.0, -0.5, "argument"),
                          (1.0, math.nan, "argument"), (1.0, math.inf, "argument"),
                          (1.0, "2.0", "argument"), (None, 1.0, "shape")):
            with pytest.raises(DomainError, match=msg):
                ln_lower_gamma(a, x)
        # ints and numpy floats are converted, and take the float call's bits
        for a, x in ((3, 2), (3, 7), (np.float64(3.0), np.float64(2.0))):
            assert repr(ln_lower_gamma(a, x)) == repr(ln_lower_gamma(float(a), float(x)))

    @given(
        a=st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 500.0]),
        x=st.floats(min_value=1e-6, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_monotonicity(self, a, x):
        p = reg_lower_gamma(a, x)
        assert 0.0 <= p <= 1.0
        assert reg_lower_gamma(a, x * 1.25) >= p - 1e-15


class TestLnLowerGamma:
    def test_matches_regularized_form(self):
        want = math.log(1.0 - math.exp(-2.0))
        assert ln_lower_gamma(1.0, 2.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_log_zero_at_zero(self):
        assert ln_lower_gamma(3.0, 0.0) == -math.inf

    def test_leading_order_at_tiny_argument(self):
        # lig(a, x) ~ x**a / a
        want = 2.0 * math.log(1e-30) - math.log(2.0)
        assert ln_lower_gamma(2.0, 1e-30) == pytest.approx(want, rel=1e-13)

    def test_large_shape_against_log_simpson(self):
        got = ln_lower_gamma(500.0, 400.0)
        want = simpson_log_lower_gamma(500.0, 400.0)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-9)

    def test_huge_shape_stays_finite(self):
        # direct evaluation of lig overflows thousands of orders of magnitude here
        v = ln_lower_gamma(5e4, 1e3)
        assert math.isfinite(v)

    @pytest.mark.parametrize("a", [5e3, 32768.0, 1e5, 5e5])
    def test_large_shape_along_diagonal_against_mpmath(self, a):
        # near x = a both branches need O(sqrt(a)) terms
        with mpmath.workdps(40):
            for frac in (0.98, 0.995, 1.0, 1.005, 1.02):
                x = a * frac
                if x <= a:
                    want = mpmath.gammainc(a, 0, x)
                else:
                    want = mpmath.gamma(a) - mpmath.gammainc(a, x)
                assert ln_lower_gamma(a, x) == pytest.approx(float(mpmath.log(want)), rel=2e-15)

    @pytest.mark.parametrize("a,x", _GAMMA_POINTS)
    def test_points_against_mpmath(self, a, x):
        # to 1e-12 of max(1, |ln lig|): absolute where |ln lig| < 1, relative above
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x))))
        assert abs(ln_lower_gamma(a, x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_limit_is_complete_gamma(self):
        for a in (0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 500.0):
            got = ln_lower_gamma(a, 100.0 * a)
            want = math.lgamma(a)
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def neuman_log_bounds(a, x):
    """log of Neuman's two-sided bounds on lig(a, x), for x > 0:

        lower: a ln x - ln a - a x/(a+1)
        upper: a ln x - ln a - ln(a+1) + ln(1 + a exp(-x))
    """
    lx = a * math.log(x) - math.log(a)
    return lx - a * x / (a + 1.0), lx - math.log(a + 1.0) + math.log1p(a * math.exp(-x))


class TestNeumanBounds:
    """ln_lower_gamma inside Neuman's elementary bracket."""

    def test_vanish_at_zero(self):
        # the empty integral is -inf; just above 0 lig and both bounds come
        # down to x**a / a
        assert ln_lower_gamma(1.0, 0.0) == -math.inf
        want = ln_lower_gamma(1.0, 1e-300)
        bounds = neuman_log_bounds(1.0, 1e-300)
        assert all(v == pytest.approx(want, rel=1e-15, abs=0.0) for v in bounds)

    def test_direct_arithmetic_at_one(self):
        lo, hi = neuman_log_bounds(1.0, 1.0)
        assert lo == pytest.approx(-0.5, rel=1e-13, abs=0.0)
        assert hi == pytest.approx(math.log(0.5 * (1.0 + math.exp(-1.0))), rel=1e-13, abs=0.0)
        # lig(1,1) = 1 - 1/e sits inside
        assert lo <= math.log(1.0 - math.exp(-1.0)) <= hi

    def test_brackets_simpson_value(self):
        lo, hi = neuman_log_bounds(5.0, 3.0)
        oracle = simpson_lower_gamma(5.0, 3.0)
        assert lo <= math.log(oracle) <= hi
        assert lo <= ln_lower_gamma(5.0, 3.0) <= hi
