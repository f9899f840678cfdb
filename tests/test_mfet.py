"""Tests for the exact exit-time formula, the closed-form bounds, and the
ODE-residual probe.

Oracle: nested composite Simpson of the double-integral form, entirely in
linear arithmetic and independent of the package quadrature.  The inner
integral is rescaled by t = z*s so the awkward z**(1-d) outer weight cancels
analytically and both integrands are smooth; usable for moderate dimensions.
The log-space code paths at large d are exercised against closed forms,
asymptotics and, for lam < 0, an mpmath quadrature of the Kummer-function
form of the inner integral.
"""

import math
import random
import re

import mpmath
import numpy as np
import pytest

import ouexit.mfet
from ouexit.mfet import _MAX_EXP, _ln_peak_term, _outer_log_integrand
from ouexit.quadrature import integrate_log
from ouexit import (
    DomainError,
    ExitProblem,
    OupParams,
    QuadratureError,
    asymptotic_ratio,
    avp_residual,
    drift_ratio,
    mfet_bm,
    mfet_bounds,
    mfet_exact,
)

# nested-Simpson oracle value for d=2, theta=0.7, sigma=1, L=2.5, x=0,
# divided by the Brownian value 3.125 (regression constant, n=10^3 panels;
# stable to ~1e-11 against the cumulative-Simpson variant)
RATIO_D2_THETA07 = 5.37085738835


def _simpson_weights(n_nodes):
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w / 3.0


def mfet_nested_simpson(d, lam, sigma, big_l, n=1000):
    """Nested-Simpson oracle for the double-integral form, start radius 0.

    With t = z*s the mean exit time becomes
        (2/sigma^2) * int_0^L z * [int_0^1 s**(d-1) exp(lam z^2 (1-s^2)) ds] dz,
    free of the z**(1-d) singularity at the origin.
    """
    z = np.linspace(0.0, big_l, 2 * n + 1)
    s = np.linspace(0.0, 1.0, 2 * n + 1)
    wz = _simpson_weights(len(z)) * (z[1] - z[0])
    ws = _simpson_weights(len(s)) * (s[1] - s[0])
    spow = s ** (d - 1)
    if d == 1:
        spow[0] = 1.0
    inner = np.empty_like(z)
    for j, zj in enumerate(z):
        inner[j] = np.dot(ws, spow * np.exp(lam * zj * zj * (1.0 - s * s)))
    return float((2.0 / sigma**2) * np.dot(wz, z * inner))


def _problem(d, lam, big_l, x=0.0, sigma=1.0):
    return ExitProblem(OupParams(theta=lam * sigma * sigma, sigma=sigma, d=d), L=big_l, x=x)


class TestExactFormula:
    def test_one_dimensional_oracle(self):
        # 2 * int_0^1 e^{z^2/2} (int_0^z e^{-t^2/2} dt) dz
        want = mfet_nested_simpson(1, 0.5, 1.0, 1.0)
        assert mfet_exact(_problem(1, 0.5, 1.0)) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize(
        "d,lam,big_l",
        [
            (2, 0.5, 2.0), (4, 0.5, 4.0), (2, 0.1, 4.0), (5, 2.0, 2.0), (8, 0.7, 3.0),
            (3, -0.5, 2.0), (2, -2.0, 2.5), (8, 0.0, 3.0),
        ],
    )
    def test_oracle_grid(self, d, lam, big_l):
        want = mfet_nested_simpson(d, lam, 1.0, big_l)
        assert mfet_exact(_problem(d, lam, big_l)) == pytest.approx(want, rel=1e-8)

    def test_value_sits_inside_bound_bracket(self):
        p = _problem(4, 0.5, 4.0)
        got = mfet_exact(p)
        b = mfet_bounds(p)
        assert b.lower_bm < b.lower_exp < got < b.upper_mixed < b.upper_exp
        assert got == pytest.approx(mfet_nested_simpson(4, 0.5, 1.0, 4.0), rel=1e-8)

    @pytest.mark.parametrize(
        "d,lam,big_l", [(1024, -2.0, 5.0), (65536, -2.0, 5.0), (4, -0.5, 100.0), (1000, -0.5, 100.0)]
    )
    def test_transient_regime_against_mpmath(self, d, lam, big_l):
        # inner integral z^d/d * M(d/2, d/2+1, -lam z^2) (DLMF 13.2.2, 8.5.1),
        # outer integral by mpmath's own quadrature at 30 digits
        a = mpmath.mpf(d) / 2
        with mpmath.workdps(30):
            want = 2 / mpmath.mpf(d) * mpmath.quad(
                lambda z: z * mpmath.exp(lam * z * z) * mpmath.hyp1f1(a, a + 1, -lam * z * z),
                [0, big_l],
            )
        assert mfet_exact(_problem(d, lam, big_l)) == pytest.approx(float(want), rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 4, 64, 1024, 65536])
    def test_brownian_case_is_exact(self, d):
        # at lam = 0 the Kummer series is its first term, so only the
        # rounding of the quadrature is left
        for big_l, x, sigma in ((4.0, 0.0, 1.0), (2.0, 1.0, 1.3)):
            p = _problem(d, 0.0, big_l, x=x, sigma=sigma)
            assert mfet_exact(p) == pytest.approx(mfet_bm(p), rel=4e-15)

    @pytest.mark.parametrize(
        "theta,sigma,d,big_l,x,want",
        [
            (0.5, 1.0, 1, 2.0, 0.0, "9.003204832458149"),
            (2.0, 1.0, 4096, 4.0, 0.0, "0.0039370738718925834"),
            (0.7, 1.0, 4, 3.0, 1.2, "14.722911462790865"),
            (0.5, 1.3, 3, 2.0, 0.5, "0.9777145580543194"),
            (0.5, 1.0, 1024, 22.6, 3.0, "0.6809427858438515"),
            (0.5, 1.0, 65536, 300.0, 0.0, "inf"),
            (-0.5, 1.0, 3, 2.0, 0.0, "0.9510546421746636"),
            (-2.0, 1.0, 1024, 5.0, 0.0, "0.02329623573924573"),
            (0.0, 1.3, 8, 2.0, 1.0, "0.22189349112426035"),
        ],
    )
    def test_frozen_bits(self, theta, sigma, d, big_l, x, want):
        # values of every lam regime (> 0, < 0 and 0) pinned to the last bit
        p = ExitProblem(OupParams(theta=theta, sigma=sigma, d=d), L=big_l, x=x)
        assert repr(mfet_exact(p)) == want

    def test_brownian_limit_both_signs(self):
        for d in (1, 4, 64, 1024):
            for lam in (1e-12, -1e-12):
                p = _problem(d, lam, 2.0)
                want = mfet_bm(p)
                assert mfet_exact(p) == pytest.approx(want, rel=1e-6)

    def test_transient_regime_exits_faster_than_brownian(self):
        # theta < 0 pushes outward, so the exit is quicker than Brownian
        p = _problem(3, -0.5, 2.0)
        assert 0.0 < mfet_exact(p) < mfet_bm(p)

    def test_boundary_start_is_zero(self):
        assert mfet_exact(_problem(4, 0.5, 3.0, x=3.0)) == 0.0

    def test_monotone_in_lambda(self):
        for d in (1, 2, 16, 256):
            values = [mfet_exact(_problem(d, lam, 3.0)) for lam in (0.1, 0.5, 0.7, 2.0)]
            assert values == sorted(values)

    def test_strictly_decreasing_in_start_radius(self):
        p0 = OupParams(theta=0.5, sigma=1.0, d=3)
        xs = [0.0, 0.5, 1.0, 1.5, 1.9]
        values = [mfet_exact(ExitProblem(p0, L=2.0, x=x)) for x in xs]
        for earlier, later in zip(values, values[1:]):
            assert later < earlier

    def test_substitution_identity(self):
        # mpmath quadrature of the radial integrand equals its incomplete
        # gamma (lam > 0) or Kummer (lam < 0) reduction, pointwise in the
        # upper limit
        special = ouexit.special
        for d in (2, 5):
            for lam in (0.5, 2.0, -0.5, -2.0):
                for z in (0.5, 1.0, 3.0):
                    with mpmath.workdps(30):
                        direct = mpmath.quad(lambda t: t ** (d - 1) * mpmath.exp(-lam * t * t), [0, z])
                    y = lam * z * z
                    if lam > 0:
                        via = 0.5 * lam ** (-0.5 * d) * math.exp(special.ln_lower_gamma(0.5 * d, y))
                    else:
                        via = 0.5 * z**d * math.exp(special.ln_kummer_sum(0.5 * d, -y))
                    assert float(direct) == pytest.approx(via, rel=1e-10)

    def test_panel_exhaustion_raises_with_partial_result(self, monkeypatch):
        monkeypatch.setattr(ouexit.quadrature, "_REL_TOL", 1e-13)
        monkeypatch.setattr(ouexit.quadrature, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureError) as exc:
            mfet_exact(_problem(1, 2.0, 4.0))
        assert exc.value.result.err_estimate > 1e-13
        assert exc.value.result.panels_used == 2

    def test_huge_dimension_stays_stable(self):
        p = _problem(4096, 2.0, 4.0)
        got = mfet_exact(p)
        b = mfet_bounds(p)
        assert b.lower_exp <= got <= b.upper_mixed


def _mp_ln_term(problem, n):
    """ln t_n of the lam > 0 series at 40 digits, from the exact theta/sigma^2."""
    with mpmath.workdps(40):
        p = problem.params
        s2 = mpmath.mpf(p.sigma) ** 2
        big_l, x, n = mpmath.mpf(problem.L), mpmath.mpf(problem.x), mpmath.mpf(n)
        y = mpmath.mpf(p.theta) / s2 * big_l**2
        b = mpmath.mpf(p.d) / 2 + 1
        return (mpmath.log(big_l**2 / (s2 * p.d)) + n * mpmath.log(y)
                + mpmath.log(1 - (x / big_l) ** (2 * n + 2)) - mpmath.log(n + 1)
                - mpmath.loggamma(b + n) + mpmath.loggamma(b))


def _sampled_problems(seed, n):
    # lam > 0 problems drawn like the exact-grid benchmark's: d up to 65536
    # with L in [1, 5], and one in seven a large ball of radius about sqrt(d/lam)
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for _ in range(n):
        if rng.random() < 6 / 7:
            d, lam, big_l = round(log_uniform(1, 65536)), log_uniform(0.05, 2.0), rng.uniform(1.0, 5.0)
        else:
            d, lam = round(log_uniform(1024, 65536)), log_uniform(0.05, 2.0)
            big_l = math.sqrt(d / lam) * rng.uniform(0.5, 1.5)
        sigma = log_uniform(0.5, 2.0)
        x = 0.0 if rng.random() < 0.25 else big_l * rng.uniform(0.0, 0.95)
        out.append(_problem(d, lam, big_l, x=x, sigma=sigma))
    return out


def _near_threshold_problems(seed, n):
    # d, lam, sigma and x/L drawn over the sampler's ranges, with L set by
    # bisection so that the peak term's log lands in [700, 714], where
    # ln E tau is near the double range's 709.78
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        d = round(math.exp(rng.uniform(0.0, math.log(65536))))
        lam, sigma = math.exp(rng.uniform(math.log(0.05), math.log(2.0))), rng.uniform(0.5, 2.0)
        frac, target = rng.choice([0.0, rng.uniform(0.0, 0.95)]), rng.uniform(700.0, 714.0)
        lo, hi = math.log(1e-3), math.log(1e6)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            big_l = math.exp(mid)
            if _ln_peak_term(_problem(d, lam, big_l, x=frac * big_l, sigma=sigma))[1] < target:
                lo = mid
            else:
                hi = mid
        big_l = math.exp(hi)
        out.append(_problem(d, lam, big_l, x=frac * big_l, sigma=sigma))
    return out


class TestDecidedOverflow:
    """mfet_exact's inf from the peak term of the positive series."""

    @pytest.mark.parametrize("big_l", [1e4, 1e200])
    def test_overflow_is_decided_without_integrating(self, monkeypatch, big_l):
        # L = 1e4: the quadrature gives up (QuadratureError) after seconds;
        # L = 1e200: lam L^2 is inf, which ln_lower_gamma refuses
        def refuse(*args, **kwargs):
            raise AssertionError("integrated an overflowing problem")

        monkeypatch.setattr(ouexit.mfet, "integrate_log", refuse)
        p = ExitProblem(OupParams(theta=1.0, sigma=1.0, d=4), L=big_l, x=0.0)
        assert mfet_exact(p) == math.inf

    @pytest.mark.parametrize("d", [1, 64, 4096, 65536, 2**20])
    def test_peak_term_against_mpmath(self, d):
        b = 0.5 * d + 1.0
        for y in (2.0, 1.2 * b + 10.0, 3.0 * b + 1000.0):
            for frac, sigma in ((0.0, 1.0), (0.5, 0.7), (1.0 - 1e-9, 1.3)):
                big_l = math.sqrt(y / 0.5)
                p = _problem(d, 0.5, big_l, x=frac * big_l, sigma=sigma)
                n, ln_term, slack = _ln_peak_term(p)
                want = _mp_ln_term(p, n)
                assert slack < 0.1
                assert abs(ln_term - want) <= slack
                if frac == 0.0 and n:
                    # a local maximum of the terms
                    assert want >= max(_mp_ln_term(p, n - 1), _mp_ln_term(p, n + 1))

    def test_bound_never_fires_on_a_finite_value(self):
        problems = [p for seed in (11, 23, 37) for p in _sampled_problems(seed, 700)]
        problems += _near_threshold_problems(5, 150)
        decided, near = 0, 0
        for p in problems:
            _, ln_term, slack = _ln_peak_term(p)
            # raises unless converged
            res = integrate_log(_outer_log_integrand(p.params), p.x, p.L)
            # a lower bound on ln E tau, and inf only where E tau overflows
            assert ln_term - slack <= res.value, p
            if ln_term - slack > _MAX_EXP:
                decided += 1
                assert res.value > 709.78, p
                assert mfet_exact(p) == math.inf
            near += 705.0 <= res.value <= 715.0
        assert decided >= 100 and near >= 100


class TestBrownianClosedForm:
    def test_spot_values(self):
        assert mfet_bm(_problem(4, 0.0, 2.0)) == 1.0
        assert mfet_bm(_problem(1000, 0.0, 2.5)) == 0.00625

    def test_boundary_start(self):
        assert mfet_bm(_problem(7, 0.9, 1.25, x=1.25)) == 0.0

    def test_theta_is_ignored(self):
        assert mfet_bm(_problem(4, 5.0, 2.0)) == mfet_bm(_problem(4, 0.0, 2.0))


class TestBounds:
    def test_spot_values_match_closed_forms(self):
        b = mfet_bounds(_problem(4, 0.5, 4.0))
        e8 = math.exp(8.0)
        assert b.lower_bm == pytest.approx(4.0, rel=1e-10)
        assert b.lower_exp == pytest.approx(1.5 * (math.exp(16.0 / 6.0) - 1.0), rel=1e-10)
        assert b.upper_mixed == pytest.approx((2.0 * (e8 - 1.0) + 32.0) / 12.0, rel=1e-10)
        assert b.upper_exp == pytest.approx((e8 - 1.0) / 2.0, rel=1e-10)

    def test_boundary_start_all_zero(self):
        b = mfet_bounds(_problem(6, 1.0, 2.0, x=2.0))
        assert (b.lower_bm, b.lower_exp, b.upper_mixed, b.upper_exp) == (0.0, 0.0, 0.0, 0.0)

    def test_requires_positive_theta(self):
        for lam in (0.0, -0.3):
            with pytest.raises(DomainError):
                mfet_bounds(_problem(4, lam, 2.0))

    def test_overflow_tagged_as_inf(self):
        b = mfet_bounds(_problem(2, 1.0, 30.0))  # exp(900) territory
        assert b.upper_exp == math.inf
        assert b.upper_mixed == math.inf
        assert math.isfinite(b.lower_bm)

    def test_chain_ordering_on_grid(self):
        for d in (1, 2, 16, 256, 4096):
            for lam in (0.1, 0.5, 0.7, 2.0):
                for big_l, x in ((4.0, 0.0), (3.0, 0.0), (2.0, 1.0)):
                    b = mfet_bounds(_problem(d, lam, big_l, x=x))
                    assert b.lower_bm <= b.lower_exp * (1 + 1e-13)
                    assert b.lower_exp <= b.upper_mixed * (1 + 1e-13)
                    assert b.upper_mixed <= b.upper_exp * (1 + 1e-13)


class TestAsymptoticRatio:
    def test_brownian_case_is_one(self):
        p = _problem(8, 1e-12, 2.0, x=0.5)
        assert asymptotic_ratio(p) == pytest.approx(1.0, rel=1e-6)

    def test_desk_scale_pincer(self):
        got = asymptotic_ratio(_problem(1024, 0.5, 2.0))
        upper = (6.389056098930649 + 1024.0) / 1026.0
        assert 1.0 <= got <= upper

    def test_small_dimension_materially_above_one(self):
        got = asymptotic_ratio(_problem(2, 0.5, 2.0))
        want = mfet_nested_simpson(2, 0.5, 1.0, 2.0) / 2.0
        assert got == pytest.approx(want, rel=1e-8)
        assert got > 1.5

    def test_boundary_start_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_ratio(_problem(2, 0.5, 2.0, x=2.0))

    def test_pincer_closed_form_at_extreme_dimension(self):
        # upper_mixed / lower_bm == ((2/lam)(e^{lam L^2} - e^{lam x^2})/(L^2-x^2) + d)/(d+2),
        # evaluated at d = 2**20; must match the bound ratio and be ~1
        d = 2**20
        lam, big_l, x = 0.5, 2.0, 0.0
        b = mfet_bounds(_problem(d, lam, big_l, x=x))
        closed = ((2.0 / lam) * (math.exp(lam * big_l**2) - 1.0) / big_l**2 + d) / (d + 2.0)
        assert b.upper_mixed / b.lower_bm == pytest.approx(closed, rel=1e-12)
        assert closed < 1.0 + 7.0 / d


class TestDriftRatio:
    def test_spot_values(self):
        p = OupParams(theta=0.7, sigma=1.0, d=2)
        assert drift_ratio(p, 3.0) == pytest.approx(-5.3, rel=1e-13)
        p128 = OupParams(theta=0.7, sigma=1.0, d=128)
        assert drift_ratio(p128, 3.0) == pytest.approx(1.0 - 12.6 / 128.0, rel=1e-13)

    def test_brownian_is_identity(self):
        # at the largest radius too: 2.0 * 0.0 * rho * rho is 0, never 0 * inf
        for d in (1, 7, 4096):
            for rho in (5.0, 1.7e308):
                assert drift_ratio(OupParams(theta=0.0, sigma=2.0, d=d), rho) == 1.0

    def test_monotone_toward_one_in_dimension(self):
        ratios = [drift_ratio(OupParams(theta=0.7, sigma=1.0, d=2**k), 3.0) for k in range(1, 8)]
        assert ratios == sorted(ratios)
        assert all(r < 1.0 for r in ratios)

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            drift_ratio(OupParams(theta=0.7, sigma=1.0, d=2), -1.0)

    @pytest.mark.parametrize("theta", [0.7, -0.7])
    def test_rejects_a_radius_whose_drift_overflows(self, theta):
        # rho^2 = inf, so the ratio would be -inf or +inf
        with pytest.raises(DomainError, match="rho=1e\\+200"):
            drift_ratio(OupParams(theta=theta, sigma=1.0, d=2), 1e200)


class TestOdeResidual:
    def test_brownian_case_only_quadrature_noise(self):
        # the Brownian solution is quadratic, so the stencil is exact and
        # the residual is pure quadrature noise
        p = _problem(3, 0.0, 2.0)
        assert abs(avp_residual(p, x_eval=1.0, h=1e-3)) <= 1e-4

    def test_moderate_reversion_within_budget(self):
        p = _problem(2, 0.5, 2.0)
        assert abs(avp_residual(p, x_eval=1.0, h=1e-3)) <= 1e-3

    def test_near_boundary_evaluation(self):
        p = _problem(10, 0.7, 2.0)
        h = 1e-3 * p.L
        r = avp_residual(p, x_eval=p.L - 2.0 * h, h=h)
        assert math.isfinite(r)
        assert abs(r) <= 1e-3

    def test_truncation_scales_quadratically_in_step(self):
        # at a strongly mean-reverting corner the leftover is the truncation
        # of the fourth-order stencil; halving h must divide it by 2^4 = 16.
        # The steps sit well above 2e-3: at h <= 2e-3 the quartic leftover
        # (3.4e-6) has reached the quadrature and rounding floor (r(1e-3) =
        # 4.6e-6 exceeds r(2e-3)), so a ratio at 4e-3/2e-3 measures that
        # floor (15.68) rather than the stencil order
        p = _problem(1, 2.0, 4.0)
        r1 = avp_residual(p, x_eval=2.0, h=16e-3)
        r2 = avp_residual(p, x_eval=2.0, h=8e-3)
        assert r1 / r2 == pytest.approx(16.0, rel=5e-3)

    def test_residual_small_relative_to_ode_terms(self):
        # normalized by the forcing term 2/sigma^2 the probe is tight across
        # moderate regimes
        for d, lam, big_l in ((1, 0.5, 4.0), (4, 0.7, 3.0), (64, 2.0, 2.0)):
            p = _problem(d, lam, big_l)
            r = avp_residual(p, x_eval=big_l / 2.0, h=1e-3 * big_l)
            assert abs(r) / 2.0 < 5e-4

    def test_step_validation(self):
        p = _problem(2, 0.5, 2.0)
        with pytest.raises(DomainError):
            avp_residual(p, x_eval=0.0005, h=1e-3)
        with pytest.raises(DomainError):
            avp_residual(p, x_eval=2.0, h=1e-3)

    @pytest.mark.parametrize("big_l", [20.0, 21.0])
    def test_stencil_past_the_double_range_is_a_domain_error(self, big_l):
        # L = 20: each integral is finite (ln 706-708), their stencil sum is
        # not; L = 21: an integral itself is past 1.8e308
        p = _problem(4, 2.0, big_l)
        with pytest.raises(DomainError, match="x_eval=.*leaves the double range"):
            avp_residual(p, x_eval=big_l - 1.0)


class TestParamValidation:
    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            OupParams(theta=0.1, sigma=1.0, d=0)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            OupParams(theta=0.1, sigma=0.0, d=2)

    def test_bad_geometry(self):
        p = OupParams(theta=0.1, sigma=1.0, d=2)
        with pytest.raises(DomainError):
            ExitProblem(p, L=0.0, x=0.0)
        with pytest.raises(DomainError):
            ExitProblem(p, L=1.0, x=1.5)

    @pytest.mark.parametrize("theta,sigma,name", [
        (0.5, 1e-170, "sigma"),              # sigma**2 underflows
        (0.0, 1e200, "sigma"),               # sigma**2 overflows
        (1e250, 1e-100, "theta/sigma**2"),   # lambda overflows
        (1e-300, 1e100, "theta/sigma**2"),   # lambda underflows to 0, theta does not
        (0.5, 1e-160, "sigma"),              # sigma**2 is subnormal
        (1e-300, 1e10, "theta/sigma**2"),    # lambda is subnormal
        (5e-324, 1.0, "theta leaves"),       # theta is subnormal; so is lambda
        (1e-320, 1.0, "theta leaves"),
        (-1e-310, 1.0, "theta leaves"),
        (1e-312, 1e-5, "theta leaves"),      # lambda is normal, theta is not
    ])
    def test_squares_and_ratio_stay_in_double_range(self, theta, sigma, name):
        with pytest.raises(DomainError, match=re.escape(name)):
            OupParams(theta=theta, sigma=sigma, d=4)

    def test_brownian_rate_stays_in_double_range(self):
        # sigma**2 = 1e308 is finite, but sigma**2 * d is not at d = 1000;
        # mfet_bm gave 0.0 and every MC path exited at the first step
        assert OupParams(theta=0.0, sigma=1e154, d=1).sigma == 1e154
        with pytest.raises(DomainError, match=re.escape("sigma**2 * d")):
            OupParams(theta=0.0, sigma=1e154, d=1000)

    def test_lambda_shares_the_sign_of_theta(self):
        # a tiny normal lambda is kept, with theta's sign
        for theta in (-1e-300, 0.0, 1e-300):
            lam = OupParams(theta=theta, sigma=1e3, d=4).lam
            assert (lam > 0, lam < 0) == (theta > 0, theta < 0)

    def test_radius_square_must_not_underflow(self):
        p = OupParams(theta=0.5, sigma=1.0, d=1)
        for big_l in (1e-300, 1e-160):  # L**2 underflows to 0; L**2 is subnormal
            with pytest.raises(DomainError, match="L="):
                ExitProblem(p, L=big_l, x=0.0)
        assert ExitProblem(p, L=1e-150, x=0.0).L == 1e-150

    def test_lambda_is_derived(self):
        p = OupParams(theta=0.5, sigma=2.0, d=3)
        assert p.lam == 0.125

    def test_frozen_regression_ratio(self):
        got = asymptotic_ratio(_problem(2, 0.7, 2.5))
        assert got == pytest.approx(RATIO_D2_THETA07, rel=1e-8)
