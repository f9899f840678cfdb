"""Tests for the exact exit-time formula, the closed-form bounds, and the
ODE-residual probe.

Oracle: nested composite Simpson of the double-integral form, entirely in
linear arithmetic and independent of the package quadrature.  The inner
integral is rescaled by t = z*s so the awkward z**(1-d) outer weight cancels
analytically and both integrands are smooth; usable for moderate dimensions.
The log-space code paths at large d are exercised against closed forms,
asymptotics and, for lam < 0, an mpmath quadrature of the Kummer-function
form of the inner integral.  For lam >= 0, where mfet_exact sums the
positive series, a 40-digit mpmath sum of that series and a quadrature of
the single-integral form, built here from ln_lower_gamma, are the
references.
"""

import functools
import hashlib
import math
import random
import re
import sys
import time
from dataclasses import astuple
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest

import ouexit.mfet
from ouexit import special
from ouexit.mfet import _MAX_EXP, _SERIES_MAX_Y, _SERIES_TOL, _SPARSE_SWITCH, _ln_peak_term
from ouexit.quadrature import integrate_log
from ouexit import (
    ConvergenceError,
    DomainError,
    ExitProblem,
    OuexitError,
    OupParams,
    QuadratureError,
    asymptotic_ratio,
    avp_residual,
    drift_ratio,
    mfet_bm,
    mfet_bounds,
    mfet_exact,
)


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


def _pin_sweep(seed, n):
    # every lam regime in turn (0, < 0, > 0 and a large ball of radius about
    # sqrt(d/lam), whose integrand crosses the series/continued-fraction
    # switch of ln_lower_gamma), d log-uniform on 1..65536; lam > 0 reaches
    # lam L^2 = 2000, past the decided overflow at small d
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for i in range(n):
        d, sigma = round(log_uniform(1, 65536)), log_uniform(0.5, 2.0)
        kind = i % 4
        if kind == 3:
            lam = log_uniform(0.05, 2.0)
            big_l = math.sqrt(d / lam) * rng.uniform(0.5, 1.5)
        else:
            lam = (0.0, -log_uniform(0.01, 5.0), log_uniform(0.01, 5.0))[kind]
            big_l = log_uniform(0.2, 20.0 if kind == 2 else 6.0)
        x = 0.0 if rng.random() < 0.25 else big_l * rng.uniform(0.0, 0.999)
        out.append(_problem(d, lam, big_l, x=x, sigma=sigma))
    return out


def _single_integral(problem):
    """ln E tau for lam > 0 by the package quadrature of the single-integral form

        E tau = int_x^L z^(1-d) exp(lam z^2) lig(d/2, lam z^2) dz / (lam^(d/2) sigma^2),

    independent of the positive series that mfet_exact sums."""
    p = problem.params
    lam, a = p.lam, 0.5 * p.d
    log_c = -a * math.log(lam) - 2.0 * math.log(p.sigma)

    def log_f(z):
        u = lam * z * z
        return (1.0 - p.d) * math.log(z) + u + special.ln_lower_gamma(a, u) + log_c

    # at the 1e-10 this oracle was checked at: ln_lower_gamma's rounding keeps
    # some of these integrals from integrate_log's own 1e-12
    with mock.patch.object(ouexit.quadrature, "_REL_TOL", 1e-10):
        return integrate_log(log_f, problem.x, problem.L).value


def _digest(calls):
    """SHA-256 over repr of each call's value, or of the error it raised."""
    h = hashlib.sha256()
    for fn, *args in calls:
        try:
            out = fn(*args)
        except OuexitError as exc:  # the error and its message are pinned too
            out = exc
        h.update(repr(out).encode() + b"\n")
    return h.hexdigest()


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

    @pytest.mark.parametrize("d,lam,big_l", [(1024, -2.0, 5.0), (65536, -2.0, 5.0), (4, -0.5, 100.0),
                                             (1000, -0.5, 100.0), (4, -1000.0, 100.0)])
    def test_transient_regime_against_mpmath(self, d, lam, big_l):
        # inner integral z^d/d * M(d/2, d/2+1, -lam z^2) (DLMF 13.2.2, 8.5.1),
        # outer integral by mpmath's own quadrature at 30 digits
        a = mpmath.mpf(d) / 2
        with mpmath.workdps(30):
            want = 2 / mpmath.mpf(d) * mpmath.quad(
                lambda z: z * mpmath.exp(lam * z * z) * mpmath.hyp1f1(a, a + 1, -lam * z * z),
                [0, big_l],
            )
        assert mfet_exact(_problem(d, lam, big_l)) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_strongly_transient_case_keeps_its_bits(self):
        # theta = -1000, L = 100 (mu L^2 = 1e7): 7e-16 from mpmath, in a few
        # ms, so 50 ms catches a loop whose length grows with mu L^2
        p = _problem(4, -1000.0, 100.0)
        assert repr(mfet_exact(p)) == "0.007847655707929932"
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            mfet_exact(p)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05

    def test_huge_transient_problem_within_1e12_of_mpmath(self):
        # x = 0, mu L^2 ~ 4.9e11, a ~ 5.9e9: E tau = int_0^1 (1-s)^(a-1)
        # (1 - e^(-D s))/s ds / (2 sigma^2 mu), breakpoints at the scales
        # 1/D and 1/a where the integrand turns
        theta, sigma, d, big_l = -734272293.5701274, 0.6201275539498549, 11725461664, 15.97516403442484
        with mpmath.workdps(40):
            mu = -mpmath.mpf(theta) / mpmath.mpf(sigma) ** 2
            a, big_d = mpmath.mpf(d) / 2, mu * mpmath.mpf(big_l) ** 2
            want = mpmath.quad(lambda s: (1 - s) ** (a - 1) * -mpmath.expm1(-big_d * s) / s,
                               [0, 1 / big_d, 1 / a, 10 / a, 100 / a, 1000 / a, mpmath.mpf("1e-3"), 1])
            want /= 2 * mpmath.mpf(sigma) ** 2 * mu
        got = mfet_exact(ExitProblem(OupParams(theta=theta, sigma=sigma, d=d), L=big_l, x=0.0))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 4, 64, 1024, 65536])
    def test_brownian_case_is_exact(self, d):
        # at lam = 0 the Kummer series is its first term, so only the
        # rounding of the quadrature is left
        for big_l, x, sigma in ((4.0, 0.0, 1.0), (2.0, 1.0, 1.3)):
            p = _problem(d, 0.0, big_l, x=x, sigma=sigma)
            assert mfet_exact(p) == pytest.approx(mfet_bm(p), rel=4e-15, abs=0.0)

    @pytest.mark.parametrize(
        "theta,sigma,d,big_l,x,want",
        [
            (0.5, 1.0, 1, 2.0, 0.0, "9.003204832458149"),
            (2.0, 1.0, 4096, 4.0, 0.0, "0.003937073871891772"),
            (0.7, 1.0, 4, 3.0, 1.2, "14.722911462790872"),
            (0.5, 1.3, 3, 2.0, 0.5, "0.9777145580543198"),
            (0.5, 1.0, 1024, 22.6, 3.0, "0.6809427858438467"),
            (0.5, 1.0, 65536, 300.0, 0.0, "inf"),
            (-0.5, 1.0, 3, 2.0, 0.0, "0.9510546421746637"),
            (-2.0, 1.0, 1024, 5.0, 0.0, "0.023296235739245733"),
            (0.0, 1.3, 8, 2.0, 1.0, "0.22189349112426032"),
        ],
    )
    def test_frozen_bits(self, theta, sigma, d, big_l, x, want):
        # values of every lam regime (> 0, < 0 and 0) pinned to the last bit
        p = ExitProblem(OupParams(theta=theta, sigma=sigma, d=d), L=big_l, x=x)
        assert repr(mfet_exact(p)) == want

    def test_bits_over_a_broad_sweep(self):
        # mfet_exact, mfet_bounds and ln_lower_gamma, pinned to the last bit
        # (errors included) over a seeded sweep: ln_lower_gamma just below,
        # at and above the switch x = a + 1 for a up to 2**15
        rng = random.Random(20804029)
        problems = _pin_sweep(20804029, 400)
        shapes = [math.exp(rng.uniform(math.log(0.5), math.log(2.0**15))) for _ in range(60)]
        gamma = [(special.ln_lower_gamma, a, (a + 1.0) * f)
                 for a in shapes for f in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.1, 3.0)]
        got = {
            "mfet_exact": _digest([(mfet_exact, p) for p in problems]),
            "mfet_bounds": _digest([(mfet_bounds, p) for p in problems]),
            "ln_lower_gamma": _digest(gamma),
        }
        assert got == {
            "mfet_exact": "52d14b1bf6ec8aadf3b9b8f91df2af361292e1944dc28e1ae8e294bbb15928a7",
            "mfet_bounds": "9c3e32482e79efe0e10b8a4348b54251d9401e57b4459f52d7ea781b42ccd23c",
            "ln_lower_gamma": "0a2aaf9b5a6ff11efe8a8b1a903cfa87a35ec522c03fee1d983a4db62a302eb0",
        }

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
        # lam > 0: mpmath quadrature of the radial integrand equals its
        # incomplete gamma reduction, pointwise in the upper limit.  lam < 0:
        # the t-integral mfet_exact takes equals the Kummer form
        # (1/(sigma^2 d mu)) int_{mu x^2}^{mu L^2} e^-w M(d/2, d/2+1, w) dw,
        # both by mpmath, and mfet_exact matches it, pointwise in L
        special = ouexit.special
        for d in (2, 5):
            a = 0.5 * d
            for lam in (0.5, 2.0, -0.5, -2.0):
                for z in (0.5, 1.0, 3.0):
                    if lam > 0:
                        with mpmath.workdps(30):
                            direct = mpmath.quad(lambda t: t ** (d - 1) * mpmath.exp(-lam * t * t),
                                                 [0, z])
                        via = 0.5 * lam ** (-0.5 * d) * math.exp(special.ln_lower_gamma(a, lam * z * z))
                        assert float(direct) == pytest.approx(via, rel=1e-10, abs=0.0)
                        continue
                    mu, x = mpmath.mpf(-lam), 0.4 * z
                    big_a, big_d = mu * x * x, mu * (z * z - x * x)
                    with mpmath.workdps(30):
                        kummer = mpmath.quad(lambda w: mpmath.exp(-w) * mpmath.hyp1f1(a, a + 1, w),
                                             [big_a, big_a + big_d]) / (d * mu)
                        t_form = mpmath.quad(lambda t: t ** (a - 1) * mpmath.exp(-big_a * (1 - t))
                                             * -mpmath.expm1(-big_d * (1 - t)) / (1 - t), [0, 1]) / (2 * mu)
                    assert abs(t_form - kummer) <= 1e-25 * kummer
                    assert mfet_exact(_problem(d, lam, z, x=x)) == pytest.approx(
                        float(kummer), rel=1e-12, abs=0.0)

    def test_panel_exhaustion_raises_with_partial_result(self, monkeypatch):
        # lam < 0 past the Poisson series' mu L^2 = 150: only there is a quadrature left
        monkeypatch.setattr(ouexit.quadrature, "_REL_TOL", 1e-13)
        monkeypatch.setattr(ouexit.quadrature, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureError) as exc:
            mfet_exact(_problem(1, -2.0, 10.0))
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
            if _ln_peak_term(_problem(d, lam, big_l, x=frac * big_l, sigma=sigma))[0] < target:
                lo = mid
            else:
                hi = mid
        big_l = math.exp(hi)
        out.append(_problem(d, lam, big_l, x=frac * big_l, sigma=sigma))
    return out


class TestDecidedOverflow:
    """mfet_exact's inf from the peak term of the positive series."""

    @pytest.mark.parametrize("big_l", [1e4, 1e16, 1e200])
    def test_overflow_is_decided_without_integrating(self, monkeypatch, big_l):
        # L = 1e4: the quadrature gives up (QuadratureError) after seconds;
        # L = 1e16: the peak index stops at 2**52, where (b + n - y)/y
        # rounds to -1; L = 1e200: lam L^2 is inf, which ln_lower_gamma refuses
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
                ln_term, slack, (n, *_) = _ln_peak_term(p)
                want = _mp_ln_term(p, n)
                assert slack < 0.1
                assert abs(ln_term - want) <= slack
                if frac == 0.0 and n:
                    # a local maximum of the terms
                    assert want >= max(_mp_ln_term(p, n - 1), _mp_ln_term(p, n + 1))

    def test_huge_shape_overflow_is_decided_at_once(self):
        # lam > 0 over d = 1..2**60, lam on e^+-30, sigma = 1, L on e^+-10 and
        # x at 0, U L or L (1 - 1e-6 U).  On seven, b = d/2 + 1 is past 2**52
        # and ln E tau past 1e16: the peak term decides inf at once, where
        # summing to the term cap took about a second and then raised
        rng = random.Random(2024)
        problems = []
        for i in range(3000):
            d = round(math.exp(rng.uniform(0.0, 60.0 * math.log(2.0))))
            lam, big_l = math.exp(rng.uniform(-30.0, 30.0)), math.exp(rng.uniform(-10.0, 10.0))
            u = rng.random()
            problems.append(_problem(d, lam, big_l, x=(0.0, u * big_l, big_l * (1.0 - 1e-6 * u))[i % 3]))
        huge = 0
        for p in problems:
            t0 = time.perf_counter()
            got = mfet_exact(p)
            assert time.perf_counter() - t0 < 0.1, p
            if got < math.inf:
                assert _chain_holds(p, got), p
            huge += got == math.inf and p.params.d / 2 + 1 >= 2.0**52
        assert huge == 7

    def test_bound_never_fires_on_a_finite_value(self):
        problems = [p for seed in (11, 23, 37) for p in _sampled_problems(seed, 700)]
        problems += _near_threshold_problems(5, 150)
        decided, near = 0, 0
        for p in problems:
            ln_term, slack, _ = _ln_peak_term(p)
            ln_mfet = _single_integral(p)  # raises unless converged
            # a lower bound on ln E tau, and inf only where E tau overflows
            assert ln_term - slack <= ln_mfet, p
            if ln_term - slack > _MAX_EXP:
                decided += 1
                assert ln_mfet > 709.78, p
                assert mfet_exact(p) == math.inf
            near += 705.0 <= ln_mfet <= 715.0
        assert decided >= 100 and near >= 100


def _mp_mfet(problem):
    """E tau: the series summed from n = 0 at 40 digits.

    Taken from the exact theta/sigma^2, L and x of the problem; the rest of
    each sum is below 1e-40 of the total once y < (b+n)/2.  For lam < 0 the
    terms alternate, so the sum stops on their size, and it cancels unless
    |y| is small against b.
    """
    with mpmath.workdps(40):
        p = problem.params
        s2 = mpmath.mpf(p.sigma) ** 2
        big_l = mpmath.mpf(problem.L)
        y = mpmath.mpf(p.theta) / s2 * big_l**2
        b = mpmath.mpf(p.d) / 2 + 1
        s = (mpmath.mpf(problem.x) / big_l) ** 2
        total, g, n, s_pow = 0, mpmath.mpf(1), 0, s
        while True:
            t = g * (1 - s_pow)
            total += t
            if 2 * y < b + n and abs(t) < abs(total) * mpmath.mpf(10) ** -40:
                return big_l**2 / (s2 * p.d) * total
            g *= y * (n + 1) / ((n + 2) * (b + n))
            n, s_pow = n + 1, s_pow * s


def _chain_holds(problem, value):
    b = mfet_bounds(problem)
    slack = 1e-8 * value
    return b.lower_exp <= value + slack and value <= b.upper_mixed + slack


class TestPositiveSeries:
    """mfet_exact for lam >= 0: the series summed outward from its peak term."""

    def test_matches_mpmath_on_the_sweep(self):
        # the pinned sweep's first 100 problems: 66 finite lam >= 0 values,
        # 6 of them with their peak term past n = 0
        problems = [p for p in _pin_sweep(20804029, 100) if p.params.lam >= 0]
        checked = 0
        for p in problems:
            got = mfet_exact(p)
            if got == math.inf:
                continue
            want = _mp_mfet(p)
            assert abs(got - want) <= 1e-12 * want, p
            checked += 1
        assert checked == 66

    def test_matches_the_quadrature_on_the_sweep(self):
        checked = 0
        for p in _pin_sweep(20804029, 400):
            if p.params.lam <= 0 or p.x == p.L:
                continue
            got = mfet_exact(p)
            if got == math.inf:
                continue
            quad = math.exp(_single_integral(p))
            assert got == pytest.approx(quad, rel=2e-10, abs=0.0), p
            checked += 1
        assert checked == 173

    def test_corrupted_series_breaks_the_bound_chain(self, monkeypatch):
        # the sensitivity a check on the bound chain alone has to a series
        # 5% off: large d pinches the bracket to well under 5%
        problems = [p for p in _pin_sweep(20804029, 400) if p.params.lam > 0]
        values = [mfet_exact(p) for p in problems]
        assert all(_chain_holds(p, v) for p, v in zip(problems, values) if v < math.inf)
        honest = ouexit.mfet._sum_from_peak
        monkeypatch.setattr(ouexit.mfet, "_sum_from_peak",
                            lambda *args: honest(*args) * math.exp(0.05))
        broken = [p for p in problems if not _chain_holds(p, mfet_exact(p))]
        assert broken

    @pytest.mark.parametrize("d", [2**24, 2**40, 2**60])
    def test_huge_dimension_against_mpmath_and_the_bounds(self, d):
        # the README precision grid; the lam > 0 quadrature lost digits here,
        # from the cancellation of (1-d) ln z against ln_lower_gamma(d/2,
        # lam z^2).  lam < 0 integrates the t-integral, and stays below the
        # Brownian value
        for lam in (0.5, 2.0, -0.5, -2.0):
            for y in (0.01, 1.0, 100.0, 1e4):
                big_l = math.sqrt(y / abs(lam))
                for x in (0.0, big_l / 2):
                    p = _problem(d, lam, big_l, x=x)
                    got = mfet_exact(p)
                    assert abs(got - _mp_mfet(p)) <= 1e-12 * got, p
                    if lam > 0:
                        assert _chain_holds(p, got), p
                    else:
                        assert got <= mfet_bm(p) * (1.0 + 1e-10), p

    def test_peak_past_zero_sums_both_sides(self):
        # y = 3b: the largest term is near n = 2b, and the terms below it
        # matter as much as those above
        p = _problem(64, 0.5, math.sqrt(6.0 * 33.0), x=2.0)
        n = _ln_peak_term(p)[2][0]
        assert n > 60
        assert mfet_exact(p) == pytest.approx(float(_mp_mfet(p)), rel=1e-13)

    def test_runaway_series_raises(self, monkeypatch):
        # a cap on the walk up, so a bug cannot hang the loop, and a walk up
        # that converges bounds the walk down; no admissible problem needs
        # more than 2**22 terms up below d = 2**38
        monkeypatch.setattr(ouexit.mfet, "_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError, match="within 10 terms"):
            mfet_exact(_problem(64, 0.5, 8.0))


def _y_with_peak_at(d, k):
    """lam L^2 whose largest term n0 lies k widths sqrt(b + n0) above n = 0."""
    b = 0.5 * d + 1.0
    n0 = 0.5 * (k * k + k * math.sqrt(k * k + 4.0 * b))  # n0 = k sqrt(b + n0)
    return (b + n0) * (n0 + 2.0) / (n0 + 1.0)  # where t_(n0+1) = t_n0


def _bump_sweep(seed, n, d_min=1024.0, d_max=1e6, widths=(14.5, 35.0)):
    # lam > 0 problems whose largest term n0 lies k = U(widths) widths
    # sqrt(b + n0) above n = 0, by default 14.5..35, on the sparse route:
    # d log-uniform on d_min..d_max, and x at 0 or L (1 - 10^-U(1, 12)) in
    # turn.  sigma and L are powers of 2, so theta = y sigma^2/L^2 and
    # y = lam L^2 are exact: E tau's condition number in y is about n0 (up
    # to 2.5e4 at d = 1e6), which would put the rounding of y alone at up
    # to about 5e-12
    rng = random.Random(seed)
    out = []
    for i in range(n):
        d = round(math.exp(rng.uniform(math.log(d_min), math.log(d_max))))
        y = _y_with_peak_at(d, rng.uniform(*widths))
        sigma, big_l = 2.0 ** rng.randint(-2, 2), 2.0 ** rng.randint(-4, 8)
        x = 0.0 if i % 2 == 0 else big_l * (1.0 - 10.0 ** -rng.uniform(1.0, 12.0))
        out.append(ExitProblem(OupParams(y * sigma * sigma / (big_l * big_l), sigma, d),
                               L=big_l, x=x))
    return out


def _on_the_sparse_route(problem):
    scales = _ln_peak_term(problem)[2]
    return _SPARSE_SWITCH * math.sqrt(scales[3] + scales[0]) < scales[0] < 2.0**52


def _window_sum(problem):
    """E tau: the series summed term by term over n0 +- 13 sqrt(b + n0), n0 = ceil(y - b).

    In fixed point with exact rational y, b and s = (x/L)^2: each step
    multiplies by the exact ratio t_(n+1)/t_n and floors, so it shares
    nothing with the library's Binet forms or its trapezoid.  The first
    term, at the window's foot, is scaled out and taken from mpmath's
    loggamma at 60 digits.  The terms past the window are below e^-70 of
    the peak.  On the first 60 problems of _bump_sweep(20261020, 220) it
    matched mpmath.hyp2f2 at 40 digits to 1.3e-30.
    """
    p = problem.params
    d = p.d
    y = Fraction(p.theta) / Fraction(p.sigma) ** 2 * Fraction(problem.L) ** 2
    s = (Fraction(problem.x) / Fraction(problem.L)) ** 2
    n0 = max(0, math.ceil(y - Fraction(d + 2, 2)))
    half = 13 * math.isqrt(d // 2 + 2 + n0)
    lo = max(0, n0 - half)
    one = 1 << 160
    with mpmath.workdps(60):
        ym, b = mpmath.mpf(y.numerator) / y.denominator, mpmath.mpf(d + 2) / 2
        ln_g = lo * mpmath.log(ym) - mpmath.log(lo + 1) - mpmath.loggamma(b + lo) + mpmath.loggamma(b)
        s_pow = int((mpmath.mpf(s.numerator) / s.denominator) ** (lo + 1) * one)
    g, total = one, 0
    for n in range(lo, n0 + half + 1):
        total += g * (one - s_pow)
        g = g * y.numerator * 2 * (n + 1) // (y.denominator * (n + 2) * (d + 2 + 2 * n))
        s_pow = s_pow * s.numerator // s.denominator
    with mpmath.workdps(40):
        c = mpmath.mpf(problem.L) ** 2 / (mpmath.mpf(p.sigma) ** 2 * d)
        return c * mpmath.exp(ln_g) * total / mpmath.mpf(one) ** 2


def _mp_trapezoid(problem):
    """E tau as h sum_j t(n0 + j h), h = sqrt(b + n0)/4, |j| <= 56, n0 = ceil(y - b), at 40 digits.

    Half the library's step, a window of n0 +- 14 widths and mpmath's
    loggamma: it checks the library's step, window and rounding (its Binet
    forms, _rate), where a term-by-term sum would take too long.
    """
    with mpmath.workdps(40):
        p = problem.params
        y = mpmath.mpf(p.theta) / mpmath.mpf(p.sigma) ** 2 * mpmath.mpf(problem.L) ** 2
        b = mpmath.mpf(p.d) / 2 + 1
        s = (mpmath.mpf(problem.x) / problem.L) ** 2
        n0 = mpmath.ceil(y - b)
        h = mpmath.sqrt(b + n0) / 4
        total = 0
        for j in range(-56, 57):
            n = n0 + j * h
            ln_g = n * mpmath.log(y) - mpmath.log(n + 1) - mpmath.loggamma(b + n) + mpmath.loggamma(b)
            total += mpmath.exp(ln_g) * (1 - s ** (n + 1))
        return mpmath.mpf(problem.L) ** 2 / (mpmath.mpf(p.sigma) ** 2 * p.d) * h * total


@functools.lru_cache(maxsize=None)
def _bump_references():
    """(problem, E tau at 40 digits) for every finite problem of a 220-problem _bump_sweep."""
    out = []
    for p in _bump_sweep(20261020, 220):
        assert _on_the_sparse_route(p), p
        if mfet_exact(p) < math.inf:
            out.append((p, _window_sum(p)))
    return out


class TestSparseRoute:
    """mfet_exact for lam >= 0 where the peak term lies over _SPARSE_SWITCH widths above n = 0."""

    def _breaches(self):
        return [p for p, want in _bump_references() if not abs(mfet_exact(p) - want) <= 1e-12 * want]

    def test_matches_the_term_by_term_sum_on_the_sweep(self):
        # d on 1024..1e6 and x at 0 or near L; worst 2.5e-13 (at d = 3978)
        assert len(_bump_references()) >= 200
        assert self._breaches() == []

    @pytest.mark.parametrize("step,reach", [(1.0, 9), (0.5, 7)],
                             ids=["step-doubled", "window-3.5-widths"])
    def test_a_corrupted_route_fails_the_sweep(self, monkeypatch, step, reach):
        # h = sigma over about the same window aliases by about e^(-2 pi^2)
        # = 3e-9; a window of n0 +- 3.5 sigma drops about e^-6 of the sum
        references = _bump_references()  # filled by the honest route
        monkeypatch.setattr(ouexit.mfet, "_SPARSE_STEP", step)
        monkeypatch.setattr(ouexit.mfet, "_SPARSE_REACH", reach)
        assert len(self._breaches()) == len(references)

    @pytest.mark.parametrize("d", [1, 4, 64, 1024, 65536, 10**6])
    def test_the_two_routes_meet_just_past_the_switch(self, monkeypatch, d):
        # n0 just past the switch, x at 0, L/2 and L (1 - 1e-9).  The sums,
        # in units of the peak term, meet within 2e-14 (7.7e-16 measured);
        # the trapezoid scales its sum by ln g_n0 and the loop by c times its
        # walk's product g_n0/g_0, and the values meet within 2e-14 too
        # (1.45e-14 measured)
        lam = _y_with_peak_at(d, _SPARSE_SWITCH + 0.05) / 16.0
        for x in (0.0, 2.0, 4.0 * (1.0 - 1e-9)):
            p = _problem(d, lam, 4.0, x=x)
            assert _on_the_sparse_route(p)
            sparse = mfet_exact(p)
            n0, _, y, b, ln_s, f0, *_ = _ln_peak_term(p)[2]
            total = ouexit.mfet._sparse_sum(n0, y, b, ln_s)
            with monkeypatch.context() as m:
                m.setattr(ouexit.mfet, "_SPARSE_SWITCH", math.inf)
                loop = mfet_exact(p)
                # c = inf and ln c = ln_rise = 0: the loop's sum itself
                walked = ouexit.mfet._sum_from_peak(n0, 0.0, y, b, ln_s, f0, math.inf, 0.0)
            assert abs(total - walked) <= 2e-14 * walked, p
            assert abs(sparse - loop) <= 2e-14 * loop, p

    def test_the_rest_below_the_window_is_negligible(self):
        # just past the switch, d = 1..2**60: the terms below the window's
        # bottom n- sum to at most g_0 (y/b)^n- (1 + ln n-), as (b)_n >= b^n
        # (_sparse_sum), under 1e-18 of the sum (9.5e-19 measured, at 2**60)
        reach = ouexit.mfet._SPARSE_REACH * ouexit.mfet._SPARSE_STEP
        for d in [2**k for k in range(0, 61, 4)]:
            p = _problem(d, _y_with_peak_at(d, _SPARSE_SWITCH + 0.05) / 16.0, 4.0)
            assert _on_the_sparse_route(p)
            n0, ln_rise, y, b, *_ = _ln_peak_term(p)[2]
            n_low = n0 - reach * math.sqrt(b + n0)
            ln_rest = -ln_rise + n_low * math.log1p((y - b) / b) + math.log(1.0 + math.log(n_low))
            assert math.exp(ln_rest) < _SERIES_TOL * ouexit.mfet._sparse_sum(n0, y, b, 0.0), d

    def test_bits_over_interior_bumps(self):
        # mfet_exact pinned to the last bit on 300 problems of the route, d on
        # 1024..2**60; test_bits_over_a_broad_sweep holds four, all at d <= 4820
        problems = _bump_sweep(20261022, 300, d_max=2.0**60)
        assert all(map(_on_the_sparse_route, problems))
        got = _digest([(mfet_exact, p) for p in problems])
        assert got == "fb8a61695d370453ed9b4a4cf222ef5085259e6b77fccee76be7e1a67597583c"

    def test_a_peak_index_stopped_at_2_52_walks(self, monkeypatch):
        # d = 2e29, lam L^2 = b + 1e16: the peak is near n = 1e16, past the
        # 2**52 where _ln_peak_term stops n0, which still lies 14.2 widths
        # above n = 0.  A window there misses the peak (it gave 1.03e202);
        # the loop walks on and reaches its term cap
        b = 1e29 + 1.0
        p = _problem(2 * 10**29, 1.0, math.sqrt(b + 1e16))
        assert _ln_peak_term(p)[2][0] == 2.0**52
        monkeypatch.setattr(ouexit.mfet, "_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError, match="within 10 terms"):
            mfet_exact(p)

    @pytest.mark.parametrize("d", [2**40, 2**50])
    def test_huge_dimension_interior_bump(self, d):
        # past d = 2**38 the loop needed over 2**22 terms a side and raised
        # ConvergenceError; at n0 = 20 widths (about 2e7 and 7e8 terms) the
        # trapezoid at 40 digits with half the step and a wider window, from
        # mpmath's loggamma, is the reference
        lam = _y_with_peak_at(d, 20.0) / 4.0
        for x in (0.0, 2.0 * (1.0 - 1e-9)):
            p = _problem(d, lam, 2.0, x=x)
            assert _on_the_sparse_route(p)
            want = _mp_trapezoid(p)
            assert abs(mfet_exact(p) - want) <= 1e-12 * want, p


class TestLoopLogScale:
    """mfet_exact for lam >= 0 at large dimension with the peak 9..14 widths above n = 0.

    Either side of _SPARSE_SWITCH: the loop walks down to n = 0 and scales
    its sum by c g_n0/g_0, and the trapezoid scales its sum by ln g_n0.
    """

    def test_matches_the_term_by_term_sum_at_large_dimension(self):
        # d on 2**16..2**22, x at 0 or near L.  An ln_rise formed from pieces
        # of about n0, each an ulp of n0 off, missed 1e-12 on 16 of these
        # (worst 3.1e-12).  Last, the CI's pinned walk: d = 2**22 and
        # lam L^2 = 2111109, n0 at 9.5 widths, 13,804 terms down to n = 0
        problems = _bump_sweep(20261043, 120, d_min=2.0**16, d_max=2.0**22, widths=(9.0, 14.0))
        problems.append(_problem(2**22, 0.5033276081085205, 2048.0))
        assert set(map(_on_the_sparse_route, problems)) == {False, True}
        assert not _on_the_sparse_route(problems[-1])
        breaches = [p for p, want in zip(problems, map(_window_sum, problems))
                    if not abs(mfet_exact(p) - want) <= 1e-12 * want]
        assert breaches == []


def _transient_sweep(seed, n):
    # lam < 0 problems: d log-uniform on 1..2**60, mu L^2 on 1e-6..1e300,
    # L on 1e-3..1e100, sigma on 0.5..2, and x at 0, U L or L (1 - 1e-6 U)
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for i in range(n):
        d, sigma, big_l = round(log_uniform(1, 2.0**60)), log_uniform(0.5, 2.0), log_uniform(1e-3, 1e100)
        mu, u = log_uniform(1e-6, 1e300) / (big_l * big_l), rng.random()
        x = (0.0, u * big_l, big_l * (1.0 - 1e-6 * u))[i % 3]
        out.append(_problem(d, -mu, big_l, x=x, sigma=sigma))
    return out


class TestTransientBracket:
    """lam < 0: the log bounds on 2 sigma^2 mu E tau, and the Brownian value, with no mpmath.

    With a = d/2, A = mu x^2 and D = mu (L^2 - x^2), Jensen's inequality
    gives ln(1 + D/(a + A)) <= 2 sigma^2 mu E tau, and ln t <= t - 1 gives
    2 sigma^2 mu E tau <= ln(1 + D/(a - 1 + A)) for d >= 3.
    """

    def test_log_bounds_hold_over_a_seeded_sweep(self):
        for p in _transient_sweep(20260611, 300):
            got = mfet_exact(p)
            a, mu, big_l, x = 0.5 * p.params.d, -p.params.lam, p.L, p.x
            big_a, big_d = mu * x * x, mu * (big_l - x) * (big_l + x)
            scaled = -2.0 * p.params.theta * got  # 2 sigma^2 mu E tau
            assert math.log1p(big_d / (a + big_a)) <= scaled * (1.0 + 1e-12), p
            if p.params.d >= 3:
                assert scaled <= math.log1p(big_d / (a - 1.0 + big_a)) * (1.0 + 1e-12), p
            assert got <= mfet_bm(p) * (1.0 + 1e-12), p

    def test_brownian_limit(self):
        # mu L^2 = 1e-20: E tau is the Brownian value to 1e-20, less rounding
        for p in _transient_sweep(20260611, 120):
            q = p.params
            near = _problem(q.d, -1e-20 / (p.L * p.L), p.L, x=p.x, sigma=q.sigma)
            assert mfet_exact(near) == pytest.approx(mfet_bm(near), rel=1e-12, abs=0.0), near


def _mp_transient(problem):
    """E tau for lam < 0: the module docstring's t-integral by mpmath at 40 digits.

    In s = 1 - t, with breakpoints at s = 10^j/(a + mu L^2), where the
    integrand turns, and divided by D: mpmath's quadrature stops on an
    absolute error, which an integrand of size D near 1e-246 meets at once.
    """
    with mpmath.workdps(40):
        p = problem.params
        mu = -mpmath.mpf(p.theta) / mpmath.mpf(p.sigma) ** 2
        a, big_l, x = mpmath.mpf(p.d) / 2, mpmath.mpf(problem.L), mpmath.mpf(problem.x)
        big_a, big_d = mu * x * x, mu * (big_l - x) * (big_l + x)
        points, s = [0], 1 / (100 * (a + big_a + big_d))
        while s < 1:
            points.append(s)
            s *= 10
        total = mpmath.quad(lambda s: (1 - s) ** (a - 1) * mpmath.exp(-big_a * s)
                            * -mpmath.expm1(-big_d * s) / (big_d * s), points + [1])
        return total * big_d / (2 * mu * mpmath.mpf(p.sigma) ** 2)


class TestTransientSeries:
    """lam < 0 where mu L^2 <= _SERIES_MAX_Y: the Poisson series, mfet_bm
    times a mean of a/(a + n), with the quadrature past the switch."""

    def test_against_mpmath_across_both_switches(self):
        # mu L^2 on e^-35..1 times _SERIES_MAX_Y, 0.8..1 times it, D/d on
        # 0.5..2 times 1e-280, or 1..1.25 times _SERIES_MAX_Y (the
        # quadrature), in turn; d log-uniform on 1..2**60 and x at 0, U L or
        # L (1 - 10^-U(0, 15)).  Over 400 draws (seeds 5 and 20261020) the
        # series was at worst 4.8e-16 off, under its 2e-15 gate, and the
        # quadrature 8.1e-15, so its gate is 2e-14
        rng = random.Random(20261020)
        gates, routes = {True: 2e-15, False: 2e-14}, {True: 0, False: 0}
        for i in range(32):
            d, sigma = round(math.exp(rng.uniform(0.0, math.log(2.0**60)))), rng.uniform(0.5, 2.0)
            big_l, u = math.exp(rng.uniform(-3.0, 3.0)), rng.random()
            x = (0.0, u * big_l, big_l * (1.0 - 10.0 ** rng.uniform(-15.0, 0.0)))[i % 3]
            kind = i % 4
            if kind == 2:
                y = 1e-280 * d * rng.uniform(0.5, 2.0) / (1.0 - (x / big_l) ** 2)
            else:
                y = _SERIES_MAX_Y * (rng.uniform(0.8, 1.0) if kind == 1 else rng.uniform(1.0, 1.25)
                                     if kind == 3 else math.exp(rng.uniform(-35.0, 0.0)))
            p = _problem(d, -y / (big_l * big_l), big_l, x=x, sigma=sigma)
            series = -p.params.lam * big_l * big_l <= _SERIES_MAX_Y
            routes[series] += 1
            want = _mp_transient(p)
            assert abs(mfet_exact(p) - want) <= gates[series] * want, p
        assert min(routes.values()) >= 5, routes

    def test_the_two_routes_meet_at_the_switch(self, monkeypatch):
        # mu L^2 = _SERIES_MAX_Y exactly takes the series, theta one ulp past
        # it the quadrature; the two agree to 1e-13
        at = _problem(1, -_SERIES_MAX_Y / 100.0, 10.0, x=2.5)
        past = _problem(1, math.nextafter(-_SERIES_MAX_Y / 100.0, -math.inf), 10.0, x=2.5)
        called = []
        monkeypatch.setattr(ouexit.mfet, "integrate_log",
                            lambda *args: called.append(1) or integrate_log(*args))
        got_at = mfet_exact(at)
        assert called == []
        got_past = mfet_exact(past)
        assert called == [1]
        assert abs(got_past - got_at) <= 1e-13 * got_at

    def test_tiny_d_takes_the_series(self, monkeypatch):
        # D/d below 1e-280, where the sum of c_n/(a + n) would be near the
        # subnormal range: |theta| log-uniform from the smallest normal, d
        # on 1..10**300 and x at 0, U L or L (1 - 1e-15), in turn; the draws
        # ExitProblem refuses are skipped.  There y/a < 1e-262, so E tau is
        # mfet_bm to far below an ulp: the reference, within 2 ulps (a
        # 40-digit quadrature with 1 - s rounded to 1 was off by O(1) at
        # d = 10**300).  Also pinned: the problem the quadrature missed by
        # 2.2e-13, against mpmath, and the d = 10**300 ball it put 3e-14
        # above mfet_bm
        called = []
        monkeypatch.setattr(ouexit.mfet, "integrate_log",
                            lambda *args: called.append(1) or integrate_log(*args))
        rng = random.Random(20261021)
        problems = []
        for i in range(1000):
            d, sigma = round(math.exp(rng.uniform(0.0, math.log(1e300)))), rng.uniform(0.5, 2.0)
            big_l = math.exp(rng.uniform(-3.0, 3.0))
            x = (0.0, rng.random() * big_l, big_l * (1.0 - 1e-15))[i % 3]
            s2 = sigma * sigma
            top = min(1e-280 * d * s2 / ((big_l - x) * (big_l + x)), _SERIES_MAX_Y * s2 / big_l**2)
            if top > sys.float_info.min:
                theta = -math.exp(rng.uniform(math.log(sys.float_info.min), math.log(top)))
                try:
                    problems.append(ExitProblem(OupParams(theta, sigma, d), L=big_l, x=x))
                except DomainError:
                    pass
        assert len(problems) >= 900
        found = ExitProblem(OupParams(-9.14915339870259e-277, 1.5019298237109133, 35),
                            L=0.08604108603334147, x=0.0)
        huge = ExitProblem(OupParams(-0.5, 1.0, 10**300), L=4.0, x=0.0)
        for p in [*problems, found, huge]:
            q, got, bm = p.params, mfet_exact(p), mfet_bm(p)
            assert -q.lam * (p.L - p.x) * (p.L + p.x) < 1e-280 * q.d, p
            assert -q.lam * p.L * p.L < 1e-17 * 0.5 * q.d, p
            assert abs(got - bm) <= 2.0 * math.ulp(bm), p
            assert got <= bm * (1.0 + 2.0**-52), p
        want = _mp_transient(found)
        assert abs(mfet_exact(found) - want) <= 1e-15 * want
        assert called == []


class TestBrownianClosedForm:
    def test_spot_values(self):
        assert mfet_bm(_problem(4, 0.0, 2.0)) == 1.0
        assert mfet_bm(_problem(1000, 0.0, 2.5)) == 0.00625

    def test_boundary_start(self):
        assert mfet_bm(_problem(7, 0.9, 1.25, x=1.25)) == 0.0

    def test_no_cancellation_near_the_boundary(self):
        # (L - x)(L + x) is exact here; L*L - x*x lost the 2**-60 in x*x
        assert mfet_bm(_problem(1, 0.0, 1.0, x=1.0 - 2.0**-30)) == 2.0**-29 - 2.0**-60

    def test_theta_is_ignored(self):
        assert mfet_bm(_problem(4, 5.0, 2.0)) == mfet_bm(_problem(4, 0.0, 2.0))

    def test_overflowing_square_gives_the_finite_value(self):
        # L^2 = 1e400 overflows, L^2/(sigma^2 d) = 1e92 does not; the series
        # scales by the same L^2/(sigma^2 d), in place of a log round trip
        p = ExitProblem(OupParams(theta=0.0, sigma=1.0, d=10**308), L=1e200, x=0.0)
        for got in (mfet_bm(p), mfet_exact(p)):
            assert abs(got - 1e92) <= math.ulp(1e92)


def _mp_bounds(problem):
    """(upper_mixed, upper_exp, lower_exp, lower_bm) at 60 digits, from the paper's four formulas.

    e^(r L^2) - e^(r x^2) is taken as e^(r x^2) expm1(r D), D = L^2 - x^2,
    which mpmath forms without cancellation at every r D.
    """
    with mpmath.workdps(60):
        p = problem.params
        theta, s2, d = mpmath.mpf(p.theta), mpmath.mpf(p.sigma) ** 2, mpmath.mpf(p.d)
        lam, x2 = theta / s2, mpmath.mpf(problem.x) ** 2
        big_d = mpmath.mpf(problem.L) ** 2 - x2
        diff = mpmath.exp(lam * x2) * mpmath.expm1(lam * big_d)
        g = 2 * lam / (d + 2)
        return (2 / (s2 * d * (d + 2)) * (diff / lam + d / 2 * big_d),
                diff / (theta * d),
                (1 + 2 / d) / (2 * lam * s2) * mpmath.exp(g * x2) * mpmath.expm1(g * big_d),
                big_d / (s2 * d))


def _extreme_sweep(seed, n):
    # lam > 0 problems over the double range: d log-uniform on 1..1e300, lam
    # on e^+-300, sigma on e^+-20, L on e^+-50, and x at 0, U L or L (1 - 1e-9 U);
    # the draws ExitProblem refuses are skipped
    rng = random.Random(seed)
    out = []
    for i in range(n):
        d = round(math.exp(rng.uniform(0.0, math.log(1e300))))
        lam, sigma, big_l = (math.exp(rng.uniform(-h, h)) for h in (300.0, 20.0, 50.0))
        u = rng.random()
        x = (0.0, u * big_l, big_l * (1.0 - 1e-9 * u))[i % 3]
        try:
            out.append(_problem(d, lam, big_l, x=x, sigma=sigma))
        except DomainError:
            pass
    return out


def _worst_scaled_error(problems):
    """The largest relative error of a bound over 1 + r L^2, in units of 2**-53.

    r is the bound's rate: lam for the upper bounds, 2 lam/(d+2) for
    lower_exp, 0 for lower_bm.  Rounding lam = theta/sigma^2 moves
    e^(r L^2) by r L^2 of its relative rounding, so that much is the
    inputs' share, not the formula's.  Measured: at most 4.9 over the
    pinned, extreme and benchmark sweeps.  A bound that is inf where
    mpmath's value is inside the double range counts as an infinite error.
    """
    worst = 0.0
    for p in problems:
        lam, l2 = p.params.lam, p.L * p.L
        rates = (lam, lam, 2.0 * lam / (p.params.d + 2.0), 0.0)
        for r, got, ref in zip(rates, astuple(mfet_bounds(p)), _mp_bounds(p)):
            if got < math.inf:
                worst = max(worst, float(abs(got - ref) / ref) / ((1.0 + r * l2) * 2.0**-53))
            elif ref < (1.0 - 1e-12) * sys.float_info.max:
                return math.inf
    return worst


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

    @pytest.mark.parametrize("d,big_l,x,sigma,theta", [
        (4, 3.0, 0.0, 3.1622776601683795e153, 5e306),  # sigma**2 d (d+2) overflows
        (2**600, 4.0, 2.0, 1.0, 0.5),                  # d (d+2) overflows
        (4, 2.0, 0.0, 2.5e307**0.5, 5e307),            # theta d overflows
    ])
    def test_upper_bounds_do_not_underflow(self, d, big_l, x, sigma, theta):
        # 2 / (sigma**2 d (d+2)) and 1 / (theta d) were 0, so upper_mixed
        # (and upper_exp) came out 0.0, below E tau
        p = ExitProblem(OupParams(theta=theta, sigma=sigma, d=d), L=big_l, x=x)
        got = mfet_exact(p)
        b = mfet_bounds(p)
        assert _chain_holds(p, got)
        assert 0.0 < b.upper_mixed <= b.upper_exp

    def test_pinned_overflow_problem_is_finite(self):
        # lam L^2 = 706.3 < 709.78 with lam < 1: e^(lam L^2)/lam overflows,
        # upper_mixed does not
        p = ExitProblem(OupParams(theta=0.03564128512650495, sigma=0.8209532881324187, d=2377),
                        L=115.81965166239306, x=0.0)
        b = mfet_bounds(p)
        for got, ref in zip(astuple(b), _mp_bounds(p)):
            assert math.isfinite(got)
            assert abs(got - ref) <= 1e-13 * ref
        assert b.lower_exp <= mfet_exact(p) <= b.upper_mixed

    def test_overflowing_factor_with_a_tiny_brownian_value_is_finite(self):
        # lam L^2 = 905: phi(lam) overflows, lower_bm phi(lam) does not
        p = ExitProblem(OupParams(theta=3.5260124211101914e-24, sigma=4721858.773235677,
                                  d=int(3.881102954795816e124)),
                        L=7.56856609063883e19, x=1.1422548499390847e19)
        assert _worst_scaled_error([p]) <= 6.0
        b = mfet_bounds(p)
        assert b.upper_mixed == pytest.approx(1.0176e168, rel=1e-4)
        assert b.upper_exp == pytest.approx(1.9746e292, rel=1e-4)

    def test_underflowed_rate_with_an_overflowing_square_is_not_nan(self):
        # w lam = 2e-608 is 0 and D = 1e400 is inf: (w lam (L - x))(L + x) is 0
        p = ExitProblem(OupParams(theta=1e-300, sigma=1.0, d=10**308), L=1e200, x=0.0)
        b = mfet_bounds(p)
        assert (b.upper_mixed, b.upper_exp) == (math.inf, math.inf)
        assert b.lower_exp == b.lower_bm == mfet_bm(p)

    def test_past_the_double_range_in_lam_d_is_inf_not_nan(self):
        # lam (L^2 - x^2) = 1e320 is inf, and so is its log
        b = mfet_bounds(ExitProblem(OupParams(theta=1e300, sigma=1.0, d=4), L=1e10, x=0.0))
        assert (b.upper_mixed, b.upper_exp, b.lower_exp) == (math.inf, math.inf, math.inf)
        assert b.lower_bm == 2.5e19

    def test_accuracy_on_the_pinned_sweep(self):
        problems = [p for p in _pin_sweep(20804029, 400) if p.params.lam > 0 and p.x < p.L]
        assert len(problems) == 200
        assert _worst_scaled_error(problems) <= 6.0

    def test_chain_over_the_double_range(self):
        # lower_bm <= lower_exp and upper_mixed <= upper_exp exactly (phi >= 1,
        # 1 - w + w phi <= phi); the middle link's two sides agree to second
        # order in w lam L^2, and 193k draws broke it by at most 2 ulp.  No
        # value is nan, and one is inf only where r L^2 passes 709.78 at its
        # rate r, where e^(r L^2) in the four formulas is inf too.  Every
        # tenth draw is checked against mpmath
        problems = _extreme_sweep(7, 6000)
        assert len(problems) > 5500
        for p in problems:
            b = mfet_bounds(p)
            assert not any(map(math.isnan, astuple(b))), p
            assert b.lower_bm <= b.lower_exp, p
            assert b.lower_exp <= b.upper_mixed + 2.0 * math.ulp(b.upper_mixed), p
            assert b.upper_mixed <= b.upper_exp, p
            lam, l2 = p.params.lam, p.L * p.L
            if b.upper_exp == math.inf:
                assert lam * l2 > _MAX_EXP, p
            if b.lower_exp == math.inf:
                assert 2.0 * lam / (p.params.d + 2.0) * l2 > _MAX_EXP, p
        assert _worst_scaled_error(problems[::10]) <= 6.0

    def test_chain_ordering_on_grid(self):
        for d in (1, 2, 16, 256, 4096):
            for lam in (0.1, 0.5, 0.7, 2.0):
                for big_l, x in ((4.0, 0.0), (3.0, 0.0), (2.0, 1.0)):
                    b = mfet_bounds(_problem(d, lam, big_l, x=x))
                    assert b.lower_bm <= b.lower_exp * (1 + 1e-13)
                    assert b.lower_exp <= b.upper_mixed * (1 + 1e-13)
                    assert b.upper_mixed <= b.upper_exp * (1 + 1e-13)


def _admitted_sweep(seed, n):
    # problems over the whole admitted double range: d log-uniform on
    # 1..1e300, lam = +-e^U(-690, 690) or 0, sigma = e^U(-150, 150),
    # L = e^U(-300, 700), x at 0, U L or L (1 - 1e-9 U) in turn, and theta =
    # lam sigma^2; the draws ExitProblem refuses are skipped
    rng = random.Random(seed)
    out = []
    for i in range(n):
        d = round(math.exp(rng.uniform(0.0, math.log(1e300))))
        lam = rng.choice((-1.0, 0.0, 1.0)) * math.exp(rng.uniform(-690.0, 690.0))
        sigma, big_l = math.exp(rng.uniform(-150.0, 150.0)), math.exp(rng.uniform(-300.0, 700.0))
        u = rng.random()
        x = (0.0, u * big_l, big_l * (1.0 - 1e-9 * u))[i % 3]
        try:
            out.append(_problem(d, lam, big_l, x=x, sigma=sigma))
        except DomainError:
            pass
    return out


class TestAdmittedRange:
    """Every admitted problem: mfet_exact gives a value or ConvergenceError, and
    mfet_bm and the bounds are inf only past the double range, never nan."""

    def test_sweep_over_the_double_range(self):
        problems = _admitted_sweep(2, 5000)
        assert len(problems) > 3000
        positive = []
        for p in problems:
            t0 = time.perf_counter()
            try:
                mfet_exact(p)
            except ConvergenceError:
                pass
            assert time.perf_counter() - t0 < 0.1, p
            if mfet_bm(p) == math.inf:
                s2d = p.params.sigma * p.params.sigma * p.params.d
                assert math.log(p.L - p.x) + math.log(p.L + p.x) - math.log(s2d) > _MAX_EXP, p
            if p.params.lam > 0:
                assert not any(map(math.isnan, astuple(mfet_bounds(p)))), p
                positive.append(p)
        assert _worst_scaled_error(positive[::10]) <= 6.0


def _identity_sweep(seed, n):
    # (problem, x2, c, k) over every sign of lam: d log-uniform on 1..2**60,
    # |lam| on e^+-30, L on e^+-10 or within e^+-3 of sqrt(d/|lam|), x at 0,
    # U L or L (1 - 1e-6 U) in turn, x2 = x + (L - x) U(0.1, 0.9), and exact
    # factors c = 2^(-8..8), k = 2^(-6..6); the draws ExitProblem refuses
    # are skipped
    rng = random.Random(seed)
    out = []
    for i in range(n):
        d = round(math.exp(rng.uniform(0.0, math.log(2.0**60))))
        lam = (-1.0, 0.0, 1.0, -1.0, 1.0)[i % 5] * math.exp(rng.uniform(-30.0, 30.0))
        sigma = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        if lam and rng.random() < 0.5:
            big_l = math.sqrt(d / abs(lam)) * math.exp(rng.uniform(-3.0, 3.0))
        else:
            big_l = math.exp(rng.uniform(-10.0, 10.0))
        u = rng.random()
        x = (0.0, u * big_l, big_l * (1.0 - 1e-6 * u))[i % 3]
        x2 = x + (big_l - x) * rng.uniform(0.1, 0.9)
        c, k = 2.0 ** rng.randint(-8, 8), 2.0 ** rng.randint(-6, 6)
        try:
            out.append((_problem(d, lam, big_l, x=x, sigma=sigma), x2, c, k))
        except DomainError:
            pass
    return out


class TestExitTimeIdentities:
    """Three exact identities of E tau = u(x), with no reference value:

    - strong Markov additivity: u(x) = E_x tau_x2 + u(x2) for x < x2 < L;
    - space scaling: (sigma, L, x) -> (c sigma, c L, c x) leaves E tau unchanged;
    - time scaling: (theta, sigma) -> (k^2 theta, k sigma) divides E tau by k^2.

    c and k are powers of 2, so the scaled inputs are exact.  The worst
    relative errors over _identity_sweep seeds 1-13 x 3000 are: additivity
    4.9e-13 for lam >= 0 (seed 10) and 4.4e-13 for lam < 0 (a ball of
    mu L^2 = 7e17, on the quadrature); space 5.7e-14; time 9.9e-14.  The
    gates hold on this test's own seed.  Seed 11's lam >= 0 additivity case,
    8.6e-13 off when the term-by-term loop summed it, is 3.1e-13 off on the
    sparse route, and pinned below.
    """

    # identity: (gate for lam < 0, gate for lam >= 0)
    GATES = {"additivity": (1e-12, 5e-13), "space": (1.2e-13, 1.2e-13), "time": (2.5e-13, 2.5e-13)}

    def _breaches(self, cases):
        """(identities some case breaks, cases with every value finite, per sign of lam)."""
        broken, finite = set(), {"lam < 0": 0, "lam >= 0": 0}
        for p, x2, c, k in cases:
            q = p.params
            u = mfet_exact(p)
            sides = {
                "additivity": mfet_exact(ExitProblem(q, L=x2, x=p.x))
                + mfet_exact(ExitProblem(q, L=p.L, x=x2)),
                "space": mfet_exact(ExitProblem(OupParams(q.theta, c * q.sigma, q.d),
                                                L=c * p.L, x=c * p.x)),
                "time": k * k * mfet_exact(ExitProblem(OupParams(k * k * q.theta, k * q.sigma, q.d),
                                                       L=p.L, x=p.x)),
            }
            if not (0.0 < u < math.inf and max(sides.values()) < math.inf):
                continue
            finite["lam < 0" if q.lam < 0 else "lam >= 0"] += 1
            broken.update(name for name, v in sides.items()
                          if not abs(v - u) <= self.GATES[name][q.lam >= 0] * u)
        return broken, finite

    def test_identities_hold_over_a_seeded_sweep(self):
        broken, finite = self._breaches(_identity_sweep(20261019, 1000))
        assert broken == set()
        assert min(finite.values()) >= 300, finite

    def test_additivity_holds_on_the_worst_seeded_case(self):
        # n0 = 18249 at d = 630574: the three values are -1.5e-13, +1.3e-12
        # and -1.0e-13 off 40-digit mpmath, and -1.0e-13, +2.6e-14 and
        # -5.5e-14 off it at the library's own rounded lam L^2
        q = OupParams(theta=0.0004092554893264649, sigma=0.8751221971164107, d=630574)
        big_l, x, x2 = 24983.5943273926, 24983.57365904001, 24983.577613694066
        u = mfet_exact(ExitProblem(q, L=big_l, x=x))
        v = mfet_exact(ExitProblem(q, L=x2, x=x)) + mfet_exact(ExitProblem(q, L=big_l, x=x2))
        assert abs(v - u) <= self.GATES["additivity"][1] * u

    @pytest.mark.parametrize("corruption,breaks", [("series", {"additivity"}),
                                                   ("lam", {"space", "time"})],
                             ids=["series", "lam"])
    def test_a_corruption_breaks_its_identity(self, monkeypatch, corruption, breaks):
        # the positive series off by 1e-9 lam L^2 moves a sub-ball apart from
        # its ball, but keeps lam L^2, so both scalings; lam = theta /
        # sigma^(2 + 1e-9) moves both scalings, but every sub-ball alike
        if corruption == "series":
            honest = ouexit.mfet._sum_from_peak
            monkeypatch.setattr(ouexit.mfet, "_sum_from_peak",
                                lambda *scales: honest(*scales) * (1.0 + 1e-9 * scales[2]))
        else:
            monkeypatch.setattr(OupParams, "lam",
                                property(lambda self: self.theta / self.sigma ** (2.0 + 1e-9)))
        assert self._breaches(_identity_sweep(20261019, 1000))[0] == breaks


class TestAsymptoticRatio:
    def test_brownian_case_is_one(self):
        p = _problem(8, 1e-12, 2.0, x=0.5)
        assert asymptotic_ratio(p) == pytest.approx(1.0, rel=1e-6)

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
        assert drift_ratio(p, 3.0) == pytest.approx(-5.3, rel=1e-13, abs=0.0)
        p128 = OupParams(theta=0.7, sigma=1.0, d=128)
        assert drift_ratio(p128, 3.0) == pytest.approx(1.0 - 12.6 / 128.0, rel=1e-13, abs=0.0)

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
        # the residual is the rounding of the four series values
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

    def test_transient_bits_over_a_seeded_sweep(self):
        # for lam < 0 each sub-ball exit time is one Poisson series (mu L^2
        # <= 150) or one quadrature of the t-integral, and the residuals are
        # pinned to the last bit
        rng = random.Random(20804029)
        calls = []
        for _ in range(60):
            d, sigma = round(math.exp(rng.uniform(0.0, math.log(65536)))), rng.uniform(0.5, 2.0)
            lam, big_l = -math.exp(rng.uniform(math.log(0.01), math.log(5.0))), rng.uniform(0.2, 6.0)
            p = _problem(d, lam, big_l, sigma=sigma)
            calls.append((avp_residual, p, big_l * rng.uniform(0.05, 0.95), 1e-3 * big_l))
        assert _digest(calls) == "4bb2cf6edb3c0d70176d3a3173ed06d42a93fe852b89cfae5dcd30e375223a2d"

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

    def test_dimension_stays_in_double_range(self):
        # an int past the largest double raised OverflowError in sigma**2 * d;
        # the largest one that converts is still a dimension
        assert OupParams(theta=0.0, sigma=1e-100, d=2**1024 - 2**971).d == 2**1024 - 2**971
        for d in (2**1024 - 2**970, 10**400):
            with pytest.raises(DomainError, match="dimension d leaves the double range"):
                OupParams(theta=0.5, sigma=1.0, d=d)

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
        # L**2 is normal, but the Brownian value L**2 / (sigma**2 d) is not:
        # mfet_exact came out above its own upper_mixed
        with pytest.raises(DomainError, match=re.escape("L**2 / (sigma**2 * d) leaves the double range")):
            ExitProblem(OupParams(theta=0.5, sigma=1.0, d=4), L=1.5e-154, x=0.0)

    def test_brownian_value_from_the_start_must_not_underflow(self):
        # L**2 / (sigma**2 d) is normal, but (L - x)(L + x) / (sigma**2 d) is
        # not: mfet_exact gave 9.21946e-319, 1.5e-6 from mpmath
        p = OupParams(theta=-5.35256235907503e186, sigma=6.070914263239435e54, d=63777619)
        big_l = 3.327200555988594e-95
        with pytest.raises(DomainError, match=re.escape("(L**2 - x**2) / (sigma**2 * d) leaves the double range")):
            ExitProblem(p, L=big_l, x=3.327200555985337e-95)
        assert mfet_exact(ExitProblem(p, L=big_l, x=big_l)) == 0.0

    def test_radius_square_must_not_overflow_where_e_tau_is_finite(self):
        # theta < 0 keeps E tau finite, but mfet_bm, its upper bound, would
        # be inf or nan; theta >= 0 makes E tau inf, which mfet_exact decides
        with pytest.raises(DomainError, match=re.escape("L**2 leaves the double range at ball radius L=1e+200")):
            ExitProblem(OupParams(theta=-0.5, sigma=1.0, d=4), L=1e200, x=0.0)
        for theta in (0.0, 0.5):
            p = ExitProblem(OupParams(theta=theta, sigma=1.0, d=4), L=1e200, x=0.0)
            assert mfet_exact(p) == math.inf

    def test_lambda_is_derived(self):
        p = OupParams(theta=0.5, sigma=2.0, d=3)
        assert p.lam == 0.125
