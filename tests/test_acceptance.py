"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Criteria marked [grid] sweep the full dimension/reversion
grid d in {1, 2, 4, ..., 4096}, lam in {0.1, 0.5, 0.7, 2}, (L, x) in
{(4,0), (3,0), (2,1), (2.5,2.5)}.
"""

import json
import math

import numpy as np
import pytest

import ouexit.mfet
from ouexit import (
    ExitProblem,
    OupParams,
    asymptotic_ratio,
    avp_residual,
    mfet_bm,
    mfet_bounds,
    mfet_exact,
)
from ouexit.cli import main as cli_main
from ouexit.special import ln_lower_gamma

DIMS = [2**k for k in range(13)]  # 1 .. 4096
LAMBDAS = [0.1, 0.5, 0.7, 2.0]
GEOMETRIES = [(4.0, 0.0), (3.0, 0.0), (2.0, 1.0), (2.5, 2.5)]


def _problem(d, lam, big_l, x=0.0, sigma=1.0):
    return ExitProblem(OupParams(theta=lam * sigma * sigma, sigma=sigma, d=d), L=big_l, x=x)


def test_criterion_1_brownian_reduction():
    """lam -> 0 limit matches (L^2 - x^2)/(sigma^2 d) to 1e-6 relative."""
    for d in DIMS:
        for big_l, x, sigma in ((4.0, 0.0, 1.0), (2.0, 1.0, 1.0), (3.0, 0.0, 2.0)):
            p = _problem(d, 1e-12, big_l, x=x, sigma=sigma)
            got = mfet_exact(p)
            want = mfet_bm(p)
            assert abs(got - want) / want <= 1e-6, (d, big_l, x, sigma, got, want)
    print("criterion 1 (Brownian reduction): PASS")


def test_criterion_2_bound_bracket():
    """lower_bm <= lower_exp <= exact <= upper_mixed <= upper_exp on the grid,
    with 1e-8 relative quadrature slack on the exact-value comparisons, plus
    closed-form spot values at (sigma, lam, d, L, x) = (1, 0.5, 4, 4, 0)."""
    for d in DIMS:
        for lam in LAMBDAS:
            for big_l, x in GEOMETRIES:
                p = _problem(d, lam, big_l, x=x)
                b = mfet_bounds(p)
                got = mfet_exact(p)
                slack = 1e-8 * got
                case = (d, lam, big_l, x)
                assert b.lower_bm <= b.lower_exp * (1 + 1e-13) + 1e-300, case
                assert b.lower_exp <= got + slack, case
                assert got <= b.upper_mixed + slack, case
                assert b.upper_mixed <= b.upper_exp * (1 + 1e-13) + 1e-300, case

    b = mfet_bounds(_problem(4, 0.5, 4.0))
    got = mfet_exact(_problem(4, 0.5, 4.0))
    e8 = math.exp(8.0)
    assert b.lower_bm == pytest.approx(4.0, rel=1e-10)
    assert b.lower_exp == pytest.approx(1.5 * (math.exp(16.0 / 6.0) - 1.0), rel=1e-10)
    assert b.upper_mixed == pytest.approx((2.0 * (e8 - 1.0) + 32.0) / 12.0, rel=1e-10)
    assert b.upper_exp == pytest.approx((e8 - 1.0) / 2.0, rel=1e-10)
    assert b.lower_exp < got < b.upper_mixed
    print("criterion 2 (bound bracket): PASS")


def test_criterion_3_asymptotic_pincer():
    """ratio to the Brownian value lands in the closed-form pincer at desk scale."""
    for d, cap in ((1024, 1.00428), (2**16, 1.0001)):
        got = asymptotic_ratio(_problem(d, 0.5, 2.0))
        closed = ((2.0 / 0.5) * (math.exp(0.5 * 4.0) - 1.0) / 4.0 + d) / (d + 2.0)
        assert 1.0 <= got <= closed <= cap, (d, got, closed)
    print("criterion 3 (asymptotic pincer): PASS")


def test_criterion_4_scaling_reproduction(tmp_path):
    """The default scaling preset (L, x, sigma, lam) = (4, 0, 1, 0.5), 100
    paths, dt = 1e-3, d in {2, ..., 256}: every Monte-Carlo mean lies inside
    the bound bracket and within 3 stderr + 5% of the exact value."""
    out = tmp_path / "scaling.csv"
    assert cli_main(["scaling", "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()]
    header, body = rows[0], rows[1:]
    assert header == ["d", "mfet_exact", "lower_bm", "lower_exp", "upper_mixed",
                      "upper_exp", "mc_mean", "mc_stderr", "n_censored"]
    assert [r[0] for r in body] == [str(2**k) for k in range(1, 9)]
    for r in body:
        exact, lower_bm, upper_exp = float(r[1]), float(r[2]), float(r[5])
        mc_mean, se = float(r[6]), float(r[7])
        assert lower_bm - 3.0 * se <= mc_mean <= upper_exp + 3.0 * se, r
        assert abs(mc_mean - exact) <= 3.0 * se + 0.05 * exact, r
    print("criterion 4 (scaling reproduction): PASS")


def test_criterion_5_gamma_bracket_grid():
    """Neuman lower <= lig(a, x) <= Neuman upper at the 7 x 40 grid, compared
    in log space (linear values overflow at the grid corners) with ulp-scale
    slack only.  The bounds:

        lower: a ln x - ln a - a x/(a+1)
        upper: a ln x - ln a - ln(a+1) + ln(1 + a exp(-x))
    """
    for a in (0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 500.0):
        for x in map(float, np.geomspace(1e-6, 1e4, 40)):
            lx = a * math.log(x) - math.log(a)
            lo = lx - a * x / (a + 1.0)
            hi = lx - math.log(a + 1.0) + math.log1p(a * math.exp(-x))
            lg = ln_lower_gamma(a, x)
            slack = 4e-15 * (1.0 + abs(lg))
            assert lo <= lg + slack, (a, x)
            assert lg <= hi + slack, (a, x)
    print("criterion 5 (gamma bracket grid): PASS")


def test_criterion_6_gamma_simpson_oracle():
    """Regularized lower gamma, exp(ln_lower_gamma - lgamma), against an
    independent Simpson quadrature of the defining integral, 1e-8 relative."""

    def oracle(a, x, n=40_000):
        # t = u**2 keeps the integrand smooth at the origin for a >= 0.5
        u = np.linspace(0.0, math.sqrt(x), 2 * n + 1)
        f = 2.0 * u ** (2.0 * a - 1.0) * np.exp(-(u**2))
        if a == 0.5:
            f[0] = 2.0
        h = u[1] - u[0]
        return float((h / 3.0) * np.sum(f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))

    for a in (0.5, 1.0, 2.5, 10.0):
        for x in np.geomspace(1e-3, 30.0, 20):
            want = oracle(a, float(x)) / math.exp(math.lgamma(a))
            got = math.exp(ln_lower_gamma(a, float(x)) - math.lgamma(a))
            assert got == pytest.approx(want, rel=1e-8, abs=0.0), (a, x)
    print("criterion 6 (gamma Simpson oracle): PASS")


def test_criterion_7_ode_residual():
    """|residual| <= 1e-3 on the lam > 0 grid at x_eval = L/2, h = 1e-3 L;
    <= 1e-4 for the lam = 0 closed form.

    The probe differences the exit times mfet_exact returns, on sub-balls,
    and is fourth order: its leftover at h = 1e-3 L is the O(h^4) stencil
    truncation plus rounding.  That stays inside the budget even at the
    strongly mean-reverting corner lam = 2, L >= 2.5, small d, where the
    solution's derivatives sit at the exp(lam L^2) scale.  The h^4 scaling
    of the leftover is asserted in test_mfet.
    """
    violations = []
    for d in DIMS:
        for lam in LAMBDAS:
            for big_l, _x in GEOMETRIES:
                p = _problem(d, lam, big_l)
                r = avp_residual(p, x_eval=big_l / 2.0, h=1e-3 * big_l)
                if abs(r) > 1e-3:
                    violations.append((d, lam, big_l, r))
    for d in (1, 2, 4, 64, 1024):
        for big_l, _x in GEOMETRIES:
            p = _problem(d, 0.0, big_l)
            r = avp_residual(p, x_eval=big_l / 2.0, h=1e-3 * big_l)
            assert abs(r) <= 1e-4, (d, big_l, r)
    assert not violations, (
        f"{len(violations)} grid points exceed the 1e-3 budget "
        f"(fourth-order probe, O(h^4) leftover at h = 1e-3*L): {violations}"
    )
    print("criterion 7 (ODE residual): PASS")


def test_criterion_7_sees_a_corrupted_series(monkeypatch):
    """A series 5% off, exp(0.05) times the true E tau, breaks the ODE at
    every lam > 0 grid point of criterion 7: u' and u'' scale with it, the
    forcing 2/sigma^2 does not, so the residual is about -0.1."""
    honest = ouexit.mfet._sum_from_peak
    monkeypatch.setattr(ouexit.mfet, "_sum_from_peak",
                        lambda *args: honest(*args) * math.exp(0.05))
    for d in DIMS:
        for lam in LAMBDAS:
            for big_l, _x in GEOMETRIES:
                r = avp_residual(_problem(d, lam, big_l), x_eval=big_l / 2.0, h=1e-3 * big_l)
                assert abs(r) > 1e-3, (d, lam, big_l, r)


def test_criterion_8_byte_determinism(tmp_path):
    """Two runs with identical flags and seed produce byte-identical CSV
    bodies."""
    flags = ["scaling", "--d-min", "2", "--d-max", "16", "--L", "2",
             "--paths", "25", "--dt", "0.001", "--seed", "987654321"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(flags + ["--output", str(first)]) == 0
    assert cli_main(flags + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("criterion 8 (byte determinism): PASS")


def test_criterion_9_small_d_gap():
    """Drift matters at small d and stops mattering at large d:
    exact/Brownian >= 1.5 at d=2 (frozen oracle regression 5.37085738835)
    and <= 1.01 at d=1000, for theta=0.7, sigma=1, L=2.5, x=0."""
    small = asymptotic_ratio(_problem(2, 0.7, 2.5))
    assert small == pytest.approx(5.37085738835, rel=1e-8)
    assert small >= 1.5
    large = asymptotic_ratio(_problem(1000, 0.7, 2.5))
    assert 1.0 <= large <= 1.01
    print("criterion 9 (small-d gap): PASS")
