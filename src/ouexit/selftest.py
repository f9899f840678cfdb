"""Built-in cross-validation suite behind the ``selftest`` CLI command.

Re-derives the package's key invariants at runtime: the elementary bracket
on the incomplete gamma, the Brownian reduction of the exact formula, the
closed-form bound chain, the lam > 0 series against the quadrature of the
single-integral form, the radial integral against its incomplete-gamma
(lam > 0) and Kummer-series (lam < 0) forms, and Monte-Carlo determinism.
Everything is checked against independently computed quantities, so a
corrupted build fails loudly with the name of the first broken invariant.
"""

import math

import numpy as np

from . import special
from .errors import OuexitError
from .mfet import ExitProblem, OupParams, _outer_log_integrand, mfet_bm, mfet_bounds, mfet_exact
from .quadrature import integrate_log
from .simulate import McConfig, Scheme, estimate_mfet


def _log_grid(lo, hi, n):
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def check_neuman_bracket():
    """lower <= lig(a, x) <= upper on the sampling grid, compared in log space."""
    for a in (0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 500.0):
        for x in _log_grid(1e-6, 1e4, 40):
            lo, hi = special.neuman_log_bounds(a, float(x))
            lg = special.ln_lower_gamma(a, float(x))
            slack = 4e-15 * (1.0 + abs(lg))
            if not (lo <= lg + slack and lg <= hi + slack):
                return False, f"violated at a={a}, x={x:.6g}: {lo} <= {lg} <= {hi}"
    return True, "bracket holds on the full grid"


def check_brownian_reduction():
    """mfet at lam = +/-1e-12 matches (L^2-x^2)/(sigma^2 d) to 1e-6 relative."""
    for d in (1, 4, 64, 1024):
        for big_l, x, sigma in ((4.0, 0.0, 1.0), (2.0, 1.0, 1.0), (3.0, 0.0, 2.0)):
            for lam in (1e-12, -1e-12):
                prob = ExitProblem(OupParams(theta=lam * sigma * sigma, sigma=sigma, d=d), L=big_l, x=x)
                got = mfet_exact(prob)
                want = mfet_bm(prob)
                if abs(got - want) / want > 1e-6:
                    return False, f"d={d}, lam={lam}, (L,x,sigma)=({big_l},{x},{sigma}): {got} vs {want}"
    return True, "exact formula reduces to the Brownian value"


def _chain_grid():
    """The lam > 0 problems of the bound chain, each with its label."""
    for d in (1, 4, 64, 1024):
        for lam in (0.5, 2.0):
            for big_l, x in ((4.0, 0.0), (2.0, 1.0)):
                prob = ExitProblem(OupParams(theta=lam, sigma=1.0, d=d), L=big_l, x=x)
                yield prob, f"d={d}, lam={lam}, (L,x)=({big_l},{x})"


def check_bound_chain():
    """lower_bm <= lower_exp <= mfet_exact <= upper_mixed <= upper_exp."""
    for prob, label in _chain_grid():
        b = mfet_bounds(prob)
        mid = mfet_exact(prob)
        slack = 1e-8 * mid
        chain = (
            b.lower_bm <= b.lower_exp + 1e-13 * b.lower_exp
            and b.lower_exp <= mid + slack
            and mid <= b.upper_mixed + slack
            and b.upper_mixed <= b.upper_exp * (1 + 1e-13)
        )
        if not chain:
            return False, f"chain broken at {label}"
    return True, "bound chain holds"


def check_series_vs_quadrature():
    """mfet_exact (the positive series) equals the lam > 0 quadrature to 1e-9 relative."""
    for prob, label in _chain_grid():
        series = mfet_exact(prob)
        log_f = _outer_log_integrand(prob.params)
        quad = math.exp(integrate_log(log_f, prob.x, prob.L).value)
        if abs(series - quad) > 1e-9 * quad:
            return False, f"{label}: {series} vs {quad}"
    return True, "series matches the quadrature"


def check_substitution_identity():
    """Radial integral equals its incomplete-gamma or Kummer form to 1e-10 relative."""
    cases = [(d, lam, z) for d in (2, 5) for lam in (0.5, 2.0, -0.5, -2.0) for z in (0.5, 1.0, 3.0)]
    for d, lam, z in cases:
        direct = math.exp(integrate_log(lambda t: (d - 1) * math.log(t) - lam * t * t, 0.0, z).value)
        if lam > 0:
            ln_lig = special.ln_lower_gamma(0.5 * d, lam * z * z)
            closed = 0.5 * lam ** (-0.5 * d) * math.exp(ln_lig)
        else:
            closed = 0.5 * z ** d * math.exp(special.ln_kummer_sum(0.5 * d, -lam * z * z))
        if abs(direct - closed) / closed > 1e-10:
            return False, f"d={d}, lam={lam}, z={z}: {direct} vs {closed}"
    return True, "substitution identity holds"


def check_mc_determinism():
    """Two identical estimate runs produce bitwise-identical results."""
    prob = ExitProblem(OupParams(theta=0.0, sigma=1.0, d=8), L=2.0, x=0.0)
    cfg = McConfig(n_paths=128, dt=1e-3, seed=20240817,
                   scheme=Scheme.SQUARED_RADIAL_EULER)
    first = estimate_mfet(prob, cfg)
    second = estimate_mfet(prob, cfg)
    if first != second:
        return False, f"{first} != {second}"
    return True, "estimates are bitwise reproducible"


CHECKS = (
    ("neuman-bracket", check_neuman_bracket),
    ("brownian-reduction", check_brownian_reduction),
    ("bound-chain", check_bound_chain),
    ("series-vs-quadrature", check_series_vs_quadrature),
    ("substitution-identity", check_substitution_identity),
    ("mc-determinism", check_mc_determinism),
)


def run_selftest():
    """Run every check; return (all_passed, first_failure_name).  A raise fails its check."""
    first_failure = None
    print(f"{'check':<24} {'status':<6} detail")
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except OuexitError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{name:<24} {'pass' if ok else 'FAIL':<6} {detail}")
        if not ok and first_failure is None:
            first_failure = name
    return first_failure is None, first_failure
