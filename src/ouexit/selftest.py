"""Built-in cross-validation suite behind the ``selftest`` CLI command.

Re-derives the package's key invariants at runtime, in four checks:
mfet_exact against the committed table of 40-digit mpmath values
(reference_values.csv, written by tests/test_reference_values.py), the
Brownian reduction of the exact formula, the closed-form bound chain, and
Monte-Carlo determinism.
Everything is checked against independently computed quantities, so a
corrupted build fails loudly with the name of the first broken invariant.
A check that raises fails with the error as its detail.  Only
mc-determinism needs numpy, so without it that check fails by name; the
rest run on the standard library.
"""

import csv
import math
from pathlib import Path

from .mfet import ExitProblem, OupParams, mfet_bm, mfet_bounds, mfet_exact

# one row per mfet_exact value: its arguments theta sigma d L x (floats as
# float.hex, d as an integer) and the decimal reference
_TABLE = Path(__file__).with_name("reference_values.csv")


def _reference_problem(arguments):
    """The ExitProblem of one table row; ValueError (DomainError among them) if malformed."""
    words = arguments.split()
    if len(words) != 5:
        raise ValueError(f"argument count {len(words)}")
    theta, sigma, big_l, x = (float.fromhex(words[i]) for i in (0, 1, 3, 4))
    return ExitProblem(OupParams(theta=theta, sigma=sigma, d=int(words[2])), L=big_l, x=x)


def check_reference_values():
    """mfet_exact matches every row of the committed mpmath table to 1e-12 relative."""
    try:
        with open(_TABLE, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, ValueError, csv.Error) as exc:
        return False, f"reference table {_TABLE} not read: {exc}"
    if rows[:1] != [["arguments", "reference"]]:
        return False, f"{_TABLE.name} line 1 is not the header"
    for line, row in enumerate(rows[1:], start=2):
        try:
            arguments, reference = row
            want = float(reference)
            problem = _reference_problem(arguments)
            if not math.isfinite(want):
                raise ValueError(f"reference {want!r}")
        except ValueError:
            return False, f"{_TABLE.name} line {line} is malformed: {row!r}"
        got = mfet_exact(problem)
        if not abs(got - want) <= 1e-12 * abs(want):
            return False, f"mfet_exact({problem!r}) = {got!r}, reference {want!r}"
    return True, f"{len(rows) - 1} values match their 40-digit references"


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


def check_bound_chain():
    """lower_bm <= lower_exp <= mfet_exact <= upper_mixed <= upper_exp."""
    cases = [(d, lam, big_l, x) for d in (1, 4, 64, 1024) for lam in (0.5, 2.0)
             for big_l, x in ((4.0, 0.0), (2.0, 1.0))]
    for d, lam, big_l, x in cases:
        prob = ExitProblem(OupParams(theta=lam, sigma=1.0, d=d), L=big_l, x=x)
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
            return False, f"chain broken at d={d}, lam={lam}, (L,x)=({big_l},{x})"
    return True, "bound chain holds"


def check_mc_determinism():
    """Two identical estimate runs produce bitwise-identical results."""
    from .simulate import McConfig, Scheme, estimate_mfet

    prob = ExitProblem(OupParams(theta=0.0, sigma=1.0, d=8), L=2.0, x=0.0)
    cfg = McConfig(n_paths=128, dt=1e-3, seed=20240817,
                   scheme=Scheme.SQUARED_RADIAL_EULER)
    first = estimate_mfet(prob, cfg)
    second = estimate_mfet(prob, cfg)
    if first != second:
        return False, f"{first} != {second}"
    return True, "estimates are bitwise reproducible"


CHECKS = (
    ("reference-values", check_reference_values),
    ("brownian-reduction", check_brownian_reduction),
    ("bound-chain", check_bound_chain),
    ("mc-determinism", check_mc_determinism),
)


def run_selftest():
    """Run every check; return (all_passed, first_failure_name).  A raise fails its check."""
    first_failure = None
    print(f"{'check':<24} {'status':<6} detail")
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{name:<24} {'pass' if ok else 'FAIL':<6} {detail}")
        if not ok and first_failure is None:
            first_failure = name
    return first_failure is None, first_failure
