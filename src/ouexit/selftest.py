"""Built-in cross-validation suite behind the ``selftest`` CLI command.

Re-derives the package's key invariants at runtime, in three checks, each
against one independent reference: mfet_exact, and the closed-form bound
chain around each theta > 0 value, against the committed table of 40-digit
mpmath values (reference_values.csv, written by tests/test_reference_values.py;
its near-Brownian rows hold the theta -> 0 limit), and Monte-Carlo
determinism against a second run.  A check that raises fails with the error
as its detail; a table that cannot be read or holds no row raises
ValueError naming the fault.  Only mc-determinism needs numpy, so without
it that check fails by name; the rest run on the standard library.
"""

import csv
import math
from pathlib import Path

from .mfet import ExitProblem, OupParams, mfet_bounds, mfet_exact

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


def _reference_rows():
    """(problem, reference) for every row of the table; ValueError naming any fault."""
    try:
        with open(_TABLE, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, ValueError, csv.Error) as exc:
        raise ValueError(f"reference table {_TABLE} not read: {exc}") from None
    if rows[:1] != [["arguments", "reference"]]:
        raise ValueError(f"{_TABLE.name} line 1 is not the header")
    pairs = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            arguments, reference = row
            want = float(reference)
            if not math.isfinite(want):
                raise ValueError(f"reference {want!r}")
            pairs.append((_reference_problem(arguments), want))
        except ValueError:
            raise ValueError(f"{_TABLE.name} line {line} is malformed: {row!r}") from None
    if not pairs:
        raise ValueError(f"{_TABLE.name} holds no row to check")
    return pairs


def check_reference_values():
    """mfet_exact matches every row of the committed mpmath table to 1e-12 relative."""
    rows = _reference_rows()
    for problem, want in rows:
        got = mfet_exact(problem)
        if not abs(got - want) <= 1e-12 * abs(want):
            return False, f"mfet_exact({problem!r}) = {got!r}, reference {want!r}"
    return True, f"{len(rows)} values match their 40-digit references"


def check_bound_chain():
    """lower_bm <= lower_exp <= E tau <= upper_mixed <= upper_exp at every theta > 0 reference."""
    rows = [(problem, mid) for problem, mid in _reference_rows() if problem.params.theta > 0]
    if not rows:
        return False, f"{_TABLE.name} holds no theta > 0 row"
    for problem, mid in rows:
        b = mfet_bounds(problem)
        slack = 1e-8 * mid
        chain = (
            b.lower_bm <= b.lower_exp + 1e-13 * b.lower_exp
            and b.lower_exp <= mid + slack
            and mid <= b.upper_mixed + slack
            and b.upper_mixed <= b.upper_exp * (1 + 1e-13)
        )
        if not chain:
            return False, f"chain broken at {problem!r}: {b!r}, reference {mid!r}"
    return True, f"{len(rows)} references lie inside their bounds"


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
