"""The committed reference table behind ``ouexit selftest``, and its generator.

src/ouexit/reference_values.csv holds mfet_exact problems, inputs as
float.hex (d as an integer), with a decimal reference from mpmath at 40
digits.  E tau comes from the closed form

    E_x tau = u0(L) - u0(x),   u0(r) = r^2/(sigma^2 d) 2F2(1, 1; 2, d/2+1; lam r^2),

with lam = theta/sigma^2 taken from the exact inputs: the series of
mfet.py written as a hypergeometric function, evaluated by mpmath.hyp2f2,
which shares nothing with the package's series or quadrature.

Run ``python tests/test_reference_values.py`` to write the table again.
The test below recomputes every row at 40 and at 60 digits, so a row whose
40-digit value was not yet converged fails.
"""

import csv
import math
from pathlib import Path

import mpmath

TABLE = Path(__file__).resolve().parent.parent / "src" / "ouexit" / "reference_values.csv"
HEADER = ["arguments", "reference"]
DIGITS = 20  # significant digits of each stored reference


def _mfet_problems():
    """(theta, sigma, d, L, x) of every regime: lam > 0 with the peak term
    at n = 0, past it and far past it, lam = 0, lam < 0 with |lam| L^2 from
    1e-320 to 45000, d from 1 to 2**60, and x at 0, inside, and next to L."""
    return [
        # lam > 0
        (0.5, 1.0, 4, 4.0, 0.0),
        (0.5, 1.0, 1, 2.0, 0.0),
        (0.7, 1.0, 4, 3.0, 1.2),
        (0.5, 1.3, 3, 2.0, 0.5),
        (2.0, 1.0, 4096, 4.0, 0.0),
        (0.5, 1.0, 1024, 22.6, 3.0),
        (0.7, 1.0, 2, 2.5, 0.0),
        (0.7, 1.0, 1000, 2.5, 0.0),
        (1e-12, 1.0, 64, 4.0, 0.0),
        (2.0, 1.0, 4, 4.0, 0.0),
        (0.5, 1.0, 64, math.sqrt(198.0), 2.0),
        (0.5, 1.0, 65536, 256.0, 100.0),
        (0.5, 1.0, 2**40, 4.0, 2.0),
        (0.5, 1.0, 1024, 60.0, 0.0),
        (2.0, 1.0, 1, 4.0, 4.0 * (1.0 - 1e-9)),
        (0.3, 2.0, 5, 3.0, 1.0),
        (0.5, 0.7, 16, 5.0, 2.5),
        (1.5, 1.0, 10, 6.0, 0.0),
        (2.0, 1.0, 256, 12.0, 6.0),
        (0.5, 1.0, 4, 1e-3, 0.0),
        (2.0, 1.0, 2**24, math.sqrt(5000.0), math.sqrt(1250.0)),
        (0.5, 1.0, 2**60, math.sqrt(200.0), 0.0),
        (0.5, 1.0, 2**20, math.sqrt(2.0 * (2**19 + 1 + 7240)), 0.0),
        (3.0, 0.5, 7, 2.0, 1.0),
        (0.05, 1.0, 3, 20.0, 10.0),
        # lam > 0 with the peak term far above n = 0 (the sparse route): the
        # ball of the additivity case at d = 630574, and d = 65536 at
        # lam L^2 = 1.1 b, 1.2 b and, with x next to L, 1.15 b
        (0.0004092554893264649, 0.8751221971164107, 630574, 24983.5943273926, 24983.57365904001),
        (1.0, 1.0, 65536, math.sqrt(1.1 * 32769.0), 0.0),
        (1.0, 1.0, 65536, math.sqrt(1.2 * 32769.0), 0.0),
        (1.0, 1.0, 65536, math.sqrt(1.15 * 32769.0), math.sqrt(1.15 * 32769.0) * (1.0 - 1e-9)),
        # lam > 0 with the peak term 12.5 and 10.0002 widths above n = 0, just
        # past the switch, where the trapezoid sums it and ln_rise scales the
        # sum: d = 2**22, L = 2048 and integer lam L^2 = theta 2**22, and x at
        # 0 or next to L
        (0.5043625831604004, 1.0, 2**22, 2048.0, 0.0),
        (0.5034995079040527, 1.0, 2**22, 2048.0, 0.0),
        (0.5043625831604004, 1.0, 2**22, 2048.0, 2048.0 * (1.0 - 2.0**-30)),
        # lam = 0
        (0.0, 1.3, 8, 2.0, 1.0),
        (0.0, 1.0, 1, 1.0, 0.0),
        (0.0, 1.0, 2**40, 4.0, 2.0),
        # lam < 0
        (-0.5, 1.0, 3, 2.0, 0.0),
        (-2.0, 1.0, 1024, 5.0, 0.0),
        (-0.5, 1.0, 4, 4.0, 0.0),
        (-0.5, 1.0, 2**40, 4.0, 2.0),
        (-20.0, 1.0, 4, 10.0, 0.0),
        (-0.5, 1.0, 4, math.sqrt(2e4), math.sqrt(5e3)),
        (-2.0, 1.0, 1, math.sqrt(5e3), 0.0),
        (-2.0, 1.0, 65536, 5.0, 0.0),
        (-0.5, 1.0, 2**24, math.sqrt(200.0), 0.0),
        (-2.0, 1.0, 2**60, math.sqrt(0.005), math.sqrt(0.00125)),
        (-1e-12, 1.0, 64, 4.0, 0.0),
        (-0.7, 1.5, 10, 3.0, 1.0),
        (-0.5, 1.0, 2, 2.0, 2.0 * (1.0 - 1e-9)),
        (-5.0, 1.0, 8, 1.0, 0.5),
        (-0.5, 1.0, 1000, 100.0, 0.0),
        (-0.05, 0.5, 3, 10.0, 0.0),
        (-2.0, 1.0, 2**21, 2.0, 0.0),
        (-0.5, 2.0, 16, 6.0, 3.0),
        (-3.0, 1.0, 1, 0.5, 0.0),
        (-0.5, 1.0, 65536, 300.0, 0.0),
        (-0.01, 1.0, 2, 1.0, 0.5),
        (-1.0, 1.0, 2**40, 100.0, 0.0),
        (-9.14915339870259e-277, 1.5019298237109133, 35, 0.08604108603334147, 0.0),
        (-1e-300, 1.0, 4, 1e-10, 0.5e-10),
    ]


def mp_mfet(theta, sigma, d, big_l, x):
    """E tau at the working precision, from the 2F2 closed form."""
    lam = mpmath.mpf(theta) / mpmath.mpf(sigma) ** 2
    rate = mpmath.mpf(sigma) ** 2 * d
    b = mpmath.mpf(d) / 2 + 1

    def u0(r):
        r = mpmath.mpf(r)
        # |lam| r^2 near b needs about |lam| r^2 - b terms before they fall
        return r * r / rate * mpmath.hyp2f2(1, 1, 2, b, lam * r * r, maxterms=10**6)

    return u0(big_l) - u0(x)


def _rows():
    """(arguments as stored, arguments) of every mfet_exact row."""
    for args in _mfet_problems():
        yield " ".join(str(v) if isinstance(v, int) else float(v).hex() for v in args), args


def write_table(path=TABLE):
    with mpmath.workdps(40), open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(HEADER)
        for stored, args in _rows():
            out.writerow([stored, mpmath.nstr(mp_mfet(*args), DIGITS)])


def test_table_is_the_generators_output_at_40_and_60_digits():
    with open(TABLE, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == HEADER
    expected = list(_rows())
    assert [row[0] for row in rows[1:]] == [stored for stored, _ in expected]
    assert len(expected) >= 45
    for row, (_, args) in zip(rows[1:], expected):
        for dps in (40, 60):
            with mpmath.workdps(dps):
                want = mp_mfet(*args)
                # DIGITS significant digits round to within 5e-20 of the value
                assert abs(mpmath.mpf(row[1]) - want) <= mpmath.mpf(1e-19) * abs(want), (row, dps)


if __name__ == "__main__":
    write_table()
    print(f"wrote {TABLE}")
