"""Write src/ucngas/_fd_table.py, the Chebyshev pieces of F_j on 0 < eta < 40.

Run it from the repository root (mpmath at 30 digits, about half a minute):

    python tests/record_fd_table.py

fermi_dirac evaluates F_j on 0 < eta < 40 from 40 pieces of width 1. On
piece k, [k, k + 1], F_j is a Chebyshev series of degree DEGREE in
x = 2 eta - (2k + 1), summed by Clenshaw. Each piece interpolates
F_j = -Gamma(j+1) Li_{j+1}(-e^eta), from mpmath at DPS digits, at the
DEGREE + 1 Chebyshev points of the first kind, and each coefficient is
rounded once to a double. F_j is analytic in the strip |Im eta| < pi, so
the coefficients fall geometrically (Trefethen, Approximation Theory and
Approximation Practice, 2013, ch. 8); slowest on [0, 1] for j = -1/2,
where the last one kept is 1e-18 of the first. The rounding error of
c_0, which would otherwise dominate where F_j is smallest on a piece, is
kept as a row of its own.

The module holds the table as one string of little-endian float64 in hex,
in the order (order j of FD_ORDERS, row, piece k), the rows being c_0's
rounding error and then c_0 .. c_DEGREE, so a process that compiles it
from source parses one constant, not 2,880 float literals. test_specfun
reruns piece() on one piece per order and asserts the same bits.
"""

from __future__ import annotations

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TARGET = TESTS.parent / "src" / "ucngas" / "_fd_table.py"
DPS = 30
DEGREE = 16
PIECES = 40  # of width 1, on [0, 40]
ORDERS = (-0.5, 0.5, 1.5, 2.5)  # specfun.FD_ORDERS, which the table rows follow
HEX_PER_LINE = 96  # six doubles


def piece(j: float, k: int) -> list[float]:
    """Rows of F_j on [k, k + 1]: the rounding error of c_0, then c_0 .. c_DEGREE.

    c_0 is already halved, so F_j = c_0 + sum_(m >= 1) c_m T_m(2 eta - 2k - 1).
    """
    import mpmath as mp
    from oracles import fermi_dirac_mp

    n = DEGREE + 1
    with mp.workdps(DPS):
        angles = [mp.pi * (i + mp.mpf(0.5)) / n for i in range(n)]
        values = [fermi_dirac_mp(j, k + (1 + mp.cos(a)) / 2, DPS) for a in angles]
        coef = [2 * mp.fsum(v * mp.cos(m * a) for v, a in zip(values, angles)) / n for m in range(n)]
        coef[0] /= 2
        return [float(coef[0] - float(coef[0]))] + [float(c) for c in coef]


def main() -> None:
    import numpy as np

    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    table = np.array([[piece(j, k) for k in range(PIECES)] for j in ORDERS])  # (order, k, row)
    text = np.ascontiguousarray(table.transpose(0, 2, 1), dtype="<f8").tobytes().hex()
    lines = "\n".join(
        f'    "{text[i : i + HEX_PER_LINE]}"' for i in range(0, len(text), HEX_PER_LINE)
    )
    TARGET.write_text(
        f'"""Chebyshev coefficients of F_j on 0 < eta < 40; written by tests/record_fd_table.py.\n\n'
        f"CHEBYSHEV is {table.size} little-endian float64 values in hex, in the order\n"
        f"(order j of FD_ORDERS, row, piece k of {PIECES} on [k, k + 1]); the rows are the\n"
        f"rounding error of c_0, then the Chebyshev coefficients c_0 .. c_{DEGREE}.\n"
        f'"""\n\nCHEBYSHEV = (\n{lines}\n)\n'
    )
    print(f"{TARGET}: {table.size} coefficients, {len(text)} hex digits")


if __name__ == "__main__":
    main()
