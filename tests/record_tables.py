"""Write src/ucngas/_tables.py, every constant F_j and the Airy states are read from.

Run it from the repository root (mpmath, about 50 seconds):

    python tests/record_tables.py

The library derives no constant at run time: each table is recorded here
once, from mpmath, and rounded once to a double. The module holds five
strings of little-endian float64 in hex, so a process that compiles it
from source parses five constants, not 5,024 float literals, and reads
each into a numpy array at import:

- CHEBYSHEV, F_j on 0 < eta < 40, in 40 pieces of width 1. On piece k,
  [k, k + 1], F_j is a Chebyshev series of degree DEGREE in
  x = 2 eta - (2k + 1), summed by Clenshaw. Each piece interpolates
  F_j = -Gamma(j+1) Li_{j+1}(-e^eta), from mpmath at DPS digits, at the
  DEGREE + 1 Chebyshev points of the first kind. F_j is analytic in the
  strip |Im eta| < pi, so the coefficients fall geometrically (Trefethen,
  Approximation Theory and Approximation Practice, 2013, ch. 8); slowest
  on [0, 1] for j = -1/2, where the last one kept is 1e-18 of the first.
  The rounding error of c_0, which would otherwise dominate where F_j is
  smallest on a piece, is kept as a row of its own. The order is
  (order j of FD_ORDERS, row, piece k), the rows being c_0's rounding
  error and then c_0 .. c_DEGREE.
- SERIES, the SERIES_TERMS weights a_k per order of F_j = z sum_k a_k z^k,
  z = e^eta, for eta <= 0: the alternating series in z reweighted by
  Cohen, Rodriguez Villegas and Zagier (2000, Experimental Math. 9, 3,
  Algorithm 1), in the order (order j, k).
- SOMMERFELD, the SOMMERFELD_TERMS coefficients a_k per order of
  F_j = eta^(j+1)/(j+1) + eta^(j+1) sum_k a_k eta^(-2k) for eta >= 40, in
  the order (order j, k).
- AIRY_ZEROS, the zeros a_1 .. a_ZEROS of Ai (DLMF 9.9), each the double
  nearest it.
- AIRY_SLOPES, |Ai'(a_n)| for the same zeros, each the double nearest it.
  An antiderivative of Ai(x)^2 is x Ai(x)^2 - Ai'(x)^2, so Ai^2 integrates
  to Ai'(a_n)^2 from a_n up: the slope is the one value of Ai a normalized
  state needs.

SERIES, SOMMERFELD, AIRY_ZEROS and AIRY_SLOPES are computed at EXACT_DPS
digits. Rerunning the script on an unchanged tree leaves the module byte
for byte as it was. tests/test_tables.py reruns these functions on
samples of each table and asserts the same bits.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

TARGET = Path(__file__).resolve().parent.parent / "src" / "ucngas" / "_tables.py"
DPS = 30  # the Chebyshev pieces
EXACT_DPS = 40  # the series and Sommerfeld coefficients, the zeros and the slopes
DEGREE = 16
PIECES = 40  # of width 1, on [0, 40]
SERIES_TERMS = 24  # error bound 2 (3 + sqrt 8)^-24 = 8e-19 of F_j
SOMMERFELD_TERMS = 12  # within 1e-17 of F_j from eta = 40 up
ZEROS = 1000  # eigen.ZERO_INDEX_MAX
ORDERS = (-0.5, 0.5, 1.5, 2.5)  # specfun.FD_ORDERS, which the table rows follow
HEX_PER_LINE = 96  # six doubles


def piece(j: float, k: int) -> list[float]:
    """Rows of F_j on [k, k + 1]: the rounding error of c_0, then c_0 .. c_DEGREE.

    c_0 is already halved, so F_j = c_0 + sum_(m >= 1) c_m T_m(2 eta - 2k - 1).
    """
    import mpmath as mp

    n = DEGREE + 1
    with mp.workdps(DPS):
        gamma = mp.gamma(mp.mpf(j) + 1)
        angles = [mp.pi * (i + mp.mpf(0.5)) / n for i in range(n)]
        # F_j = -Gamma(j+1) Li_(j+1)(-e^eta), as oracles.fermi_dirac_mp gives it; the script
        # imports nothing of ucngas, so it runs whatever state the module it writes is in
        values = [
            mp.re(-gamma * mp.polylog(mp.mpf(j) + 1, -mp.exp(k + (1 + mp.cos(a)) / 2)))
            for a in angles
        ]
        coef = [2 * mp.fsum(v * mp.cos(m * a) for v, a in zip(values, angles)) / n for m in range(n)]
        coef[0] /= 2
        return [float(coef[0] - float(coef[0]))] + [float(c) for c in coef]


def series(j: float) -> list[float]:
    """a_0 .. a_(SERIES_TERMS-1) of F_j = z sum_k a_k z^k, z = e^eta <= 1.

    a_k = Gamma(j+1) (c_k/d) / (k+1)^(j+1), with CRVZ's weights from the
    integer coefficients t_i of T_n(1 - 2x) = sum t_i x^i, n = SERIES_TERMS:
    d = T_n(3) = sum |t_i| and c_k = (-1)^k sum_(i>k) |t_i|.
    """
    import mpmath as mp

    n = SERIES_TERMS
    t = [n * math.comb(n + i, 2 * i) * 4**i // (n + i) for i in range(n + 1)]  # the |t_i|, exact
    with mp.workdps(EXACT_DPS):
        gamma = mp.gamma(mp.mpf(j) + 1)
        return [
            float(gamma * (-1) ** k * sum(t[k + 1 :]) / sum(t) / mp.mpf(k + 1) ** (mp.mpf(j) + 1))
            for k in range(n)
        ]


def sommerfeld(j: float) -> list[float]:
    """a_1 .. a_SOMMERFELD_TERMS, a_k = Gamma(j+1)/Gamma(j+2-2k) 2 (1 - 2^(1-2k)) zeta(2k)."""
    import mpmath as mp

    with mp.workdps(EXACT_DPS):
        j1 = mp.mpf(j) + 1
        return [
            float(mp.gamma(j1) / mp.gamma(j1 + 1 - 2 * k) * 2 * (1 - mp.mpf(2) ** (1 - 2 * k))
                  * mp.zeta(2 * k))
            for k in range(1, SOMMERFELD_TERMS + 1)
        ]


@functools.cache
def _airy_zero_mp(n: int):
    # a_n at EXACT_DPS digits; the root search is ~95% of a slope's cost
    import mpmath as mp

    with mp.workdps(EXACT_DPS):
        return mp.airyaizero(n)


def airy_zero(n: int) -> float:
    """The double nearest a_n, the n-th negative zero of Ai."""
    return float(_airy_zero_mp(n))


def airy_slope(n: int) -> float:
    """The double nearest |Ai'(a_n)|, the slope of Ai at its n-th negative zero."""
    import mpmath as mp

    with mp.workdps(EXACT_DPS):
        return float(abs(mp.airyai(_airy_zero_mp(n), derivative=1)))


def _hex(name: str, values: list[float]) -> str:
    import numpy as np

    text = np.array(values, dtype="<f8").tobytes().hex()
    lines = "\n".join(
        f'    "{text[i : i + HEX_PER_LINE]}"' for i in range(0, len(text), HEX_PER_LINE)
    )
    return f"{name} = _doubles(\n{lines}\n)\n"


def main() -> None:
    pieces = [[piece(j, k) for k in range(PIECES)] for j in ORDERS]  # (order, k, row)
    tables = {
        "CHEBYSHEV": [p[k][row] for p in pieces for row in range(DEGREE + 2) for k in range(PIECES)],
        "SERIES": [a for j in ORDERS for a in series(j)],
        "SOMMERFELD": [a for j in ORDERS for a in sommerfeld(j)],
        "AIRY_ZEROS": [airy_zero(n) for n in range(1, ZEROS + 1)],
        "AIRY_SLOPES": [airy_slope(n) for n in range(1, ZEROS + 1)],
    }
    TARGET.write_text(
        f'"""Recorded constants of F_j and Ai; written by tests/record_tables.py from mpmath.\n\n'
        f"Each is one string of little-endian float64 values in hex:\n\n"
        f"- CHEBYSHEV, F_j on 0 < eta < 40: {len(tables['CHEBYSHEV'])} values in the order\n"
        f"  (order j of FD_ORDERS, row, piece k of {PIECES} on [k, k + 1]); the rows are\n"
        f"  the rounding error of c_0, then the Chebyshev coefficients c_0 .. c_{DEGREE};\n"
        f"- SERIES, F_j on eta <= 0: the weights a_0 .. a_{SERIES_TERMS - 1} of each order;\n"
        f"- SOMMERFELD, F_j on eta >= 40: a_1 .. a_{SOMMERFELD_TERMS} of each order;\n"
        f"- AIRY_ZEROS: a_1 .. a_{ZEROS}, the negative zeros of Ai;\n"
        f"- AIRY_SLOPES: |Ai'(a_1)| .. |Ai'(a_{ZEROS})|, the slopes of Ai at them.\n\n"
        f"Each is read at import into a read-only float64 array.\n"
        f'"""\n\nimport numpy as np\n\n\n'
        f"def _doubles(text: str) -> np.ndarray:\n"
        f'    return np.frombuffer(bytes.fromhex(text), "<f8")\n\n\n'
        + "\n".join(_hex(name, values) for name, values in tables.items())
    )
    for name, values in tables.items():
        print(f"{TARGET.name}: {name}, {len(values)} doubles")


if __name__ == "__main__":
    main()
