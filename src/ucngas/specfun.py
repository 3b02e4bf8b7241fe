"""Complete Fermi-Dirac integrals F_j, with numpy alone and no quadrature.

F_j takes scalars or arrays of eta and evaluates a whole array at once,
in three branches, each in closed form: for eta <= 0 the alternating
series in e^eta with the fixed weights of Cohen, Rodriguez Villegas and
Zagier (2000, Experimental Math. 9, 3, Algorithm 1); on 0 < eta < 40
piecewise Chebyshev series in eta (the piecewise route of Fukushima 2015,
Appl. Math. Comput. 259, 708), 40 pieces of degree 16; and from 40 up the
Sommerfeld series in eta^-2. Every coefficient is recorded once from
mpmath, by tests/record_tables.py, into _tables, so import derives
none. Against mpmath the worst relative error is about 4e-16 for
eta <= 0, 2.4e-16 on (0, 40) and 2.6e-16 from 40 up to 1e4, for every
order.
"""

from __future__ import annotations

import numpy as np

from . import _tables
from .errors import DomainError

# complete Fermi-Dirac integrals are provided for these orders only
FD_ORDERS = (-0.5, 0.5, 1.5, 2.5)
FD_ETA_MAX = 1.0e4
# the Sommerfeld series serves eta >= 40; there its 12 terms are within 1e-17 of F_j
_FD_DEGENERATE = 40.0


def _per_order(values: np.ndarray, *shape: int) -> dict[float, np.ndarray]:
    # a recorded table holds one block per order
    return dict(zip(FD_ORDERS, values.reshape(len(FD_ORDERS), *shape)))


# (order, row, piece): piece k of the 40 is the Chebyshev series of F_j in 2 eta - (2k + 1)
# on [k, k + 1]; row 0 is the rounding error of its c_0, rows 1.. are c_0 (halved), c_1, ...
_CHEBYSHEV = _per_order(_tables.CHEBYSHEV, -1, int(_FD_DEGENERATE))
# F_j = z sum_k a_k z^k on eta <= 0, z = e^eta: CRVZ's 24 weights, error bound
# 2 (3 + sqrt 8)^-24 = 8e-19 of F_j
_SERIES = _per_order(_tables.SERIES, -1)
# F_j = eta^(j+1)/(j+1) + eta^(j+1) sum_k a_k eta^-2k on eta >= 40, k = 1..12, with
# a_k = Gamma(j+1)/Gamma(j+2-2k) 2 (1 - 2^(1-2k)) zeta(2k)
_SOMMERFELD = _per_order(_tables.SOMMERFELD, -1)


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    # sum_k c_k z^k, from the highest power down, as numpy's polyval sums it
    acc = c[-1] + z * 0
    for ck in c[-2::-1]:
        acc = ck + acc * z
    return acc


def _fd_series(j: float, eta: np.ndarray) -> np.ndarray:
    # eta <= 0: z = e^eta lies in (0, 1], where the weighted sum converges
    z = np.exp(eta)
    return z * _horner(_SERIES[j], z)


def _fd_chebyshev(j: float, eta: np.ndarray) -> np.ndarray:
    # 0 < eta < 40: Clenshaw's recurrence on each value's piece, with x in [-1, 1]
    # exact; c_0's rounding error joins the small terms before the last sum
    piece = eta.astype(np.intp)
    x = 2.0 * eta - (2 * piece + 1)
    low, *c = _CHEBYSHEV[j]
    b1 = b2 = np.zeros_like(eta)
    for row in c[:0:-1]:
        b1, b2 = row[piece] + 2.0 * x * b1 - b2, b1
    return c[0][piece] + (low[piece] + x * b1 - b2)


def _fd_sommerfeld(j: float, eta: np.ndarray) -> np.ndarray:
    # eta >= 40: the leading term stays a division, the rest a polynomial in eta^-2
    power = eta ** (j + 1.0)
    u = 1.0 / (eta * eta)
    return power / (j + 1.0) + power * u * _horner(_SOMMERFELD[j], u)


def fermi_dirac(j: float, eta):
    """Complete Fermi-Dirac integral F_j(eta) for j in {-1/2, 1/2, 3/2, 5/2}.

    F_j(eta) = integral of z**j / (exp(z - eta) + 1) over z >= 0, for
    |eta| <= 1e4, with relative error against mpmath at most 5e-16 for
    eta <= 0, 2.5e-16 on (0, 40) and 3e-16 from 40 up (a subnormal result
    within four steps of 2**-1074).
    ``eta`` may be a scalar, which gives a float, or an array, which gives
    an array of the same shape; each element's value does not depend on
    the others, so the two agree bit for bit.

    Branches: for eta <= 0 the series in exp(eta), reweighted (CRVZ) into
    one polynomial of degree 24; for 0 < eta < 40 a Chebyshev series of
    degree 16 on each piece [k, k + 1], interpolated from mpmath; for
    eta >= 40 the Sommerfeld series eta**(j+1)/(j+1) + eta**(j+1)
    sum_(k=1..12) a_k eta**(-2k).
    """
    j = float(j)
    if j not in FD_ORDERS:
        raise DomainError(f"Fermi-Dirac order must be one of {FD_ORDERS}, got {j!r}")
    x = np.asarray(eta, dtype=float)
    bad = ~(np.abs(x) <= FD_ETA_MAX)
    if bad.any():
        raise DomainError(
            f"F_{j} needs finite eta with |eta| <= {FD_ETA_MAX}, got {float(x[bad].flat[0])!r}"
        )
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat <= 0.0
    degenerate = flat >= _FD_DEGENERATE
    for branch, mask in (
        (_fd_series, series),
        (_fd_chebyshev, ~(series | degenerate)),
        (_fd_sommerfeld, degenerate),
    ):
        index = np.flatnonzero(mask)
        if index.size:
            out[index] = branch(j, flat[index])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
