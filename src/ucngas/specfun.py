"""Complete Fermi-Dirac integrals F_j, with numpy alone.

F_j takes scalars or arrays of eta and evaluates a whole array at once,
in three branches: for eta <= 0 the alternating series in e^eta with the
fixed weights of Cohen, Rodriguez Villegas and Zagier (2000, Experimental
Math. 9, 3, Algorithm 1); Gauss-Legendre panels in z = u^2 for
0 < eta < 40; and the degenerate reflection formula from 40 up. Against
mpmath the worst relative error is about 4e-16 for eta <= 0, 9e-16 on
(0, 40) and 3e-16 from 40 up to 1e4, for every order. Piecewise fits
(Fukushima 2015, Appl. Math. Comput. 259, 708) could be faster for eta > 0.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

import numpy as np
from numpy.polynomial.polynomial import polyval

from .eigen import _PI_34
from .errors import DomainError

# complete Fermi-Dirac integrals are provided for these orders only
FD_ORDERS = (-0.5, 0.5, 1.5, 2.5)
FD_ETA_MAX = 1.0e4
# one 32-node Gauss-Legendre rule on [-1, 1] serves every panel; against
# mpmath 16 nodes reach only 2e-9 and 24 nodes 3e-13
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
# middle branch: panels per segment between the edges 0, sqrt(eta) and sqrt(eta + 50);
# grading them towards the Fermi edge u = sqrt(eta) keeps the error near 1e-15
_MID_PANELS = np.array([4, 6])
_MID_SEGMENT = np.repeat(np.arange(2), _MID_PANELS)
_MID_OFFSET = np.concatenate([np.arange(n) for n in _MID_PANELS]) + 0.5
# the reflection serves eta >= 40 on 4 panels of w in [0, 40], past which 1/(e^w + 1)
# is below e^-40 of its peak; the Fermi factor is folded into the weights. Its largest
# node is w = 39.986 < eta, so (eta - w)^j stays real; near w = eta = 40, where that
# power is not smooth, the weight is already e^-40 of its peak
_FD_DEGENERATE = 40.0
_DEG_HALF = _FD_DEGENERATE / 8.0  # half a panel's width
_DEG_W = (np.arange(4)[:, None] * (2.0 * _DEG_HALF) + _DEG_HALF + _DEG_HALF * _GL_X).ravel()
_DEG_KERNEL = np.tile(_DEG_HALF * _GL_W, 4) / (np.exp(_DEG_W) + 1.0)
# eta values per block: keeps the middle branch's temporaries near 1 MB
_FD_BLOCK = 256


def _row_sum(a: np.ndarray) -> np.ndarray:
    # left-to-right sum over the last axis: ndarray.sum picks its order from
    # the array's shape, which would make a value depend on its batch
    return np.cumsum(a, axis=-1)[..., -1]


def _series_coefficients(n: int) -> dict[float, np.ndarray]:
    # F_j = z sum_k a_k z^k, z = e^eta, a_k = Gamma(j+1) (c_k/d) / (k+1)^(j+1), with CRVZ's
    # weights from the integer coefficients t_i of T_n(1 - 2x) = sum t_i x^i: d = T_n(3) =
    # sum |t_i| and c_k = (-1)^k sum_(i>k) |t_i|; Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    t = [n * math.comb(n + i, 2 * i) * 4**i // (n + i) for i in range(n + 1)]  # the |t_i|, exact
    with localcontext(Context(prec=34)):
        return {
            j: np.array([
                float(math.factorial(2 * m) * _PI_34.sqrt() * (-1) ** k * sum(t[k + 1 :])
                      / (4**m * math.factorial(m) * sum(t) * (k + 1) ** m * Decimal(k + 1).sqrt()))
                for k in range(n)
            ])
            for m, j in enumerate(FD_ORDERS)
        }


_SERIES = _series_coefficients(24)  # error bound 2 (3 + sqrt 8)^-24 = 8e-19 of F_j


def _fd_series(j: float, eta: np.ndarray) -> np.ndarray:
    # eta <= 0: z = e^eta lies in (0, 1], where the weighted sum converges
    z = np.exp(eta)
    return z * polyval(z, _SERIES[j])


def _fd_middle(j: float, eta: np.ndarray) -> np.ndarray:
    # F_j = integral of 2 u^(2j+1) / (exp(u^2 - eta) + 1) over u >= 0,
    # cut at u^2 = eta + 50 where the integrand is e^-50 of its peak; 0 < eta < 40
    edges = np.stack([np.zeros_like(eta), np.sqrt(eta), np.sqrt(eta + 50.0)], axis=-1)
    width = (np.diff(edges, axis=-1) / _MID_PANELS)[:, _MID_SEGMENT]
    center = edges[:, _MID_SEGMENT] + _MID_OFFSET * width
    half = 0.5 * width
    z = np.square(center[..., None] + half[..., None] * _GL_X)
    integrand = 2.0 * z ** (j + 0.5) / (np.exp(z - eta[:, None, None]) + 1.0)
    return _row_sum(_row_sum(integrand * _GL_W) * half)


def _fd_degenerate(j: float, eta: np.ndarray) -> np.ndarray:
    # F_j = eta^(j+1)/(j+1) + integral over w of [(eta+w)^j - (eta-w)^j] / (e^w + 1),
    # cut at w = _FD_DEGENERATE; both tails beyond it are e^-40 of the leading term
    e = eta[:, None]
    reflected = ((e + _DEG_W) ** j - (e - _DEG_W) ** j) * _DEG_KERNEL
    return eta ** (j + 1.0) / (j + 1.0) + _row_sum(reflected)


def fermi_dirac(j: float, eta):
    """Complete Fermi-Dirac integral F_j(eta) for j in {-1/2, 1/2, 3/2, 5/2}.

    F_j(eta) = integral of z**j / (exp(z - eta) + 1) over z >= 0, with
    relative error <= 1e-13 for |eta| <= 1e4 (against mpmath at most 1e-15).
    ``eta`` may be a scalar, which gives a float, or an array, which gives
    an array of the same shape; each element's value does not depend on
    the others, so the two agree bit for bit.

    Branches: for eta <= 0 the series in exp(eta), reweighted (CRVZ) into
    one polynomial of degree 24; for 0 < eta < 40 the substitution z = u**2
    and 32-node Gauss-Legendre panels graded toward the Fermi edge (4 on
    [0, sqrt(eta)], 6 up to sqrt(eta + 50)); for eta >= 40 the reflection
    eta**(j+1)/(j+1) + integral over [0, 40] of
    [(eta+w)**j - (eta-w)**j] / (exp(w) + 1), on 4 panels.
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
        (_fd_middle, ~(series | degenerate)),
        (_fd_degenerate, degenerate),
    ):
        index = np.flatnonzero(mask)
        for start in range(0, index.size, _FD_BLOCK):
            block = index[start : start + _FD_BLOCK]
            out[block] = branch(j, flat[block])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
