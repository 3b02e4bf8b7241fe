"""Complete Fermi-Dirac integrals F_j, with numpy alone.

F_j takes scalars or arrays of eta and evaluates a whole array at once
with fixed numpy quadrature rules, in three branches: the Maxwell series
for eta <= -35, graded composite Gauss-Legendre panels in z = u^2 for
-35 < eta < 80, and the degenerate reflection formula for eta >= 80.
Against mpmath's polylogarithm the worst relative error over
|eta| <= 1e4 is about 1e-15 for every order in FD_ORDERS. Piecewise
fits in the spirit of Fukushima (2015, Appl. Math. Comput. 259, 708)
would be faster still, but would have to be derived and checked here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# complete Fermi-Dirac integrals are provided for these orders only
FD_ORDERS = (-0.5, 0.5, 1.5, 2.5)
FD_ETA_MAX = 1.0e4
# at and below this the 3-term Maxwell series is exact to rounding: the first
# omitted term is e^-105 of the leading one
_FD_SERIES_CUTOFF = -35.0
# at and above this the reflection formula is used; (eta - w)^j is then
# smooth over the whole w range [0, 40] even for j < 1
_FD_DEGENERATE = 80.0
# one 32-node Gauss-Legendre rule on [-1, 1] serves every panel; against
# mpmath 16 nodes reach only 2e-9 and 24 nodes 3e-13
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
# middle branch: panels per segment between the edges 0, sqrt(max(eta-40, 0)),
# sqrt(max(eta, 0)) and sqrt(max(eta, 0) + 50); grading the panels towards
# the Fermi edge u = sqrt(eta) is what keeps the error near 1e-15
_MID_PANELS = np.array([2, 4, 6])
_MID_SEGMENT = np.repeat(np.arange(3), _MID_PANELS)
_MID_OFFSET = np.concatenate([np.arange(n) for n in _MID_PANELS]) + 0.5
# degenerate branch: 4 panels on w in [0, 40], with the Fermi factor folded
# into the weights, which do not depend on eta
_DEG_W = (np.arange(4)[:, None] * 10.0 + 5.0 + 5.0 * _GL_X).ravel()
_DEG_KERNEL = np.tile(5.0 * _GL_W, 4) / (np.exp(_DEG_W) + 1.0)
# eta values per block: keeps the middle branch's temporaries near 1 MB
_FD_BLOCK = 256


def _check_order(j: float) -> float:
    j = float(j)
    if j not in FD_ORDERS:
        raise DomainError(f"Fermi-Dirac order must be one of {FD_ORDERS}, got {j!r}")
    return j


def _row_sum(a: np.ndarray) -> np.ndarray:
    # left-to-right sum over the last axis: ndarray.sum picks its order from
    # the array's shape, which would make a value depend on its batch
    return np.cumsum(a, axis=-1)[..., -1]


def _fd_maxwell(j: float, eta: np.ndarray) -> np.ndarray:
    # Gamma(j+1) * sum over k <= 3 of (-1)^(k+1) e^(k eta) / k^(j+1)
    acc = np.exp(eta) - np.exp(2.0 * eta) / 2.0 ** (j + 1.0) + np.exp(3.0 * eta) / 3.0 ** (j + 1.0)
    return math.gamma(j + 1.0) * acc


def _fd_middle(j: float, eta: np.ndarray) -> np.ndarray:
    # F_j = integral of 2 u^(2j+1) / (exp(u^2 - eta) + 1) over u >= 0,
    # cut at u^2 = max(eta, 0) + 50 where the integrand is e^-50 of its peak
    top = np.maximum(eta, 0.0)
    zero = np.zeros_like(eta)
    edges = np.stack([zero, np.sqrt(np.maximum(eta - 40.0, 0.0)), np.sqrt(top),
                      np.sqrt(top + 50.0)], axis=-1)
    width = (np.diff(edges, axis=-1) / _MID_PANELS)[:, _MID_SEGMENT]
    center = edges[:, _MID_SEGMENT] + _MID_OFFSET * width
    half = 0.5 * width
    z = np.square(center[..., None] + half[..., None] * _GL_X)
    integrand = 2.0 * z ** (j + 0.5) / (np.exp(z - eta[:, None, None]) + 1.0)
    return _row_sum(_row_sum(integrand * _GL_W) * half)


def _fd_degenerate(j: float, eta: np.ndarray) -> np.ndarray:
    # F_j = eta^(j+1)/(j+1) + integral over w of [(eta+w)^j - (eta-w)^j] / (e^w + 1),
    # cut at w = 40; both tails beyond it are e^-40 of the leading term
    e = eta[:, None]
    reflected = ((e + _DEG_W) ** j - (e - _DEG_W) ** j) * _DEG_KERNEL
    return eta ** (j + 1.0) / (j + 1.0) + _row_sum(reflected)


def fermi_dirac(j: float, eta):
    """Complete Fermi-Dirac integral F_j(eta) for j in {-1/2, 1/2, 3/2, 5/2}.

    F_j(eta) = integral of z**j / (exp(z - eta) + 1) over z >= 0, with
    relative error <= 1e-13 for |eta| <= 1e4 (about 1e-15 against mpmath).
    ``eta`` may be a scalar, which gives a float, or an array, which gives
    an array of the same shape; each element's value does not depend on
    the others, so the two agree bit for bit.

    Branches: the Maxwell series for eta <= -35; for -35 < eta < 80 the
    substitution z = u**2 and 32-node Gauss-Legendre panels graded toward
    the Fermi edge (2 on [0, sqrt(eta - 40)], 4 up to sqrt(eta), 6 up to
    sqrt(eta + 50), edges clipped at 0); for eta >= 80 the reflection
    eta**(j+1)/(j+1) + integral over [0, 40] of
    [(eta+w)**j - (eta-w)**j] / (exp(w) + 1), on 4 panels.
    """
    j = _check_order(j)
    x = np.asarray(eta, dtype=float)
    bad = ~(np.abs(x) <= FD_ETA_MAX)
    if bad.any():
        raise DomainError(
            f"F_{j} needs finite eta with |eta| <= {FD_ETA_MAX}, got {float(x[bad].flat[0])!r}"
        )
    flat = x.ravel()
    out = np.empty_like(flat)
    maxwell = flat <= _FD_SERIES_CUTOFF
    degenerate = flat >= _FD_DEGENERATE
    for branch, mask in (
        (_fd_maxwell, maxwell),
        (_fd_middle, ~(maxwell | degenerate)),
        (_fd_degenerate, degenerate),
    ):
        index = np.flatnonzero(mask)
        for start in range(0, index.size, _FD_BLOCK):
            block = index[start : start + _FD_BLOCK]
            out[block] = branch(j, flat[block])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
