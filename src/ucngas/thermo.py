"""Finite-temperature thermodynamics of the gravitationally confined Fermi gas.

A gas is fixed by its Fermi energy eps_F alone. All bulk quantities
reduce to functions of the single dimensionless temperature
t = k_B T / eps_F, so eta_from_t and thermo_point carry no unit arguments.
The routines take the exponent s of the density of states g(E) ~ E^s:
TRAPPED (3/2) for the column, FREE (1/2) for free space at the same eps_F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .specfun import FD_ETA_MAX, FD_ORDERS, fermi_dirac

T_DIMLESS_MIN = 1.0e-4
T_DIMLESS_MAX = 1.0e3
# Newton stops once a step is this small relative to max(|eta|, 1); the
# convergence is quadratic by then, so the step taken leaves eta exact to
# rounding. The cap is far above the five steps any t in the window takes.
_NEWTON_TOL = 1.0e-12
_NEWTON_MAX_ITER = 60

TRAPPED = 1.5  # density-of-states exponent of the gravity-confined column
FREE = 0.5  # free-space gas at the same Fermi energy


@dataclass(frozen=True)
class ThermoPoint:
    """State of the gas at a reduced temperature t = k_B T / eps_F.

    The fields are floats for one t and arrays of one shape for an array.
    """

    t: float
    eta: float  # beta * mu
    mu_over_ef: float
    u_over_nef: float  # U / (N eps_F)


def beta_epsf_from_eta(eta, s: float = TRAPPED):
    """Reduced inverse temperature beta*eps_F fixed by particle number.

    (beta eps_F)**(s+1) = (s+1) F_s(eta); monotone increasing in eta.
    Takes a scalar or an array of eta.
    """
    return np.power((s + 1.0) * fermi_dirac(s, eta), 1.0 / (s + 1.0))


def _check_t(t):
    """t as a float, or as a float array for an array; each must lie in the window."""
    values = np.asarray(t, dtype=float)
    bad = ~((values >= T_DIMLESS_MIN) & (values <= T_DIMLESS_MAX))
    if bad.any():
        raise DomainError(
            f"reduced temperature must lie in [{T_DIMLESS_MIN}, {T_DIMLESS_MAX}], "
            f"got {float(values[bad].flat[0])!r}"
        )
    return float(values) if values.ndim == 0 else values


def _solve_eta(t: np.ndarray, s: float) -> np.ndarray:
    """eta at every t of a 1-D array, by one Newton solve.

    Drives h(eta) = (s+1) t^(s+1) F_s(eta) - 1 to zero, whose slope is
    (s+1) t^(s+1) s F_{s-1}(eta). For s in {1/2, 3/2, 5/2} h increases and
    is convex, since F_s'' = s F_{s-1}' > 0, so a step from left of the root
    lands at or right of it and every later iterate falls monotonically onto
    it. The only bound needed is hi, which lies right of the root for t in
    [T_DIMLESS_MIN, T_DIMLESS_MAX]: F_s(eta) > eta^(s+1)/(s+1) for eta > 0,
    so beta*eps_F(hi) > hi >= 1/t, and hi stays inside the integrals' |eta|
    cap. Every element follows its own iterates, so a t gives the same bits
    alone or in an array.
    """
    if not (s in FD_ORDERS and s - 1.0 in FD_ORDERS):
        raise DomainError(f"the eta solve needs F_s and F_(s-1) in {FD_ORDERS}, got s={s!r}")
    scale = (s + 1.0) * np.power(t, s + 1.0)
    hi = np.minimum(1.0 / t + 1.0, FD_ETA_MAX)
    # the larger of the Maxwell estimate, a lower bound on the root, and
    # the two-term degenerate one; either is good where it is the larger
    eta = np.maximum(-np.log(math.gamma(s + 1.0) * scale), 1.0 / t - math.pi**2 / 6.0 * s * t)
    eta = np.minimum(eta, hi)
    active = np.arange(t.size)
    for _ in range(_NEWTON_MAX_ITER):
        x, c = eta[active], scale[active]
        step = (c * fermi_dirac(s, x) - 1.0) / (c * s * fermi_dirac(s - 1.0, x))
        eta[active] = np.minimum(x - step, hi[active])
        done = np.abs(step) <= _NEWTON_TOL * np.maximum(np.abs(x), 1.0)
        active = active[~done]
        if active.size == 0:
            break
    residual = beta_epsf_from_eta(eta, s) * t - 1.0
    bad = ~(np.abs(residual) <= 1.0e-10)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise NumericalError(
            f"chemical potential solve at t={float(t[k])!r}, s={s!r} left residual "
            f"{residual[k]:.2e}"
        )
    return eta


def eta_from_t(t, s: float = TRAPPED):
    """Reduced chemical potential eta = beta*mu at reduced temperature t.

    Inverts beta_epsf_from_eta(eta, s) = 1/t by one vector solve, which
    solves each distinct t once. Takes a scalar t, giving a float, or an
    array, giving an array of its shape.
    """
    distinct, inverse = np.unique(_check_t(t), return_inverse=True)
    eta = _solve_eta(distinct, s)[inverse]  # inverse has t's shape
    return float(eta) if np.ndim(t) == 0 else eta


# perfbench/probe.py clears the cache this function once had before it
# times a cold solve; nothing is cached, so clearing does nothing
eta_from_t.cache_clear = lambda: None


def _check_energy_order(s: float) -> None:
    # U needs F_{s+1}; checked before any F_j work is spent on eta
    if s + 1.0 not in FD_ORDERS:
        raise DomainError(f"the energy needs F_(s+1) in {FD_ORDERS}, got s={s!r}")


def _energy(t, eta, s: float):
    # np.power, not **: a float's ** calls the C library, an array's numpy's
    # own vector pow, and the two differ in the last bit
    return (s + 1.0) * np.power(t, s + 2.0) * fermi_dirac(s + 1.0, eta)


def thermo_point(t, s: float = TRAPPED) -> ThermoPoint:
    """The gas at reduced temperature t: eta, mu/eps_F = t eta and U/(N eps_F).

    U/(N eps_F) = (s+1) t^(s+2) F_{s+1}(eta). For the trapped gas this is
    (15/4) (beta eps_F)^(-7/2) [(2/5) F_{5/2}(eta) + D(eta)], where D is
    the lateral-vertical cross term; D reduces exactly to
    (4/15) F_{5/2}(eta), so the bracket collapses to (2/3) F_{5/2}(eta).
    Limits: (s+1)/(s+2) as t -> 0, which is 5/7 trapped and 3/5 free,
    and (s+1) t in the classical regime. Takes a scalar or an array of t;
    the fields are arrays of its shape for an array.
    """
    _check_energy_order(s)
    t = _check_t(t)
    eta = eta_from_t(t, s)
    return ThermoPoint(t=t, eta=eta, mu_over_ef=t * eta, u_over_nef=_energy(t, eta, s))


def thermo_point_from_eta(eta, s: float = TRAPPED) -> ThermoPoint:
    """Parametric evaluation: sweep eta directly and derive t, no inversion.

    Takes a scalar or an array of eta, like :func:`thermo_point`.
    """
    _check_energy_order(s)
    beta_epsf = beta_epsf_from_eta(eta, s)
    if np.any(beta_epsf <= 0.0):  # F_s underflows first at the lowest eta
        raise DomainError(f"eta {float(np.min(eta))!r} maps to a vanishing beta*eps_F")
    t = 1.0 / beta_epsf
    return ThermoPoint(t=t, eta=eta, mu_over_ef=t * eta, u_over_nef=_energy(t, eta, s))
