"""Finite-temperature thermodynamics of the gravitationally confined Fermi gas.

All bulk quantities reduce to functions of the single dimensionless
temperature t = k_B T / eps_F once the Fermi energy is fixed, so the
chemical potential and energy routines below carry no unit arguments.
The routines take the exponent s of the density of states g(E) ~ E^s:
TRAPPED (3/2) for the column, FREE (1/2) for free space at the same eps_F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import optimize

from .constants import PhysicalConstants, default_constants
from .errors import DomainError, NumericalError
from .specfun import FD_ETA_MAX, fermi_dirac

T_DIMLESS_MIN = 1.0e-4
T_DIMLESS_MAX = 1.0e3
_ETA_FLOOR = -60.0  # beta*eps_F is far below 1/T_DIMLESS_MAX here already

TRAPPED = 1.5  # density-of-states exponent of the gravity-confined column
FREE = 0.5  # free-space gas at the same Fermi energy


@dataclass(frozen=True)
class GasSpec:
    """A confined gas: particle count, wall size, and the implied Fermi energy."""

    N: float  # particle count (> 0; real-valued to admit areal densities)
    L: float  # lateral wall size (m)
    eps_F: float  # Fermi energy (J), consistent with N and L

    @classmethod
    def from_particle_number(
        cls, N: float, L: float, constants: PhysicalConstants | None = None
    ) -> "GasSpec":
        return cls(N=float(N), L=float(L), eps_F=fermi_energy(N, L, constants))

    @classmethod
    def from_fermi_energy(
        cls, eps_F: float, L: float, constants: PhysicalConstants | None = None
    ) -> "GasSpec":
        return cls(N=particle_number(eps_F, L, constants), L=float(L), eps_F=float(eps_F))

    def __post_init__(self) -> None:
        for name in ("N", "L", "eps_F"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ThermoPoint:
    """State of the gas at one reduced temperature t = k_B T / eps_F."""

    t: float
    eta: float  # beta * mu
    mu_over_ef: float
    u_over_nef: float  # U / (N eps_F)


def fermi_energy(N: float, L: float, constants: PhysicalConstants | None = None) -> float:
    """Zero-temperature Fermi energy of N particles over an L x L floor (J).

    eps_F = (hbar^2 / 2m) * (15 pi^2 m^2 g N / (hbar^2 L^2))**(2/5),
    the N**(2/5) scaling characteristic of the linear potential.
    """
    if not (N > 0.0 and L > 0.0 and math.isfinite(N) and math.isfinite(L)):
        raise DomainError("N and L must be positive and finite")
    c = constants if constants is not None else default_constants()
    packed = 15.0 * math.pi**2 * c.m**2 * c.g * N / (c.hbar**2 * L**2)
    return c.hbar**2 / (2.0 * c.m) * packed**0.4


def particle_number(eps_F: float, L: float, constants: PhysicalConstants | None = None) -> float:
    """Particle count giving Fermi energy ``eps_F`` over an L x L floor."""
    if not (eps_F > 0.0 and L > 0.0 and math.isfinite(eps_F) and math.isfinite(L)):
        raise DomainError("eps_F and L must be positive and finite")
    c = constants if constants is not None else default_constants()
    return (2.0 * c.m * eps_F / c.hbar**2) ** 2.5 * c.hbar**2 * L**2 / (
        15.0 * math.pi**2 * c.m**2 * c.g
    )


def beta_epsf_from_eta(eta: float, s: float = TRAPPED) -> float:
    """Reduced inverse temperature beta*eps_F fixed by particle number.

    (beta eps_F)**(s+1) = (s+1) F_s(eta); monotone increasing in eta.
    """
    return ((s + 1.0) * fermi_dirac(s, eta)) ** (1.0 / (s + 1.0))


def _check_t(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and T_DIMLESS_MIN <= t <= T_DIMLESS_MAX):
        raise DomainError(
            f"reduced temperature must lie in [{T_DIMLESS_MIN}, {T_DIMLESS_MAX}], got {t!r}"
        )
    return t


@lru_cache(maxsize=4096)
def eta_from_t(t: float, s: float = TRAPPED) -> float:
    """Reduced chemical potential eta = beta*mu at reduced temperature t.

    Inverts beta_epsf_from_eta(eta, s) = 1/t by bracketed root finding.
    """
    target = 1.0 / _check_t(t)
    # mu < eps_F at any finite temperature, so the root sits below 1/t and
    # never reaches the integrals' |eta| cap
    lo, hi = _ETA_FLOOR, min(target + 1.0, FD_ETA_MAX)
    f = lambda eta: beta_epsf_from_eta(eta, s) - target
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(8):
        if f_lo < 0.0 <= f_hi:
            break
        if f_lo >= 0.0:
            lo -= 40.0
            f_lo = f(lo)
        if f_hi < 0.0:
            hi = min(hi * 2.0, FD_ETA_MAX)
            f_hi = f(hi)
    else:
        raise NumericalError("could not bracket the chemical potential")
    eta = optimize.brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    residual = beta_epsf_from_eta(eta, s) / target - 1.0
    if abs(residual) > 1.0e-10:
        raise NumericalError(f"chemical potential solve left residual {residual:.2e}")
    return float(eta)


def mu_over_ef(t: float, s: float = TRAPPED) -> float:
    """Chemical potential over Fermi energy, mu/eps_F = t * eta(t)."""
    return _check_t(t) * eta_from_t(t, s)


def mu_over_ef_sommerfeld(t: float, *, paper_literal: bool = False) -> float:
    """Low-temperature expansion of mu/eps_F.

    The expansion consistent with the exact integrals is
    1 - (pi^2/4) t^2; its curvature is 3 times the free-gas pi^2/12.
    ``paper_literal`` selects the widely quoted variant 1 - (pi^2/2) t^2
    instead (curvature ratio 6), which overstates the coefficient by a
    factor of 2 relative to the exact solve.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"reduced temperature must be nonnegative, got {t!r}")
    coeff = math.pi**2 / 2.0 if paper_literal else math.pi**2 / 4.0
    return 1.0 - coeff * t * t


def _energy(t: float, eta: float, s: float) -> float:
    return (s + 1.0) * t ** (s + 2.0) * fermi_dirac(s + 1.0, eta)


def internal_energy(t: float, s: float = TRAPPED) -> float:
    """Internal energy per particle in Fermi-energy units, U/(N eps_F).

    Equals (s+1) t^(s+2) F_{s+1}(eta). For the trapped gas this is
    (15/4) (beta eps_F)^(-7/2) [(2/5) F_{5/2}(eta) + D(eta)], where D is
    the lateral-vertical cross term; D reduces exactly to
    (4/15) F_{5/2}(eta), so the bracket collapses to (2/3) F_{5/2}(eta).
    Limits: (s+1)/(s+2) as t -> 0, which is 5/7 trapped and 3/5 free,
    and (s+1) t in the classical regime.
    """
    t = _check_t(t)
    return _energy(t, eta_from_t(t, s), s)


def thermo_point(t: float, s: float = TRAPPED) -> ThermoPoint:
    """Bundle eta, mu/eps_F and U/(N eps_F) at one reduced temperature."""
    t = _check_t(t)
    eta = eta_from_t(t, s)
    return ThermoPoint(t=t, eta=eta, mu_over_ef=t * eta, u_over_nef=_energy(t, eta, s))


def thermo_point_from_eta(eta: float, s: float = TRAPPED) -> ThermoPoint:
    """Parametric evaluation: sweep eta directly and derive t, no inversion."""
    beta_epsf = beta_epsf_from_eta(eta, s)
    if beta_epsf <= 0.0:
        raise DomainError(f"eta {eta!r} maps to a vanishing beta*eps_F")
    t = 1.0 / beta_epsf
    return ThermoPoint(t=t, eta=float(eta), mu_over_ef=t * eta, u_over_nef=_energy(t, eta, s))
