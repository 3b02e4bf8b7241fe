"""Spatial density of the trapped gas at zero and finite temperature.

The gas is given by its Fermi energy eps_F in joules. The zero-T bottom
density n(0, 0), the fig3 curve and the particle number N per m^2 share
one closed form. Densities include the spin degeneracy factor 2, which
number conservation requires; the CLI's ``--paper-literal`` halves them
on output to match the published normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import NEUTRON, PhysicalConstants
from .errors import DomainError
from .specfun import FD_ETA_MAX, fermi_dirac
from .thermo import TRAPPED, _check_t, eta_from_t

# default height grid: uniform to 1.5x the zero-T column, with an
# exponentially spaced tail extension once k_B T is comparable to eps_F
_PROFILE_SPAN = 1.5
_TAIL_ONSET_T = 0.5
_TAIL_DECADES = 8.0


@dataclass(frozen=True)
class DilutenessReport:
    """Mean interparticle separation vs thermal de Broglie wavelength."""

    density: float  # m^-3
    mean_separation: float  # n^(-1/3) (m)
    thermal_wavelength: float  # h / sqrt(3 m k_B T) (m)
    degenerate: bool  # separation <= wavelength


def _check_height(z: float) -> float:
    z = float(z)
    if not (math.isfinite(z) and z >= 0.0):
        raise DomainError(f"height must be nonnegative and finite, got {z!r}")
    return z


# hbar is fixed, so the zero-T normalization is formed once
_THREE_PI2_HBAR3 = 3.0 * math.pi**2 * PhysicalConstants.hbar**3


def _zero_t(two_m, energy):
    # (two_m energy)^(3/2) / (3 pi^2 hbar^3), spin factor 2 included; inf on overflow.
    # float_power is the C library's pow, the one a float's ** calls
    with np.errstate(over="ignore"):
        return np.float_power(two_m * energy, 1.5) / _THREE_PI2_HBAR3


def density(
    t: float, z: float, eps_F: float, constants: PhysicalConstants = NEUTRON
) -> float:
    """Finite-temperature local density n(t, z) in m^-3 for Fermi energy eps_F (J).

    n = n(0, 0) * density_ratio(t, m g z / eps_F)
      = (2 m k_B T)^(3/2) / (2 pi^2 hbar^3) * F_{1/2}(eta - m g z / k_B T),
    spin factor included. Monotone nonincreasing in z; decays to 0.0 far
    above the column.
    """
    z = _check_height(z)
    n00 = density_zero_T(0.0, eps_F, constants)
    return n00 * density_ratio(t, constants.m * constants.g * z / eps_F)


def density_zero_T(z: float, eps_F: float, constants: PhysicalConstants = NEUTRON) -> float:
    """Zero-temperature profile (2m(eps_F - m g z))^(3/2) / (3 pi^2 hbar^3).

    Vanishes at and above the column height eps_F/(m g). Raises
    DomainError unless eps_F is positive and finite and the bottom
    density (2 m eps_F)^(3/2) / (3 pi^2 hbar^3) is finite.
    """
    z = _check_height(z)
    eps_F = float(eps_F)
    if not (0.0 < eps_F < math.inf and _zero_t(2.0 * constants.m, eps_F) < math.inf):
        raise DomainError(f"eps_F = {eps_F!r} J must be positive and give a finite bottom density")
    local = eps_F - constants.m * constants.g * z
    return float(_zero_t(2.0 * constants.m, local)) if local > 0.0 else 0.0


def particle_number(eps_F: float, constants: PhysicalConstants = NEUTRON) -> float:
    """Particles per m^2 of floor, N = (2/5) n(0, 0) eps_F / (m g), at Fermi energy eps_F (J).

    Raises DomainError when eps_F is not positive and finite, or when the
    count over- or underflows a double.
    """
    if not (eps_F > 0.0 and math.isfinite(eps_F)):
        raise DomainError(f"eps_F must be positive and finite, got {eps_F!r}")
    N = float(_zero_t(2.0 * constants.m, eps_F)) * (2.0 * eps_F) / (5.0 * constants.m * constants.g)
    if not (0.0 < N < math.inf):
        raise DomainError(f"eps_F = {eps_F!r} J over- or underflows the particle number")
    return float(N)


def density_ratio(t, mgz_over_ef):
    """Dimensionless profile n(t, z) / n(0, 0) against x = m g z / eps_F.

    Equals (3/2) t^(3/2) F_{1/2}(eta(t) - x/t); the spin factor cancels.
    At t -> 0 this approaches (1 - x)^(3/2) for x < 1 and zero above.
    Where eta - x/t falls below -FD_ETA_MAX the integral has long since
    underflowed, so the argument is clamped there and the ratio is 0.0.
    t and x may be scalars, giving a float, or arrays that broadcast together;
    the call is one eta solve over the distinct values of t and one batched
    F_{1/2} call.
    """
    x = np.asarray(mgz_over_ef, dtype=float)
    bad = ~(x >= 0.0)
    if bad.any():
        raise DomainError(f"m g z / eps_F must be nonnegative, got {float(x[bad].flat[0])!r}")
    t = _check_t(t)
    eta = np.maximum(eta_from_t(t, TRAPPED) - x / t, -FD_ETA_MAX)
    ratio = 1.5 * np.power(t, 1.5) * fermi_dirac(0.5, eta)
    return float(ratio) if ratio.ndim == 0 else ratio


def bottom_density_vs_fermi(
    fermi_temperatures_K, constants: PhysicalConstants = NEUTRON
) -> np.ndarray:
    """Zero-temperature bottom density (m^-3) for each eps_F/k_B in kelvin.

    Scales as eps_F^(3/2), a straight line of slope 3/2 on log-log axes.
    """
    temps = np.asarray(fermi_temperatures_K, dtype=float)
    bad = ~((temps > 0.0) & (temps < math.inf))
    if bad.any():
        raise DomainError(
            f"Fermi temperatures must be positive and finite, got {float(temps[bad].flat[0])!r}"
        )
    n0 = _zero_t(2.0 * constants.m * constants.kB, temps)  # E = k_B T
    overflow = ~np.isfinite(n0)
    if overflow.any():
        raise DomainError(
            f"Fermi temperature {float(temps[overflow].flat[0])!r} K overflows the bottom density"
        )
    return n0


def _tail_points(n_points: int) -> int:
    # points ratio_grid appends above the uniform span once t > 0.5
    return max(n_points // 4, 8)


def ratio_grid(t: float, n_points: int = 400) -> np.ndarray:
    """Grid in x = m g z / eps_F: uniform over [0, 1.5], plus a tail at high t.

    For t > 0.5 the evaporated fraction is significant, so points with
    exponentially growing spacing extend the grid to about 1.5 + 8t.
    n_points is an integer (numpy's too, bool not) of at least 2.
    """
    if isinstance(n_points, bool) or not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise DomainError(f"n_points must be an integer of at least 2, got {n_points!r}")
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"reduced temperature must be nonnegative and finite, got {t!r}")
    base = np.linspace(0.0, _PROFILE_SPAN, n_points)
    if t <= _TAIL_ONSET_T:
        return base
    n_tail = _tail_points(n_points)
    u = np.linspace(0.0, math.log(1.0 + _TAIL_DECADES), n_tail + 1)[1:]
    tail = _PROFILE_SPAN + t * (np.exp(u) - 1.0)
    return np.concatenate([base, tail])


def diluteness(
    n: float, temperature_K: float, constants: PhysicalConstants = NEUTRON
) -> DilutenessReport:
    """Compare mean spacing n^(-1/3) with the wavelength h / sqrt(3 m k_B T).

    The gas counts as degenerate when the spacing does not exceed the
    wavelength. Note the sqrt(3 m k_B T) convention for the thermal
    momentum, not the sqrt(2 pi m k_B T) one.
    """
    if not (math.isfinite(n) and n > 0.0):
        raise DomainError(f"density must be positive and finite, got {n!r}")
    if not (math.isfinite(temperature_K) and temperature_K > 0.0):
        raise DomainError(f"temperature must be positive and finite, got {temperature_K!r}")
    separation = n ** (-1.0 / 3.0)
    wavelength = constants.h / math.sqrt(3.0 * constants.m * constants.kB * temperature_K)
    return DilutenessReport(
        density=n,
        mean_separation=separation,
        thermal_wavelength=wavelength,
        degenerate=bool(separation <= wavelength),
    )
