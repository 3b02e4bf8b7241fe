"""Spatial density of the trapped gas at zero and finite temperature.

Densities include the spin degeneracy factor 2 by default, which is what
number conservation requires. ``paper_literal=True`` drops that factor
(coefficient 6 pi^2 instead of 3 pi^2 in the zero-temperature profile)
for comparison against the halved published normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, default_constants
from .errors import DomainError
from .specfun import FD_ETA_MAX, fermi_dirac
from .thermo import TRAPPED, GasSpec, eta_from_t

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


def _zero_t_denominator(c: PhysicalConstants, paper_literal: bool) -> float:
    # 3 pi^2 hbar^3 carries the spin factor 2, which paper_literal drops
    return (6.0 if paper_literal else 3.0) * math.pi**2 * c.hbar**3


def density(
    t: float,
    z: float,
    spec: GasSpec,
    constants: PhysicalConstants | None = None,
    *,
    paper_literal: bool = False,
) -> float:
    """Finite-temperature local density n(t, z) in m^-3.

    n = n(0, 0) * density_ratio(t, m g z / eps_F)
      = (2 m k_B T)^(3/2) / (2 pi^2 hbar^3) * F_{1/2}(eta - m g z / k_B T),
    spin factor included. Monotone nonincreasing in z; decays to 0.0 far
    above the column.
    """
    z = _check_height(z)
    c = constants if constants is not None else default_constants()
    n00 = density_zero_T(0.0, spec, c, paper_literal=paper_literal)
    return n00 * density_ratio(t, c.m * c.g * z / spec.eps_F)


def density_zero_T(
    z: float,
    spec: GasSpec,
    constants: PhysicalConstants | None = None,
    *,
    paper_literal: bool = False,
) -> float:
    """Zero-temperature profile (2m(eps_F - m g z))^(3/2) / (3 pi^2 hbar^3).

    Vanishes at and above the column height eps_F/(m g).
    """
    z = _check_height(z)
    c = constants if constants is not None else default_constants()
    local = spec.eps_F - c.m * c.g * z
    if local <= 0.0:
        return 0.0
    return (2.0 * c.m * local) ** 1.5 / _zero_t_denominator(c, paper_literal)


def density_ratio(t: float, mgz_over_ef: float) -> float:
    """Dimensionless profile n(t, z) / n(0, 0) against x = m g z / eps_F.

    Equals (3/2) t^(3/2) F_{1/2}(eta(t) - x/t); the spin factor cancels.
    At t -> 0 this approaches (1 - x)^(3/2) for x < 1 and zero above.
    Where eta - x/t falls below -FD_ETA_MAX the integral has long since
    underflowed, so the argument is clamped there and the ratio is 0.0.
    """
    x = float(mgz_over_ef)
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"m g z / eps_F must be nonnegative, got {x!r}")
    eta = eta_from_t(t, TRAPPED)
    return 1.5 * t**1.5 * fermi_dirac(0.5, max(eta - x / t, -FD_ETA_MAX))


def density_ratio_sommerfeld(t: float) -> float:
    """Low-temperature expansion of the bottom-density ratio.

    The expansion consistent with the exact integrals is 1 - (pi^2/4) t^2
    (remainder below 5 t^4 for t <= 0.1). The widely quoted
    1 - (5 pi^2/8) t^2 has a t^2 coefficient 2.5 times too large.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"reduced temperature must be nonnegative, got {t!r}")
    return 1.0 - math.pi**2 / 4.0 * t * t


def bottom_density_vs_fermi(
    fermi_temperatures_K,
    constants: PhysicalConstants | None = None,
    *,
    paper_literal: bool = False,
) -> np.ndarray:
    """Zero-temperature bottom density (m^-3) for each eps_F/k_B in kelvin.

    Scales as eps_F^(3/2), a straight line of slope 3/2 on log-log axes.
    """
    c = constants if constants is not None else default_constants()
    temps = np.asarray(fermi_temperatures_K, dtype=float)
    if np.any(~np.isfinite(temps)) or np.any(temps <= 0.0):
        raise DomainError("Fermi temperatures must be positive and finite")
    return (2.0 * c.m * c.kB * temps) ** 1.5 / _zero_t_denominator(c, paper_literal)


def _tail_points(n_points: int) -> int:
    # points ratio_grid appends above the uniform span once t > 0.5
    return max(n_points // 4, 8)


def ratio_grid(t: float, n_points: int = 400) -> np.ndarray:
    """Grid in x = m g z / eps_F: uniform over [0, 1.5], plus a tail at high t.

    For t > 0.5 the evaporated fraction is significant, so points with
    exponentially growing spacing extend the grid to about 1.5 + 8t.
    """
    if n_points < 2:
        raise DomainError(f"need at least 2 grid points, got {n_points}")
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"reduced temperature must be nonnegative, got {t!r}")
    base = np.linspace(0.0, _PROFILE_SPAN, n_points)
    if t <= _TAIL_ONSET_T:
        return base
    n_tail = _tail_points(n_points)
    u = np.linspace(0.0, math.log(1.0 + _TAIL_DECADES), n_tail + 1)[1:]
    tail = _PROFILE_SPAN + t * (np.exp(u) - 1.0)
    return np.concatenate([base, tail])


def diluteness(
    n: float, temperature_K: float, constants: PhysicalConstants | None = None
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
    c = constants if constants is not None else default_constants()
    separation = n ** (-1.0 / 3.0)
    wavelength = c.h / math.sqrt(3.0 * c.m * c.kB * temperature_K)
    return DilutenessReport(
        density=n,
        mean_separation=separation,
        thermal_wavelength=wavelength,
        degenerate=separation <= wavelength,
    )
