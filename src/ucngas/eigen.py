"""Bound states of a particle above a hard floor in uniform gravity.

The vertical eigenfunctions are shifted Airy functions; the lateral
directions are ordinary box modes. Energies come out in joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .constants import PhysicalConstants, default_constants, derive_scales
from .errors import DomainError
from .specfun import ZERO_INDEX_MAX, airy_zero, airy_zero_asymptotic

# Ai underflows double precision long before this; treat the tail as zero
_AIRY_TAIL_CUT = 40.0


@dataclass(frozen=True)
class BoxSpec:
    """Square lateral confinement of side L (m)."""

    L: float

    def __post_init__(self) -> None:
        if not (isinstance(self.L, (int, float)) and math.isfinite(self.L) and self.L > 0):
            raise DomainError(f"box side must be positive and finite, got {self.L!r}")


@dataclass(frozen=True)
class EigenState:
    """One vertical eigenstate: quantum number, energy, Airy zero a_n, and norm."""

    n_z: int
    energy: float  # J
    zero: float  # a_n < 0
    norm: float  # m^-1/2


def _check_index(n_z: int) -> int:
    if not (isinstance(n_z, int) and 1 <= n_z <= ZERO_INDEX_MAX):
        raise DomainError(f"n_z must lie in 1..{ZERO_INDEX_MAX}, got {n_z!r}")
    return n_z


def eigen_energy_exact(n_z: int, constants: PhysicalConstants | None = None) -> float:
    """Exact vertical eigenenergy e_g * |a_n| (J)."""
    scales = derive_scales(constants)
    return scales.e_g * abs(airy_zero(_check_index(n_z)))


def eigen_energy_asymptotic(n_z: int, constants: PhysicalConstants | None = None) -> float:
    """Closed-form energy e_g * (3 pi (4 n_z - 1) / 8)**(2/3) (J).

    Within 1% of the exact value everywhere; worst at n_z = 1.
    """
    scales = derive_scales(constants)
    return scales.e_g * abs(airy_zero_asymptotic(_check_index(n_z)))


def eigen_state(n_z: int, constants: PhysicalConstants | None = None) -> EigenState:
    """Build the normalized vertical eigenstate for quantum number n_z."""
    zero = airy_zero(_check_index(n_z))
    scales = derive_scales(constants)
    slope = float(special.airy(zero)[1])
    norm = scales.alpha ** (1.0 / 6.0) / abs(slope)
    return EigenState(n_z=n_z, energy=scales.e_g * abs(zero), zero=zero, norm=norm)


def wavefunction(state: EigenState, z, constants: PhysicalConstants | None = None):
    """Normalized eigenfunction psi(z) = norm * Ai(alpha**(1/3) z + a_n).

    ``z`` is a height in meters (scalar or array), z >= 0. Heights far
    beyond the classical turning point map to exactly 0.0 because Ai has
    fallen below double precision there.
    """
    scales = derive_scales(constants)
    z_arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr < 0.0):
        raise DomainError("heights must be finite and nonnegative")
    arg = scales.alpha ** (1.0 / 3.0) * z_arr + state.zero
    safe = np.minimum(arg, _AIRY_TAIL_CUT)
    psi = state.norm * np.asarray(special.airy(safe)[0], dtype=float)
    psi = np.where(arg > _AIRY_TAIL_CUT, 0.0, psi)
    return float(psi) if np.isscalar(z) else psi


def classical_turning_point(state: EigenState, constants: PhysicalConstants | None = None) -> float:
    """Height E/(m g) where the potential equals the state's energy (m)."""
    c = constants if constants is not None else default_constants()
    return state.energy / (c.m * c.g)


def box_energy(n: int, box: BoxSpec, constants: PhysicalConstants | None = None) -> float:
    """Lateral box level pi^2 hbar^2 n^2 / (2 m L^2) (J)."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"box quantum number must be a positive integer, got {n!r}")
    c = constants if constants is not None else default_constants()
    return (math.pi * c.hbar * n) ** 2 / (2.0 * c.m * box.L**2)


def total_energy(
    n_x: int,
    n_y: int,
    n_z: int,
    box: BoxSpec,
    constants: PhysicalConstants | None = None,
    exact_z: bool = False,
) -> float:
    """Total level energy: two box modes plus the vertical level (J).

    The vertical part uses the asymptotic form by default; ``exact_z``
    switches to the Airy-zero value.
    """
    vertical = eigen_energy_exact if exact_z else eigen_energy_asymptotic
    return (
        box_energy(n_x, box, constants)
        + box_energy(n_y, box, constants)
        + vertical(n_z, constants)
    )
