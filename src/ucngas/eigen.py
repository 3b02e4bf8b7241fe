"""Bound states of a particle above a hard floor in uniform gravity.

The vertical eigenfunctions are shifted Airy functions and the levels
are E_n = e_g |a_n|, with a_n the n-th negative zero of Ai. Only the
vertical problem lives here: the thermodynamics treats the lateral motion
as an exact continuum. Energies come out in joules.

This is the one module that evaluates Ai, which comes from the AMOS
routines exposed through scipy.special. scipy is imported inside the
functions that need it, so importing the package loads none of it. The
zeros need no Ai (a table, then a series), so the levels load no scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .constants import NEUTRON, PhysicalConstants
from .errors import DomainError

ZERO_INDEX_MAX = 1000
# a_1 .. a_10 (DLMF Table 9.9.1), each the double nearest the zero; below
# n = 11 the series in airy_zero has not converged to double precision
_FIRST_ZEROS = (
    -2.338107410459767, -4.08794944413097, -5.520559828095551, -6.786708090071759,
    -7.944133587120853, -9.02265085334098, -10.040174341558085, -11.008524303733262,
    -11.936015563236262, -12.828776752865757,
)
# a_n = -t**(2/3) * (1 + sum_k c_k t**(-2k)), t = 3 pi (4n - 1) / 8 (DLMF 9.9.18)
_ZERO_SERIES = (5 / 48, -5 / 36, 77125 / 82944, -108056875 / 6967296, 162375596875 / 334430208)
_PI_34 = Decimal("3.141592653589793238462643383279503")
# Ai underflows double precision long before this; treat the tail as zero
_AIRY_TAIL_CUT = 40.0


@dataclass(frozen=True)
class EigenState:
    """One vertical eigenstate: quantum number, energy, Airy zero a_n, and norm."""

    n_z: int
    energy: float  # J
    zero: float  # a_n < 0
    norm: float  # m^-1/2


def airy_zero_asymptotic(n: int) -> float:
    """Large-index approximation -(3*pi*(4n - 1)/8)**(2/3) to the n-th zero.

    Accurate to about 0.8% at n = 1 and improving monotonically with n.
    Raises DomainError unless n is an integer (numpy's too, bool not) in
    1..ZERO_INDEX_MAX; every level routine reaches its index through here.
    """
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and 1 <= n <= ZERO_INDEX_MAX):
        raise DomainError(f"zero index must be an integer in 1..{ZERO_INDEX_MAX}, got {n!r}")
    return -((3.0 * math.pi * (4.0 * operator.index(n) - 1.0) / 8.0) ** (2.0 / 3.0))


def airy_zero(n: int) -> float:
    """n-th negative zero of Ai for 1 <= n <= 1000, the double nearest it.

    Tabulated up to n = 10; beyond, the large-index series through t**-10,
    whose truncation error is below 1e-16 relative there.
    """
    seed = airy_zero_asymptotic(n)  # -t**(2/3); checks the index
    n = operator.index(n)  # a numpy integer would not mix with Decimal
    if n <= len(_FIRST_ZEROS):
        return _FIRST_ZEROS[n - 1]
    u = (-seed) ** -3  # t**-2
    correction = sum(c * u**k for k, c in enumerate(_ZERO_SERIES, 1))
    # one Newton step on y**3 = t**2 in 34 digits clears the seed's rounding
    with localcontext(Context(prec=34)):
        t = 3 * _PI_34 * (4 * n - 1) / 8
        y = Decimal(-seed)
        y -= (y * y * y - t * t) / (3 * y * y)
        return float(-y * (1 + Decimal(correction)))


def eigen_energy_exact(n_z: int, constants: PhysicalConstants = NEUTRON) -> float:
    """Exact vertical eigenenergy e_g * |a_n| (J)."""
    return constants.e_g * abs(airy_zero(n_z))


def eigen_energy_asymptotic(n_z: int, constants: PhysicalConstants = NEUTRON) -> float:
    """Closed-form energy e_g * (3 pi (4 n_z - 1) / 8)**(2/3) (J).

    Within 1% of the exact value everywhere; worst at n_z = 1.
    """
    return constants.e_g * abs(airy_zero_asymptotic(n_z))


def eigen_state(n_z: int, constants: PhysicalConstants = NEUTRON) -> EigenState:
    """Build the normalized vertical eigenstate for quantum number n_z."""
    from scipy import special

    zero = airy_zero(n_z)
    slope = float(special.airy(zero)[1])
    norm = constants.alpha ** (1.0 / 6.0) / abs(slope)
    return EigenState(n_z=n_z, energy=constants.e_g * abs(zero), zero=zero, norm=norm)


def wavefunction(state: EigenState, z, constants: PhysicalConstants = NEUTRON):
    """Normalized eigenfunction psi(z) = norm * Ai(alpha**(1/3) z + a_n).

    ``z`` is a height in meters (scalar or array), z >= 0. Heights far
    beyond the classical turning point map to exactly 0.0 because Ai has
    fallen below double precision there.
    """
    from scipy import special

    z_arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr < 0.0):
        raise DomainError("heights must be finite and nonnegative")
    arg = constants.alpha ** (1.0 / 3.0) * z_arr + state.zero
    safe = np.minimum(arg, _AIRY_TAIL_CUT)
    psi = state.norm * np.asarray(special.airy(safe)[0], dtype=float)
    psi = np.where(arg > _AIRY_TAIL_CUT, 0.0, psi)
    return float(psi) if np.isscalar(z) else psi


def classical_turning_point(state: EigenState, constants: PhysicalConstants = NEUTRON) -> float:
    """Height E/(m g) where the potential equals the state's energy (m)."""
    return state.energy / (constants.m * constants.g)
