"""Physical constants, gravitational scales, and unit conversion.

Everything downstream works in SI units; conversions happen only at the
input/output boundary through :func:`convert`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DimensionMismatchError, DomainError

NEUTRON_MASS = 1.67492749804e-27  # kg, CODATA 2018
STANDARD_GRAVITY = 9.80665  # m s^-2, conventional standard value
HBAR = 1.054571817e-34  # J s, exact SI
BOLTZMANN = 1.380649e-23  # J K^-1, exact SI
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact SI; anchors the eV-based units


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants defining the trapped gas.

    ``h`` is always derived as 2*pi*hbar and cannot be set independently.
    """

    m: float = NEUTRON_MASS  # particle mass (kg)
    g: float = STANDARD_GRAVITY  # gravitational acceleration (m s^-2)
    hbar: float = HBAR  # reduced Planck constant (J s)
    kB: float = BOLTZMANN  # Boltzmann constant (J K^-1)
    h: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("m", "g", "hbar", "kB"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"constant {name} must be positive and finite, got {value!r}")
        object.__setattr__(self, "h", 2.0 * math.pi * self.hbar)


@dataclass(frozen=True)
class GravityScales:
    """Natural scales of a particle bouncing on a hard floor under gravity."""

    alpha: float  # 2 m^2 g / hbar^2 (m^-3)
    e_g: float  # energy scale (m g^2 hbar^2 / 2)^(1/3) (J)
    l_g: float  # length scale alpha^(-1/3) (m)


def default_constants() -> PhysicalConstants:
    """Neutron constants with standard gravity."""
    return PhysicalConstants()


def derive_scales(constants: PhysicalConstants | None = None) -> GravityScales:
    """Gravitational scales for the given constants.

    The three fields satisfy alpha * l_g**3 = 1 and e_g = m * g * l_g
    exactly; l_g equals (hbar^2 / (2 m^2 g))**(1/3).
    """
    c = constants if constants is not None else default_constants()
    alpha = 2.0 * c.m * c.m * c.g / (c.hbar * c.hbar)
    l_g = alpha ** (-1.0 / 3.0)
    return GravityScales(alpha=alpha, e_g=c.m * c.g * l_g, l_g=l_g)


# unit name -> (dimension, factor converting a value in that unit to SI)
_UNIT_TABLE: dict[str, tuple[str, float]] = {
    "J": ("energy", 1.0),
    "peV": ("energy", 1.0e-12 * ELEMENTARY_CHARGE),
    "m": ("length", 1.0),
    "cm": ("length", 1.0e-2),
    "um": ("length", 1.0e-6),
    "m^-3": ("density", 1.0),
    "cm^-3": ("density", 1.0e6),
}


def convert(value: float, from_unit: str, to_unit: str) -> float:
    """Convert ``value`` between supported units of one dimension.

    Supported units: J, peV (energy); m, cm, um (length);
    m^-3, cm^-3 (number density). Mixed dimensions raise
    :class:`DimensionMismatchError`.
    """
    try:
        dim_from, factor_from = _UNIT_TABLE[from_unit]
    except KeyError:
        raise DomainError(f"unknown unit {from_unit!r}") from None
    try:
        dim_to, factor_to = _UNIT_TABLE[to_unit]
    except KeyError:
        raise DomainError(f"unknown unit {to_unit!r}") from None
    if dim_from != dim_to:
        raise DimensionMismatchError(
            f"cannot convert {from_unit} ({dim_from}) to {to_unit} ({dim_to})"
        )
    return value * (factor_from / factor_to)


# config keys accepted by constants_from_config
_CONFIG_KEYS = {
    "m_kg": "m",
    "g_mps2": "g",
    "hbar_Js": "hbar",
    "kB_JpK": "kB",
}


def constants_from_config(text: str) -> PhysicalConstants:
    """Parse flat ``key = value`` text into :class:`PhysicalConstants`.

    Recognized keys: m_kg, g_mps2, hbar_Js, kB_JpK. Blank lines and
    ``#`` comments are ignored. Unknown or repeated keys are rejected.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        field_name = _CONFIG_KEYS[key]
        if field_name in overrides:
            raise DomainError(f"config line {lineno}: repeated key {key!r}")
        try:
            overrides[field_name] = float(value)
        except ValueError:
            raise DomainError(f"config line {lineno}: bad number {value!r}") from None
    return PhysicalConstants(**overrides)
