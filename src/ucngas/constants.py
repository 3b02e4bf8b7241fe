"""Physical constants, gravitational scales, and the ``--config`` file parser.

Everything here and downstream works in SI units; the CLI alone turns
results into the printed peV, cm and cm^-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

NEUTRON_MASS = 1.67492749804e-27  # kg, CODATA 2018
STANDARD_GRAVITY = 9.80665  # m s^-2, conventional standard value
HBAR = 1.054571817e-34  # J s, exact SI
BOLTZMANN = 1.380649e-23  # J K^-1, exact SI
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact SI; anchors the printed peV


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants defining the trapped gas.

    ``h`` is always derived as 2*pi*hbar and cannot be set independently.
    Each field must be positive and finite, and so must the derived
    alpha, l_g, e_g and hbar^3; otherwise construction raises DomainError.
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
        _check_scales(self)


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


def _check_scales(c: PhysicalConstants) -> None:
    """Reject constants whose derived scales leave the double range.

    Each constant may be finite and positive while alpha, l_g, e_g or
    hbar^3 over- or underflows, which would surface later as a division
    by zero or an OverflowError. Float products give inf or 0.0 rather
    than raising, so each quantity is formed and tested here first.
    """
    hbar2 = c.hbar * c.hbar
    alpha = 2.0 * c.m * c.m * c.g / hbar2 if hbar2 > 0.0 else math.inf
    quantities = [("alpha = 2 m^2 g / hbar^2", alpha)]
    if 0.0 < alpha < math.inf:  # derive_scales cannot raise then
        scales = derive_scales(c)
        quantities += [("l_g", scales.l_g), ("e_g", scales.e_g)]
    quantities.append(("hbar^3", hbar2 * c.hbar))
    for name, value in quantities:
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} is {value!r}; the constants must keep it positive and finite")
