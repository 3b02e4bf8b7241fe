"""Physical constants, gravitational scales, and the ``--config`` file parser.

A caller sets two physical inputs, the particle mass m and the gravity g.
hbar and k_B are SI's defining constants, exact since 2019, and fixed.
Everything here and downstream works in SI units; the CLI alone turns
results into the printed peV, cm and cm^-3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import DomainError

NEUTRON_MASS = 1.67492749804e-27  # kg, CODATA 2018
STANDARD_GRAVITY = 9.80665  # m s^-2, conventional standard value
HBAR = 1.054571817e-34  # J s, exact SI
BOLTZMANN = 1.380649e-23  # J K^-1, exact SI
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact SI; anchors the printed peV


@dataclass(frozen=True)
class PhysicalConstants:
    """The particle mass m and gravity g, with the gravitational scales they fix.

    hbar, k_B and h = 2 pi hbar are SI's fixed values, read as ``c.hbar``,
    ``c.kB`` and ``c.h`` but never set. The scales of a particle bouncing
    on a hard floor are derived and cannot be set either:
    alpha = 2 m^2 g / hbar^2, the length
    l_g = alpha**(-1/3) = (hbar^2 / (2 m^2 g))**(1/3) and the energy
    e_g = m g l_g, so alpha * l_g**3 = 1 and e_g = m g l_g exactly.
    m and g must each be a positive number (not a bool) no larger than the
    largest double, and are stored as floats; alpha, l_g and e_g must be
    positive and finite too. Otherwise construction raises DomainError.
    """

    m: float = NEUTRON_MASS  # particle mass (kg)
    g: float = STANDARD_GRAVITY  # gravitational acceleration (m s^-2)
    hbar: ClassVar[float] = HBAR  # reduced Planck constant (J s)
    kB: ClassVar[float] = BOLTZMANN  # Boltzmann constant (J K^-1)
    h: ClassVar[float] = 2.0 * math.pi * HBAR  # Planck constant (J s)
    alpha: float = field(init=False, repr=False)  # m^-3
    l_g: float = field(init=False, repr=False)  # m
    e_g: float = field(init=False, repr=False)  # J

    def __post_init__(self) -> None:
        for name in ("m", "g"):
            value = getattr(self, name)
            # an int compares exactly, so one past the double range is refused here
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0 < value <= sys.float_info.max
            ):
                # an int can be too long for repr to build
                huge = isinstance(value, int) and abs(value) > sys.float_info.max
                shown = f"an int of {value.bit_length()} bits" if huge else repr(value)
                raise DomainError(f"constant {name} must be positive and finite, got {shown}")
            object.__setattr__(self, name, float(value))
        # finite positive m and g can still over- or underflow a derived
        # quantity; floats give inf or 0.0 then rather than raising
        alpha = 2.0 * self.m * self.m * self.g / (HBAR * HBAR)
        l_g = alpha ** (-1.0 / 3.0) if 0.0 < alpha < math.inf else math.nan  # alpha refused below
        e_g = self.m * self.g * l_g
        for quantity, value in (("alpha = 2 m^2 g / hbar^2", alpha), ("l_g", l_g), ("e_g", e_g)):
            if not 0.0 < value < math.inf:
                raise DomainError(
                    f"{quantity} is {value!r}; the constants must keep it positive and finite"
                )
        for name, value in (("alpha", alpha), ("l_g", l_g), ("e_g", e_g)):
            object.__setattr__(self, name, value)


# neutron constants under standard gravity; frozen, so every function that
# takes constants shares this one instance as its default
NEUTRON = PhysicalConstants()


# config keys accepted by constants_from_config
_CONFIG_KEYS = {"m_kg": "m", "g_mps2": "g"}


def constants_from_config(text: str) -> PhysicalConstants:
    """Parse flat ``key = value`` text into :class:`PhysicalConstants`.

    Recognized keys: m_kg and g_mps2; hbar and k_B are fixed. Blank lines
    and ``#`` comments are ignored. Unknown or repeated keys are rejected.
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
