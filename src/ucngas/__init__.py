"""Ideal Fermi gas of ultra-cold neutrons above a hard floor in gravity.

Single-particle eigenstates are Airy functions; the library exposes
exact and asymptotic level energies, Fermi-Dirac integrals within
5e-16 relative of mpmath, finite-temperature thermodynamics of the
gravity-confined column, density profiles, and a CLI that renders
figure data as CSV/JSON tables.
"""

from .constants import PhysicalConstants, constants_from_config
from .density import (
    DilutenessReport,
    bottom_density_vs_fermi,
    density,
    density_ratio,
    density_zero_T,
    diluteness,
    particle_number,
    ratio_grid,
)
from .eigen import (
    EigenState,
    airy_zero,
    airy_zero_asymptotic,
    classical_turning_point,
    eigen_energy_asymptotic,
    eigen_energy_exact,
    eigen_state,
    wavefunction,
)
from .errors import DomainError, NumericalError
from .specfun import fermi_dirac
from .thermo import (
    FREE,
    TRAPPED,
    ThermoPoint,
    beta_epsf_from_eta,
    eta_from_t,
    thermo_point,
    thermo_point_from_eta,
)

__version__ = "0.1.0"

__all__ = [
    "DilutenessReport",
    "DomainError",
    "EigenState",
    "FREE",
    "NumericalError",
    "PhysicalConstants",
    "TRAPPED",
    "ThermoPoint",
    "airy_zero",
    "airy_zero_asymptotic",
    "beta_epsf_from_eta",
    "bottom_density_vs_fermi",
    "classical_turning_point",
    "constants_from_config",
    "density",
    "density_ratio",
    "density_zero_T",
    "diluteness",
    "eigen_energy_asymptotic",
    "eigen_energy_exact",
    "eigen_state",
    "eta_from_t",
    "fermi_dirac",
    "particle_number",
    "ratio_grid",
    "thermo_point",
    "thermo_point_from_eta",
    "wavefunction",
]
