"""Ideal Fermi gas of ultra-cold neutrons above a hard floor in gravity.

Single-particle eigenstates are Airy functions; the library exposes
exact and asymptotic level energies, Fermi-Dirac integrals good to
1e-10 relative accuracy, finite-temperature thermodynamics of the
gravity-confined column, density profiles, and a CLI that renders
figure data as CSV/JSON tables.
"""

from .constants import (
    GravityScales,
    PhysicalConstants,
    constants_from_config,
    convert,
    default_constants,
    derive_scales,
)
from .density import (
    DilutenessReport,
    bottom_density_vs_fermi,
    density,
    density_ratio,
    density_ratio_sommerfeld,
    density_zero_T,
    diluteness,
    ratio_grid,
)
from .eigen import (
    BoxSpec,
    EigenState,
    box_energy,
    classical_turning_point,
    eigen_energy_asymptotic,
    eigen_energy_exact,
    eigen_state,
    total_energy,
    wavefunction,
)
from .errors import DimensionMismatchError, DomainError, NumericalError
from .specfun import (
    airy_zero,
    airy_zero_asymptotic,
    fermi_dirac,
    fermi_dirac_maxwell,
    sommerfeld,
)
from .thermo import (
    FREE,
    TRAPPED,
    GasSpec,
    ThermoPoint,
    beta_epsf_from_eta,
    eta_from_t,
    fermi_energy,
    internal_energy,
    mu_over_ef,
    mu_over_ef_sommerfeld,
    particle_number,
    thermo_point,
    thermo_point_from_eta,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "DilutenessReport",
    "DimensionMismatchError",
    "DomainError",
    "EigenState",
    "FREE",
    "GasSpec",
    "GravityScales",
    "NumericalError",
    "PhysicalConstants",
    "TRAPPED",
    "ThermoPoint",
    "airy_zero",
    "airy_zero_asymptotic",
    "beta_epsf_from_eta",
    "bottom_density_vs_fermi",
    "box_energy",
    "classical_turning_point",
    "constants_from_config",
    "convert",
    "default_constants",
    "density",
    "density_ratio",
    "density_ratio_sommerfeld",
    "density_zero_T",
    "derive_scales",
    "diluteness",
    "eigen_energy_asymptotic",
    "eigen_energy_exact",
    "eigen_state",
    "eta_from_t",
    "fermi_dirac",
    "fermi_dirac_maxwell",
    "fermi_energy",
    "internal_energy",
    "mu_over_ef",
    "mu_over_ef_sommerfeld",
    "particle_number",
    "ratio_grid",
    "sommerfeld",
    "thermo_point",
    "thermo_point_from_eta",
    "total_energy",
    "wavefunction",
]
