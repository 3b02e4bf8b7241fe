"""Spatial profiles, bottom density, number conservation, diluteness."""

import math

import numpy as np
import pytest
from scipy import integrate

from ucngas import (
    DomainError,
    GasSpec,
    bottom_density_vs_fermi,
    convert,
    default_constants,
    density,
    density_ratio,
    density_ratio_sommerfeld,
    density_zero_T,
    diluteness,
    eta_from_t,
    ratio_grid,
)
from oracles import column_number

C = default_constants()
SPEC_1MK = GasSpec.from_fermi_energy(C.kB * 1e-3, 1.0, C)


def test_zero_t_bottom_density_one_millikelvin():
    n00 = density_zero_T(0.0, SPEC_1MK, C)
    assert convert(n00, "m^-3", "cm^-3") == pytest.approx(9.057627e15, rel=1e-6)


def test_zero_t_profile_shape():
    z_col = SPEC_1MK.eps_F / (C.m * C.g)
    assert z_col == pytest.approx(0.840556, abs=1e-5)
    n_half = density_zero_T(0.5 * z_col, SPEC_1MK, C)
    assert n_half == pytest.approx(0.5**1.5 * density_zero_T(0.0, SPEC_1MK, C), rel=1e-12)
    assert density_zero_T(z_col, SPEC_1MK, C) == 0.0
    assert density_zero_T(2.0 * z_col, SPEC_1MK, C) == 0.0


def test_zero_t_literal_flag_halves():
    full = density_zero_T(0.0, SPEC_1MK, C)
    assert density_zero_T(0.0, SPEC_1MK, C, paper_literal=True) == pytest.approx(
        0.5 * full, rel=1e-14
    )


def test_zero_t_number_conservation():
    z_col = SPEC_1MK.eps_F / (C.m * C.g)
    integral, _ = integrate.quad(
        lambda z: density_zero_T(z, SPEC_1MK, C), 0.0, z_col, epsabs=0.0, epsrel=1e-12
    )
    assert SPEC_1MK.L**2 * integral == pytest.approx(SPEC_1MK.N, rel=1e-10)


def test_finite_t_number_conservation_single():
    total = column_number(0.3, SPEC_1MK, C, density)
    assert total == pytest.approx(SPEC_1MK.N, rel=1e-7)


def test_literal_flag_halves_particle_count():
    literal = lambda t, z, spec, c: density(t, z, spec, c, paper_literal=True)
    total = column_number(0.3, SPEC_1MK, C, literal)
    assert total == pytest.approx(0.5 * SPEC_1MK.N, rel=1e-6)


def test_density_matches_zero_t_profile_when_cold():
    z_col = SPEC_1MK.eps_F / (C.m * C.g)
    for frac in (0.0, 0.45, 0.9):
        cold = density(1e-4, frac * z_col, SPEC_1MK, C)
        frozen = density_zero_T(frac * z_col, SPEC_1MK, C)
        assert cold == pytest.approx(frozen, rel=1e-2)


def test_density_ratio_cold_limit():
    for x in (0.0, 0.3, 0.9):
        assert density_ratio(1e-4, x) == pytest.approx((1.0 - x) ** 1.5, abs=1e-4)
    assert density_ratio(1e-4, 1.2) <= 1e-8  # above the zero-T column


def test_density_decays_to_zero_above_the_column():
    z_col = SPEC_1MK.eps_F / (C.m * C.g)
    assert density(1e-3, 20.0, SPEC_1MK, C) == 0.0  # eta - m g z / kT is about -2.3e4
    assert density_ratio(1e-3, 30.0) == 0.0
    ns = [density(1e-3, frac * z_col, SPEC_1MK, C) for frac in np.linspace(0.9, 30.0, 60)]
    assert all(b <= a for a, b in zip(ns, ns[1:]))
    assert ns[0] > 0.0 and ns[-1] == 0.0


def test_density_ratio_bottom_reference():
    assert density_ratio(0.1, 0.0) == pytest.approx(0.9757320732627063, rel=1e-9)
    assert density_ratio(1e-4, 0.0) == pytest.approx(1.0, abs=1e-7)


def test_expansion_helper_values():
    assert density_ratio_sommerfeld(0.0) == 1.0
    assert density_ratio_sommerfeld(0.05) == pytest.approx(
        1.0 - math.pi**2 / 4.0 * 0.0025, rel=1e-15
    )


def test_bottom_ratio_matches_expansion_to_fourth_order():
    for t in (0.02, 0.04, 0.06, 0.08, 0.1):
        gap = abs(density_ratio(t, 0.0) - density_ratio_sommerfeld(t))
        assert gap <= 5.0 * t**4
    # the remainder really is fourth order, not noise
    assert abs(density_ratio(0.1, 0.0) - density_ratio_sommerfeld(0.1)) >= 2.0 * 0.1**4


def test_bottom_ratio_classical_decay():
    # classically the bottom ratio falls off as (2/5)/t
    assert density_ratio(100.0, 0.0) * 100.0 == pytest.approx(0.4, rel=1e-4)
    ratio = density_ratio(200.0, 0.0) / density_ratio(100.0, 0.0)
    assert ratio == pytest.approx(0.5, rel=1e-4)


def test_barometric_deviation_law():
    # relative deviation from exp(-m g z / k_B T) is e^eta (1 - e^-u) / 2^(3/2)
    t = 50.0
    eta = eta_from_t(t)
    assert eta <= -10.0
    bound = math.exp(eta) / 2.0**1.5
    bottom = density_ratio(t, 0.0)
    for u in (0.5, 2.0, 5.0, 20.0):
        deviation = abs(density_ratio(t, u * t) / bottom * math.exp(u) - 1.0)
        assert deviation <= 1.05 * bound * (1.0 - math.exp(-u))
    far = abs(density_ratio(t, 20.0 * t) / bottom * math.exp(20.0) - 1.0)
    assert far >= 0.5 * bound  # the law's scale, not just smallness


def test_profile_flattens_at_high_temperature():
    cold = density_ratio(0.1, 0.5) / density_ratio(0.1, 0.0)
    hot = density_ratio(5.0, 0.5) / density_ratio(5.0, 0.0)
    assert hot > cold


def test_ratio_grid_layout():
    cold = ratio_grid(0.1, 40)
    assert len(cold) == 40
    assert cold[0] == 0.0 and cold[-1] == pytest.approx(1.5, rel=1e-15)
    hot = ratio_grid(2.0, 40)
    assert len(hot) == 50
    assert hot[-1] == pytest.approx(1.5 + 2.0 * 8.0, rel=1e-12)
    assert np.all(np.diff(hot) > 0.0)
    with pytest.raises(DomainError):
        ratio_grid(0.1, 1)
    # the density on the grid's heights is nonnegative and non-increasing
    z_col = SPEC_1MK.eps_F / (C.m * C.g)
    ns = np.array([density(0.2, z_col * x, SPEC_1MK, C) for x in ratio_grid(0.2, 50)])
    assert np.all(ns >= 0.0)
    assert np.all(np.diff(ns) <= 0.0)


def test_bottom_density_curve():
    values = bottom_density_vs_fermi([1e-3, 4e-3], C)
    assert convert(values[0], "m^-3", "cm^-3") == pytest.approx(9.057627e15, rel=1e-6)
    assert values[1] == pytest.approx(8.0 * values[0], rel=1e-12)  # 3/2 power law
    literal = bottom_density_vs_fermi([1e-3, 4e-3], C, paper_literal=True)
    assert literal[0] == pytest.approx(0.5 * values[0], rel=1e-14)
    with pytest.raises(DomainError):
        bottom_density_vs_fermi([1e-3, -1e-3], C)


def test_diluteness_dilute_storage_numbers():
    report = diluteness(convert(100.0, "cm^-3", "m^-3"), 1e-3, C)
    assert convert(report.mean_separation, "m", "cm") == pytest.approx(0.215, abs=2e-3)
    assert convert(report.thermal_wavelength, "m", "cm") == pytest.approx(7.955285e-6, rel=1e-6)
    assert not report.degenerate


def test_diluteness_degenerate_numbers():
    n00 = density_zero_T(0.0, SPEC_1MK, C)
    report = diluteness(n00, 1e-3, C)
    assert convert(report.mean_separation, "m", "cm") == pytest.approx(4.797281e-6, rel=1e-6)
    assert report.degenerate
    assert report.mean_separation * report.density ** (1.0 / 3.0) == pytest.approx(
        1.0, rel=1e-12
    )


def test_thermal_wavelength_scaling():
    cold = diluteness(1e15, 1e-3, C).thermal_wavelength
    warm = diluteness(1e15, 4e-3, C).thermal_wavelength
    assert warm == pytest.approx(0.5 * cold, rel=1e-14)


def test_density_validation():
    with pytest.raises(DomainError):
        density(0.1, -1e-9, SPEC_1MK, C)
    with pytest.raises(DomainError):
        density(1e-5, 0.0, SPEC_1MK, C)  # below the solver range
    with pytest.raises(DomainError):
        density_ratio(0.1, -0.5)
    with pytest.raises(DomainError):
        diluteness(-1.0, 1e-3, C)
    with pytest.raises(DomainError):
        diluteness(1e15, 0.0, C)
