"""Spatial profiles, bottom density, number conservation, diluteness."""

import math
import re

import numpy as np
import pytest
from scipy import integrate

from ucngas import (
    DomainError,
    PhysicalConstants,
    bottom_density_vs_fermi,
    density,
    density_ratio,
    density_zero_T,
    diluteness,
    eta_from_t,
    particle_number,
    ratio_grid,
)
from oracles import bottom_density_mp, column_number

C = PhysicalConstants()
EPS_1MK = C.kB * 1e-3
N_1MK = particle_number(EPS_1MK, C)  # per m^2 of floor


def test_zero_t_bottom_density_one_millikelvin():
    n00 = density_zero_T(0.0, EPS_1MK, C)
    assert n00 * 1e-6 == pytest.approx(9.057627e15, rel=1e-6)  # cm^-3


def test_zero_t_profile_shape():
    z_col = EPS_1MK / (C.m * C.g)
    assert z_col == pytest.approx(0.840556, abs=1e-5)
    n_half = density_zero_T(0.5 * z_col, EPS_1MK, C)
    assert n_half == pytest.approx(0.5**1.5 * density_zero_T(0.0, EPS_1MK, C), rel=1e-12)
    assert density_zero_T(z_col, EPS_1MK, C) == 0.0
    assert density_zero_T(2.0 * z_col, EPS_1MK, C) == 0.0


def test_zero_t_number_conservation():
    z_col = EPS_1MK / (C.m * C.g)
    integral, _ = integrate.quad(
        lambda z: density_zero_T(z, EPS_1MK, C), 0.0, z_col, epsabs=0.0, epsrel=1e-12
    )
    assert integral == pytest.approx(N_1MK, rel=1e-10)


def test_finite_t_number_conservation_single():
    total = column_number(0.3, EPS_1MK, C, density)
    assert total == pytest.approx(N_1MK, rel=1e-7)


def test_density_matches_zero_t_profile_when_cold():
    z_col = EPS_1MK / (C.m * C.g)
    for frac in (0.0, 0.45, 0.9):
        cold = density(1e-4, frac * z_col, EPS_1MK, C)
        frozen = density_zero_T(frac * z_col, EPS_1MK, C)
        assert cold == pytest.approx(frozen, rel=1e-2)


def test_density_ratio_cold_limit():
    for x in (0.0, 0.3, 0.9):
        assert density_ratio(1e-4, x) == pytest.approx((1.0 - x) ** 1.5, abs=1e-4)
    assert density_ratio(1e-4, 1.2) <= 1e-8  # above the zero-T column


def test_density_decays_to_zero_above_the_column():
    z_col = EPS_1MK / (C.m * C.g)
    assert density(1e-3, 20.0, EPS_1MK, C) == 0.0  # eta - m g z / kT is about -2.3e4
    assert density_ratio(1e-3, 30.0) == 0.0
    ns = [density(1e-3, frac * z_col, EPS_1MK, C) for frac in np.linspace(0.9, 30.0, 60)]
    assert all(b <= a for a, b in zip(ns, ns[1:]))
    assert ns[0] > 0.0 and ns[-1] == 0.0


def test_density_ratio_arrays_match_scalars_bit_for_bit():
    x = ratio_grid(2.0, 60)
    for t in (1e-4, 0.1, 2.0, 300.0):
        row = density_ratio(t, x)
        assert row.shape == x.shape
        assert all(density_ratio(t, float(x_k)) == r for x_k, r in zip(x, row))
    t = np.array([[0.1], [2.0]])
    grid = density_ratio(t, x[None, :])
    assert grid.shape == (2, x.size)
    assert np.array_equal(grid[1], density_ratio(2.0, x))
    with pytest.raises(DomainError, match="got -0.5"):
        density_ratio(0.1, np.array([0.0, -0.5]))


def test_density_ratio_bottom_reference():
    assert density_ratio(0.1, 0.0) == pytest.approx(0.9757320732627063, rel=1e-9)
    assert density_ratio(1e-4, 0.0) == pytest.approx(1.0, abs=1e-7)


def test_bottom_ratio_matches_expansion_to_fourth_order():
    # 1 - (pi^2/4) t^2, the t^2 coefficient that check 05 pins
    gap = lambda t: abs(density_ratio(t, 0.0) - (1.0 - math.pi**2 / 4.0 * t * t))
    for t in (0.02, 0.04, 0.06, 0.08, 0.1):
        assert gap(t) <= 5.0 * t**4
    # the remainder really is fourth order, not noise
    assert gap(0.1) >= 2.0 * 0.1**4


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
    z_col = EPS_1MK / (C.m * C.g)
    ns = np.array([density(0.2, z_col * x, EPS_1MK, C) for x in ratio_grid(0.2, 50)])
    assert np.all(ns >= 0.0)
    assert np.all(np.diff(ns) <= 0.0)


def test_bottom_density_curve():
    values = bottom_density_vs_fermi([1e-3, 4e-3], C)
    assert values[0] * 1e-6 == pytest.approx(9.057627e15, rel=1e-6)  # cm^-3
    assert values[1] == pytest.approx(8.0 * values[0], rel=1e-12)  # 3/2 power law
    with pytest.raises(DomainError):
        bottom_density_vs_fermi([1e-3, -1e-3], C)
    # (2 m k_B T)^(3/2) overflows: an error naming the temperature, not an inf
    with pytest.raises(DomainError, match=r"1e\+300 K overflows"):
        bottom_density_vs_fermi([1e-3, 1e300], C)


def _ulps(value, exact) -> float:
    return float(abs(exact - float(value))) / math.ulp(float(exact))


def test_bottom_density_matches_mpmath_within_2_5_ulp():
    # the fig3 curve over its default window, against (2 m k_B T)^(3/2) / (3 pi^2 hbar^3)
    mp = pytest.importorskip("mpmath")
    temps = np.geomspace(1e-6, 1e-1, 400)
    with mp.workdps(40):
        exact = [bottom_density_mp(mp.mpf(C.kB) * T, C) for T in temps.tolist()]
    errors = [_ulps(v, e) for v, e in zip(bottom_density_vs_fermi(temps, C).tolist(), exact)]
    assert max(errors) <= 2.5


def test_particle_number_matches_mpmath_within_3_ulp():
    # N = (2/5) n(0, 0) eps_F / (m g), the height integral of the zero-T profile
    mp = pytest.importorskip("mpmath")
    errors = []
    for eps_F in (C.kB * np.geomspace(1e-6, 1e-1, 401)).tolist():
        with mp.workdps(40):
            exact = bottom_density_mp(eps_F, C) * 2 * mp.mpf(eps_F) / (5 * mp.mpf(C.m) * mp.mpf(C.g))
            errors.append(_ulps(particle_number(eps_F, C), exact))
    assert max(errors) <= 3.0


def test_bottom_density_overflow_in_2mkT_is_a_domain_error():
    # 2 m k_B T itself overflows here, which must raise the same error, not warn
    heavy = PhysicalConstants(m=1e150, g=1e-250)
    with pytest.raises(DomainError, match=r"1e\+200 K overflows"):
        bottom_density_vs_fermi([1.0, 1e200], heavy)


def test_diluteness_dilute_storage_numbers():
    report = diluteness(100.0 * 1e6, 1e-3, C)  # 100 cm^-3
    assert report.mean_separation * 100.0 == pytest.approx(0.215, abs=2e-3)  # cm
    assert report.thermal_wavelength * 100.0 == pytest.approx(7.955285e-6, rel=1e-6)
    assert not report.degenerate


def test_diluteness_degenerate_numbers():
    n00 = density_zero_T(0.0, EPS_1MK, C)
    report = diluteness(n00, 1e-3, C)
    assert report.mean_separation * 100.0 == pytest.approx(4.797281e-6, rel=1e-6)  # cm
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
        density(0.1, -1e-9, EPS_1MK, C)
    # an eps_F that is not positive, not finite, or overflows the bottom
    # density (in the division, or in the power) is an error naming it,
    # never an inf
    for eps_F in (0.0, -1.0, math.inf, 1e200, 1e300):
        for call in (lambda: density_zero_T(0.0, eps_F, C), lambda: density(0.1, 0.0, eps_F, C)):
            with pytest.raises(DomainError, match=re.escape(f"eps_F = {eps_F!r} J")):
                call()
    with pytest.raises(DomainError):
        density(1e-5, 0.0, EPS_1MK, C)  # below the solver range
    with pytest.raises(DomainError):
        density_ratio(0.1, -0.5)
    for t in (-1.0, math.nan):
        with pytest.raises(DomainError, match="reduced temperature must be nonnegative"):
            ratio_grid(t)
    with pytest.raises(DomainError):
        diluteness(-1.0, 1e-3, C)
    with pytest.raises(DomainError):
        diluteness(1e15, 0.0, C)
