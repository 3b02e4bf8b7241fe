"""Equation of state: Fermi energy, chemical potential, internal energy."""

import math

import numpy as np
import pytest
from scipy.special import zeta

from ucngas import (
    FREE,
    NumericalError,
    DomainError,
    GasSpec,
    beta_epsf_from_eta,
    default_constants,
    eta_from_t,
    fermi_dirac,
    fermi_energy,
    internal_energy,
    mu_over_ef,
    mu_over_ef_sommerfeld,
    particle_number,
    thermo_point,
    thermo_point_from_eta,
)
from ucngas import thermo
from ucngas.specfun import FD_ETA_MAX, FD_ORDERS
from ucngas.thermo import _ETA_FLOOR, T_DIMLESS_MAX, T_DIMLESS_MIN
from oracles import nested_number_term

BETA_EF_AT_ETA0 = 1.5271375952969733
# Maxwell tail: e^eta * t^(5/2) -> 1/((5/2) Gamma(5/2))
MAXWELL_TAIL = 1.0 / (2.5 * math.gamma(2.5))


def test_fermi_energy_particle_number_scaling():
    base = fermi_energy(1e20, 1.0)
    assert fermi_energy(32e20, 1.0) == pytest.approx(4.0 * base, rel=1e-12)
    assert fermi_energy(1e20, 2.0) == pytest.approx(base * 4.0 ** (-2.0 / 5.0), rel=1e-12)


def test_fermi_energy_round_trip():
    c = default_constants()
    for N in (1e18, 3.045377e21):
        eps = fermi_energy(N, 2.0, c)
        assert particle_number(eps, 2.0, c) == pytest.approx(N, rel=1e-10)


def test_one_millikelvin_column():
    c = default_constants()
    N = particle_number(c.kB * 1e-3, 1.0, c)
    assert N == pytest.approx(3.045377e21, rel=1e-6)  # areal density over 1 m^2


def test_gas_spec_consistency():
    spec = GasSpec.from_particle_number(1e20, 0.5)
    assert spec.eps_F == pytest.approx(fermi_energy(1e20, 0.5), rel=1e-14)
    spec2 = GasSpec.from_fermi_energy(spec.eps_F, 0.5)
    assert spec2.N == pytest.approx(1e20, rel=1e-10)
    with pytest.raises(DomainError):
        GasSpec(N=-1.0, L=1.0, eps_F=1e-30)
    with pytest.raises(DomainError):
        fermi_energy(0.0, 1.0)


def test_beta_epsf_at_eta_zero():
    closed_form = (2.5 * math.gamma(2.5) * (1.0 - 2.0**-1.5) * zeta(2.5)) ** 0.4
    assert beta_epsf_from_eta(0.0) == pytest.approx(closed_form, rel=1e-10)
    assert beta_epsf_from_eta(0.0) == pytest.approx(BETA_EF_AT_ETA0, rel=1e-10)


def test_beta_epsf_degenerate_limit():
    value = beta_epsf_from_eta(100.0)
    assert 0.0 < value / 100.0 - 1.0 < 1e-3  # approaches eta from above


def test_beta_epsf_monotone():
    grid = np.linspace(-30.0, 100.0, 12)
    values = [beta_epsf_from_eta(eta) for eta in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eta_zero_crossing():
    assert abs(eta_from_t(1.0 / BETA_EF_AT_ETA0)) <= 1e-9
    assert abs(eta_from_t(0.6547)) <= 1e-3


def test_eta_solver_residual():
    for t in (1e-4, 0.01, 1.0, 100.0, 1e3):
        assert beta_epsf_from_eta(eta_from_t(t)) * t == pytest.approx(1.0, rel=1e-10)


def test_eta_bracket_holds_the_root_across_the_window():
    # eta_from_t hands brentq this bracket unwidened, for every order
    for s in FD_ORDERS:
        for t in (T_DIMLESS_MIN, T_DIMLESS_MAX):
            hi = min(1.0 / t + 1.0, FD_ETA_MAX)
            assert beta_epsf_from_eta(_ETA_FLOOR, s) < 1.0 / t <= beta_epsf_from_eta(hi, s)


def test_eta_residual_error_names_t_and_s(monkeypatch):
    monkeypatch.setattr(thermo.optimize, "brentq", lambda *args, **kwargs: 0.0)
    eta_from_t.cache_clear()
    with pytest.raises(NumericalError, match=r"t=0\.123, s=0\.5"):
        eta_from_t(0.123, FREE)


def test_eta_maxwell_tail():
    for t in (100.0, 1000.0):
        assert math.exp(eta_from_t(t)) * t**2.5 == pytest.approx(MAXWELL_TAIL, rel=1e-4)


def test_eta_domain():
    for bad in (5e-5, 2e3, 0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            eta_from_t(bad)


def test_mu_reference_values():
    assert mu_over_ef(0.05) == pytest.approx(0.9938265398410556, rel=1e-9)
    assert mu_over_ef(0.1) == pytest.approx(0.9752533676934819, rel=1e-9)
    assert mu_over_ef(1e-3) == pytest.approx(1.0, abs=1e-5)


def test_mu_strictly_decreasing():
    grid = np.geomspace(1e-3, 10.0, 15)
    values = [mu_over_ef(t) for t in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_mu_expansion_helper():
    assert mu_over_ef_sommerfeld(0.0) == 1.0
    assert mu_over_ef_sommerfeld(0.1) == pytest.approx(1.0 - math.pi**2 / 4.0 * 0.01, rel=1e-15)


def test_mu_matches_expansion_to_fourth_order():
    for t in (0.02, 0.04, 0.06, 0.08, 0.1):
        assert abs(mu_over_ef(t) - mu_over_ef_sommerfeld(t)) <= 5.0 * t**4


def test_internal_energy_degenerate_limit():
    assert internal_energy(1e-3) == pytest.approx(5.0 / 7.0, abs=1e-4)
    assert internal_energy(1e-4) == pytest.approx(5.0 / 7.0, abs=1e-6)


def test_internal_energy_reference_value():
    assert internal_energy(1.0) == pytest.approx(2.564081517126267, rel=1e-9)


def test_internal_energy_classical_plateau():
    # u/t -> Gamma(7/2)/Gamma(5/2) = 5/2 in the nondegenerate regime
    assert internal_energy(100.0) / 100.0 == pytest.approx(2.5, rel=1e-5)
    assert internal_energy(500.0) / 500.0 == pytest.approx(2.5, rel=1e-6)


def test_internal_energy_increasing():
    grid = np.geomspace(1e-3, 10.0, 15)
    values = [internal_energy(t) for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))  # positive specific heat


def test_thermo_point_bundles():
    p = thermo_point(0.3)
    assert p.mu_over_ef == p.t * p.eta
    assert p.mu_over_ef == pytest.approx(mu_over_ef(0.3), rel=1e-14)
    assert p.u_over_nef == pytest.approx(internal_energy(0.3), rel=1e-14)


def test_parametric_sweep_matches_inversion():
    p = thermo_point(0.3)
    q = thermo_point_from_eta(p.eta)
    assert q.t == pytest.approx(0.3, rel=1e-10)
    assert q.mu_over_ef == pytest.approx(p.mu_over_ef, rel=1e-10)
    assert q.u_over_nef == pytest.approx(p.u_over_nef, rel=1e-10)


def test_free_gas_degenerate_limits():
    assert mu_over_ef(1e-3, FREE) == pytest.approx(
        1.0 - math.pi**2 / 12.0 * 1e-6, abs=1e-8
    )
    assert internal_energy(1e-3, FREE) == pytest.approx(0.6, abs=1e-5)


def test_free_gas_expansion_bound():
    for t in (0.02, 0.05, 0.1):
        expected = 1.0 - math.pi**2 / 12.0 * t * t
        assert abs(mu_over_ef(t, FREE) - expected) <= 5.0 * t**4


def test_free_gas_classical_slope():
    # the free gas approaches u/t = 3/2 only as t^(-3/2), much slower than
    # the trapped gas, so check the limit together with its approach rate
    dev_100 = abs(internal_energy(100.0, FREE) / 100.0 / 1.5 - 1.0)
    dev_1000 = abs(internal_energy(1000.0, FREE) / 1000.0 / 1.5 - 1.0)
    assert dev_100 < 2e-4
    assert dev_1000 < 1e-5
    assert dev_1000 < dev_100 / 25.0
    # trapped over free: (5/2) t vs (3/2) t
    assert internal_energy(100.0) / internal_energy(100.0, FREE) == pytest.approx(
        5.0 / 3.0, rel=2e-4
    )


def test_free_gas_monotonicity():
    grid = np.geomspace(1e-3, 10.0, 12)
    mu = [mu_over_ef(t, FREE) for t in grid]
    u = [internal_energy(t, FREE) for t in grid]
    assert all(b < a for a, b in zip(mu, mu[1:]))
    assert all(b > a for a, b in zip(u, u[1:]))


def test_gravity_mu_below_free_mu():
    for t in (0.01, 0.1, 0.5, 2.0):
        assert mu_over_ef(t) < mu_over_ef(t, FREE)


def test_number_closure_nested_quadrature():
    # (15/4) (beta eps_F)^(-5/2) * double integral of z^(1/2) kernel = 1
    for eta in (-5.0, 0.0, 5.0, 20.0):
        closure = 3.75 * nested_number_term(eta) / (2.5 * fermi_dirac(1.5, eta))
        assert closure == pytest.approx(1.0, abs=1e-8)
