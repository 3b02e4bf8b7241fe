"""Equation of state: Fermi energy, chemical potential, internal energy."""

import math
import re

import numpy as np
import pytest
from scipy.special import zeta

from ucngas import (
    FREE,
    NumericalError,
    DomainError,
    PhysicalConstants,
    beta_epsf_from_eta,
    eta_from_t,
    fermi_dirac,
    particle_number,
    ratio_grid,
    thermo_point,
    thermo_point_from_eta,
)
from ucngas import thermo
from ucngas.specfun import FD_ETA_MAX
from ucngas.thermo import T_DIMLESS_MAX, T_DIMLESS_MIN
from oracles import nested_number_term

BETA_EF_AT_ETA0 = 1.5271375952969733
# Maxwell tail: e^eta * t^(5/2) -> 1/((5/2) Gamma(5/2))
MAXWELL_TAIL = 1.0 / (2.5 * math.gamma(2.5))


def test_fermi_energy_particle_number_scaling():
    # N grows as eps_F^(5/2) in the linear potential
    base = particle_number(1e-30)
    assert particle_number(4e-30) == pytest.approx(32.0 * base, rel=1e-12)


def test_one_millikelvin_column():
    c = PhysicalConstants()
    N = particle_number(c.kB * 1e-3, c)
    assert N == pytest.approx(3.045377e21, rel=1e-6)  # per m^2 of floor


def test_gas_spec_consistency():
    for eps_F in (0.0, math.nan):
        with pytest.raises(DomainError, match="eps_F must be positive and finite"):
            particle_number(eps_F)
    # particle numbers that over- or underflow a double are domain errors too
    for eps_F in (1e127, 1e277, 1e-303):
        with pytest.raises(DomainError, match=re.escape(f"eps_F = {eps_F!r} J")):
            particle_number(eps_F)


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


def test_eta_solve_bound_and_round_budget(monkeypatch):
    # Newton's iterates never pass hi, which lies right of the root for every
    # exponent the solve accepts; s = -1/2 is not one of them (it would need F_(-3/2))
    for s in (0.5, 1.5, 2.5):
        for t in (T_DIMLESS_MIN, T_DIMLESS_MAX):
            hi = min(1.0 / t + 1.0, FD_ETA_MAX)
            assert 1.0 / t <= beta_epsf_from_eta(hi, s)
    # on the convex residual every t of the window converges within five steps
    monkeypatch.setattr(thermo, "_NEWTON_MAX_ITER", 5)
    t = np.geomspace(T_DIMLESS_MIN, T_DIMLESS_MAX, 20001)
    for s in (0.5, 1.5, 2.5):
        eta_from_t(t, s)


def test_eta_residual_error_names_t_and_s(monkeypatch):
    # no Newton step leaves eta at its starting estimate, which misses the residual check
    monkeypatch.setattr(thermo, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(NumericalError, match=r"t=0\.123, s=0\.5"):
        eta_from_t(0.123, FREE)
    with pytest.raises(NumericalError, match=r"t=0\.123, s=1\.5"):
        thermo_point(np.array([0.123, 0.4]))


def test_eta_solve_rejects_exponents_without_a_derivative(monkeypatch):
    with pytest.raises(DomainError, match=r"s=-0\.5"):
        eta_from_t(0.5, -0.5)
    assert eta_from_t(0.5, 2.5) > 0.0  # F_{5/2} and F_{3/2} are there

    # the energy needs F_{7/2}, which is missing: refused before any eta solve
    def no_solve(t, s):
        raise AssertionError(f"eta solve reached for s={s!r}")

    monkeypatch.setattr(thermo, "_solve_eta", no_solve)
    t = np.geomspace(1e-4, 1e3, 401)
    for call in (
        lambda: thermo_point(t, 2.5),
        lambda: thermo_point_from_eta(np.linspace(-5.0, 5.0, 11), 2.5),
    ):
        with pytest.raises(DomainError, match=r"s=2\.5"):
            call()


def test_vector_eta_solve_matches_mpmath_across_the_window():
    pytest.importorskip("mpmath")
    from oracles import eta_from_t_mp

    t = np.geomspace(T_DIMLESS_MIN, T_DIMLESS_MAX, 8)
    for s in (FREE, 1.5):
        eta = thermo_point(t, s).eta
        for t_k, eta_k in zip(t, eta):
            exact = float(eta_from_t_mp(float(t_k), s, dps=20))
            assert abs(eta_k - exact) <= 1e-13 * max(abs(exact), 1.0), (s, t_k)


def test_eta_matches_mpmath_within_3_ulp():
    # the residual (s+1) t^(s+1) F_s(eta) - 1 has no logarithm to round, so
    # eta is as good as F_s: about 2.4 ulp of max(|eta|, 1) at worst
    mp = pytest.importorskip("mpmath")
    from oracles import _eta_polish_mp

    t = np.geomspace(T_DIMLESS_MIN, T_DIMLESS_MAX, 61)
    for s in (FREE, 1.5):
        errors = []
        with mp.workdps(25):
            for t_k, eta_k in zip(t.tolist(), eta_from_t(t, s).tolist()):
                exact = _eta_polish_mp(t_k, s, eta_k, 25)
                ulp = math.ulp(max(abs(float(exact)), 1.0))
                errors.append(float(abs(mp.mpf(eta_k) - exact)) / ulp)
        assert max(errors) <= 3.0, (s, max(errors))


def test_thermo_arrays_match_scalars_bit_for_bit(monkeypatch):
    t = np.geomspace(T_DIMLESS_MIN, T_DIMLESS_MAX, 40)
    for s in (FREE, 1.5):
        point = thermo_point(t.reshape(5, 8), s)
        assert point.eta.shape == (5, 8)
        for k, t_k in enumerate(t):
            scalar = thermo_point(float(t_k), s)
            assert all(type(v) is float for v in vars(scalar).values())
            assert point.eta.flat[k] == scalar.eta
            assert point.mu_over_ef.flat[k] == scalar.mu_over_ef
            assert point.u_over_nef.flat[k] == scalar.u_over_nef
        flat = thermo_point(t, s)
        assert np.array_equal(flat.mu_over_ef, point.mu_over_ef.ravel())
        assert np.array_equal(flat.u_over_nef, point.u_over_nef.ravel())
    etas = np.linspace(-20.0, 200.0, 23)
    swept = thermo_point_from_eta(etas)
    betas = beta_epsf_from_eta(etas)
    for k, eta in enumerate(etas):
        point = thermo_point_from_eta(float(eta))
        assert swept.t[k] == point.t and all(type(v) is float for v in vars(point).values())
        beta = beta_epsf_from_eta(float(eta))
        assert betas[k] == beta and type(beta) is float
    # fig2's t column: each t on either side of the 0.5 tail onset, repeated over its grid
    temps = np.array([0.3, 0.45, 0.5, 0.55, 0.7, 0.9])
    repeated = np.repeat(temps, [ratio_grid(t_k, 20).size for t_k in temps.tolist()])
    scalars = {t_k: eta_from_t(t_k) for t_k in temps.tolist()}
    solved = []
    solve = thermo._solve_eta
    monkeypatch.setattr(thermo, "_solve_eta", lambda t, s: solved.append(t.copy()) or solve(t, s))
    eta = eta_from_t(repeated)
    assert [a.tolist() for a in solved] == [temps.tolist()]  # each distinct t once
    assert eta.tolist() == [scalars[t_k] for t_k in repeated.tolist()]


def test_thermo_array_rejects_any_out_of_window_t():
    with pytest.raises(DomainError, match="got 2000.0"):
        thermo_point(np.array([0.5, 2.0e3]))


def test_eta_maxwell_tail():
    for t in (100.0, 1000.0):
        assert math.exp(eta_from_t(t)) * t**2.5 == pytest.approx(MAXWELL_TAIL, rel=1e-4)


def test_eta_domain():
    for bad in (5e-5, 2e3, 0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            eta_from_t(bad)
    # F_3/2 underflows to 0.0 at an eta this low, so no t corresponds to it
    with pytest.raises(DomainError, match=r"eta -1000\.0 maps to a vanishing beta\*eps_F"):
        thermo_point_from_eta(-1000.0)


def test_mu_reference_values():
    assert thermo_point(0.05).mu_over_ef == pytest.approx(0.9938265398410556, rel=1e-9)
    assert thermo_point(0.1).mu_over_ef == pytest.approx(0.9752533676934819, rel=1e-9)
    assert thermo_point(1e-3).mu_over_ef == pytest.approx(1.0, abs=1e-5)


def test_internal_energy_reference_value():
    assert thermo_point(1.0).u_over_nef == pytest.approx(2.564081517126267, rel=1e-9)


def test_thermo_point_bundles():
    p = thermo_point(0.3)
    assert p.mu_over_ef == p.t * p.eta
    assert p.eta == eta_from_t(0.3)
    assert p.u_over_nef == pytest.approx(2.5 * 0.3**3.5 * fermi_dirac(2.5, p.eta), rel=1e-14)


def test_parametric_sweep_matches_inversion():
    p = thermo_point(0.3)
    q = thermo_point_from_eta(p.eta)
    assert q.t == pytest.approx(0.3, rel=1e-10)
    assert q.mu_over_ef == pytest.approx(p.mu_over_ef, rel=1e-10)
    assert q.u_over_nef == pytest.approx(p.u_over_nef, rel=1e-10)


def test_number_closure_nested_quadrature():
    # (15/4) (beta eps_F)^(-5/2) * double integral of z^(1/2) kernel = 1
    for eta in (-5.0, 0.0, 5.0, 20.0):
        closure = 3.75 * nested_number_term(eta) / (2.5 * fermi_dirac(1.5, eta))
        assert closure == pytest.approx(1.0, abs=1e-8)
