"""Airy zeros and bouncer eigenstates: energies, wavefunctions, oracle checks.

The reference zeros A1 and A2 were produced independently by 30-digit
root refinement; scipy's Ai checks every zero and every recorded slope
|Ai'(a_n)|. tests/test_tables.py checks that the recorded zeros and slopes
are what tests/record_tables.py writes from mpmath. The wavefunctions are
oracles.wavefunction, scipy's Ai on the library's states.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from ucngas import (
    DomainError,
    PhysicalConstants,
    airy_zero,
    airy_zero_asymptotic,
    classical_turning_point,
    eigen_energy_asymptotic,
    eigen_energy_exact,
    eigen_state,
    eta_from_t,
)
from ucngas import _tables
from ucngas.constants import ELEMENTARY_CHARGE
from ucngas.eigen import ZERO_INDEX_MAX
from oracles import AIRY_LEVELS, airy_level_number, bouncer_levels_fd, wavefunction

A1 = -2.33810741045976704
A2 = -4.08794944413097062
AIP_AT_A1 = 0.70121082272069136  # |Ai'| at the first zero, 30-digit refinement
PEV = 1.0e-12 * ELEMENTARY_CHARGE  # J


def _tail_end(state):
    # quadrature cutoff: turning point plus ten decay lengths
    return classical_turning_point(state) + 10.0 * state.constants.l_g


# ---- Airy zeros ----


def test_asymptotic_seed_values():
    assert airy_zero_asymptotic(1) == pytest.approx(-2.320251, abs=1e-6)
    assert airy_zero_asymptotic(2) == pytest.approx(-4.0818100, abs=1e-6)
    assert airy_zero_asymptotic(3) == pytest.approx(
        -((3.0 * math.pi * 11.0 / 8.0) ** (2.0 / 3.0)), rel=1e-15
    )


def test_every_zero_is_the_nth_zero_of_amos_ai():
    # seed +- 0.35 of the local zero spacing pi/sqrt(|a|), capped at 0.1: a
    # window narrower than the spacing, so a sign change of Ai across it is
    # the n-th zero alone; airy_zero(n) must lie inside, and a Newton step
    # on scipy's Ai must move it by no more than 2 ulp. The recorded slope
    # |Ai'(a_n)| must be within 16 ulp of scipy's (9 at worst, at n = 7)
    n = np.arange(1, ZERO_INDEX_MAX + 1)
    seed = np.array([airy_zero_asymptotic(k) for k in n])
    width = np.minimum(0.1, 0.35 * np.pi / np.sqrt(-seed))
    lo, hi = seed - width, seed + width
    assert np.all(special.airy(lo)[0] * special.airy(hi)[0] < 0.0)
    zeros = np.array([airy_zero(k) for k in n])
    assert np.all((lo < zeros) & (zeros < hi))
    assert np.all(np.diff(zeros) < 0.0)
    ai, ai_prime = special.airy(zeros)[:2]
    assert np.all(np.abs(ai / ai_prime) <= 2.0 * np.spacing(-zeros))
    slopes = np.abs(ai_prime)
    assert np.all(np.abs(_tables.AIRY_SLOPES - slopes) <= 16.0 * np.spacing(slopes))
    # |Ai(a_n)| is at most 3.5e-14 up to n = 279 and 1.7e-13 beyond
    assert np.all(np.abs(ai) <= np.where(n <= 279, 1e-12, 1e-11))
    assert zeros[0] == pytest.approx(A1, abs=1e-12) and zeros[1] == pytest.approx(A2, abs=1e-12)
    assert type(airy_zero(1)) is float


# ---- levels and states ----


def test_second_level_energy():
    assert eigen_energy_exact(2) / PEV == pytest.approx(2.46, abs=5e-3)


def test_energies_strictly_increasing():
    energies = [eigen_energy_exact(n) for n in range(1, 21)]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_energy_scales_as_g_to_two_thirds():
    # E proportional to g^(2/3), so the spectrum vanishes with gravity
    weak = PhysicalConstants(g=9.80665e-6)
    assert eigen_energy_exact(1, weak) == pytest.approx(
        1e-4 * eigen_energy_exact(1), rel=1e-12
    )


def test_state_normalization_constant():
    c = PhysicalConstants()
    state = eigen_state(1)
    assert state.norm == pytest.approx(c.alpha ** (1.0 / 6.0) / AIP_AT_A1, rel=1e-12)
    assert state.energy == pytest.approx(eigen_energy_exact(1), rel=1e-14)
    assert state.n_z == 1


def test_wavefunction_vanishes_at_floor():
    state = eigen_state(1)
    assert abs(wavefunction(state, 0.0)) <= 1e-9 * state.norm


def test_node_counts():
    for n in (1, 2, 3, 5, 8):
        state = eigen_state(n)
        z = np.linspace(0.0, classical_turning_point(state), 4000)[1:-1]
        psi = wavefunction(state, z)
        crossings = int(np.sum(np.sign(psi[1:]) * np.sign(psi[:-1]) < 0))
        assert crossings == n - 1


def test_virial_ratio():
    # <m g z> = (2/3) E for a linear potential; break the quadrature at the
    # wavefunction nodes so the oscillatory lobes are all resolved
    c = PhysicalConstants()
    for n in (1, 2, 5, 10):
        state = eigen_state(n)
        breaks = [
            (airy_zero(k) - airy_zero(n)) * c.l_g
            for k in range(1, n)
        ]
        breaks.append(classical_turning_point(state))
        moment, _ = integrate.quad(
            lambda z: c.m * c.g * z * wavefunction(state, z) ** 2,
            0.0,
            _tail_end(state),
            points=breaks,
            limit=300,
        )
        assert moment / state.energy == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_finite_difference_oracle_converges_quadratically():
    c = PhysicalConstants()
    exact = eigen_energy_exact(1)
    err = [
        abs(bouncer_levels_fd(1, c, n_grid=n)[0] - exact) / exact for n in (2500, 5000)
    ]
    assert err[0] / err[1] == pytest.approx(4.0, abs=0.5)


def test_level_sum_oracle_refuses_what_its_levels_do_not_cover():
    x_top = -special.ai_zeros(AIRY_LEVELS)[0][-1]
    assert airy_level_number(math.nextafter(x_top, 0.0)) > 0.0
    for mu in (x_top, 2.0 * x_top):
        with pytest.raises(ValueError, match="past level 1000"):
            airy_level_number(mu)
    # at tau = 3 the levels past x_1000 reach 1e-10 of the sum between 16 and
    # 15.5 tau below x_1000: 2.9e-11 at 17 tau, 2.0e-10 at 15 tau
    assert airy_level_number(x_top - 17.0 * 3.0, 3.0) > 0.0
    # the share past x_1000 is 3.8e-13 for eps_F = 30 e_g at t = 0.3 (check 11b)
    # and 5.7e-10 at t = 0.4, and 6.5e-4 for eps_F = 100 e_g at t = 0.3, where
    # the truncated sum overstates the deficit by 29%
    assert airy_level_number(eta_from_t(0.3) * 9.0, 9.0) > 0.0
    for mu, tau in (
        (x_top - 15.0 * 3.0, 3.0),
        (eta_from_t(0.4) * 12.0, 12.0),
        (eta_from_t(0.3) * 30.0, 30.0),
    ):
        with pytest.raises(ValueError, match="past level 1000, over 1e-10"):
            airy_level_number(mu, tau)


def test_index_validation():
    # every level routine takes an integer index in 1..1000, numpy's too, bool not
    for bad in (0, -3, 1001, True, 3.0):
        for entry in (
            airy_zero,
            airy_zero_asymptotic,
            eigen_energy_exact,
            eigen_energy_asymptotic,
            eigen_state,
        ):
            with pytest.raises(DomainError):
                entry(bad)
    assert airy_zero(np.int64(3)) == airy_zero(3)
    assert airy_zero_asymptotic(np.int64(3)) == airy_zero_asymptotic(3)
    assert eigen_energy_exact(np.int64(3)) == eigen_energy_exact(3)


def test_turning_point():
    c = PhysicalConstants()
    state = eigen_state(1)
    assert classical_turning_point(state) == pytest.approx(
        abs(state.zero) * c.l_g, rel=1e-12
    )
    assert classical_turning_point(state) == pytest.approx(
        state.energy / (c.m * c.g), rel=1e-15
    )
    weak = PhysicalConstants(g=9.80665e-6)
    state = eigen_state(1, weak)
    assert classical_turning_point(state) == pytest.approx(abs(state.zero) * weak.l_g, rel=1e-12)
