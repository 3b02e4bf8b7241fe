"""Airy zeros and bouncer eigenstates: energies, wavefunctions, oracle checks.

The reference zeros A1 and A2 were produced independently by 30-digit
root refinement; scipy's Ai checks every zero, and mpmath's airyaizero
checks them across the range.
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
    wavefunction,
)
from ucngas.constants import ELEMENTARY_CHARGE
from ucngas.eigen import ZERO_INDEX_MAX
from oracles import AIRY_LEVELS, airy_level_number, bouncer_levels_fd

A1 = -2.33810741045976704
A2 = -4.08794944413097062
AIP_AT_A1 = 0.70121082272069136  # |Ai'| at the first zero, 30-digit refinement
PEV = 1.0e-12 * ELEMENTARY_CHARGE  # J


def _tail_end(state, constants=PhysicalConstants()):
    # quadrature cutoff: turning point plus ten decay lengths
    return classical_turning_point(state, constants) + 10.0 * constants.l_g


# ---- Airy zeros ----


def test_airy_vanishes_at_first_zero():
    assert abs(float(special.airy(A1)[0])) <= 1e-13


def test_zero_values():
    assert airy_zero(1) == pytest.approx(A1, abs=1e-12)
    assert airy_zero(2) == pytest.approx(A2, abs=1e-12)
    assert type(airy_zero(1)) is float


def test_zeros_annihilate_ai():
    for n in (1, 2, 5, 10, 100, 279):
        a_n = airy_zero(n)
        assert abs(float(special.airy(a_n)[0])) <= 1e-12
    for n in (500, 1000):
        a_n = airy_zero(n)
        assert abs(float(special.airy(a_n)[0])) <= 1e-11


def test_zeros_strictly_decreasing():
    values = [airy_zero(n) for n in range(1, 51)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_asymptotic_seed_values():
    assert airy_zero_asymptotic(1) == pytest.approx(-2.320251, abs=1e-6)
    assert airy_zero_asymptotic(2) == pytest.approx(-4.0818100, abs=1e-6)
    assert airy_zero_asymptotic(3) == pytest.approx(
        -((3.0 * math.pi * 11.0 / 8.0) ** (2.0 / 3.0)), rel=1e-15
    )


def test_asymptotic_error_small_and_shrinking():
    rels = []
    for n in range(1, 101):
        exact = airy_zero(n)
        rels.append(abs(airy_zero_asymptotic(n) - exact) / abs(exact))
    assert rels[0] <= 1e-2
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[9] <= 1e-4  # tenth zero matches the seed to 0.01%


def test_zero_index_validation():
    for bad in (0, -3, 1001):
        with pytest.raises(DomainError):
            airy_zero(bad)
    with pytest.raises(DomainError):
        airy_zero_asymptotic(0)


def test_zeros_match_mpmath():
    # every tabulated zero, the first from the series, and across the range
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for n in (*range(1, 12), 100, 500, 1000):
            assert airy_zero(n) == float(mp.airyaizero(n))


def test_every_zero_is_the_nth_zero_of_amos_ai():
    # seed +- 0.35 of the local zero spacing pi/sqrt(|a|), capped at 0.1: a
    # window narrower than the spacing, so a sign change of Ai across it is
    # the n-th zero alone; airy_zero(n) must lie inside, and a Newton step
    # on scipy's Ai must move it by no more than 2 ulp
    n = range(1, ZERO_INDEX_MAX + 1)
    seed = np.array([airy_zero_asymptotic(k) for k in n])
    width = np.minimum(0.1, 0.35 * np.pi / np.sqrt(-seed))
    lo, hi = seed - width, seed + width
    assert np.all(special.airy(lo)[0] * special.airy(hi)[0] < 0.0)
    zeros = np.array([airy_zero(k) for k in n])
    assert np.all((lo < zeros) & (zeros < hi))
    ai, ai_prime = special.airy(zeros)[:2]
    assert np.all(np.abs(ai / ai_prime) <= 2.0 * np.spacing(-zeros))


# ---- levels and states ----


def test_ground_state_energy():
    e1 = eigen_energy_exact(1)
    assert e1 / PEV == pytest.approx(1.4067188095476264, rel=1e-9)
    assert e1 == pytest.approx(2.254e-31, rel=1e-3)


def test_second_level_energy():
    assert eigen_energy_exact(2) / PEV == pytest.approx(2.46, abs=5e-3)


def test_energies_strictly_increasing():
    energies = [eigen_energy_exact(n) for n in range(1, 21)]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_asymptotic_energy_accuracy():
    rels = []
    for n in range(1, 101):
        exact = eigen_energy_exact(n)
        rels.append(abs(eigen_energy_asymptotic(n) - exact) / exact)
    assert rels[0] <= 1e-2  # worst case, n = 1
    assert rels[9] <= 2e-4
    assert all(b < a for a, b in zip(rels, rels[1:]))  # ratio -> 1 monotonically


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


def test_wavefunction_rejects_wall_region():
    state = eigen_state(1)
    with pytest.raises(DomainError):
        wavefunction(state, -1e-9)
    with pytest.raises(DomainError):
        wavefunction(state, np.array([0.0, -1e-9]))


def test_wavefunction_tail_is_exactly_zero():
    state = eigen_state(1)
    c = PhysicalConstants()
    far = classical_turning_point(state) + 50.0 * c.l_g
    assert wavefunction(state, far) == 0.0


def test_wavefunction_normalized():
    state = eigen_state(1)
    integral, _ = integrate.quad(
        lambda z: wavefunction(state, z) ** 2, 0.0, _tail_end(state), limit=200
    )
    assert integral == pytest.approx(1.0, abs=1e-8)


def test_wavefunction_orthogonal_pairs():
    for n, m in ((1, 2), (2, 5)):
        sn, sm = eigen_state(n), eigen_state(m)
        end = max(_tail_end(sn), _tail_end(sm))
        integral, _ = integrate.quad(
            lambda z: wavefunction(sn, z) * wavefunction(sm, z), 0.0, end, limit=200
        )
        assert abs(integral) <= 1e-8


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


def test_finite_difference_oracle_agrees():
    c = PhysicalConstants()
    fd = bouncer_levels_fd(5, c, n_grid=10_000)
    for i, level in enumerate(fd, start=1):
        assert level == pytest.approx(eigen_energy_exact(i), rel=1e-3)


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
    for bad in (0, 1001, True, 3.0):
        with pytest.raises(DomainError):
            eigen_energy_exact(bad)
        with pytest.raises(DomainError):
            eigen_energy_asymptotic(bad)
        with pytest.raises(DomainError):
            eigen_state(bad)
    # any integer type is an index
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
