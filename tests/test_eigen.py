"""Bouncer eigenstates: energies, wavefunctions, box modes, oracle checks."""

import math

import numpy as np
import pytest
from scipy import integrate

from ucngas import (
    BoxSpec,
    DomainError,
    PhysicalConstants,
    airy_zero,
    box_energy,
    classical_turning_point,
    convert,
    default_constants,
    derive_scales,
    eigen_energy_asymptotic,
    eigen_energy_exact,
    eigen_state,
    total_energy,
    wavefunction,
)
from oracles import bouncer_levels_fd

AIP_AT_A1 = 0.70121082272069136  # |Ai'| at the first zero, 30-digit refinement


def _tail_end(state, constants=None):
    # quadrature cutoff: turning point plus ten decay lengths
    scales = derive_scales(constants)
    return classical_turning_point(state, constants) + 10.0 * scales.l_g


def test_ground_state_energy():
    e1 = eigen_energy_exact(1)
    assert convert(e1, "J", "peV") == pytest.approx(1.4067188095476264, rel=1e-9)
    assert e1 == pytest.approx(2.254e-31, rel=1e-3)


def test_second_level_energy():
    assert convert(eigen_energy_exact(2), "J", "peV") == pytest.approx(2.46, abs=5e-3)


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
    scales = derive_scales(default_constants())
    state = eigen_state(1)
    assert state.norm == pytest.approx(scales.alpha ** (1.0 / 6.0) / AIP_AT_A1, rel=1e-12)
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
    scales = derive_scales(default_constants())
    far = classical_turning_point(state) + 50.0 * scales.l_g
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
    c = default_constants()
    scales = derive_scales(c)
    for n in (1, 2, 5, 10):
        state = eigen_state(n)
        breaks = [
            (airy_zero(k) - airy_zero(n)) * scales.l_g
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
    c = default_constants()
    fd = bouncer_levels_fd(5, c, n_grid=10_000)
    for i, level in enumerate(fd, start=1):
        assert level == pytest.approx(eigen_energy_exact(i), rel=1e-3)


def test_finite_difference_oracle_converges_quadratically():
    c = default_constants()
    exact = eigen_energy_exact(1)
    err = [
        abs(bouncer_levels_fd(1, c, n_grid=n)[0] - exact) / exact for n in (2500, 5000)
    ]
    assert err[0] / err[1] == pytest.approx(4.0, abs=0.5)


def test_box_energy_values():
    c = default_constants()
    box = BoxSpec(L=1.0)
    ground = box_energy(1, box)
    assert ground == pytest.approx(math.pi**2 * c.hbar**2 / (2.0 * c.m), rel=1e-15)
    assert ground == pytest.approx(3.28e-41, rel=2e-3)
    assert box_energy(2, box) == pytest.approx(4.0 * ground, rel=1e-15)
    assert box_energy(1, BoxSpec(L=2.0)) == pytest.approx(ground / 4.0, rel=1e-15)


def test_total_energy_additivity_and_symmetry():
    box = BoxSpec(L=1.0)
    total = total_energy(1, 1, 1, box)
    assert total == pytest.approx(
        2.0 * box_energy(1, box) + eigen_energy_asymptotic(1), rel=1e-15
    )
    assert total_energy(2, 3, 1, box) == total_energy(3, 2, 1, box)
    exact = total_energy(1, 1, 1, box, exact_z=True)
    assert exact == pytest.approx(2.0 * box_energy(1, box) + eigen_energy_exact(1), rel=1e-15)


def test_total_energy_weak_gravity_is_box_spectrum():
    box = BoxSpec(L=1.0)
    weak = PhysicalConstants(g=9.80665e-21)
    total = total_energy(1, 1, 1, box, weak)
    assert total == pytest.approx(2.0 * box_energy(1, box, weak), rel=1e-3)


def test_index_validation():
    for bad in (0, 1001):
        with pytest.raises(DomainError):
            eigen_energy_exact(bad)
        with pytest.raises(DomainError):
            eigen_state(bad)
    with pytest.raises(DomainError):
        box_energy(0, BoxSpec(L=1.0))
    with pytest.raises(DomainError):
        BoxSpec(L=0.0)


def test_turning_point():
    c = default_constants()
    scales = derive_scales(c)
    state = eigen_state(1)
    assert classical_turning_point(state) == pytest.approx(
        abs(state.zero) * scales.l_g, rel=1e-12
    )
    assert classical_turning_point(state) == pytest.approx(
        state.energy / (c.m * c.g), rel=1e-15
    )
