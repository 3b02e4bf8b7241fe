"""Airy zeros and Fermi-Dirac integrals.

Reference values were produced independently with 30-digit arithmetic
(Airy zeros by high-precision root refinement, Fermi-Dirac integrals via
the polylogarithm identity F_j(eta) = -Gamma(j+1) Li_{j+1}(-e^eta)).
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.special import zeta

from ucngas import (
    DomainError,
    airy_zero,
    airy_zero_asymptotic,
    fermi_dirac,
    fermi_dirac_maxwell,
    sommerfeld,
)
from ucngas.specfun import FD_ORDERS

A1 = -2.33810741045976704
A2 = -4.08794944413097062

# (order, eta) -> F_j(eta), 30-digit polylogarithm evaluation
FD_REFERENCE = {
    (0.5, -5.0): 0.0059571769051784766,
    (0.5, 1.0): 1.3963752806665641,
    (0.5, 30.0): 109.6948183372665,
    (0.5, -35.5): 3.3891503313916007e-16,
    (1.5, -1.0): 0.46084880629010166,
    (1.5, 5.0): 27.80244621574838,
    (1.5, 1.0e4): 4000000246.7401093,
    (2.5, 0.5): 4.8867140152445698,
    (2.5, 20.0): 10590.639176614387,
    (2.5, -30.0): 3.1098665374579759e-13,
}


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


# ---- Fermi-Dirac integrals ----


def test_fd_closed_form_at_zero():
    for j in FD_ORDERS:
        expected = math.gamma(j + 1.0) * (1.0 - 2.0 ** (-j)) * zeta(j + 1.0)
        assert fermi_dirac(j, 0.0) == pytest.approx(expected, rel=1e-10)


def test_fd_reference_values():
    for (j, eta), expected in FD_REFERENCE.items():
        assert fermi_dirac(j, eta) == pytest.approx(expected, rel=1e-10)


def test_fd_maxwell_regime():
    assert fermi_dirac(0.5, -20.0) == pytest.approx(
        math.gamma(1.5) * math.exp(-20.0), rel=1e-8
    )
    for j in FD_ORDERS:
        assert fermi_dirac(j, -20.0) == pytest.approx(
            fermi_dirac_maxwell(j, -20.0), rel=1e-12
        )


def test_fd_tolerates_quadpack_roundoff_warnings():
    # QUADPACK reports roundoff at these points, yet its estimate is ~1e-13
    mp = pytest.importorskip("mpmath")
    from oracles import fermi_dirac_mp

    points = ((2.5, -0.00999999999999801), (2.5, 1.0015873279616967), (0.5, 0.3317105580707387))
    for j, eta in points:
        expected = float(fermi_dirac_mp(j, mp.mpf(eta)))
        assert fermi_dirac(j, eta) == pytest.approx(expected, rel=1e-10)


def test_fd_strictly_increasing():
    grid = np.linspace(-30.0, 100.0, 14)
    for j in FD_ORDERS:
        values = [fermi_dirac(j, eta) for eta in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_fd_derivative_recurrence():
    # dF_j/deta = j F_{j-1}
    h = 1e-4
    for j in (1.5, 2.5):
        for eta in (-5.0, 0.0, 5.0, 50.0):
            slope = (fermi_dirac(j, eta + h) - fermi_dirac(j, eta - h)) / (2.0 * h)
            assert slope == pytest.approx(j * fermi_dirac(j - 1.0, eta), rel=1e-6)


def test_fd_extreme_arguments():
    assert fermi_dirac(1.5, 1.0e4) == pytest.approx(FD_REFERENCE[(1.5, 1.0e4)], rel=1e-10)
    tiny = fermi_dirac(1.5, -1.0e4)
    assert 0.0 <= tiny < 1e-300  # underflows cleanly, never negative


def test_fd_validation():
    with pytest.raises(DomainError):
        fermi_dirac(1.0, 0.0)
    with pytest.raises(DomainError):
        fermi_dirac(1.5, 1.1e4)
    with pytest.raises(DomainError):
        fermi_dirac(1.5, float("nan"))


# ---- degenerate expansion ----


def test_sommerfeld_tracks_quadrature():
    assert fermi_dirac(1.5, 50.0) == pytest.approx(sommerfeld(1.5, 50.0), rel=1e-5)
    assert fermi_dirac(1.5, 100.0) == pytest.approx(sommerfeld(1.5, 100.0), rel=1e-6)
    for j in FD_ORDERS:
        for eta in (30.0, 100.0, 1000.0):
            assert fermi_dirac(j, eta) == pytest.approx(sommerfeld(j, eta), rel=1e-4)


def test_sommerfeld_remainder_scales_like_eta_minus_4():
    # relative remainder ~ eta^-4: quadrupling eta cuts it by ~256
    for j in FD_ORDERS:
        rel_30 = abs(fermi_dirac(j, 30.0) / sommerfeld(j, 30.0) - 1.0)
        rel_120 = abs(fermi_dirac(j, 120.0) / sommerfeld(j, 120.0) - 1.0)
        assert rel_120 < rel_30 / 100.0


def test_sommerfeld_leading_terms():
    eta = 77.0
    assert sommerfeld(0.5, eta) == pytest.approx(
        (2.0 / 3.0) * eta**1.5 + (math.pi**2 / 12.0) * eta**-0.5, rel=1e-15
    )
    assert sommerfeld(1.5, eta) == pytest.approx(
        (2.0 / 5.0) * eta**2.5 + (math.pi**2 / 4.0) * eta**0.5, rel=1e-15
    )
    assert sommerfeld(2.5, eta) == pytest.approx(
        (2.0 / 7.0) * eta**3.5 + (5.0 * math.pi**2 / 12.0) * eta**1.5, rel=1e-15
    )


def test_sommerfeld_rejects_nonpositive_eta():
    with pytest.raises(DomainError):
        sommerfeld(1.5, 0.0)
    with pytest.raises(DomainError):
        sommerfeld(0.5, -1.0)
