"""Fermi-Dirac integrals.

Reference values were produced independently with 30-digit arithmetic
via the polylogarithm identity F_j(eta) = -Gamma(j+1) Li_{j+1}(-e^eta).
"""

import math

import numpy as np
import pytest
from scipy.special import zeta

from ucngas import DomainError, fermi_dirac
from ucngas.specfun import FD_ORDERS
from oracles import sommerfeld

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
    # the 3-term series Gamma(j+1) (e^eta - e^(2 eta)/2^(j+1) + e^(3 eta)/3^(j+1))
    for j in FD_ORDERS:
        series = math.gamma(j + 1.0) * sum(
            (-1.0) ** (k + 1) * math.exp(k * -20.0) / k ** (j + 1.0) for k in (1, 2, 3)
        )
        assert fermi_dirac(j, -20.0) == pytest.approx(series, rel=1e-12)


def test_fd_tolerates_quadpack_roundoff_warnings():
    # QUADPACK reports roundoff at these points, yet its estimate is ~1e-13
    mp = pytest.importorskip("mpmath")
    from oracles import fermi_dirac_mp, fermi_dirac_quad

    points = ((2.5, -0.00999999999999801), (2.5, 1.0015873279616967), (0.5, 0.3317105580707387))
    for j, eta in points:
        expected = float(fermi_dirac_mp(j, mp.mpf(eta)))
        assert fermi_dirac(j, eta) == pytest.approx(expected, rel=1e-10)
        assert fermi_dirac_quad(j, eta) == pytest.approx(expected, rel=1e-10)


# the branch edges 0 and 40, each approached from both sides, the same offsets
# around -35, 50 and 80 inside the branches, and the ends of the domain
FD_EDGE_GRID = [
    edge + offset
    for edge in (-35.0, 0.0, 40.0, 50.0, 80.0)
    for offset in (-0.5, -1e-9, 0.0, 1e-9, 0.5)
] + [-1.0e4, -40.0, 1.0e3, 1.0e4 - 1.0, 1.0e4]


def test_fd_matches_mpmath_across_branch_edges():
    mp = pytest.importorskip("mpmath")
    from oracles import fermi_dirac_mp

    for j in FD_ORDERS:
        for eta in FD_EDGE_GRID:
            expected = fermi_dirac_mp(j, mp.mpf(eta), dps=25)
            got = fermi_dirac(j, eta)
            if expected < 1e-300:  # F_j(-1e4) underflows to 0.0
                assert got == 0.0
                continue
            assert abs(got / expected - 1) <= 1e-13, (j, eta)


# the series branch's eta <= 0: a grid on [-40, 0], the approach to eta = 0,
# -35 from both sides, the deep tail down to subnormal results, and -0.0
FD_SERIES_GRID = (
    np.linspace(-40.0, 0.0, 441).tolist()
    + (-np.geomspace(1.0, 1e-8, 40)).tolist()
    + [-35.0 - 1e-9, -35.0 + 1e-9, -60.0, -100.0, -200.0, -300.0, -500.0, -745.0, -1.0e4]
    + [0.0, -0.0]
)


def test_fd_series_branch_matches_mpmath_within_5e_16():
    mp = pytest.importorskip("mpmath")
    from oracles import fermi_dirac_mp

    tiny = np.finfo(float).tiny
    for j in FD_ORDERS:
        values = fermi_dirac(j, np.array(FD_SERIES_GRID))
        worst = 0.0
        for eta, got in zip(FD_SERIES_GRID, values.tolist()):
            with mp.workdps(20):
                expected = fermi_dirac_mp(j, mp.mpf(eta), dps=20)
                if expected < tiny:  # subnormal: exp(eta) itself is rounded to a step
                    # of 2^-1074, which Gamma(j+1) <= 3.4 scales; allow four steps
                    assert abs(got - expected) <= 2.0**-1072, (j, eta, got)
                    continue
                worst = max(worst, float(abs(got / expected - 1)))
        assert worst <= 5e-16, (j, worst)


# the reflection branch from its edge at 40 up to 80: the range where its nodes
# come nearest the branch point w = eta of (eta - w)^j
FD_REFLECTION_GRID = np.linspace(40.0, 80.0, 81).tolist() + [40.0 + 1e-9, 80.0 - 1e-9]


def test_fd_reflection_from_40_matches_mpmath_within_3e_16():
    mp = pytest.importorskip("mpmath")
    from oracles import fermi_dirac_mp

    for j in FD_ORDERS:
        values = fermi_dirac(j, np.array(FD_REFLECTION_GRID))
        with mp.workdps(20):
            worst = max(
                float(abs(got / fermi_dirac_mp(j, mp.mpf(eta), dps=20) - 1))
                for eta, got in zip(FD_REFLECTION_GRID, values.tolist())
            )
        assert worst <= 3e-16, (j, worst)


def test_fd_series_coefficients_match_mpmath():
    # CRVZ Algorithm 1 as published, with d = T_n(3) from T_(n+1) = 6 T_n - T_(n-1),
    # against the library's coefficients built in 34-digit decimal
    mp = pytest.importorskip("mpmath")
    from ucngas.specfun import _SERIES

    n = 24
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, weights = -1, -d, []
    for k in range(n):
        c = b - c
        weights.append(c)
        b, rest = divmod((k + n) * (k - n) * b * 2, (2 * k + 1) * (k + 1))
        assert rest == 0  # b stays an integer: T_n has integer coefficients
    with mp.workdps(60):
        for j in FD_ORDERS:
            expected = [
                float(mp.gamma(mp.mpf(j) + 1) * c / d / mp.mpf(k + 1) ** (mp.mpf(j) + 1))
                for k, c in enumerate(weights)
            ]
            assert _SERIES[j].tolist() == expected, j


def test_fd_matches_quadrature_oracle():
    from oracles import fermi_dirac_quad

    for j in (0.5, 1.5, 2.5):
        for eta in (-34.0, -5.0, 0.0, 1.0, 30.0, 79.0, 80.0, 1.0e3):
            assert fermi_dirac(j, eta) == pytest.approx(fermi_dirac_quad(j, eta), rel=1e-11)


def test_fd_array_matches_scalar_bit_for_bit():
    grid = np.array(FD_EDGE_GRID + list(np.linspace(-60.0, 120.0, 301)))
    for j in FD_ORDERS:
        values = fermi_dirac(j, grid)
        assert values.shape == grid.shape
        assert all(fermi_dirac(j, float(eta)) == v for eta, v in zip(grid, values))
        # blocks, shapes and neighbours do not move a value
        shaped = fermi_dirac(j, grid[:300].reshape(3, 4, 25))
        assert shaped.shape == (3, 4, 25)
        assert np.array_equal(shaped.ravel(), values[:300])
        assert np.array_equal(fermi_dirac(j, grid[::-1]), values[::-1])
    assert type(fermi_dirac(0.5, 1.0)) is float
    assert type(fermi_dirac(0.5, np.float64(1.0))) is float
    assert fermi_dirac(0.5, np.empty((0, 3))).shape == (0, 3)


def test_fd_strictly_increasing():
    grid = np.linspace(-30.0, 100.0, 14)
    for j in FD_ORDERS:
        values = [fermi_dirac(j, eta) for eta in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_fd_derivative_recurrence():
    # dF_j/deta = j F_{j-1}
    h = 1e-4
    for j in (0.5, 1.5, 2.5):
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
    # an array is rejected as a whole; the message names the order and the bad eta
    with pytest.raises(DomainError, match=r"F_2\.5 .*got -20000\.0"):
        fermi_dirac(2.5, np.array([0.0, -2.0e4, 3.0]))


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
