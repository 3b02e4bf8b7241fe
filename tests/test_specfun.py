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


# three eta kept from earlier regression tests
FD_REGRESSION_POINTS = [-0.00999999999999801, 0.3317105580707387, 1.0015873279616967]
# every eta the mpmath sweep checks, sorted, then -0.0
FD_SWEEP = np.append(
    np.unique(
        np.concatenate(
            [
                # eta <= 0: a grid on [-40, 0], the approach to 0, and the deep tail down to
                # subnormal results and -1e4, where F_j underflows to 0.0
                np.linspace(-40.0, 0.0, 441),
                -np.geomspace(1.0, 1e-8, 40),
                [-1.0e4, -745.0, -500.0, -300.0, -200.0, -100.0, -60.0],
                # 0 < eta < 40: every edge of the 40 Chebyshev pieces from both sides (k is
                # the left end of piece k, the double below it the right end of piece k - 1),
                # each piece's midpoint and one seeded point
                [5e-324, 1e-9],
                [x for k in range(1, 41) for x in (np.nextafter(float(k), 0.0), float(k))],
                np.arange(40) + 0.5,
                np.arange(40) + np.random.default_rng(29).uniform(0.0, 1.0, 40),
                # eta >= 40: step 0.5 up to 80, where the Sommerfeld series converges
                # slowest, then geometric up to the end of the domain
                [np.nextafter(40.0, 41.0), 1.0e3, 1.0e4 - 1.0],
                np.linspace(40.0, 80.0, 81),
                np.geomspace(40.0, 1.0e4, 41),
                # offsets around the branch edges 0 and 40 and around -35, 50 and 80
                [e + d for e in (-35, 0, 40, 50, 80) for d in (-0.5, -1e-9, 0.0, 1e-9, 0.5)],
                FD_REGRESSION_POINTS,
            ]
        )
    ),
    -0.0,
)
# each bound sits just above the worst error measured on its branch: 4.07e-16 here for
# eta <= 0 (j = -1/2), and on 4,000 random eta per order 2.35e-16 on (0, 40) (j = 5/2)
# and 2.59e-16 on [40, 1e4] (log-uniform)
FD_BOUNDS = {"eta <= 0": 5e-16, "0 < eta < 40": 2.5e-16, "eta >= 40": 3e-16}


@pytest.mark.parametrize("j", FD_ORDERS)
def test_fd_matches_mpmath_on_every_branch(j):
    # each eta against mpmath at 20 digits, held to the bound of the branch that computes it
    mp = pytest.importorskip("mpmath")
    from oracles import fermi_dirac_mp

    tiny = np.finfo(float).tiny
    worst = dict.fromkeys(FD_BOUNDS, 0.0)
    with mp.workdps(20):
        for eta, got in zip(FD_SWEEP.tolist(), fermi_dirac(j, FD_SWEEP).tolist()):
            expected = fermi_dirac_mp(j, mp.mpf(eta), dps=20)
            if expected < tiny:  # subnormal: exp(eta) itself is rounded to a step
                # of 2^-1074, which Gamma(j+1) <= 3.4 scales; allow four steps
                assert abs(got - expected) <= 2.0**-1072, (j, eta, got)
                continue
            branch = "eta <= 0" if eta <= 0 else "0 < eta < 40" if eta < 40 else "eta >= 40"
            worst[branch] = max(worst[branch], float(abs(got / expected - 1)))
    ok = all(worst[b] <= bound for b, bound in FD_BOUNDS.items())
    detail = ", ".join(f"{worst[b]:.2e} for {b} (bound {FD_BOUNDS[b]:g})" for b in FD_BOUNDS)
    print(f"[F_{j} vs mpmath] {'PASS' if ok else 'FAIL'}: {FD_SWEEP.size} eta, worst {detail}")
    assert ok, (j, worst)
    assert fermi_dirac(j, -1.0e4) == 0.0


def test_fd_table_is_what_its_generator_writes():
    # tests/record_tables.py gives the last piece of every order bit for bit
    pytest.importorskip("mpmath")
    from record_tables import DEGREE, PIECES, piece
    from ucngas.specfun import _CHEBYSHEV

    for j in FD_ORDERS:
        assert _CHEBYSHEV[j].shape == (DEGREE + 2, PIECES)
        assert _CHEBYSHEV[j][:, PIECES - 1].tolist() == piece(j, PIECES - 1), j


def test_fd_series_coefficients_match_mpmath():
    # CRVZ Algorithm 1 as published, with d = T_n(3) from T_(n+1) = 6 T_n - T_(n-1),
    # against the coefficients tests/record_tables.py records from mpmath
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


def test_fd_sommerfeld_coefficients_match_mpmath():
    # a_k = Gamma(j+1)/Gamma(j+2-2k) 2 (1 - 2^(1-2k)) zeta(2k) at 40 digits, rounded once
    mp = pytest.importorskip("mpmath")
    from ucngas.specfun import _SOMMERFELD

    with mp.workdps(40):
        for j in FD_ORDERS:
            expected = [
                float(mp.gamma(j + 1) / mp.gamma(j + 2 - 2 * k) * 2 * (1 - mp.mpf(2) ** (1 - 2 * k))
                      * mp.zeta(2 * k))
                for k in range(1, 13)
            ]
            assert _SOMMERFELD[j].tolist() == expected, j


def test_fd_coefficients_are_what_their_generator_writes():
    # tests/record_tables.py gives every recorded series and Sommerfeld row bit for bit
    pytest.importorskip("mpmath")
    from record_tables import SERIES_TERMS, SOMMERFELD_TERMS, series, sommerfeld
    from ucngas.specfun import _SERIES, _SOMMERFELD

    for j in FD_ORDERS:
        assert _SERIES[j].shape == (SERIES_TERMS,)
        assert _SERIES[j].tolist() == series(j), j
        assert _SOMMERFELD[j].shape == (SOMMERFELD_TERMS,)
        assert _SOMMERFELD[j].tolist() == sommerfeld(j), j


def test_fd_matches_quadrature_oracle():
    from oracles import fermi_dirac_quad

    for j in (0.5, 1.5, 2.5):
        for eta in (-34.0, -5.0, 0.0, 1.0, 30.0, 79.0, 80.0, 1.0e3, *FD_REGRESSION_POINTS):
            assert fermi_dirac(j, eta) == pytest.approx(fermi_dirac_quad(j, eta), rel=1e-11)


def test_fd_array_matches_scalar_bit_for_bit():
    grid = np.concatenate([FD_SWEEP, np.linspace(-60.0, 120.0, 301)])
    for j in FD_ORDERS:
        values = fermi_dirac(j, grid)
        assert values.shape == grid.shape
        assert all(fermi_dirac(j, float(eta)) == v for eta, v in zip(grid, values))
        # shapes and neighbours do not move a value
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


def test_fd_tracks_the_two_term_sommerfeld_law():
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
