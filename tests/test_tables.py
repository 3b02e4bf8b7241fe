"""Recorded constants: ucngas._tables against tests/record_tables.py, which writes it.

Each table is read as the library reads it and compared bit for bit with
a rerun of the recorder. The CRVZ series weights are also derived a
second way, by the published recurrence, as a check of the recorder's
closed form. The Airy zeros' and slopes' own properties (each zero is the
n-th zero of scipy's Ai, each slope near scipy's |Ai'| there) are checked
in test_eigen.
"""

import numpy as np
import pytest

from ucngas import _tables
from ucngas.eigen import ZERO_INDEX_MAX
from ucngas.specfun import _CHEBYSHEV, _SERIES, _SOMMERFELD, FD_ORDERS


@pytest.mark.parametrize(
    "table", ["CHEBYSHEV", "SERIES", "SOMMERFELD", "AIRY_ZEROS", "AIRY_SLOPES"]
)
def test_table_is_what_the_recorder_writes(table):
    # rerun on the last Chebyshev piece of every order, every series and Sommerfeld
    # row, and the first eleven zeros and slopes, three far ones and a seeded sample:
    # all 1,000 zeros, which the slopes are taken at, cost ~17 s in mpmath
    pytest.importorskip("mpmath")
    import record_tables as rec

    if table in ("AIRY_ZEROS", "AIRY_SLOPES"):
        library = getattr(_tables, table)
        recorded = rec.airy_zero if table == "AIRY_ZEROS" else rec.airy_slope
        assert rec.ZEROS == ZERO_INDEX_MAX and library.shape == (rec.ZEROS,)
        sample = np.random.default_rng(30).integers(12, rec.ZEROS, size=20, endpoint=True)
        for n in (*range(1, 12), 100, 500, 1000, *sample.tolist()):
            assert float(library[n - 1]) == recorded(n), n
        return
    last = rec.PIECES - 1
    library, shape, rows, recorded = {
        "CHEBYSHEV": (
            _CHEBYSHEV, (rec.DEGREE + 2, rec.PIECES), np.s_[:, last], lambda j: rec.piece(j, last)
        ),
        "SERIES": (_SERIES, (rec.SERIES_TERMS,), np.s_[:], rec.series),
        "SOMMERFELD": (_SOMMERFELD, (rec.SOMMERFELD_TERMS,), np.s_[:], rec.sommerfeld),
    }[table]
    for j in FD_ORDERS:
        assert library[j].shape == shape, j
        assert library[j][rows].tolist() == recorded(j), j


def test_fd_series_coefficients_match_mpmath():
    # CRVZ Algorithm 1 as published, with d = T_n(3) from T_(n+1) = 6 T_n - T_(n-1),
    # against the coefficients tests/record_tables.py records from mpmath
    mp = pytest.importorskip("mpmath")

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
