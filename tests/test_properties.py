"""Property tests over the documented input domains.

Derandomized, with no example database, so every run draws the same
examples and the suite stays deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ucngas import beta_epsf_from_eta, eta_from_t
from ucngas.thermo import T_DIMLESS_MAX, T_DIMLESS_MIN

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@DETERMINISTIC
@given(
    t=st.lists(st.floats(T_DIMLESS_MIN, T_DIMLESS_MAX), min_size=1, max_size=12),
    s=st.sampled_from((0.5, 1.5, 2.5)),
)
def test_eta_path_is_one_decreasing_inverse(t, s):
    t = np.unique(t)
    # t a relative 1e-9 apart moves eta by far more than its rounding
    t = t[np.concatenate(([True], t[1:] > t[:-1] * (1.0 + 1e-9)))]
    eta = eta_from_t(t, s)
    assert eta.tolist() == [eta_from_t(float(t_k), s) for t_k in t]
    assert np.all(np.diff(eta) < 0.0)
    assert np.all(np.abs(1.0 / beta_epsf_from_eta(eta, s) / t - 1.0) <= 1e-10)
