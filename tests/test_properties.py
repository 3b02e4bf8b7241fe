"""Property tests over the documented input domains.

Derandomized, with no example database, so every run draws the same
examples and the suite stays deterministic.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ucngas import (
    PhysicalConstants,
    beta_epsf_from_eta,
    density,
    density_ratio,
    eta_from_t,
    fermi_dirac,
    particle_number,
)
from ucngas.cli import main
from ucngas.thermo import T_DIMLESS_MAX, T_DIMLESS_MIN
from oracles import column_number, fermi_dirac_mp

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def _spaced(values):
    """Sorted unique values, dropping any within a relative 1e-9 of its predecessor."""
    values = np.unique(values)
    return values[np.concatenate(([True], values[1:] > values[:-1] * (1.0 + 1e-9)))]


@DETERMINISTIC
@given(
    t=st.lists(st.floats(T_DIMLESS_MIN, T_DIMLESS_MAX), min_size=1, max_size=12),
    s=st.sampled_from((0.5, 1.5, 2.5)),
)
def test_eta_path_is_one_decreasing_inverse(t, s):
    # t a relative 1e-9 apart moves eta by far more than its rounding
    t = _spaced(t)
    eta = eta_from_t(t, s)
    assert eta.tolist() == [eta_from_t(float(t_k), s) for t_k in t]
    assert np.all(np.diff(eta) < 0.0)
    assert np.all(np.abs(1.0 / beta_epsf_from_eta(eta, s) / t - 1.0) <= 1e-10)


@DETERMINISTIC
@given(
    t=st.floats(T_DIMLESS_MIN, T_DIMLESS_MAX),
    u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
)
def test_density_ratio_is_nonnegative_and_nonincreasing_in_height(t, u):
    x = _spaced(np.asarray(u) * (1.5 + 8.0 * t))
    ratio = density_ratio(t, x)
    assert np.all(ratio >= 0.0)
    assert np.all(np.diff(ratio) <= 0.0)


# each example costs two 33-digit mpmath polylogs, ~0.1 s near eta = 0, and
# the column quadrature ~0.1-0.2 s, so these two draw fewer examples
@settings(DETERMINISTIC, max_examples=12)
@given(j=st.sampled_from((0.5, 1.5, 2.5)), eta=st.floats(-60.0, 200.0))
@example(j=0.5, eta=-45.0)  # the draws need not reach the deep tail of
@example(j=1.5, eta=-45.0)  # the eta <= 0 series; these pin it there
@example(j=2.5, eta=-45.0)
def test_fermi_dirac_derivative_is_j_times_next_lower_order(j, eta):
    mp = pytest.importorskip("mpmath")
    # central difference with step 2^-56 at 33 digits: the slope is good to ~1e-16
    with mp.workdps(16):
        slope = mp.diff(lambda e: fermi_dirac_mp(j, e, mp.mp.dps), eta, addprec=0)
    assert j * fermi_dirac(j - 1.0, eta) == pytest.approx(float(slope), rel=1e-13, abs=0.0)


@settings(DETERMINISTIC, max_examples=8)
@given(t=st.floats(T_DIMLESS_MIN, T_DIMLESS_MAX))
def test_column_integral_is_the_particle_number(t):
    c = PhysicalConstants()
    eps_F = 1e-3 * c.kB
    total = column_number(t, eps_F, c, density)
    assert total == pytest.approx(particle_number(eps_F, c), rel=1e-7)


@st.composite
def _table_request(draw):
    command = draw(st.sampled_from(("eigen", "fig1", "fig2", "fig3")))
    if command == "eigen":
        return [command, "--n-max", str(draw(st.integers(1, 1000)))]
    # decades: eps_F / k_B in [1e-8, 1e6] K, t inside [1e-4, 1e3]
    decade = draw(st.floats(-8.0, 2.0) if command == "fig3" else st.floats(-4.0, 2.0))
    lo, hi = 10.0**decade, 10.0 ** (decade + draw(st.floats(0.1, 1.0)))
    flags = ("--efermi-min-k", "--efermi-max-k") if command == "fig3" else ("--t-min", "--t-max")
    window = [flags[0], repr(lo), flags[1], repr(hi)]
    argv = [command, *window, "--t-steps", str(draw(st.integers(2, 4)))]
    if command == "fig1" and draw(st.booleans()):
        argv.append("--parametric")
    if command == "fig2":
        argv += ["--z-steps", str(draw(st.integers(2, 6)))]
    if command == "fig3" and draw(st.booleans()):
        argv.append("--paper-literal")
    return argv


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@DETERMINISTIC
@given(argv=_table_request())
def test_csv_cells_are_the_formatted_json_values(argv):
    csv_code, csv_text = _run(argv)
    json_code, json_text = _run([*argv, "--format", "json"])
    assert csv_code == json_code == 0, argv
    payload = json.loads(json_text)
    lines = csv_text.splitlines()
    assert lines[0].split(",") == payload["meta"]["columns"]
    assert len(lines) - 1 == len(payload["rows"])
    for line, row in zip(lines[1:], payload["rows"]):
        # an integer cell prints as itself, a float with 12 significant digits
        cells = [str(v) if isinstance(v, int) else f"{v:.11e}" for v in row]
        assert line.split(",") == cells, argv
