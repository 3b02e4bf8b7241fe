"""End-to-end acceptance checks, one printed verdict line per numbered check.

Each check pins a quantitative claim about the library at its stated
tolerance. Checks 3, 5, and 10b pin the series coefficients that the exact
integrals give (pi^2/4 curvature with trapped/free ratio 3, pi^2/4
bottom-density slope, 5/2 classical energy). Each also asserts that the
widely quoted coefficient (pi^2/2 and ratio 6, 5 pi^2/8, 7/2) falls outside
the same tolerance, and prints both on its verdict line.
test_series_oracle.py derives the same coefficients from mpmath alone.
Checks 11 and 11b sum the particle number over the discrete Airy levels
and pin how much the continuum density of states overcounts it; check 12
holds N fixed instead and pins the shift of mu that the overcount causes,
at T = 0, and check 12b at finite temperature.

The golden tables in golden/ are compared byte for byte. The JSON ones
carry every printed number at full precision, so a 1-ulp change anywhere
on the path from constants to output fails them. Regeneration rule: a
change that moves stored values is judged stage by stage, at each stage's
own double inputs, never end to end, where exp can amplify a last-bit
move of eta a hundredfold. The change records every stage value it moves
(the stage, its double input, the value before and after) in
golden/moved.json, replacing the previous record, and lists the moves in
CHANGES.md. oracles.judge_moves measures each against mpmath, and the
move is accepted when, at every stage it touches, the worst and the
median error of the moved values do not grow and at least as many values
move nearer as farther. test_golden_moves_follow_the_regeneration_rule
enforces it; test_golden_fig2_rows_moved_toward_mpmath keeps the older
one-row proof for golden/fig2.csv.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, optimize

from ucngas import (
    FREE,
    PhysicalConstants,
    airy_zero,
    airy_zero_asymptotic,
    classical_turning_point,
    density,
    density_ratio,
    density_zero_T,
    diluteness,
    eigen_energy_exact,
    eigen_state,
    eta_from_t,
    fermi_dirac,
    particle_number,
    ratio_grid,
    thermo_point,
    wavefunction,
)
from ucngas.cli import main
from ucngas.constants import ELEMENTARY_CHARGE
from oracles import airy_level_number, bouncer_levels_fd, column_number, nested_cross_term

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [
    ("fig1.csv", ["fig1", "--t-min", "0.01", "--t-max", "2", "--t-steps", "12"]),
    (
        "fig2.csv",
        ["fig2", "--t-min", "0.01", "--t-max", "2", "--t-steps", "3", "--z-steps", "8"],
    ),
    (
        "fig3.csv",
        ["fig3", "--efermi-min-k", "1e-6", "--efermi-max-k", "1e-1", "--t-steps", "9"],
    ),
    # full precision, every printed bit of each subcommand; fig2 reaches all
    # three F_j branches (eta <= 0, the middle, eta >= 40) and both grid forms
    ("eigen.json", ["eigen", "--n-max", "1000", "--format", "json"]),
    ("report.json", ["report", "--efermi-k", "1e-3"]),
    ("report_literal.json", ["report", "--efermi-k", "4e-3", "--t", "0.2", "--paper-literal"]),
    ("fig1.json", ["fig1", "--format", "json"]),
    ("fig1_parametric.json", ["fig1", "--parametric", "--format", "json"]),
    ("fig2.json", ["fig2", "--t-steps", "20", "--z-steps", "100", "--format", "json"]),
    ("fig3.json", ["fig3", "--format", "json"]),
    ("fig3_literal.json", ["fig3", "--paper-literal", "--t-steps", "400", "--format", "json"]),
]


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def _quoted(coefficient: str, rejected: bool) -> str:
    return f"(quoted {coefficient} {'rejected' if rejected else 'NOT rejected'})"


def test_check_01_asymptotic_zero_accuracy():
    start = time.perf_counter()
    rels = np.array(
        [
            abs(airy_zero_asymptotic(n) - airy_zero(n)) / abs(airy_zero(n))
            for n in range(1, 1001)
        ]
    )
    elapsed = time.perf_counter() - start
    worst = float(rels.max())
    ok = rels.argmax() == 0 and worst <= 0.01 and elapsed < 1.0
    _verdict(
        "check 01",
        ok,
        f"asymptotic zeros worst rel err {worst:.4%} at n={rels.argmax() + 1}, "
        f"1000 zeros in {elapsed:.2f} s",
    )


def test_check_02_ground_state_energy():
    e1_pev = eigen_energy_exact(1) / (1.0e-12 * ELEMENTARY_CHARGE)
    start = time.perf_counter()
    oracle = bouncer_levels_fd(1, PhysicalConstants(), n_grid=10_000)[0]
    elapsed = time.perf_counter() - start
    oracle_rel = abs(oracle / eigen_energy_exact(1) - 1.0)
    ok = abs(e1_pev - 1.407) <= 0.001 and oracle_rel <= 1e-3 and elapsed < 10.0
    _verdict(
        "check 02",
        ok,
        f"ground state {e1_pev:.6f} peV, grid oracle off by {oracle_rel:.2e} "
        f"({elapsed:.2f} s)",
    )


def test_check_03_chemical_potential_curvature():
    ts = np.linspace(0.01, 0.05, 9)
    drop = 1.0 - thermo_point(ts).mu_over_ef
    drop_free = 1.0 - thermo_point(ts, FREE).mu_over_ef
    coeff = float(np.sum(drop * ts**2) / np.sum(ts**4))
    coeff_free = float(np.sum(drop_free * ts**2) / np.sum(ts**4))
    ratio = coeff / coeff_free
    coeff_fits = lambda target: abs(coeff / target - 1.0) <= 0.02
    ratio_fits = lambda target: abs(ratio - target) <= 0.1
    # Sommerfeld (pi^2/6) s: pi^2/4 trapped (s = 3/2), pi^2/12 free (s = 1/2)
    target, quoted = math.pi**2 / 4.0, math.pi**2 / 2.0
    coeff_out, ratio_out = not coeff_fits(quoted), not ratio_fits(6.0)
    ok = coeff_fits(target) and ratio_fits(3.0) and coeff_out and ratio_out
    _verdict(
        "check 03",
        ok,
        f"fitted t^2 coefficient {coeff:.6f} vs pi^2/4 = {target:.6f} "
        f"{_quoted(f'pi^2/2 = {quoted:.6f}', coeff_out)}, "
        f"trapped/free ratio {ratio:.4f} vs 3 {_quoted('6', ratio_out)}",
    )


def test_check_04_zero_temperature_energy():
    u = thermo_point(1e-3).u_over_nef
    u_free = thermo_point(1e-3, FREE).u_over_nef
    ok = abs(u - 5.0 / 7.0) <= 1e-4 and abs(u_free - 3.0 / 5.0) <= 1e-4
    _verdict(
        "check 04",
        ok,
        f"u(1e-3) = {u:.6f} (target 5/7 = {5 / 7:.6f}), "
        f"free gas {u_free:.6f} (target 0.6)",
    )


def test_check_05_bottom_density_expansion():
    ratios = {t: density_ratio(t, 0.0) for t in (0.02, 0.04, 0.06, 0.08, 0.1)}

    def worst(coeff):
        """(gap, bound, t) at the t where |ratio - (1 - coeff t^2)| most exceeds 5 t^4."""
        gaps = [(abs(r - (1.0 - coeff * t * t)), 5.0 * t**4, t) for t, r in ratios.items()]
        return max(gaps, key=lambda g: g[0] - g[1])

    gap, bound, t = worst(math.pi**2 / 4.0)
    gap_quoted, bound_quoted, t_quoted = worst(5.0 * math.pi**2 / 8.0)
    quoted_out = gap_quoted > bound_quoted
    ok = gap <= bound and quoted_out
    _verdict(
        "check 05",
        ok,
        f"|quadrature - (1 - (pi^2/4) t^2)| = {gap:.3e} vs bound {bound:.3e} at t = {t} "
        f"{_quoted(f'5 pi^2/8, gap {gap_quoted:.3e} at t = {t_quoted},', quoted_out)}",
    )


def test_check_06_worked_numbers_at_one_millikelvin():
    c = PhysicalConstants()
    eps_F = c.kB * 1e-3
    n00_cm3 = density_zero_T(0.0, eps_F, c) * 1e-6
    height_cm = eps_F / (c.m * c.g) * 100.0
    report = diluteness(density_zero_T(0.0, eps_F, c), 1e-3, c)
    sep_cm = report.mean_separation * 100.0
    lam_cm = report.thermal_wavelength * 100.0
    ok = (
        0.85e16 <= n00_cm3 <= 0.95e16
        and abs(height_cm - 84.0) <= 1.0
        and abs(sep_cm - 4.8e-6) <= 0.2e-6
        and abs(lam_cm - 8.0e-6) <= 0.2e-6
    )
    _verdict(
        "check 06",
        ok,
        f"bottom density {n00_cm3:.3e} cm^-3, height {height_cm:.2f} cm, "
        f"separation {sep_cm:.3e} cm, wavelength {lam_cm:.3e} cm",
    )


def test_check_07_number_conservation():
    c = PhysicalConstants()
    eps_F = c.kB * 1e-3
    N = particle_number(eps_F, c)
    worst = 0.0
    for t in (0.01, 0.1, 0.5, 1.0, 5.0):
        total = column_number(t, eps_F, c, density)
        worst = max(worst, abs(total / N - 1.0))
    ok = worst <= 1e-7
    _verdict("check 07", ok, f"column integral vs N, worst rel err {worst:.2e}")


def test_check_08_double_integral_reduction():
    worst = 0.0
    for eta in (-5.0, 0.0, 5.0, 20.0, 100.0):
        nested = nested_cross_term(eta)
        closed = (4.0 / 15.0) * fermi_dirac(2.5, eta)
        worst = max(worst, abs(nested / closed - 1.0))
    ok = worst <= 1e-7
    _verdict("check 08", ok, f"nested cross term vs (4/15) F_5/2, worst rel err {worst:.2e}")


def test_check_09_orthonormality():
    c = PhysicalConstants()
    states = [eigen_state(n) for n in range(1, 11)]
    z_end = classical_turning_point(states[-1]) + 10.0 * c.l_g
    worst = 0.0
    for i, si in enumerate(states):
        for sj in states[i:]:
            overlap, _ = integrate.quad(
                lambda z: wavefunction(si, z) * wavefunction(sj, z), 0.0, z_end, limit=300
            )
            target = 1.0 if si.n_z == sj.n_z else 0.0
            worst = max(worst, abs(overlap - target))
    ok = worst <= 1e-8
    _verdict("check 09", ok, f"10x10 overlap matrix, worst |<n|m> - delta| = {worst:.2e}")


def test_check_10a_barometric_profile():
    worst = 0.0
    etas = []
    for t in (150.0, 300.0):
        eta = eta_from_t(t)
        etas.append(eta)
        bottom = density_ratio(t, 0.0)
        for u in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            deviation = abs(density_ratio(t, u * t) / bottom * math.exp(u) - 1.0)
            worst = max(worst, deviation)
    ok = all(eta <= -10.0 for eta in etas) and worst <= 1e-6
    _verdict(
        "check 10a",
        ok,
        f"barometric law at eta = {etas[0]:.2f}, {etas[1]:.2f}; worst rel dev {worst:.2e}",
    )


def test_check_10b_classical_energy_slope():
    slope = thermo_point(100.0).u_over_nef / 100.0
    fits = lambda target: abs(slope / target - 1.0) <= 0.005
    # (s+1) = Gamma(7/2)/Gamma(5/2): 3/2 kT kinetic plus kT potential energy
    quoted_out = not fits(3.5)
    ok = fits(2.5) and quoted_out
    _verdict("check 10b", ok, f"u/t at t = 100 is {slope:.6f} vs 5/2 {_quoted('7/2', quoted_out)}")


def _continuum_number(mu: float, tau: float) -> float:
    # the column's continuum count in the units of oracles.airy_level_number
    if tau == 0.0:
        return 4.0 / (15.0 * math.pi) * mu**2.5
    return 2.0 / (3.0 * math.pi) * tau**2.5 * fermi_dirac(1.5, mu / tau)


def test_check_11_discrete_levels_zero_temperature():
    # the Airy staircase sits 1/4 level below the continuum count (its
    # -1/4 Maslov offset), so N_levels = N_continuum - X/4 in X = eps_F/e_g
    correction = lambda x: 15.0 * math.pi / 16.0 * x**-1.5
    worst, parts = 0.0, []
    for x in (30.0, 100.0, 250.0):
        deficit = 1.0 - airy_level_number(x) / _continuum_number(x, 0.0)
        worst = max(worst, abs(deficit / correction(x) - 1.0))
        parts.append(f"{deficit:.5e} vs {correction(x):.5e} at X = {x:g}")
    c = PhysicalConstants()
    x_paper = c.kB * 1e-3 / c.e_g
    ok = worst <= 1e-3
    _verdict(
        "check 11",
        ok,
        f"level-sum deficit vs (15 pi/16) X^-3/2: {'; '.join(parts)}; worst rel err "
        f"{worst:.2e}; the 1 mK gas has X = {x_paper:.3e}, correction {correction(x_paper):.1e}",
    )


def test_check_11b_discrete_levels_finite_temperature():
    # the same 1/4-level offset under the Fermi factor: the deficit is
    # (tau/4) ln(1 + e^eta) over the continuum count
    def correction(mu, tau):
        eta = mu / tau
        return 3.0 * math.pi / 8.0 * math.log1p(math.exp(eta)) / fermi_dirac(1.5, eta) / tau**1.5

    # fixed eta and tau, and the eta(t) of a gas with eps_F = 30 e_g
    points = [(eta * tau, tau) for tau in (3.0, 5.0) for eta in (10.0, 16.0)]
    points += [(eta_from_t(t) * t * 30.0, t * 30.0) for t in (0.01, 0.1, 0.2, 0.3)]
    worst, worst_at = 0.0, None
    for mu, tau in points:
        deficit = 1.0 - airy_level_number(mu, tau) / _continuum_number(mu, tau)
        err = abs(deficit / correction(mu, tau) - 1.0)
        if err >= worst:
            worst, worst_at = err, (mu / tau, tau)
    # deficit is left at the last point, eps_F = 30 e_g at t = 0.3
    cold = 1.0 - airy_level_number(30.0) / _continuum_number(30.0, 0.0)
    ok = worst <= 5e-3
    _verdict(
        "check 11b",
        ok,
        f"level-sum deficit vs (3 pi/8) ln(1 + e^eta) / F_3/2(eta) tau^-3/2 at {len(points)} "
        f"points, worst rel err {worst:.2e} at eta = {worst_at[0]:.3g}, tau = {worst_at[1]:g}; "
        f"eps_F = 30 e_g: {cold:.3e} at T = 0, {deficit:.3e} at t = 0.3",
    )


def test_check_12_discrete_levels_fixed_number():
    # at fixed N the levels need a higher mu: N ~ X^(5/2) (1 - (15 pi/16) X^-3/2)
    # gives mu_levels / eps_F - 1 = (2/5)(15 pi/16) X^-3/2 = (3 pi/8) X^-3/2
    correction = lambda x: 3.0 * math.pi / 8.0 * x**-1.5
    worst, parts = 0.0, []
    for x in (30.0, 100.0):
        target = _continuum_number(x, 0.0)
        mu = optimize.brentq(lambda m: airy_level_number(m) - target, x, 1.1 * x, xtol=1e-13)
        shift = mu / x - 1.0
        worst = max(worst, abs(shift / correction(x) - 1.0))
        parts.append(f"{shift:.4e} vs {correction(x):.4e} at X = {x:g}")
    ok = worst <= 1e-2
    _verdict(
        "check 12",
        ok,
        f"mu_levels/eps_F - 1 at fixed N vs (3 pi/8) X^-3/2: {'; '.join(parts)}; "
        f"worst rel err {worst:.2e}",
    )


def test_check_12b_discrete_levels_fixed_number_finite_temperature():
    # check 11b's deficit (tau/4) ln(1 + e^eta) over dN/deta = tau^(5/2) F_1/2(eta) / pi
    # gives eta_levels - eta = (pi/4) ln(1 + e^eta) / (F_1/2(eta) tau^3/2) at fixed N,
    # which tends to check 12's (3 pi/8) X^-3/2 in mu/eps_F as t -> 0
    def correction(eta, tau):
        return math.pi / 4.0 * math.log1p(math.exp(eta)) / fermi_dirac(0.5, eta) / tau**1.5

    worst, parts = 0.0, []
    for t in (0.01, 0.1, 0.2, 0.3):  # a gas with eps_F = 30 e_g
        eta, tau = eta_from_t(t), t * 30.0
        target = _continuum_number(eta * tau, tau)
        mu = optimize.brentq(
            lambda m: airy_level_number(m, tau) - target, eta * tau, 1.1 * eta * tau, xtol=1e-13
        )
        gap, expected = mu / tau - eta, correction(eta, tau)
        worst = max(worst, abs(gap / expected - 1.0))
        parts.append(f"{gap:.4e} vs {expected:.4e} at t = {t:g}")
    ok = worst <= 3e-3
    _verdict(
        "check 12b",
        ok,
        f"eta_levels - eta at fixed N, eps_F = 30 e_g, vs (pi/4) ln(1 + e^eta) / "
        f"(F_1/2(eta) tau^3/2): {'; '.join(parts)}; worst rel err {worst:.2e}",
    )


# ---- figure shape checks (stand-ins for pixel comparison) ----


def test_fig1_curve_properties():
    ts = np.geomspace(0.01, 2.0, 12)
    gas, free = thermo_point(ts), thermo_point(ts, FREE)
    ok = bool(
        np.all(np.diff(gas.mu_over_ef) < 0.0)
        and np.all(np.diff(gas.u_over_nef) > 0.0)
        and np.all(np.diff(free.mu_over_ef) < 0.0)
        and np.all(np.diff(free.u_over_nef) > 0.0)
        and np.all(gas.mu_over_ef < free.mu_over_ef)
        and np.all(gas.u_over_nef > free.u_over_nef)
    )
    _verdict(
        "fig1",
        ok,
        "mu decreasing, u increasing, trapped mu below / u above the free gas",
    )


def test_fig2_curve_properties():
    flattening = [density_ratio(t, 0.5) / density_ratio(t, 0.0) for t in (0.1, 1.0, 5.0)]
    profiles_fall = all(
        density_ratio(t, x1) >= density_ratio(t, x2)
        for t in (0.1, 1.0, 5.0)
        for x1, x2 in zip((0.0, 0.5, 1.0), (0.5, 1.0, 1.5))
    )
    ok = all(b > a for a, b in zip(flattening, flattening[1:])) and profiles_fall
    _verdict(
        "fig2",
        ok,
        f"profiles fall with height and flatten with temperature "
        f"(mid-column fractions {', '.join(f'{v:.3f}' for v in flattening)})",
    )


def test_fig3_curve_properties():
    c = PhysicalConstants()
    temps = np.geomspace(1e-6, 1e-1, 9)
    from ucngas import bottom_density_vs_fermi

    values = bottom_density_vs_fermi(temps, c)
    slopes = np.diff(np.log(values)) / np.diff(np.log(temps))
    ok = bool(np.all(np.abs(slopes - 1.5) <= 1e-9))
    _verdict("fig3", ok, f"log-log slope {slopes.mean():.12f} (target 3/2)")


# every row of golden/fig2.csv that the batched F_j engine moved, each in its
# 12th digit: (index into the t grid, index into that t's height grid, old value)
FIG2_GOLDEN_MOVED = [(1, 6, "6.39484309130e-03")]


def test_golden_fig2_rows_moved_toward_mpmath():
    mp = pytest.importorskip("mpmath")
    from oracles import eta_from_t_mp, fermi_dirac_mp

    rows = (GOLDEN_DIR / "fig2.csv").read_text().splitlines()[1:]
    ts = np.geomspace(0.01, 2.0, 3)
    grids = [ratio_grid(t, 8) for t in ts]
    for ti, xi, before in FIG2_GOLDEN_MOVED:
        t, x = float(ts[ti]), float(grids[ti][xi])
        stored = rows[sum(len(g) for g in grids[:ti]) + xi].split(",")
        assert stored[:2] == [f"{t:.11e}", f"{x:.11e}"]
        with mp.workdps(40):
            eta = eta_from_t_mp(t, 1.5) - mp.mpf(x) / t
            exact = 1.5 * mp.mpf(t) ** 1.5 * fermi_dirac_mp(0.5, eta)
            ok = abs(mp.mpf(stored[2]) - exact) < abs(mp.mpf(before) - exact)
        _verdict(
            "golden fig2 row",
            ok,
            f"t={t:.6g}, x={x:.6g}: {before} -> {stored[2]}, mpmath {mp.nstr(exact, 15)}",
        )


def test_golden_moves_follow_the_regeneration_rule():
    pytest.importorskip("mpmath")
    from oracles import judge_moves, move_accepted, move_summary
    from record_moves import _evaluate

    record = json.loads((GOLDEN_DIR / "moved.json").read_text())
    assert record["columns"] == ["input", "before", "after"]
    now = _evaluate({stage: [row[0] for row in rows] for stage, rows in record["moves"].items()})
    for stage, rows in record["moves"].items():
        assert now[stage] == [row[2] for row in rows], f"{stage}: the library no longer gives 'after'"
    start = time.perf_counter()
    reports = judge_moves(record["moves"])
    elapsed = time.perf_counter() - start
    for stage, r in reports.items():
        _verdict(
            f"moved {stage}", move_accepted(r), f"{move_summary(r)} (judged in {elapsed:.2f} s)"
        )


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_tables(name, args, tmp_path):
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    produced = out.read_bytes()
    expected = (GOLDEN_DIR / name).read_bytes()
    ok = produced == expected
    if ok:
        detail = f"{len(produced)} bytes, byte-identical to stored table"
    else:
        first = next(
            (i for i, (a, b) in enumerate(zip(produced, expected)) if a != b),
            min(len(produced), len(expected)),
        )
        detail = f"{len(produced)} bytes against {len(expected)} stored, first differs at byte {first}"
    _verdict(f"golden {name}", ok, detail)
