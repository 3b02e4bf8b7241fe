"""End-to-end acceptance checks, one printed verdict line per numbered check.

Each check pins a quantitative claim about the library at its stated
tolerance. Checks 3, 5, and 10b pin the series coefficients that the exact
integrals give (pi^2/4 curvature with trapped/free ratio 3, pi^2/4
bottom-density slope, 5/2 classical energy). Each also asserts that the
widely quoted coefficient (pi^2/2 and ratio 6, 5 pi^2/8, 7/2) falls outside
the same tolerance, and prints both on its verdict line.
test_series_oracle.py derives the same coefficients from mpmath alone.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from ucngas import (
    FREE,
    GasSpec,
    airy_zero,
    airy_zero_asymptotic,
    classical_turning_point,
    convert,
    default_constants,
    density,
    density_ratio,
    density_zero_T,
    derive_scales,
    diluteness,
    eigen_energy_exact,
    eigen_state,
    eta_from_t,
    fermi_dirac,
    internal_energy,
    mu_over_ef,
    wavefunction,
)
from ucngas.cli import main
from oracles import bouncer_levels_fd, column_number, nested_cross_term

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
    e1_pev = convert(eigen_energy_exact(1), "J", "peV")
    start = time.perf_counter()
    oracle = bouncer_levels_fd(1, default_constants(), n_grid=10_000)[0]
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
    drop = np.array([1.0 - mu_over_ef(t) for t in ts])
    drop_free = np.array([1.0 - mu_over_ef(t, FREE) for t in ts])
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
    u = internal_energy(1e-3)
    u_free = internal_energy(1e-3, FREE)
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
    c = default_constants()
    spec = GasSpec.from_fermi_energy(c.kB * 1e-3, 1.0, c)
    n00_cm3 = convert(density_zero_T(0.0, spec, c), "m^-3", "cm^-3")
    height_cm = convert(spec.eps_F / (c.m * c.g), "m", "cm")
    report = diluteness(density_zero_T(0.0, spec, c), 1e-3, c)
    sep_cm = convert(report.mean_separation, "m", "cm")
    lam_cm = convert(report.thermal_wavelength, "m", "cm")
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
    c = default_constants()
    spec = GasSpec.from_fermi_energy(c.kB * 1e-3, 1.0, c)
    worst = 0.0
    for t in (0.01, 0.1, 0.5, 1.0, 5.0):
        total = column_number(t, spec, c, density)
        worst = max(worst, abs(total / spec.N - 1.0))
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
    scales = derive_scales(default_constants())
    states = [eigen_state(n) for n in range(1, 11)]
    z_end = classical_turning_point(states[-1]) + 10.0 * scales.l_g
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
    slope = internal_energy(100.0) / 100.0
    fits = lambda target: abs(slope / target - 1.0) <= 0.005
    # (s+1) = Gamma(7/2)/Gamma(5/2): 3/2 kT kinetic plus kT potential energy
    quoted_out = not fits(3.5)
    ok = fits(2.5) and quoted_out
    _verdict("check 10b", ok, f"u/t at t = 100 is {slope:.6f} vs 5/2 {_quoted('7/2', quoted_out)}")


# ---- figure shape checks (stand-ins for pixel comparison) ----


def test_fig1_curve_properties():
    ts = np.geomspace(0.01, 2.0, 12)
    mu = [mu_over_ef(t) for t in ts]
    u = [internal_energy(t) for t in ts]
    mu_free = [mu_over_ef(t, FREE) for t in ts]
    u_free = [internal_energy(t, FREE) for t in ts]
    ok = (
        all(b < a for a, b in zip(mu, mu[1:]))
        and all(b > a for a, b in zip(u, u[1:]))
        and all(b < a for a, b in zip(mu_free, mu_free[1:]))
        and all(b > a for a, b in zip(u_free, u_free[1:]))
        and all(g < f for g, f in zip(mu, mu_free))
        and all(g > f for g, f in zip(u, u_free))
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
    c = default_constants()
    temps = np.geomspace(1e-6, 1e-1, 9)
    from ucngas import bottom_density_vs_fermi

    values = bottom_density_vs_fermi(temps, c)
    slopes = np.diff(np.log(values)) / np.diff(np.log(temps))
    ok = bool(np.all(np.abs(slopes - 1.5) <= 1e-9))
    _verdict("fig3", ok, f"log-log slope {slopes.mean():.12f} (target 3/2)")


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_tables(name, args, tmp_path):
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    produced = out.read_bytes()
    expected = (GOLDEN_DIR / name).read_bytes()
    ok = produced == expected
    _verdict(f"golden {name}", ok, f"{len(produced)} bytes, byte-identical to stored table")
