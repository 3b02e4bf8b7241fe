"""Command line interface emitting deterministic CSV or JSON tables.

Subcommands: ``eigen`` (level table), ``fig1`` (thermodynamic sweep),
``fig2`` (density profiles), ``fig3`` (bottom density vs Fermi energy),
``report`` (worked numbers for one gas). Exit codes: 0 success, 1 usage
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .constants import (
    ELEMENTARY_CHARGE,
    PhysicalConstants,
    constants_from_config,
    default_constants,
)
from .density import (
    _tail_points,
    bottom_density_vs_fermi,
    density,
    density_ratio,
    diluteness,
    ratio_grid,
)
from .eigen import ZERO_INDEX_MAX, eigen_energy_asymptotic, eigen_energy_exact
from .errors import DomainError, NumericalError
from .thermo import (
    FREE,
    T_DIMLESS_MAX,
    T_DIMLESS_MIN,
    TRAPPED,
    eta_from_t,
    particle_number,
    thermo_point,
    thermo_point_from_eta,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# largest table one request may produce; fig2 is charged its worst case,
# a tail extension on every temperature
MAX_ROWS = 1_000_000

# the library works in SI; tables print levels and eps_F in peV, heights
# and lengths in cm, densities in cm^-3
_PEV_PER_J = 1.0 / (1.0e-12 * ELEMENTARY_CHARGE)
_CM_PER_M = 100.0
_M3_PER_CM3 = 1.0e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route everything through exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


def _steps(text: str) -> int:
    steps = int(text)
    if not 2 <= steps <= MAX_ROWS:
        raise argparse.ArgumentTypeError(f"must lie in 2..{MAX_ROWS}, got {steps}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucngas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, summary, table=True):
        # resolved per call, so a rebound cmd_* (a tracer, a test double) is the one run
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, help="flat key=value constants file")
        p.add_argument("--out", type=Path, help="output path (default: stdout)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    def t_sweep(p):
        p.add_argument("--t-min", type=float, default=0.01)
        p.add_argument("--t-max", type=float, default=2.0)
        p.add_argument("--t-steps", type=_steps, default=200, help="sweep point count")

    def paper_literal(p):
        p.add_argument(
            "--paper-literal",
            action="store_true",
            help="omit the spin factor 2 from absolute densities",
        )

    p = command("eigen", cmd_eigen, "vertical level table, exact vs asymptotic")
    p.add_argument("--n-max", type=int, default=10)

    p = command("fig1", cmd_fig1, "mu and U against t, with the free-gas baseline")
    t_sweep(p)
    p.add_argument(
        "--parametric",
        action="store_true",
        help="sweep the reduced chemical potential instead of inverting at every t",
    )

    p = command("fig2", cmd_fig2, "normalized density profiles n(t,z)/n(0,0)")
    t_sweep(p)
    p.add_argument("--z-steps", type=_steps, default=400, help="height grid point count")

    p = command("fig3", cmd_fig3, "zero-T bottom density against eps_F/k_B")
    p.add_argument("--efermi-min-k", type=float, default=1.0e-6)
    p.add_argument("--efermi-max-k", type=float, default=1.0e-1)
    p.add_argument("--t-steps", type=_steps, default=200, help="sweep point count")
    paper_literal(p)

    p = command("report", cmd_report, "worked numbers for one gas (always JSON)", table=False)
    p.add_argument("--efermi-k", type=float, required=True, help="Fermi energy eps_F / k_B (K)")
    p.add_argument("--t", type=float, default=1.0e-3, help="reduced temperature")
    paper_literal(p)

    return parser


def _check_window(lo: float, hi: float, flags: str) -> None:
    if not (0.0 < lo < hi < np.inf):
        raise _UsageError(f"need 0 < {flags} < inf, got {lo!r} and {hi!r}")


def _check_t_flag(flag: str, t: float) -> None:
    if not (T_DIMLESS_MIN <= t <= T_DIMLESS_MAX):
        raise _UsageError(f"{flag} must lie in [{T_DIMLESS_MIN}, {T_DIMLESS_MAX}], got {t!r}")


def _check_t_window(args) -> None:
    _check_window(args.t_min, args.t_max, "--t-min < --t-max")
    _check_t_flag("--t-min", args.t_min)
    _check_t_flag("--t-max", args.t_max)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.11e}"  # 12 significant digits


def _spin_scale(args) -> float:
    # the library counts both spin states; --paper-literal drops the factor 2,
    # and halving is exact in binary, so the output matches a 6 pi^2 hbar^3 normalization
    return 0.5 if args.paper_literal else 1.0


def _constants_meta(c: PhysicalConstants) -> dict:
    return {"m_kg": c.m, "g_mps2": c.g, "hbar_Js": c.hbar, "kB_JpK": c.kB, "h_Js": c.h}


def _render_table(fmt: str, meta: dict, columns: list[str], rows: list[tuple]) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {
        "meta": dict(meta, columns=columns, format=fmt),
        "rows": [list(row) for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_eigen(args, constants: PhysicalConstants) -> tuple[dict, list[str], list[tuple]]:
    """Rows (n_z, exact and asymptotic level in peV, relative error)."""
    n_max = args.n_max
    if not (1 <= n_max <= ZERO_INDEX_MAX):
        raise _UsageError(f"--n-max must lie in 1..{ZERO_INDEX_MAX}, got {n_max}")
    columns = ["n_z", "E_exact_peV", "E_asymptotic_peV", "rel_error"]
    rows = []
    for n in range(1, n_max + 1):
        exact = eigen_energy_exact(n, constants)
        asym = eigen_energy_asymptotic(n, constants)
        rows.append((n, exact * _PEV_PER_J, asym * _PEV_PER_J, abs(asym - exact) / exact))
    return {"n_max": n_max}, columns, rows


def cmd_fig1(args, constants: PhysicalConstants) -> tuple[dict, list[str], list[tuple]]:
    """Chemical potential and internal energy sweep with free-gas columns."""
    _check_t_window(args)
    columns = ["t", "mu_over_ef", "u_over_nef", "mu_free_over_ef", "u_free_over_nef"]
    if args.parametric:
        eta_hi = eta_from_t(args.t_min, TRAPPED)
        eta_lo = eta_from_t(args.t_max, TRAPPED)
        gas = thermo_point_from_eta(np.linspace(eta_hi, eta_lo, args.t_steps))
    else:
        gas = thermo_point(np.geomspace(args.t_min, args.t_max, args.t_steps))
    # the eta -> t round trip can overshoot the solver's range by a rounding error
    t = np.clip(gas.t, T_DIMLESS_MIN, T_DIMLESS_MAX)
    free = thermo_point(t, FREE)
    columns_data = (t, gas.mu_over_ef, gas.u_over_nef, free.mu_over_ef, free.u_over_nef)
    rows = np.column_stack(columns_data).tolist()
    grid = {name: getattr(args, name) for name in ("t_min", "t_max", "t_steps", "parametric")}
    return grid, columns, rows


def cmd_fig2(args, constants: PhysicalConstants) -> tuple[dict, list[str], list[tuple]]:
    """Long-format table of n(t,z)/n(0,0) over a t grid and a height grid."""
    _check_t_window(args)
    n_rows = args.t_steps * (args.z_steps + _tail_points(args.z_steps))
    if n_rows > MAX_ROWS:
        raise _UsageError(f"--t-steps and --z-steps ask for {n_rows} rows, more than {MAX_ROWS}")
    columns = ["t", "mgz_over_ef", "n_over_n00"]
    rows = []
    for t in np.geomspace(args.t_min, args.t_max, args.t_steps).tolist():
        x = ratio_grid(t, args.z_steps)
        rows.extend(zip([t] * x.size, x.tolist(), density_ratio(t, x).tolist()))
    grid = {name: getattr(args, name) for name in ("t_min", "t_max", "t_steps", "z_steps")}
    return grid, columns, rows


def cmd_fig3(args, constants: PhysicalConstants) -> tuple[dict, list[str], list[tuple]]:
    """Zero-T bottom density (cm^-3) against eps_F/k_B (K), log-spaced."""
    _check_window(args.efermi_min_k, args.efermi_max_k, "--efermi-min-k < --efermi-max-k")
    columns = ["efermi_K", "n0_cm3"]
    temps = np.geomspace(args.efermi_min_k, args.efermi_max_k, args.t_steps)
    try:
        values = bottom_density_vs_fermi(temps, constants) * _spin_scale(args)
    except DomainError as exc:  # the window is positive and finite, so this is overflow
        raise _UsageError(f"--efermi-max-k is too large: {exc}") from exc
    rows = list(zip(temps.tolist(), (values * _M3_PER_CM3).tolist()))
    grid = {
        "efermi_min_K": args.efermi_min_k,
        "efermi_max_K": args.efermi_max_k,
        "steps": args.t_steps,
    }
    return grid, columns, rows


def cmd_report(args, constants: PhysicalConstants) -> dict:
    """Worked numbers for a gas with the given Fermi energy (as a temperature).

    The diluteness comparison evaluates the thermal wavelength at the
    Fermi temperature, which is the degeneracy-onset scale; the actual
    temperature t * eps_F / k_B is reported alongside.
    """
    efermi_K, t, c = args.efermi_k, args.t, constants
    if not (np.isfinite(efermi_K) and efermi_K > 0.0):
        raise _UsageError(f"--efermi-k must be positive, got {efermi_K!r}")
    _check_t_flag("--t", t)
    eps_F = efermi_K * c.kB
    try:
        particle_number(eps_F, c)
    except DomainError as exc:  # the flag is positive and finite, so N over- or underflowed
        raise _UsageError(f"--efermi-k {efermi_K!r} is out of range: {exc}") from exc
    n0 = density(t, 0.0, eps_F, c) * _spin_scale(args)
    dil = diluteness(n0, efermi_K, c)
    summary = {
        "efermi_K": efermi_K,
        "efermi_J": eps_F,
        "efermi_peV": eps_F * _PEV_PER_J,
        "t": t,
        "temperature_K": t * efermi_K,
        "eta": eta_from_t(t, TRAPPED),
        "column_height_m": eps_F / (c.m * c.g),
        "column_height_cm": eps_F / (c.m * c.g) * _CM_PER_M,
        "bottom_density_m3": n0,
        "bottom_density_cm3": n0 * _M3_PER_CM3,
        "mean_separation_cm": dil.mean_separation * _CM_PER_M,
        "thermal_wavelength_cm": dil.thermal_wavelength * _CM_PER_M,
        "degenerate": dil.degenerate,
        "paper_literal": args.paper_literal,
    }
    return {"meta": {"command": "report", "constants": _constants_meta(c)}, "summary": summary}


def _load_constants(config_path: Path | None) -> PhysicalConstants:
    if config_path is None:
        return default_constants()
    try:
        return constants_from_config(config_path.read_text())
    except (OSError, DomainError) as exc:
        raise _UsageError(f"config {config_path}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        constants = _load_constants(args.config)
        result = args.run(args, constants)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if "format" in args:
        grid, columns, rows = result
        meta = {"command": args.command, "constants": _constants_meta(constants), "grid": grid}
        if "paper_literal" in args:
            meta["paper_literal"] = args.paper_literal
        text = _render_table(args.format, meta, columns, rows)
    else:  # report, always JSON
        text = json.dumps(result, indent=2, sort_keys=True) + "\n"

    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK
