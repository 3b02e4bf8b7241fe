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
    _CONFIG_KEYS,
    ELEMENTARY_CHARGE,
    NEUTRON,
    PhysicalConstants,
    constants_from_config,
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


def _within(kind, lo, hi, domain=None):
    # a flag's type checks its domain, and argparse prefixes "argument --FLAG: "
    domain = domain or f"lie in [{lo}, {hi}]"

    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:  # NaN fails the comparison
            raise argparse.ArgumentTypeError(f"must {domain}, got {value!r}")
        return value

    parse.__name__ = kind.__name__  # a malformed value reads "invalid float value: ..."
    return parse


def _config(text: str) -> PhysicalConstants:
    try:
        return constants_from_config(Path(text).read_text())
    except (OSError, UnicodeDecodeError, DomainError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's own text repeats the path
        raise argparse.ArgumentTypeError(f"{text}: {reason}") from exc


def _out(text: str) -> Path:
    # refused before any compute: a directory, or a file in a missing directory
    path = Path(text)
    if path.is_dir() or not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{text}: must name a file in an existing directory")
    return path


_steps = _within(int, 2, MAX_ROWS)
_t = _within(float, T_DIMLESS_MIN, T_DIMLESS_MAX)
# the smallest and the largest positive finite double
_positive = _within(float, 5e-324, sys.float_info.max, "be positive and finite")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucngas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, summary, table=True):
        # resolved per call, so a rebound cmd_* (a tracer, a test double) is the one run
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument(
            "--config",
            type=_config,
            dest="constants",
            default=NEUTRON,
            metavar="FILE",
            help="flat key=value constants file",
        )
        p.add_argument("--out", type=_out, help="output path (default: stdout)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    def t_sweep(p):
        p.add_argument("--t-min", type=_t, default=0.01)
        p.add_argument("--t-max", type=_t, default=2.0)
        p.add_argument("--t-steps", type=_steps, default=200, help="sweep point count")

    def paper_literal(p):
        p.add_argument(
            "--paper-literal",
            action="store_true",
            help="omit the spin factor 2 from absolute densities",
        )

    p = command("eigen", cmd_eigen, "vertical level table, exact vs asymptotic")
    p.add_argument("--n-max", type=_within(int, 1, ZERO_INDEX_MAX), default=10)

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
    p.add_argument("--efermi-min-k", type=_positive, default=1.0e-6)
    p.add_argument("--efermi-max-k", type=_positive, default=1.0e-1)
    p.add_argument("--t-steps", type=_steps, default=200, help="sweep point count")
    paper_literal(p)

    p = command("report", cmd_report, "worked numbers for one gas (always JSON)", table=False)
    p.add_argument("--efermi-k", type=_positive, required=True, help="Fermi energy eps_F / k_B (K)")
    p.add_argument("--t", type=_t, default=1.0e-3, help="reduced temperature")
    paper_literal(p)

    return parser


def _check_window(lo: float, hi: float, flags: str) -> None:
    if not lo < hi:
        raise _UsageError(f"need {flags}, got {lo!r} and {hi!r}")


def _spin_scale(args) -> float:
    # the library counts both spin states; --paper-literal drops the factor 2,
    # and halving is exact in binary, so the output matches a 6 pi^2 hbar^3 normalization
    return 0.5 if args.paper_literal else 1.0


def _constants_meta(c: PhysicalConstants) -> dict:
    return {**{key: getattr(c, name) for key, name in _CONFIG_KEYS.items()}, "h_Js": c.h}


def _render_table(fmt: str, meta: dict, columns: dict[str, np.ndarray]) -> str:
    # a row per index; CSV prints an integer column with %d, any other to 12 digits
    rows = zip(*(column.tolist() for column in columns.values()))
    if fmt == "csv":
        cells = ("%d" if c.dtype.kind == "i" else "%.11e" for c in columns.values())
        row_format = ",".join(cells) + "\n"
        return ",".join(columns) + "\n" + "".join(row_format % row for row in rows)
    payload = {"meta": dict(meta, columns=list(columns), format=fmt), "rows": list(rows)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_eigen(args) -> tuple[dict, dict[str, np.ndarray]]:
    """Columns n_z, exact and asymptotic level in peV, relative error."""
    n = np.arange(1, args.n_max + 1)
    exact = np.array([eigen_energy_exact(k, args.constants) for k in n.tolist()])
    asym = np.array([eigen_energy_asymptotic(k, args.constants) for k in n.tolist()])
    columns = {
        "n_z": n,
        "E_exact_peV": exact * _PEV_PER_J,
        "E_asymptotic_peV": asym * _PEV_PER_J,
        "rel_error": np.abs(asym - exact) / exact,
    }
    return {"n_max": args.n_max}, columns


def cmd_fig1(args) -> tuple[dict, dict[str, np.ndarray]]:
    """Chemical potential and internal energy sweep with free-gas columns."""
    _check_window(args.t_min, args.t_max, "--t-min < --t-max")
    if args.parametric:
        eta_hi, eta_lo = eta_from_t(np.array([args.t_min, args.t_max]), TRAPPED)
        gas = thermo_point_from_eta(np.linspace(eta_hi, eta_lo, args.t_steps))
    else:
        gas = thermo_point(np.geomspace(args.t_min, args.t_max, args.t_steps))
    # the eta -> t round trip can overshoot the solver's range by a rounding error
    t = np.clip(gas.t, T_DIMLESS_MIN, T_DIMLESS_MAX)
    free = thermo_point(t, FREE)
    columns = {
        "t": t,
        "mu_over_ef": gas.mu_over_ef,
        "u_over_nef": gas.u_over_nef,
        "mu_free_over_ef": free.mu_over_ef,
        "u_free_over_nef": free.u_over_nef,
    }
    grid = {name: getattr(args, name) for name in ("t_min", "t_max", "t_steps", "parametric")}
    return grid, columns


def cmd_fig2(args) -> tuple[dict, dict[str, np.ndarray]]:
    """Long-format table of n(t,z)/n(0,0) over a t grid and a height grid."""
    _check_window(args.t_min, args.t_max, "--t-min < --t-max")
    n_rows = args.t_steps * (args.z_steps + _tail_points(args.z_steps))
    if n_rows > MAX_ROWS:
        raise _UsageError(f"--t-steps and --z-steps ask for {n_rows} rows, more than {MAX_ROWS}")
    temps = np.geomspace(args.t_min, args.t_max, args.t_steps)
    heights = [ratio_grid(t_k, args.z_steps) for t_k in temps.tolist()]
    t = np.repeat(temps, [x_k.size for x_k in heights])
    x = np.concatenate(heights)
    grid = {name: getattr(args, name) for name in ("t_min", "t_max", "t_steps", "z_steps")}
    return grid, {"t": t, "mgz_over_ef": x, "n_over_n00": density_ratio(t, x)}


def cmd_fig3(args) -> tuple[dict, dict[str, np.ndarray]]:
    """Zero-T bottom density (cm^-3) against eps_F/k_B (K), log-spaced."""
    _check_window(args.efermi_min_k, args.efermi_max_k, "--efermi-min-k < --efermi-max-k")
    with np.errstate(over="ignore"):  # near the double range; geomspace sets both ends exactly
        temps = np.geomspace(args.efermi_min_k, args.efermi_max_k, args.t_steps)
    try:
        values = bottom_density_vs_fermi(temps, args.constants) * _spin_scale(args)
    except DomainError as exc:  # the window is positive and finite, so this is overflow
        raise _UsageError(f"--efermi-max-k is too large: {exc}") from exc
    grid = {
        "efermi_min_K": args.efermi_min_k,
        "efermi_max_K": args.efermi_max_k,
        "steps": args.t_steps,
    }
    return grid, {"efermi_K": temps, "n0_cm3": values * _M3_PER_CM3}


def cmd_report(args) -> dict:
    """Worked numbers for a gas with the given Fermi energy (as a temperature).

    The diluteness comparison evaluates the thermal wavelength at the
    Fermi temperature, which is the degeneracy-onset scale; the actual
    temperature t * eps_F / k_B is reported alongside.
    """
    efermi_K, t, c = args.efermi_k, args.t, args.constants
    eps_F = efermi_K * c.kB
    try:
        particle_number(eps_F, c)
    except DomainError as exc:  # the flag is positive and finite, so N over- or underflowed
        raise _UsageError(f"--efermi-k {efermi_K!r} is out of range: {exc}") from exc
    n0 = density(t, 0.0, eps_F, c) * _spin_scale(args)
    dil = diluteness(n0, efermi_K, c)
    return {
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    meta = {"command": args.command, "constants": _constants_meta(args.constants)}
    if "format" in args:
        grid, columns = result
        meta["grid"] = grid
        if "paper_literal" in args:
            meta["paper_literal"] = args.paper_literal
        text = _render_table(args.format, meta, columns)
    else:  # report, always JSON
        text = json.dumps({"meta": meta, "summary": result}, indent=2, sort_keys=True) + "\n"

    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            args.out.write_text(text, newline="")
        except OSError as exc:
            print(f"usage error: argument --out: {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK
