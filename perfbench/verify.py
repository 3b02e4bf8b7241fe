"""Check a request's output: structure on every output, an oracle on a sample.

Structure: the exit code, the row count implied by argv, and finite values.
Oracle: a seeded sample of rows is recomputed with mpmath at 30 digits,
independently of the package:

    F_j(eta) = -Gamma(j+1) Li_{j+1}(-e^eta)
    eta(t)   from (5/2) F_{3/2}(eta) = t^{-5/2}  (trapped gas)
              and (3/2) F_{1/2}(eta) = t^{-3/2}  (free gas), by Newton's method
    a_n      = airyaizero(n)

and must agree with the output to the package's documented 1e-10 relative
accuracy. CSV prints 12 significant digits, so for CSV the tolerance also
allows for that rounding, of the printed value and, through the value's
derivative, of the printed t and x it was computed from. Values that
cross zero (mu/eps_F, eta) and the eigen rel_error column (a difference of
two 1e-10 quantities) are judged against a floor instead of their own size.

Outputs are never compared byte for byte: a more accurate engine may move
the last digits.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp

from workloads import fig2_rows_per_t, geom

REL_TOL = 1.0e-10
PRINT_REL = 5.0e-12  # half a unit in the 12th significant digit
DPS = 30
SAMPLE_ROWS = 2

# package defaults (CODATA 2018 neutron mass, standard gravity, exact SI)
DEFAULT_CONSTANTS = {
    "m_kg": 1.67492749804e-27,
    "g_mps2": 9.80665,
    "hbar_Js": 1.054571817e-34,
    "kB_JpK": 1.380649e-23,
}
ELEMENTARY_CHARGE = 1.602176634e-19
_DEFAULTS = {
    "format": "csv",
    "t-min": 0.01,
    "t-max": 2.0,
    "t-steps": 200,
    "z-steps": 400,
    "efermi-min-k": 1.0e-6,
    "efermi-max-k": 1.0e-1,
    "n-max": 10,
    "t": 1.0e-3,
}
_FLAGS = ("parametric", "paper-literal")


class Mismatch(Exception):
    """The output disagrees with what the request implies."""


def parse_argv(argv: list[str]) -> dict:
    opts = dict(_DEFAULTS, command=argv[0], parametric=False, **{"paper-literal": False})
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if key in _FLAGS:
            opts[key] = True
            i += 1
        else:
            opts[key] = argv[i + 1]
            i += 2
    for key in ("t-min", "t-max", "efermi-min-k", "efermi-max-k", "t", "efermi-k"):
        if key in opts:
            opts[key] = float(opts[key])
    for key in ("t-steps", "z-steps", "n-max"):
        opts[key] = int(opts[key])
    return opts


def read_constants(config_text: str | None) -> dict:
    consts = dict(DEFAULT_CONSTANTS)
    for raw in (config_text or "").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = (part.strip() for part in line.partition("="))
            consts[key] = float(value)
    return consts


# ---- oracle ----


def fd(j, eta):
    """F_j(eta) at the working precision (j > -1)."""
    j = mp.mpf(j)
    return mp.re(-mp.gamma(j + 1) * mp.polylog(j + 1, -mp.exp(eta)))


def _fd_fp(j: float, eta: float) -> float:
    return (-mp.fp.gamma(j + 1) * mp.fp.polylog(j + 1, -math.exp(eta))).real


class Oracle:
    """Reference values at 30 digits, with eta(t) solves cached by (t, gas)."""

    def __init__(self):
        self._eta: dict[tuple[float, float], tuple] = {}

    def eta(self, t: float, p: float):
        """Root of p F_{p-1}(eta) = t^-p, with F_{p-1} and F_{p-2} there.

        p = 5/2 is the trapped gas, p = 3/2 the free gas. The left side is
        convex and increasing in eta and exceeds t^-p at eta = 1/t, so
        Newton's method started at or right of the root decreases to it.
        """
        key = (t, p)
        if key not in self._eta:
            self._eta[key] = self._solve(t, p)
        return self._eta[key]

    def _solve(self, t: float, p: float):
        j = p - 1.0
        if 1.0 / t < 600.0:
            # float Newton from 1/t, then polish at full precision
            eta, target = 1.0 / t, t**-p
            for _ in range(200):
                step = (p * _fd_fp(j, eta) - target) / (p * j * _fd_fp(j - 1.0, eta))
                eta -= step
                if abs(step) < 1e-13 * max(1.0, abs(eta)):
                    break
        else:
            # deeply degenerate: the root sits about t below 1/t, where e^eta
            # overflows a float, so Newton starts at full precision from 1/t
            eta = 1.0 / t
        with mp.workdps(DPS):
            t_mp, eta = mp.mpf(t), mp.mpf(eta)
            target = t_mp ** (-p)
            for _ in range(60):
                f1, f2 = fd(j, eta), fd(j - 1.0, eta)
                step = (p * f1 - target) / (p * j * f2)
                eta -= step
                if abs(step) < mp.mpf(10) ** (3 - DPS) * max(1, abs(eta)):
                    return eta, f1, f2
        raise Mismatch(f"oracle eta solve did not converge at t={t!r}")


def _agree(got: float, want, *, floor=0.0, slack=0.0) -> float:
    """Relative error of ``got``; raises Mismatch past the tolerance."""
    scale = max(abs(float(want)), floor)
    err = abs(got - float(want)) / scale
    if not err <= REL_TOL + slack / scale:
        raise Mismatch(f"value {got!r} vs oracle {mp.nstr(want, 17)} (rel err {err:.2e})")
    return err


# ---- structure ----


def _table(opts: dict, text: str) -> tuple[list[str], list[list[float]]]:
    if opts["format"] == "json":
        payload = json.loads(text)
        return payload["meta"]["columns"], [[float(v) for v in row] for row in payload["rows"]]
    lines = text.splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_grid(values: list[float], lo: float, hi: float, n: int, name: str) -> None:
    if len(values) != n:
        raise Mismatch(f"{len(values)} distinct {name} values, argv implies {n}")
    for got, want in zip(values, geom(lo, hi, n)):
        if abs(got - want) > 1e-10 * want:
            raise Mismatch(f"{name} grid value {got!r}, argv implies {want!r}")


COLUMNS = {
    "eigen": ["n_z", "E_exact_peV", "E_asymptotic_peV", "rel_error"],
    "fig1": ["t", "mu_over_ef", "u_over_nef", "mu_free_over_ef", "u_free_over_nef"],
    "fig2": ["t", "mgz_over_ef", "n_over_n00"],
    "fig3": ["efermi_K", "n0_cm3"],
}


def _check_shape(command: str, columns: list[str], rows) -> None:
    if columns != COLUMNS[command]:
        raise Mismatch(f"columns {columns}, expected {COLUMNS[command]}")
    for row in rows:
        if len(row) != len(columns):
            raise Mismatch(f"row {row} does not have {len(columns)} values")
        if not all(math.isfinite(v) for v in row):
            raise Mismatch(f"non-finite value in row {row}")


class Verifier:
    """Checks outputs; remembers the worst F_j-derived error in full-precision (JSON) output."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"verify:{seed}")
        self.oracle = Oracle()
        self.fj_max_rel_err = 0.0
        self.oracle_values = 0

    def check(self, argv: list[str], text: str, config_text: str | None, oracle: bool) -> None:
        """Raise Mismatch unless ``text`` is a valid output for ``argv``."""
        opts = parse_argv(argv)
        consts = read_constants(config_text if "config" in opts else None)
        try:
            if opts["command"] == "report":
                self._report(opts, json.loads(text)["summary"], consts, oracle)
                return
            columns, rows = _table(opts, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise Mismatch(f"unparseable output: {exc!r}") from None
        _check_shape(opts["command"], columns, rows)
        getattr(self, "_" + opts["command"])(opts, rows, consts, oracle)

    def _sample(self, rows):
        return self.rng.sample(rows, min(SAMPLE_ROWS, len(rows)))

    def _fj(self, got, want, csv: bool, **kw) -> None:
        err = _agree(got, want, **kw)
        if not csv:  # CSV rounding would swamp the engine's own error
            self.fj_max_rel_err = max(self.fj_max_rel_err, err)
        self.oracle_values += 1

    def _eigen(self, opts, rows, consts, oracle) -> None:
        n_max = opts["n-max"]
        if [int(r[0]) for r in rows] != list(range(1, n_max + 1)):
            raise Mismatch(f"eigen rows are not n = 1..{n_max}")
        if not oracle:
            return
        csv = opts["format"] == "csv"
        with mp.workdps(DPS):
            m, g, hbar = (mp.mpf(consts[k]) for k in ("m_kg", "g_mps2", "hbar_Js"))
            e_g = m * g * (hbar**2 / (2 * m**2 * g)) ** (mp.mpf(1) / 3)
            peV = mp.mpf("1e-12") * mp.mpf(ELEMENTARY_CHARGE)
            for row in self._sample(rows):
                n = int(row[0])
                exact = e_g * abs(mp.airyaizero(n)) / peV
                asym = e_g * (3 * mp.pi * (4 * n - 1) / 8) ** (mp.mpf(2) / 3) / peV
                rel = abs(asym - exact) / exact
                for got, want, floor in ((row[1], exact, 0), (row[2], asym, 0), (row[3], rel, 2)):
                    _agree(got, want, floor=floor, slack=PRINT_REL * abs(got) if csv else 0.0)
                    self.oracle_values += 1

    def _fig1(self, opts, rows, consts, oracle) -> None:
        if len(rows) != opts["t-steps"]:
            raise Mismatch(f"{len(rows)} rows, argv implies {opts['t-steps']}")
        if not opts["parametric"]:
            _check_grid([r[0] for r in rows], opts["t-min"], opts["t-max"], opts["t-steps"], "t")
        if not oracle:
            return
        csv = opts["format"] == "csv"
        with mp.workdps(DPS):
            for row in self._sample(rows):
                t = row[0]
                tm = mp.mpf(t)
                eta, f32, f12 = self.oracle.eta(t, 2.5)
                etaf, f12f, fm12f = self.oracle.eta(t, 1.5)
                # d eta/dt from differentiating the number equations
                deta = -(tm**-3.5) / (mp.mpf(1.5) * f12)
                detaf = -2 * tm**-2.5 / fm12f
                f52, f32f = fd(2.5, eta), fd(1.5, etaf)
                expected = (  # (value, its derivative in t, floor)
                    (tm * eta, eta + tm * deta, t),
                    (2.5 * tm**3.5 * f52, 2.5 * (3.5 * tm**2.5 * f52 + 2.5 * tm**3.5 * f32 * deta), 0),
                    (tm * etaf, etaf + tm * detaf, t),
                    (1.5 * tm**2.5 * f32f, 1.5 * (2.5 * tm**1.5 * f32f + 1.5 * tm**2.5 * f12f * detaf), 0),
                )
                for got, (want, dwant_dt, floor) in zip(row[1:], expected):
                    slack = PRINT_REL * (abs(got) + abs(t * float(dwant_dt))) if csv else 0.0
                    self._fj(got, want, csv, floor=floor, slack=slack)

    def _fig2(self, opts, rows, consts, oracle) -> None:
        counts: dict[float, int] = {}
        for row in rows:
            counts[row[0]] = counts.get(row[0], 0) + 1
        ts = sorted(counts)
        _check_grid(ts, opts["t-min"], opts["t-max"], opts["t-steps"], "t")
        for t in ts:
            if counts[t] != fig2_rows_per_t(t, opts["z-steps"]):
                raise Mismatch(f"{counts[t]} rows at t={t!r}, argv implies "
                               f"{fig2_rows_per_t(t, opts['z-steps'])}")
        if not oracle:
            return
        csv = opts["format"] == "csv"
        t_pick = self.rng.choice(ts)
        with mp.workdps(DPS):
            eta, _, f12 = self.oracle.eta(t_pick, 2.5)
            tm = mp.mpf(t_pick)
            deta = -(tm**-3.5) / (mp.mpf(1.5) * f12)
            for row in self._sample([r for r in rows if r[0] == t_pick]):
                x = mp.mpf(row[1])
                a = eta - x / tm
                fa, fma = fd(0.5, a), fd(-0.5, a)
                want = mp.mpf(1.5) * tm**1.5 * fa
                dr_dt = 2.25 * tm**0.5 * fa + 0.75 * tm**1.5 * fma * (deta + x / tm**2)
                dr_dx = -0.75 * tm**0.5 * fma
                slack = 0.0
                if csv:
                    slack = PRINT_REL * (abs(row[2]) + float(abs(tm * dr_dt) + abs(x * dr_dx)))
                self._fj(row[2], want, csv, slack=slack)

    def _fig3(self, opts, rows, consts, oracle) -> None:
        _check_grid([r[0] for r in rows], opts["efermi-min-k"], opts["efermi-max-k"],
                    opts["t-steps"], "efermi_K")
        if not oracle:
            return
        csv = opts["format"] == "csv"
        coeff = 6 if opts["paper-literal"] else 3
        with mp.workdps(DPS):
            m, kB, hbar = (mp.mpf(consts[k]) for k in ("m_kg", "kB_JpK", "hbar_Js"))
            for row in self._sample(rows):
                want = (2 * m * kB * mp.mpf(row[0])) ** 1.5 / (coeff * mp.pi**2 * hbar**3) / 10**6
                _agree(row[1], want, slack=2.5 * PRINT_REL * abs(row[1]) if csv else 0.0)
                self.oracle_values += 1

    def _report(self, opts, summary, consts, oracle) -> None:
        numbers = [v for v in summary.values() if isinstance(v, (int, float))]
        if not all(math.isfinite(float(v)) for v in numbers):
            raise Mismatch("non-finite value in report")
        if not oracle:
            return
        t, ef_K = opts["t"], opts["efermi-k"]
        with mp.workdps(DPS):
            m, g, kB, hbar = (mp.mpf(consts[k]) for k in ("m_kg", "g_mps2", "kB_JpK", "hbar_Js"))
            eta, _, f12 = self.oracle.eta(t, 2.5)
            ef = mp.mpf(ef_K) * kB
            n0 = (2 * m * mp.mpf(t) * ef) ** 1.5 / (2 * mp.pi**2 * hbar**3) * f12
            if opts["paper-literal"]:
                n0 /= 2
            wavelength = 2 * mp.pi * hbar / mp.sqrt(3 * m * kB * mp.mpf(ef_K))
            self._fj(summary["eta"], eta, False, floor=1.0)
            self._fj(summary["bottom_density_m3"], n0, False)
            for key, want in (
                ("efermi_J", ef),
                ("temperature_K", mp.mpf(t) * mp.mpf(ef_K)),
                ("column_height_m", ef / (m * g)),
                ("mean_separation_cm", 100 * n0 ** (-mp.mpf(1) / 3)),
                ("thermal_wavelength_cm", 100 * wavelength),
            ):
                _agree(summary[key], want)
                self.oracle_values += 1
            if summary["degenerate"] != bool(n0 ** (-mp.mpf(1) / 3) <= wavelength):
                raise Mismatch("report degenerate flag disagrees with its own lengths")
