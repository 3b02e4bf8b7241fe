"""Regenerate the baseline table: one timing per layer and per subcommand.

    python3 perfbench/probe.py

Prints, for the checkout it runs in: ``import ucngas.cli`` in a fresh
interpreter (with its numpy/scipy/ucngas split), each subcommand end to
end at its default size in a fresh process, F_j per value at fixed eta for
each order, and one eta(t) solve at fixed t with the F_j values it needs.
Informational and not gated: the default fig2 alone takes about half a
minute. The last line is the same figures as one JSON object.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

from run import ROOT, child_env, spawn

sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

IMPORT_REPEATS = 3
SUBCOMMANDS = (
    ("report --efermi-k 1e-3", ["report", "--efermi-k", "1e-3"]),
    ("eigen --n-max 1000", ["eigen", "--n-max", "1000"]),
    ("fig1", ["fig1"]),
    ("fig1 --parametric", ["fig1", "--parametric"]),
    ("fig2", ["fig2"]),
    ("fig3", ["fig3"]),
)
FJ_ETAS = (-30.0, -1.0, 0.5, 10.0, 1.0e3, 9.0e3)
SOLVE_TS = (1.0e-4, 1.0e-2, 0.5, 10.0, 1.0e3)
FJ_REPEATS = 20
SOLVE_REPEATS = 5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    env = child_env()
    spawn(["-c", "import ucngas.cli"], env)  # warm __pycache__
    table: dict = {}
    table["import ucngas.cli"] = {
        "s": statistics.median(
            spawn(["-c", "import ucngas.cli"], env).wall for _ in range(IMPORT_REPEATS)
        ),
        **{f"{pkg}_s": v for pkg, v in tracing.import_profile(sys.executable, env, str(ROOT)).items()},
    }
    for label, argv in SUBCOMMANDS:
        res = spawn(["-m", "ucngas", *argv], env, argv)
        table[label] = {"s": res.wall, "rc": res.rc, "bytes": len(res.stdout.encode())}

    specfun = importlib.import_module("ucngas.specfun")
    thermo = importlib.import_module("ucngas.thermo")

    for j in specfun.FD_ORDERS:
        for eta in FJ_ETAS:
            per = _median_time(lambda: specfun.fermi_dirac(j, eta), FJ_REPEATS)
            table[f"F_{j}({eta:g})"] = {"us": per * 1e6}

    calls = [0]
    original = thermo.fermi_dirac

    def counting(j, eta):
        calls[0] += 1
        return original(j, eta)

    thermo.fermi_dirac = counting
    try:
        for t in SOLVE_TS:
            def solve():
                thermo.eta_from_t.cache_clear()
                thermo.eta_from_t(t)

            calls[0] = 0
            solve()
            per = _median_time(solve, SOLVE_REPEATS)
            table[f"eta({t:g})"] = {"ms": per * 1e3, "fj_values": calls[0] // (SOLVE_REPEATS + 1)}
    finally:
        thermo.fermi_dirac = original

    for label, row in table.items():
        cells = ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in row.items())
        print(f"{label:28s} {cells}")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
