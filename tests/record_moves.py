"""Record the stage values a change moves in golden requests, into golden/moved.json.

Run it from the repository root on the change's working tree, with the
parent commit's source tree copied out beside it, then list the golden
tables the change regenerates:

    mkdir ../parent && git archive PARENT src | tar -x -C ../parent
    python tests/record_moves.py ../parent/src fig1.json fig1_parametric.json fig2.json

Each name is a golden table of test_acceptance.GOLDEN_CASES. The script
runs each request with the working tree's library and collects its stage
inputs: the t of every eta_from_t call (stage "eta_s"), the double
argument of every fermi_dirac call outside an eta solve (stage "F_j"), and
the Fermi temperatures of every bottom_density_vs_fermi call (stage "n0_K",
evaluated with the default constants, which every golden request uses).
It evaluates the distinct inputs of each stage with the parent's library,
in a child process, and with the working tree's, and writes every input
whose value moved as a row (input, before, after), replacing the previous
record. It then prints the regeneration rule's verdict on each stage (the
values moved, nearer / farther, worst and median error before -> after,
accepted or rejected), which
test_acceptance.test_golden_moves_follow_the_regeneration_rule asserts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _evaluate(inputs: dict[str, list[float]]) -> dict[str, list[float]]:
    # each stage at its inputs, with whichever ucngas this process imports
    import numpy as np
    from ucngas import bottom_density_vs_fermi, eta_from_t, fermi_dirac

    values = {}
    for stage, x in inputs.items():
        kind, order = stage.split("_")
        if kind == "F":
            values[stage] = fermi_dirac(float(order), np.array(x)).tolist()
        elif kind == "n0":
            values[stage] = bottom_density_vs_fermi(np.array(x)).tolist()
        else:
            values[stage] = eta_from_t(np.array(x), float(order)).tolist()
    return values


def _stage_inputs(requests: list[list[str]]) -> dict[str, list[float]]:
    # run every request with the stage functions wrapped wherever ucngas binds them
    import numpy as np
    import ucngas.cli
    from ucngas import TRAPPED, bottom_density_vs_fermi, eta_from_t, fermi_dirac
    from ucngas.constants import NEUTRON

    seen: dict[str, list] = {}
    in_solve = False  # an eta solve's own F_j calls belong to the eta stage

    def record(stage, x):
        seen.setdefault(stage, []).append(np.ravel(np.asarray(x, dtype=float)))

    def fermi_dirac_recorded(j, eta):
        if not in_solve:
            record(f"F_{float(j)}", eta)
        return fermi_dirac(j, eta)

    def eta_from_t_recorded(t, s=TRAPPED):
        nonlocal in_solve
        record(f"eta_{float(s)}", t)
        in_solve = True
        try:
            return eta_from_t(t, s)
        finally:
            in_solve = False

    def bottom_density_recorded(temps, constants=NEUTRON):
        record("n0_K", temps)
        return bottom_density_vs_fermi(temps, constants)

    wrappers = (
        (fermi_dirac, fermi_dirac_recorded),
        (eta_from_t, eta_from_t_recorded),
        (bottom_density_vs_fermi, bottom_density_recorded),
    )
    bindings = [
        (module, attr, original, wrapper)
        for name, module in list(sys.modules.items())
        if name == "ucngas" or name.startswith("ucngas.")
        for attr, value in vars(module).items()
        for original, wrapper in wrappers
        if value is original
    ]
    for module, attr, _, wrapper in bindings:
        setattr(module, attr, wrapper)
    try:
        for argv in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                if ucngas.cli.main(argv) != 0:
                    raise SystemExit(f"request {argv} failed")
    finally:
        for module, attr, original, _ in bindings:
            setattr(module, attr, original)
    return {stage: np.unique(np.concatenate(x)).tolist() for stage, x in sorted(seen.items())}


def _write(path: Path, goldens: list[str], moves: dict[str, list]) -> None:
    # one row per line, as the rule's test and a diff read best
    stages = ",\n".join(
        f"    {json.dumps(stage)}: [\n"
        + ",\n".join(f"      {json.dumps(row)}" for row in rows)
        + "\n    ]"
        for stage, rows in moves.items()
    )
    path.write_text(
        "{\n"
        f'  "goldens": {json.dumps(goldens)},\n'
        '  "columns": ["input", "before", "after"],\n'
        '  "moves": {\n' + stages + "\n  }\n}\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the parent commit's src directory")
    parser.add_argument("goldens", nargs="+", help="golden table names, e.g. fig2.json")
    args = parser.parse_args()
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    from oracles import judge_moves, move_accepted, move_summary
    from test_acceptance import GOLDEN_CASES

    cases = dict(GOLDEN_CASES)
    inputs = _stage_inputs([cases[name] for name in args.goldens])
    parent = subprocess.run(
        [sys.executable, "-c", "import json, sys, record_moves as r; "
         "json.dump(r._evaluate(json.load(sys.stdin)), sys.stdout)"],
        input=json.dumps(inputs), capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(args.parent_src.resolve()), str(TESTS)])},
    )
    before, after = json.loads(parent.stdout), _evaluate(inputs)
    moves = {}
    for stage, x in inputs.items():
        rows = [[v, b, a] for v, b, a in zip(x, before[stage], after[stage]) if b != a]
        if rows:
            moves[stage] = rows
        print(f"{stage}: {len(rows)} of {len(x)} distinct inputs moved")
    _write(TESTS / "golden" / "moved.json", args.goldens, moves)
    for stage, report in judge_moves(moves).items():
        verdict = "accepted" if move_accepted(report) else "rejected"
        print(f"{stage}: {move_summary(report)}: {verdict}")


if __name__ == "__main__":
    main()
