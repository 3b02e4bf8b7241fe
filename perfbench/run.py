"""Benchmark of the ucngas command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2_profiles --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload, one table

``--trace 0`` sends the workload's seeded requests one at a time to fresh
``python -m ucngas ...`` processes (closed loop, one client), repeating the
seeded pass of requests for ``--seconds``, and reports the end-to-end
metrics: ``setup_s``, the median time for a fresh interpreter to import
``ucngas.cli``; ``wall_s``, the mean time of a pass; ``request_p50_s``,
the median time of a request; and ``peak_rss_mb``, the largest max-RSS of
a request process. ``--trace 1`` runs the same requests in this process
with spans around each layer (see tracing.py) and reports the per-layer
metrics. Outputs are verified (see verify.py) after the timed window; a
request that exits non-zero or fails verification counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details: the request list, sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = "perfbench/_work"  # relative to ROOT; holds generated configs and spans
WORKLOADS = ("fig2_profiles", "fig1_thermo", "cli_startup")
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 60.0
# one BLAS/OpenMP thread per process: the benchmark runs one request at a time
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import verify  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Result:
    """One finished process: the request it ran, its exit code, time and output."""

    __slots__ = ("argv", "rc", "wall", "maxrss_kb", "stdout", "stderr")

    def __init__(self, argv, rc, wall, maxrss_kb, stdout, stderr):
        self.argv, self.rc, self.wall = argv, rc, wall
        self.maxrss_kb, self.stdout, self.stderr = maxrss_kb, stdout, stderr


def spawn(args: list[str], env: dict, argv: list[str] | None = None) -> Result:
    """Run ``python args`` to exit with all output read; time it, take its rusage.

    ``argv`` is the ucngas request the process serves, kept for verification.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()  # errors are short; stdout is drained first
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(argv, proc.returncode, wall, usage.ru_maxrss, out.decode(), err.decode())


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
    }


def _prepare(name: str, seed: int):
    """The workload's seeded pass, its files written, and an untimed warm-up sent."""
    plan = workloads.plan(name, seed, WORKDIR)
    (ROOT / WORKDIR).mkdir(parents=True, exist_ok=True)
    for rel, text in plan.files.items():
        (ROOT / rel).write_text(text)
    env = child_env()
    spawn(["-m", "ucngas", *workloads.WARMUP], env)
    return plan, env


def verify_results(results: list[Result], plan, seed: int) -> tuple[int, bool, verify.Verifier]:
    """Count failed requests. The oracle samples each distinct request once."""
    checker = verify.Verifier(seed)
    failed, correct = 0, True
    seen = set()
    for res in results:
        if res.rc != 0:
            failed += 1
            continue
        key = tuple(res.argv)
        config = next((plan.files[a] for a in res.argv if a in plan.files), None)
        try:
            checker.check(res.argv, res.stdout, config, oracle=key not in seen)
        except verify.Mismatch as exc:
            print(f"request {res.argv} failed verification: {exc}", file=sys.stderr)
            failed += 1
            correct = False
        seen.add(key)
    return failed, correct, checker


def run_e2e(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    plan, env = _prepare(name, seed)

    # set-up (a fresh interpreter importing ucngas.cli) is timed once before
    # each pass, so its samples spread over the run like the passes do
    setups: list[Result] = []
    results: list[Result] = []
    pass_walls: list[float] = []
    t0 = perf_counter()
    while True:
        setups.append(spawn(["-c", "import ucngas.cli"], env))
        start = perf_counter()
        for argv in plan.requests:
            results.append(spawn(["-m", "ucngas", *argv], env, argv))
        pass_walls.append(perf_counter() - start)
        # start another pass only if it should end within the measuring time
        if perf_counter() - t0 + pass_walls[-1] > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(spawn(["-c", "import ucngas.cli"], env))
    if any(r.rc != 0 for r in setups):
        raise RuntimeError(f"import ucngas.cli failed: {setups[0].stderr.strip()}")

    failed, correct, checker = verify_results(results, plan, seed)
    walls = [r.wall for r in results]
    metrics = {
        "setup_s": (statistics.median(r.wall for r in setups), "s"),
        # the mean, not the median, of the few passes a run holds: the host's
        # slowdowns come in bursts, and the mean uses every pass
        "wall_s": (statistics.mean(pass_walls), "s"),
        "request_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024.0, "MB"),
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "requests": plan.requests,
        "files": plan.files,
        "samples": {
            "setup_s": len(setups),
            "wall_s": len(pass_walls),
            "request_p50_s": len(walls),
            "peak_rss_mb": len(results),
        },
        "pass_walls_s": pass_walls,
        "request_walls_s": walls,
        "oracle_values": checker.oracle_values,
        "failures": [{"argv": r.argv, "rc": r.rc, "stderr": r.stderr.strip()[-300:]}
                     for r in results[: len(plan.requests)] if r.rc != 0],
        "environment": environment(),
    }
    result = {
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    plan, env = _prepare(name, seed)
    imports = tracing.import_profile(sys.executable, env, str(ROOT))
    checker = verify.Verifier(seed)
    spans_path = ROOT / WORKDIR / f"spans-{name}-{seed}.jsonl"
    out = tracing.run(plan, seconds, checker, spans_path)
    metrics = tracing.layer_metrics(
        out["acc"], out["passes"], imports, out["coverage"], out["overhead"], checker.fj_max_rel_err
    )
    details = {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "requests": plan.requests,
        "files": plan.files,
        "passes": out["passes"],
        "spans": str(spans_path.relative_to(ROOT)),
        "oracle_values": checker.oracle_values,
        "environment": environment(),
    }
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def _check_names(result: dict, trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(result["metrics"]) != names:
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(names)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ucngas" / "cli.py").is_file():
        print(f"no ucngas sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run = run_traced if args.trace else run_e2e
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        details, result = run(name, args.seed, args.seconds)
        _check_names(result, args.trace)
        summary[name] = result
        print(json.dumps(details))
        if args.workload == "all":
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(summary if args.workload == "all" else result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
