"""Seeded request generator for the three CLI workloads.

Each workload is a closed loop with one client: the runner sends a request,
waits for the process to exit, then sends the next. A *pass* is the fixed,
seeded list of requests built here; a run repeats that pass until its time
is up. The program only ever sees the generated argv.

Arguments are drawn over each subcommand's documented domain, endpoints
included. The fig1 and fig2 windows partition their whole range at seeded
cut points, so one pass does about the same work whatever the seed: the
end-to-end bounds compare runs made with different seeds, so a pass must
not be cheap for one seed and dear for the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# documented domains (README and `python -m ucngas <cmd> --help`)
FIG2_T_RANGE = (0.01, 2.0)  # default fig2 sweep range
FIG1_T_RANGE = (1.0e-4, 1.0e3)  # T_DIMLESS_MIN .. T_DIMLESS_MAX
FIG3_EF_RANGE = (1.0e-6, 1.0e-1)  # default fig3 Fermi-energy window (K)
EIGEN_N_MAX = 1000
FIG2_T_STEPS = 5  # t-steps of a window below the tail onset
FIG2_TAIL_ONSET = 0.5  # fig2's height grid gains a tail for t above this
FIG2_CUT_JITTER = 0.35  # in quarters of the log range
FIG2_Z_STEPS = (390, 410)  # "near the default 400"
FIG1_T_STEPS = 100
FIG1_CUT_MARGIN = 2.0 * math.log(10.0)  # each part of the cut window spans >= 2 decades

# untimed request that warms __pycache__ and the page cache before a run
WARMUP = ["eigen", "--n-max", "1"]


@dataclass
class Plan:
    """One workload's pass: the argv of each request, plus files they read."""

    requests: list[list[str]]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text


def _num(x: float) -> str:
    # repr round-trips, so the program parses exactly the float drawn here
    return repr(float(x))


def _log_window(rng: random.Random, lo: float, hi: float, min_frac: float) -> tuple[float, float]:
    """Log-uniform sub-window of [lo, hi] at least ``min_frac`` of its log width."""
    a, b = math.log(lo), math.log(hi)
    width = rng.uniform(min_frac, 1.0) * (b - a)
    start = rng.uniform(a, b - width)
    return math.exp(start), math.exp(start + width)


def _snap(rng: random.Random, value: float, endpoint: float, p: float) -> float:
    return endpoint if rng.random() < p else value


def geom(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced points from lo to hi, both included."""
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def fig2_rows_per_t(t: float, z_steps: int) -> int:
    """Rows fig2 prints per t: the documented height grid of z_steps points,
    plus a tail of max(z_steps // 4, 8) points when t > 0.5."""
    return z_steps + (max(z_steps // 4, 8) if t > FIG2_TAIL_ONSET else 0)


def _fig2_t_steps(t_min: float, t_max: float, z_steps: int) -> int:
    """t-steps whose rows come closest to FIG2_T_STEPS plain height grids."""
    target = FIG2_T_STEPS * z_steps

    def miss(n):
        return abs(sum(fig2_rows_per_t(t, z_steps) for t in geom(t_min, t_max, n)) - target)

    return min(range(2, 2 * FIG2_T_STEPS), key=miss)


def _fig2(rng: random.Random) -> list[list[str]]:
    # [0.01, 2] cut into four windows at seeded points near its quarters,
    # each with about the same number of rows: a row costs about the same
    # at any t, so the four requests cost about the same, and so does a
    # pass, whatever the cuts
    lo, hi = FIG2_T_RANGE
    a, b = math.log(lo), math.log(hi)
    quarter = (b - a) / 4.0
    edges = [a] + [a + (k + rng.uniform(-FIG2_CUT_JITTER, FIG2_CUT_JITTER)) * quarter
                   for k in (1, 2, 3)] + [b]
    fmt_offset = rng.randrange(2)
    requests = []
    for k in range(4):
        t_min = lo if k == 0 else math.exp(edges[k])
        t_max = hi if k == 3 else math.exp(edges[k + 1])
        z_steps = rng.randint(*FIG2_Z_STEPS)
        requests.append(
            [
                "fig2",
                "--t-min", _num(t_min),
                "--t-max", _num(t_max),
                "--t-steps", str(_fig2_t_steps(t_min, t_max, z_steps)),
                "--z-steps", str(z_steps),
                "--format", ("csv", "json")[(k + fmt_offset) % 2],
            ]
        )
    rng.shuffle(requests)
    return requests


def _split_steps(total: int, widths: list[float]) -> list[int]:
    """Share ``total`` grid points out in proportion to ``widths``, largest remainder."""
    exact = [total * w / sum(widths) for w in widths]
    steps = [int(x) for x in exact]
    by_remainder = sorted(range(len(widths)), key=lambda i: exact[i] - steps[i], reverse=True)
    for i in by_remainder[: total - sum(steps)]:
        steps[i] += 1
    return steps


def _fig1(rng: random.Random) -> list[list[str]]:
    # the full window in both modes, then the same window cut in two at a
    # seeded point, each part in both modes with t-steps in proportion to
    # its log width: the parts sample t as densely as the full window does,
    # so a pass costs the same wherever the cut falls
    lo, hi = FIG1_T_RANGE
    a, b = math.log(lo), math.log(hi)
    cut = math.exp(rng.uniform(a + FIG1_CUT_MARGIN, b - FIG1_CUT_MARGIN))
    windows = [(lo, hi, FIG1_T_STEPS)]
    parts = _split_steps(FIG1_T_STEPS, [math.log(cut) - a, b - math.log(cut)])
    windows += [(lo, cut, parts[0]), (cut, hi, parts[1])]
    fmt_offset = rng.randrange(2)
    requests = []
    for k, (t_min, t_max, steps) in enumerate(windows):
        for parametric in (False, True):
            argv = [
                "fig1",
                "--t-min", _num(t_min),
                "--t-max", _num(t_max),
                "--t-steps", str(steps),
                "--format", ("csv", "json")[(k + parametric + fmt_offset) % 2],
            ]
            requests.append(argv + ["--parametric"] if parametric else argv)
    rng.shuffle(requests)
    return requests


def _report(rng: random.Random) -> list[str]:
    t = math.exp(rng.uniform(*map(math.log, FIG1_T_RANGE)))
    t = _snap(rng, _snap(rng, t, FIG1_T_RANGE[0], 0.15), FIG1_T_RANGE[1], 0.15)
    argv = [
        "report",
        "--efermi-k", _num(math.exp(rng.uniform(*map(math.log, FIG3_EF_RANGE)))),
        "--t", _num(t),
    ]
    if rng.random() < 0.3:
        argv.append("--paper-literal")
    return argv


def _eigen(rng: random.Random) -> list[str]:
    n = int(round(math.exp(rng.uniform(0.0, math.log(EIGEN_N_MAX)))))
    n = int(_snap(rng, _snap(rng, n, 1, 0.15), EIGEN_N_MAX, 0.2))
    return ["eigen", "--n-max", str(n), "--format", rng.choice(("csv", "json"))]


def _fig3(rng: random.Random) -> list[str]:
    lo, hi = FIG3_EF_RANGE
    e_min, e_max = _log_window(rng, lo, hi, 0.2)
    argv = [
        "fig3",
        "--efermi-min-k", _num(_snap(rng, e_min, lo, 0.25)),
        "--efermi-max-k", _num(_snap(rng, e_max, hi, 0.25)),
        "--t-steps", str(rng.randint(2, 400)),
        "--format", rng.choice(("csv", "json")),
    ]
    if rng.random() < 0.3:
        argv.append("--paper-literal")
    return argv


def _config_text(rng: random.Random) -> str:
    lines = ["# constants override drawn by the benchmark", f"g_mps2 = {_num(rng.uniform(1.0, 25.0))}"]
    if rng.random() < 0.5:
        lines.append(f"m_kg = {_num(1.67492749804e-27 * rng.uniform(0.5, 2.0))}")
    return "\n".join(lines) + "\n"


def _cli_startup(rng: random.Random, config_path: str) -> tuple[list[list[str]], str]:
    makers = (_report, _eigen, _fig3)
    requests = [make(rng) for make in makers]
    with_config = rng.choice(makers)(rng)
    requests.append(with_config + ["--config", config_path])
    rng.shuffle(requests)
    return requests, _config_text(rng)


def plan(workload: str, seed: int, workdir: str) -> Plan:
    """The seeded pass for ``workload``; ``workdir`` is where its files go."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fig2_profiles":
        return Plan(_fig2(rng))
    if workload == "fig1_thermo":
        return Plan(_fig1(rng))
    if workload == "cli_startup":
        config_path = f"{workdir}/cli_startup-{seed}.cfg"
        requests, text = _cli_startup(rng, config_path)
        return Plan(requests, {config_path: text})
    raise ValueError(f"unknown workload {workload!r}")
