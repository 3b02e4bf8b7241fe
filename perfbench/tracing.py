"""In-process traced run: spans around each layer's public entry points.

Every request of the workload's pass is run through ``ucngas.cli.main``
in this process twice, once untraced and once traced, with stdout
captured. Tracing rebinds each entry point below, in every ``ucngas``
module that holds it (callers use ``from .x import name``), to a wrapper
that records a span: name, start, end, parent span and request id. The
wrapper sits outside any ``lru_cache``, so a span of a cached function is
a hit or a miss by the ``cache_info()`` delta across it. Caches are cleared
before every request, so a request pays what it pays in a fresh process.

Spans stay in memory and are written out at the end. A span's self time is
its duration minus that of its child spans; a layer's self time is the sum
over its spans. F_j work is counted in values, not calls, so a batched
evaluator that takes arrays reports numbers that compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from verify import Mismatch

# module -> public entry points wrapped there; the layer is the module name
ENTRY_POINTS = {
    "ucngas.cli": ("main", "cmd_eigen", "cmd_fig1", "cmd_fig2", "cmd_fig3", "cmd_report"),
    "ucngas.density": ("density_ratio", "density"),
    "ucngas.thermo": (
        "eta_from_t",
        "free_gas_eta_from_t",
        "thermo_point",
        "thermo_point_from_eta",
        "free_gas_mu_over_ef",
        "free_gas_u_over_nef",
    ),
    "ucngas.specfun": ("fermi_dirac", "airy_zero"),
    "ucngas.eigen": ("eigen_energy_exact", "eigen_energy_asymptotic"),
}
# entry points whose work is counted per value: name -> index of that argument
VALUE_ARG = {
    "fermi_dirac": 1,
    "density_ratio": 1,
    "density": 1,
    "eigen_energy_exact": 0,
    "eigen_energy_asymptotic": 0,
}
ETA_SOLVERS = ("eta_from_t", "free_gas_eta_from_t")
# specfun.fermi_dirac switches to the Maxwell series at and below this eta
FJ_MAXWELL_CUTOFF = -35.0
IMPORT_PROBES = 3
IMPORT_PACKAGES = ("numpy", "scipy", "ucngas")

# span record fields; FJ_INSIDE holds the F_j count at entry until the span
# ends, then the F_j values counted inside it
NAME, START, END, PARENT, REQUEST, VALUES, MISS, FJ_INSIDE = range(8)


class Tracer:
    """Holds the spans of one traced pass and the wrappers that record them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.layer_of: dict[str, str] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.fj = {"maxwell": 0, "nondegenerate": 0, "degenerate": 0}
        self.fj_total = 0
        self._bindings: list[tuple] = []  # (module, attribute, original)

    def _count_fj(self, eta) -> int:
        if isinstance(eta, (int, float)):
            branch = (
                "maxwell" if eta <= FJ_MAXWELL_CUTOFF else "nondegenerate" if eta <= 0.0 else "degenerate"
            )
            self.fj[branch] += 1
            self.fj_total += 1
            return 1
        import numpy as np

        eta = np.asarray(eta, dtype=float)
        maxwell = int(np.count_nonzero(eta <= FJ_MAXWELL_CUTOFF))
        nondeg = int(np.count_nonzero((eta > FJ_MAXWELL_CUTOFF) & (eta <= 0.0)))
        self.fj["maxwell"] += maxwell
        self.fj["nondegenerate"] += nondeg
        self.fj["degenerate"] += eta.size - maxwell - nondeg
        self.fj_total += eta.size
        return eta.size

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        cache_info = getattr(fn, "cache_info", None)
        value_arg = VALUE_ARG.get(name)
        is_fj = name == "fermi_dirac"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 1, False, self.fj_total]
            if value_arg is not None and len(args) > value_arg:
                value = args[value_arg]
                if is_fj:
                    rec[VALUES] = self._count_fj(value)
                elif not isinstance(value, (int, float)):
                    rec[VALUES] = getattr(value, "size", 1)
            stack.append(len(spans))
            spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                rec[MISS] = cache_info is None or cache_info().misses > misses
                rec[FJ_INSIDE] = self.fj_total - rec[FJ_INSIDE]

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, names in ENTRY_POINTS.items():
            layer = module_name.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(self.modules[module_name], name, None)
                if fn is None:
                    continue  # entry point gone from this version of the package
                self.layer_of[name] = layer
                wrapper = self._wrap(name, fn)
                for module in self.modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._bindings.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()


def _package_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "ucngas" or name.startswith("ucngas."))
    }


def _find_caches(modules: dict) -> list:
    """The package's lru caches, found before tracing hides them behind wrappers."""
    caches = {}
    for module in modules.values():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                caches[id(value)] = value
    return list(caches.values())


def _run_request(main, caches: list, argv: list[str]) -> tuple[int, str, float]:
    """Run one request through ``main``; its in-process wall time is the call's."""
    for cache in caches:
        cache.cache_clear()
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        rc = main(argv)
        wall = perf_counter() - start
    return rc, out.getvalue(), wall


def import_profile(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Median self time of each package's modules under ``-X importtime``."""
    samples = {pkg: [] for pkg in IMPORT_PACKAGES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import ucngas.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".", 1)[0]
            if top in totals:
                totals[top] += int(self_us)
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(totals[pkg] * 1e-6)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


def _aggregate(tracer: Tracer, acc: dict) -> None:
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        layer = tracer.layer_of[name]
        acc[f"{layer}.self_s"] += dur - child[i]
        acc[f"{name}.self_s"] += dur - child[i]
        acc[f"{name}.calls"] += 1
        acc[f"{name}.values"] += rec[VALUES]
        if name.startswith("cmd_"):
            acc["cli.compute_s"] += dur
        if name in ETA_SOLVERS:
            key = "solve" if rec[MISS] else "hit"
            acc[f"eta.{key}s"] += 1
            if rec[MISS]:
                acc["eta.solve_s"] += dur
                acc["eta.solve_fj"] += rec[FJ_INSIDE]
        if name == "main" and rec[PARENT] < 0:
            acc["main.top_s"] += dur
    for branch, n in tracer.fj.items():
        acc[f"fj.{branch}"] += n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(acc: dict, passes: int, imports: dict, coverage: float, overhead: float,
                  fj_max_rel_err: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the workload's requests."""
    g = lambda key: acc.get(key, 0) / passes  # noqa: E731
    solves, hits = g("eta.solves"), g("eta.hits")
    fj_values = g("fermi_dirac.values")
    points = g("density_ratio.values") + g("density.values")
    return {
        "import.numpy_s": (imports["numpy"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.ucngas_s": (imports["ucngas"], "s"),
        "cli.compute_s": (g("cli.compute_s"), "s"),
        "cli.render_write_s": (g("main.top_s") - g("cli.compute_s"), "s"),
        "cli.output_bytes": (g("cli.output_bytes"), "bytes"),
        "density.points": (points, "count"),
        "density.self_s": (g("density.self_s"), "s"),
        "density.self_us_per_point": (1e6 * _ratio(g("density.self_s"), points), "us"),
        "thermo.eta_solves": (solves, "count"),
        "thermo.eta_cache_hit_ratio": (_ratio(hits, hits + solves), "ratio"),
        "thermo.self_s": (g("thermo.self_s"), "s"),
        "thermo.ms_per_solve": (1e3 * _ratio(g("eta.solve_s"), solves), "ms"),
        "thermo.fj_values_per_solve": (_ratio(g("eta.solve_fj"), solves), "count"),
        "specfun.fj_values": (fj_values, "count"),
        "specfun.fj_values_maxwell": (g("fj.maxwell"), "count"),
        "specfun.fj_values_nondegenerate": (g("fj.nondegenerate"), "count"),
        "specfun.fj_values_degenerate": (g("fj.degenerate"), "count"),
        "specfun.fj_self_s": (g("fermi_dirac.self_s"), "s"),
        "specfun.fj_us_per_value": (1e6 * _ratio(g("fermi_dirac.self_s"), fj_values), "us"),
        "specfun.fj_max_rel_err": (fj_max_rel_err, "ratio"),
        "specfun.airy_zero_calls": (g("airy_zero.calls"), "count"),
        "specfun.airy_zero_self_s": (g("airy_zero.self_s"), "s"),
        "eigen.levels": (g("eigen_energy_exact.values") + g("eigen_energy_asymptotic.values"), "count"),
        "eigen.self_s": (g("eigen.self_s"), "s"),
        "trace.coverage_frac": (coverage, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def run(plan, seconds: float, verifier, spans_path) -> dict:
    """Traced passes over ``plan`` for about ``seconds``; returns the result."""
    import ucngas.cli  # noqa: F401  (loads every ucngas module)

    modules = _package_modules()
    cli = modules["ucngas.cli"]
    caches = _find_caches(modules)
    configs = plan.files
    acc: defaultdict = defaultdict(float)
    coverage = 1.0
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    correct = True
    first_spans = None
    passes = 0
    t0 = perf_counter()
    while True:
        pass_start = perf_counter()
        tracer = Tracer(modules)
        for rid, argv in enumerate(plan.requests):
            _, _, wall = _run_request(cli.main, caches, argv)
            untraced_s += wall
            tracer.install()
            try:
                tracer.request = rid
                rc, text, wall = _run_request(cli.main, caches, argv)
            finally:
                tracer.uninstall()
            traced_s += wall
            top = sum(r[END] - r[START] for r in tracer.spans if r[REQUEST] == rid and r[PARENT] < 0)
            coverage = min(coverage, top / wall)
            acc["cli.output_bytes"] += len(text.encode())
            attempted += 1
            if rc != 0:
                failed += 1
                continue
            config = next((configs[a] for a in argv if a in configs), None)
            try:
                verifier.check(argv, text, config, oracle=passes == 0)
            except Mismatch as exc:
                print(f"request {argv} failed verification: {exc}", file=sys.stderr)
                failed += 1
                correct = False
        _aggregate(tracer, acc)
        if first_spans is None:
            first_spans = tracer.spans
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed + (perf_counter() - pass_start) > seconds:
            break
    with open(spans_path, "w") as handle:
        for rec in first_spans:
            handle.write(json.dumps([rec[NAME], rec[START] - t0, rec[END] - t0, rec[PARENT], rec[REQUEST]]))
            handle.write("\n")
    return {
        "acc": acc,
        "passes": passes,
        "coverage": coverage,
        "overhead": traced_s / untraced_s - 1.0,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }

