"""Command-line interface: formats, exit codes, determinism, worked report."""

import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ucngas
from ucngas import cli, thermo
from ucngas.cli import main

FLOAT_FIELD = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")
# a child process imports the same copy of the package as this test run
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(ucngas.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(args, tmp_path, name="out.txt"):
    """Invoke main() with --out and return the written text and exit code."""
    path = tmp_path / name
    code = main([*args, "--out", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def run_process(args):
    return subprocess.run(
        [sys.executable, "-m", "ucngas", *args], capture_output=True, text=True, env=CHILD_ENV
    )


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---- exit codes ----


def test_exit_code_usage_errors(capsys, tmp_path):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    # each subcommand accepts only the flags it reads
    assert main(["eigen", "--t-steps", "3"]) == 1
    assert main(["fig2", "--paper-literal"]) == 1
    assert main(["report", "--efermi-k", "1e-3", "--format", "json"]) == 1
    # a flag's own domain is checked as argparse parses it, so the message
    # opens with the flag: a count in its range, a reduced temperature in the
    # solver's window, a positive finite Fermi temperature, a readable config
    for argv, flag in (
        (["eigen", "--n-max", "0"], "--n-max"),
        (["eigen", "--n-max", "1001"], "--n-max"),
        (["fig1", "--t-steps", "1"], "--t-steps"),
        (["fig1", "--t-max", "inf"], "--t-max"),
        (["fig2", "--t-max", "inf"], "--t-max"),
        (["fig1", "--t-min", "1e-6"], "--t-min"),
        (["fig1", "--t-min", "0.5", "--t-max", "2e3", "--parametric"], "--t-max"),
        (["fig2", "--t-max", "2e3"], "--t-max"),
        (["fig3", "--efermi-max-k", "inf"], "--efermi-max-k"),
        (["fig3", "--efermi-min-k", "-1"], "--efermi-min-k"),
        (["report", "--efermi-k", "-1"], "--efermi-k"),
        (["report", "--efermi-k", "nan"], "--efermi-k"),
        (["report", "--efermi-k", "1e-3", "--t", "1e-6"], "--t"),
        (["report", "--efermi-k", "1e-3", "--t", "nan"], "--t"),
        (["eigen", "--config", "/does/not/exist"], "--config"),
        (["fig2", "--out", "/nonexistent/dir/x.csv"], "--out"),
        (["eigen", "--out", str(tmp_path)], "--out"),
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}: "), argv
        if flag in ("--config", "--out"):  # the path is named once
            assert err.count(argv[-1]) == 1, err
    # a window's ends must come in order, and neither fig3 nor report may
    # over- or underflow; the message names the flag
    for argv, flag in (
        (["fig1", "--t-min", "2", "--t-max", "1"], "--t-min"),
        (["fig3", "--efermi-min-k", "1", "--efermi-max-k", "0.5"], "--efermi-min-k"),
        (["fig3", "--efermi-max-k", "1e300", "--t-steps", "3"], "--efermi-max-k"),
        (["fig3", "--efermi-max-k", "1.7976931348623157e308"], "--efermi-max-k"),
        (["report", "--efermi-k", "1e150"], "--efermi-k"),
        (["report", "--efermi-k", "1e300"], "--efermi-k"),
        (["report", "--efermi-k", "1e-300"], "--efermi-k"),
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert f"{flag} " in capsys.readouterr().err, argv
    # finite constants whose gravitational scales over- or underflow
    cfg = tmp_path / "extreme.cfg"
    for text in ("m_kg = 1e200", "m_kg = 1e-200", "g_mps2 = 1e-300"):
        cfg.write_text(text + "\n")
        for argv in (["eigen", "--n-max", "3"], ["report", "--efermi-k", "1e-3"]):
            capsys.readouterr()
            assert main([*argv, "--config", str(cfg)]) == 1, (text, argv)
            assert f"argument --config: {cfg}: alpha" in capsys.readouterr().err, (text, argv)
    # hbar and k_B are SI's fixed values: a config that sets one names the key
    for key in ("hbar_Js", "kB_JpK"):
        cfg.write_text(f"{key} = 1e-34\n")
        capsys.readouterr()
        assert main(["fig3", "--config", str(cfg)]) == 1
        assert f"argument --config: {cfg}: config line 1: unknown key '{key}'" in (
            capsys.readouterr().err
        )


def test_out_is_checked_before_compute_and_write_errors_exit_1(capsys, monkeypatch, tmp_path):
    # a bad --out path is refused while parsing: the command never runs
    monkeypatch.setattr(cli, "cmd_fig2", lambda args: pytest.fail("fig2 computed"))
    assert main(["fig2", "--out", "/nonexistent/dir/x.csv"]) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --out: /nonexistent/dir/x.csv: "
        "must name a file in an existing directory\n"
    )
    # a write that fails after the compute exits 1 with the same prefix
    # and leaves no file behind, not even the temporary one
    def full(self, text, newline=None):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    monkeypatch.setattr(Path, "write_text", full)
    out = tmp_path / "eigen.csv"
    assert main(["eigen", "--n-max", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"usage error: argument --out: {out}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_out_write_keeps_the_old_file(tmp_path):
    # a child whose files may not grow past 200 bytes fails midway through
    # the table; the file it was to replace keeps its bytes and its mode
    resource = pytest.importorskip("resource")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # EFBIG instead of a kill

    out = tmp_path / "t.csv"
    out.write_bytes(b"the old table\n")
    out.chmod(0o640)
    result = subprocess.run(
        [sys.executable, "-m", "ucngas", "eigen", "--n-max", "50", "--out", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        preexec_fn=limit_file_size,
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"usage error: argument --out: {out}: ")
    assert out.read_bytes() == b"the old table\n"
    assert out.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [out]
    # without the limit the table replaces the file, which keeps its mode
    assert main(["eigen", "--n-max", "50", "--out", str(out)]) == 0
    assert out.read_text().startswith("n_z,") and out.stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_naming_stdout_keeps_what_stdout_appended_to(capsys, tmp_path):
    # `--out /dev/stdout >> f` appends the table to f; it does not replace f
    assert main(["eigen", "--n-max", "3"]) == 0
    table = capsys.readouterr().out
    out = tmp_path / "f"
    out.write_bytes(b"keep\n")
    with out.open("ab") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "ucngas", "eigen", "--n-max", "3", "--out", "/dev/stdout"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    assert result.returncode == 0, result.stderr
    assert out.read_text() == "keep\n" + table


def test_out_naming_stderr_keeps_what_stderr_appended_to(capsys, tmp_path):
    # `--out /dev/stderr 2>> e` appends the table to e; it does not replace e
    assert main(["eigen", "--n-max", "3"]) == 0
    table = capsys.readouterr().out
    err = tmp_path / "e"
    err.write_bytes(b"keep\n")
    with err.open("ab") as stderr:
        result = subprocess.run(
            [sys.executable, "-m", "ucngas", "eigen", "--n-max", "3", "--out", "/dev/stderr"],
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            env=CHILD_ENV,
        )
    assert result.returncode == 0, err.read_text()
    assert result.stdout == ""
    assert err.read_text() == "keep\n" + table


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_out_naming_an_inherited_descriptor_keeps_what_it_appended_to(capsys, tmp_path):
    # `--out /dev/fd/3 3>> f` appends the table to f; it does not replace f
    assert main(["eigen", "--n-max", "3"]) == 0
    table = capsys.readouterr().out
    out = tmp_path / "f"
    out.write_bytes(b"keep\n")
    with out.open("ab") as appended:
        fd = appended.fileno()
        result = subprocess.run(
            [sys.executable, "-m", "ucngas", "eigen", "--n-max", "3", "--out", f"/dev/fd/{fd}"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            pass_fds=(fd,),
        )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert out.read_text() == "keep\n" + table
    # a descriptor open for reading only is not written through: `--out f < f` replaces f
    with out.open("rb") as stdin:
        result = subprocess.run(
            [sys.executable, "-m", "ucngas", "eigen", "--n-max", "3", "--out", str(out)],
            stdin=stdin,
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
    assert result.returncode == 0, result.stderr
    assert out.read_text() == table


def test_requests_load_no_decimal_polynomial_fractions_mpmath_or_scipy():
    # every F_j coefficient and Airy zero is read at import from ucngas._tables, so no
    # request builds one in decimal or fractions or evaluates one in mpmath, each of
    # which would cost every request memory and time; scipy is loaded only by the
    # routines that evaluate Ai. The eigen request is the path that once took a
    # 34-digit decimal Newton step per zero
    loaded = (
        "sorted(m for m in sys.modules if m in ('_decimal', 'decimal', 'fractions', 'mpmath',"
        " 'scipy') or m.startswith('numpy.polynomial'))"
    )
    imported = subprocess.run(
        [sys.executable, "-c", f"import sys, ucngas.cli; print({loaded})"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout == "[]\n"
    served = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from ucngas.cli import main; code = main(); "
            f"print({loaded}, file=sys.stderr); sys.exit(code)",
            "eigen",
            "--n-max",
            "1000",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert served.returncode == 0, served.stderr
    assert served.stderr == "[]\n"
    assert len(served.stdout.splitlines()) == 1 + 1000


def test_table_size_is_bounded(capsys):
    start = time.perf_counter()
    assert main(["fig2", "--z-steps", "100000000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "--z-steps" in capsys.readouterr().err
    assert main(["fig2", "--t-steps", "2000", "--z-steps", "1000"]) == 1
    assert "--t-steps and --z-steps" in capsys.readouterr().err
    assert main(["fig1", "--t-steps", "1000001"]) == 1


def test_exit_code_numerical_failure_names_value(monkeypatch, capsys):
    # no valid input makes the eta solve fail, so take away its Newton steps
    monkeypatch.setattr(thermo, "_NEWTON_MAX_ITER", 0)
    assert main(["report", "--efermi-k", "1e-3", "--t", "0.123"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "t=0.123, s=1.5" in err


def test_cli_leaves_out_scipy():
    # scipy is only for Ai itself (eigen states and wavefunctions); importing
    # the CLI and running every subcommand must not load any scipy module
    code = """
import io, sys
from contextlib import redirect_stdout
from ucngas.cli import main
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(loaded())
with redirect_stdout(io.StringIO()):
    codes = [
        main(["report", "--efermi-k", "1e-3"]),
        main(["fig1", "--t-steps", "3"]),
        main(["fig2", "--t-steps", "2", "--z-steps", "2"]),
        main(["fig3", "--t-steps", "2"]),
        main(["eigen", "--n-max", "1000"]),
    ]
print(codes, loaded())
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0] []"]


def test_exit_code_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("planck = 6.6e-34\n")
    result = run_process(["eigen", "--config", str(cfg)])
    assert result.returncode == 1
    assert "unknown key" in result.stderr
    cfg.write_bytes(b"g_mps2 = 9\xff\n")  # not UTF-8
    assert main(["eigen", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument --config: {cfg}: ")


def test_exit_code_success():
    result = run_process(["eigen", "--n-max", "2"])
    assert result.returncode == 0
    assert result.stdout.startswith("n_z,")


# ---- eigen table ----


def test_eigen_csv_contents(tmp_path):
    code, text = run_cli(["eigen", "--n-max", "3"], tmp_path)
    assert code == 0
    assert text.endswith("\n") and "\r" not in text
    header, rows = parse_csv(text)
    assert header == ["n_z", "E_exact_peV", "E_asymptotic_peV", "rel_error"]
    assert len(rows) == 3
    assert [row[0] for row in rows] == ["1", "2", "3"]
    for row in rows:
        for field in row[1:]:
            assert FLOAT_FIELD.match(field), field
    energies = [float(row[1]) for row in rows]
    assert energies[0] == pytest.approx(1.4067188095, rel=1e-9)
    assert energies == sorted(energies)
    assert all(float(row[3]) <= 0.01 for row in rows)


def test_constant_override_scales_spectrum(tmp_path):
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text("g_mps2 = 19.6133\n")  # doubled gravity
    _, base = run_cli(["eigen", "--n-max", "1"], tmp_path, "base.csv")
    _, scaled = run_cli(["eigen", "--n-max", "1", "--config", str(cfg)], tmp_path, "scaled.csv")
    e_base = float(parse_csv(base)[1][0][1])
    e_scaled = float(parse_csv(scaled)[1][0][1])
    assert e_scaled == pytest.approx(e_base * 2.0 ** (2.0 / 3.0), rel=1e-10)


# ---- fig1 ----

FIG1_ARGS = ["fig1", "--t-min", "0.01", "--t-max", "2", "--t-steps", "12"]


def test_fig1_shape_and_limits(tmp_path):
    code, text = run_cli(FIG1_ARGS, tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["t", "mu_over_ef", "u_over_nef", "mu_free_over_ef", "u_free_over_nef"]
    data = [[float(v) for v in row] for row in rows]
    t, mu, u, mu_free, u_free = (list(col) for col in zip(*data))
    assert t[0] == pytest.approx(0.01) and t[-1] == pytest.approx(2.0)
    assert mu == sorted(mu, reverse=True)
    assert u == sorted(u)
    assert mu_free == sorted(mu_free, reverse=True)
    assert u_free == sorted(u_free)
    assert all(g < f for g, f in zip(mu, mu_free))  # trapped curve below free curve
    assert u[0] == pytest.approx(5.0 / 7.0, abs=5e-3)
    assert u_free[0] == pytest.approx(3.0 / 5.0, abs=5e-3)
    assert mu[0] == pytest.approx(1.0 - math.pi**2 / 4.0 * 1e-4, abs=2e-5)


def test_fig1_deterministic(tmp_path):
    _, first = run_cli(FIG1_ARGS, tmp_path, "a.csv")
    _, second = run_cli(FIG1_ARGS, tmp_path, "b.csv")
    assert first == second


def test_fig1_parametric_spans_the_grid(tmp_path):
    code, text = run_cli([*FIG1_ARGS, "--parametric"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 12
    t = [float(row[0]) for row in rows]
    mu = [float(row[1]) for row in rows]
    assert t[0] == pytest.approx(0.01, rel=1e-9)
    assert t[-1] == pytest.approx(2.0, rel=1e-9)
    assert t == sorted(t)
    assert mu == sorted(mu, reverse=True)


@pytest.mark.parametrize(
    "window",
    [
        ["--t-min", "1e-4", "--t-max", "1e3", "--t-steps", "100"],
        ["--t-min", "0.3", "--t-max", "1e3"],
    ],
)
def test_fig1_parametric_reaches_the_window_edges(tmp_path, window):
    code, text = run_cli(["fig1", *window, "--parametric"], tmp_path)
    assert code == 0
    t = [float(row[0]) for row in parse_csv(text)[1]]
    assert t[0] == float(window[1])
    assert t[-1] == float(window[3])


def test_fig1_runs_from_an_irregular_t_min(tmp_path):
    # a window kept from an earlier regression: fig1 exits 0 there
    args = ["fig1", "--t-min", "0.646427768866643", "--t-max", "2", "--t-steps", "2"]
    code, _ = run_cli(args, tmp_path)
    assert code == 0


# ---- fig2 ----


def test_fig2_profiles(tmp_path):
    args = ["fig2", "--t-min", "0.01", "--t-max", "2", "--t-steps", "2", "--z-steps", "5"]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["t", "mgz_over_ef", "n_over_n00"]
    assert len(rows) == 5 + (5 + 8)  # cold profile, then hot profile with tail
    cold = [[float(v) for v in row] for row in rows[:5]]
    xs = [row[1] for row in cold]
    assert xs == pytest.approx([0.0, 0.375, 0.75, 1.125, 1.5])
    assert cold[0][2] == pytest.approx(1.0, abs=1e-3)
    assert cold[1][2] == pytest.approx((1.0 - 0.375) ** 1.5, abs=2e-3)
    assert cold[3][2] <= 1e-4  # above the zero-T column
    ratios = [float(row[2]) for row in rows[5:]]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # hot profile decreasing


# ---- fig3 ----


def test_fig3_power_law(tmp_path):
    args = ["fig3", "--efermi-min-k", "1e-3", "--efermi-max-k", "1e-1", "--t-steps", "3"]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["efermi_K", "n0_cm3"]
    data = [[float(v) for v in row] for row in rows]
    assert data[0][0] == pytest.approx(1e-3, rel=1e-12)
    assert data[0][1] == pytest.approx(9.057627e15, rel=1e-6)
    for (x0, y0), (x1, y1) in zip(data, data[1:]):
        slope = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0))
        assert slope == pytest.approx(1.5, abs=1e-9)


def test_fig3_literal_flag_halves(tmp_path):
    args = ["fig3", "--efermi-min-k", "1e-3", "--efermi-max-k", "1e-1", "--t-steps", "3"]
    args += ["--format", "json"]
    _, full = run_cli(args, tmp_path, "full.json")
    _, literal = run_cli([*args, "--paper-literal"], tmp_path, "lit.json")
    rows_f, rows_l = json.loads(full)["rows"], json.loads(literal)["rows"]
    assert len(rows_l) == len(rows_f) == 3
    # halving is exact in binary, so the literal column is bit for bit half
    for (t_f, n_f), (t_l, n_l) in zip(rows_f, rows_l):
        assert t_l == t_f and n_l == 0.5 * n_f


# ---- JSON ----


def test_json_mirrors_csv(tmp_path):
    args = ["fig3", "--efermi-min-k", "1e-3", "--efermi-max-k", "1e-1", "--t-steps", "3"]
    _, csv_text = run_cli(args, tmp_path, "t.csv")
    code, json_text = run_cli([*args, "--format", "json"], tmp_path, "t.json")
    assert code == 0
    payload = json.loads(json_text)
    assert payload["meta"]["command"] == "fig3"
    assert payload["meta"]["columns"] == ["efermi_K", "n0_cm3"]
    assert payload["meta"]["constants"]["m_kg"] == 1.67492749804e-27
    assert payload["meta"]["grid"]["steps"] == 3
    csv_rows = [[float(v) for v in row] for row in parse_csv(csv_text)[1]]
    assert len(payload["rows"]) == len(csv_rows)
    for json_row, csv_row in zip(payload["rows"], csv_rows):
        assert json_row == pytest.approx(csv_row, rel=1e-10)


# ---- report ----


def test_report_worked_numbers(tmp_path):
    code, text = run_cli(["report", "--efermi-k", "1e-3", "--t", "1e-3"], tmp_path)
    assert code == 0
    summary = json.loads(text)["summary"]
    assert summary["column_height_cm"] == pytest.approx(84.0556, abs=0.05)
    assert summary["bottom_density_cm3"] == pytest.approx(9.0576e15, rel=1e-3)
    assert summary["mean_separation_cm"] == pytest.approx(4.797e-6, rel=1e-3)
    assert summary["thermal_wavelength_cm"] == pytest.approx(7.955e-6, rel=1e-3)
    assert summary["degenerate"] is True
    assert summary["eta"] == pytest.approx(999.9975, abs=0.01)
    assert summary["efermi_peV"] == pytest.approx(86173.33, rel=1e-6)


def test_report_dilute_when_hot(tmp_path):
    code, text = run_cli(["report", "--efermi-k", "1e-3", "--t", "500"], tmp_path)
    assert code == 0
    summary = json.loads(text)["summary"]
    assert summary["degenerate"] is False
    assert summary["temperature_K"] == pytest.approx(0.5, rel=1e-12)


def test_report_literal_flag(tmp_path):
    _, full = run_cli(["report", "--efermi-k", "1e-3", "--t", "1e-3"], tmp_path, "f.json")
    _, lit = run_cli(
        ["report", "--efermi-k", "1e-3", "--t", "1e-3", "--paper-literal"], tmp_path, "l.json"
    )
    full, lit = json.loads(full)["summary"], json.loads(lit)["summary"]
    assert lit["paper_literal"] is True and full["paper_literal"] is False
    for key in ("bottom_density_m3", "bottom_density_cm3"):
        assert lit[key] == 0.5 * full[key]


def test_report_deterministic(tmp_path):
    args = ["report", "--efermi-k", "2e-3", "--t", "0.01"]
    _, first = run_cli(args, tmp_path, "r1.json")
    _, second = run_cli(args, tmp_path, "r2.json")
    assert first == second
