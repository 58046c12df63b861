import ast
import functools
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpush import cli, floattext, pushforward, spectral
from chebpush.cli import MAX_K, MAX_ORDER, MAX_POINTS, MAX_WORK, main, parse_ks
from chebpush.densities import make_density, parse_density
from chebpush.montecarlo import KS_MIN_SAMPLES, ks_statistic
from chebpush.pushforward import (
    bounded_factor,
    default_grid,
    pushforward_cdf,
    pushforward_pdf,
    series_bounded_factor,
    series_cdf,
)
from chebpush.spectral import expand_density
from oracles import emit_reference, two_piece_density

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args, text=True):
    """A fresh interpreter on args that imports chebpush from this checkout's src."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, timeout=120,
                          env=env)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_same_text(out, expected):
    """out == expected, reported at the first line that differs.

    As strict as the == it stands for: the line counts must match, then
    each line, its line end included. A failed == would make pytest diff
    the two whole texts, which on a few thousand rows takes minutes.
    """
    lines, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    if len(lines) != len(want):
        raise AssertionError(f"{len(lines)} lines, expected {len(want)}")
    for number, (line, ref) in enumerate(zip(lines, want), 1):
        if line != ref:
            raise AssertionError(f"line {number}: {line!r}, expected {ref!r}")


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    headers = lines[0].split(",")
    rows = []
    trailers = []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            float(cells[0])
        except ValueError:
            trailers.append(cells)
            continue
        rows.append(cells)
    return headers, rows, trailers


def test_parse_ks_grammar():
    assert parse_ks("4") == (4,)
    assert parse_ks("2,3,10") == (2, 3, 10)
    assert parse_ks("2..6") == (2, 3, 4, 5, 6)
    assert parse_ks("8..128:8")[-1] == 128
    assert parse_ks("1,4..8:2,32") == (1, 4, 6, 8, 32)
    for bad in ("", "0", "5..2", "2..8:0", "a", "2..b"):
        with pytest.raises(ValueError):
            parse_ks(bad)


def test_a_range_starting_below_one_is_refused_before_it_is_built(capsys):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="k values must be positive integers"):
            parse_ks("-3000000..5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # built first, this range would not fit in memory
    with pytest.raises(SystemExit) as exc:
        main(["dance", f"--ks={-10**12}..5"])
    assert exc.value.code == 2
    assert "k values must be positive integers" in capsys.readouterr().err


def _refuse_computing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computation started")

    # every compute function the commands call
    for name in ("bounded_factor", "pushforward_cdf", "series_bounded_factor", "series_cdf",
                 "expand_density", "decayed_expansion", "convergence_report", "sample"):
        monkeypatch.setattr(cli, name, refuse)


def test_k_above_the_cap_exits_one_before_computing(capsys, monkeypatch):
    _refuse_computing(monkeypatch)
    big = str(2**63)
    for argv in (["pdf", "--dist", "ramp", "--k", big],
                 ["mc", "--dist", "uniform", "--k", big],
                 ["invariance", "--k", big],
                 ["dance", "--ks", f"2,{big}"],
                 ["converge", "--dist", "uniform", "--ks", f"8..{big}"],
                 ["converge", "--dist", "uniform", "--ks", f"{MAX_K + 1}..{big}:3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert f"above the cap MAX_K = {MAX_K}" in err
    assert parse_ks(f"1..{big}")[-1] == MAX_K + 1
    assert parse_ks(f"2..{big}:{MAX_K}") == (2, MAX_K + 2)


def test_pdf_arcsine_has_flat_error(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--dist", "arcsine", "--k", "8", "--grid", "201")
    assert code == 0
    headers, rows, trailers = parse_csv(out)
    assert headers == ["z", "f_k", "s_k", "limit_pdf", "abs_error"]
    assert len(rows) == 201 and not trailers
    err = np.array([float(r[4]) for r in rows])
    assert np.max(err) < 1e-13


def test_pdf_uniform_identity(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--dist", "uniform", "--k", "1")
    assert code == 0
    _, rows, _ = parse_csv(out)
    f = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(f - 0.5)) < 1e-12


def test_pdf_uniform_k2_closed_form(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--dist", "uniform", "--k", "2")
    assert code == 0
    _, rows, _ = parse_csv(out)
    z = np.array([float(r[0]) for r in rows])
    f = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(f - 1.0 / (2.0 * np.sqrt(2.0 * (1.0 + z))))) < 1e-12


def test_csv_floats_round_trip(capsys):
    _, out, _ = run_cli(capsys, "pdf", "--dist", "gauss:0,0.25", "--k", "3", "--grid", "17")
    _, rows, _ = parse_csv(out)
    z = default_grid(17)
    f = pushforward_pdf(make_density("gauss", sigma=0.25), 3, z)
    # 17 significant digits reparse to the exact binary values
    assert [float(r[0]) for r in rows] == list(z)
    assert [float(r[1]) for r in rows] == list(f)


def test_dance_defaults_and_mass_pattern(capsys):
    code, out, _ = run_cli(capsys, "dance", "--grid", "33")
    assert code == 0
    headers, rows, _ = parse_csv(out)
    assert headers == ["k", "z", "f_k", "mass_left_of_zero"]
    ks = sorted({int(r[0]) for r in rows})
    assert ks == list(range(2, 25))
    mass = {int(r[0]): float(r[3]) for r in rows}
    assert mass[2] > 0.5 and mass[6] > 0.5
    assert mass[4] < 0.5 and mass[8] < 0.5
    # every k's columns are those of the route the rule picks, bit for bit
    # (%.17g round-trips): the angle sum up to k = 7, the series route from
    # k = 8; that route stays within 1e-12 of the angle sum, S_k and mass alike
    d, z = make_density("gauss", sigma=0.25), default_grid(33)
    series, root = expand_density(d), np.sqrt((1.0 - z) * (1.0 + z))
    for k in ks:
        k_rows = [r for r in rows if int(r[0]) == k]
        assert [float(r[1]) for r in k_rows] == z.tolist()
        angle, mass = bounded_factor(d, k, z), pushforward_cdf(d, k, 0.0)
        if k >= 8:
            bounded, left = series_bounded_factor(series, k, z), series_cdf(series, k, 0.0)
            assert np.max(np.abs(bounded - angle)) < 1e-12
            assert abs(left - mass) < 1e-12
        else:
            bounded, left = angle, mass
        assert [float(r[2]) for r in k_rows] == (bounded / root).tolist()
        assert {float(r[3]) for r in k_rows} == {left}


def test_dance_arcsine_rows_sit_on_the_limit(capsys):
    code, out, _ = run_cli(capsys, "dance", "--dist", "arcsine", "--ks", "3,9", "--grid", "65")
    assert code == 0
    _, rows, _ = parse_csv(out)
    z = np.array([float(r[1]) for r in rows])
    f = np.array([float(r[2]) for r in rows])
    # factored radicand stays exact near the endpoints, 1 - z*z would not
    assert np.max(np.abs(f * np.sqrt((1 - z) * (1 + z)) - 1 / np.pi)) < 1e-13


def test_converge_uniform(capsys):
    code, out, _ = run_cli(capsys, "converge", "--dist", "uniform")
    assert code == 0
    headers, rows, trailers = parse_csv(out)
    assert headers == ["k", "sup_error", "asymptotic_prediction_error"]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64, 128]
    errs = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert len(trailers) == 1
    name, value, label = trailers[0]
    assert name == "fitted_order" and label == "fit"
    assert -2.2 < float(value) < -1.8


def test_converge_arcsine_flagged_invariant(capsys):
    code, out, _ = run_cli(capsys, "converge", "--dist", "arcsine", "--ks", "4,8,16")
    assert code == 0
    _, rows, trailers = parse_csv(out)
    assert all(float(r[1]) < 1e-13 for r in rows)
    # no series exists, so the asymptotic column is nan
    assert all(r[2] == "nan" for r in rows)
    assert trailers[0][0] == "fitted_order"
    assert trailers[0][2] == "invariant"


def test_converge_reads_no_undecayed_expansion(capsys):
    # gauss:0,0.001's expansion has not decayed at the default order, so the
    # one rule reads no expansion and the asymptotic column is nan, as for arcsine
    argv = ("converge", "--dist", "gauss:0,0.001", "--ks", "8,16,32", "--grid", "33")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, rows, _ = parse_csv(out)
    assert len(rows) == 3 and all(r[2] == "nan" for r in rows)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    records = json.loads(out)["rows"]
    assert len(records) == 3 and all(r["asymptotic_prediction_error"] is None for r in records)
    assert '"asymptotic_prediction_error": null' in out


def test_converge_uniform01_labeled_empirical(capsys):
    # the undecayed series of a jump is said by the label, not by a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "converge", "--dist", "uniform01",
                               "--ks", "8,16,32", "--grid", "101")
    assert code == 0
    _, rows, trailers = parse_csv(out)
    errs = [float(r[1]) for r in rows]
    assert errs[-1] < errs[0]
    assert trailers[0][2] == "empirical"


def test_converge_labels_an_undecayed_expansion_empirical(capsys):
    # gauss:0,1e-5 has no jump, but its expansion has not decayed, so the
    # smooth-case analysis does not cover its ladder: its order, +3.3, a
    # growing error, is observed, and no asymptotic is read
    code, out, _ = run_cli(capsys, "converge", "--dist", "gauss:0,1e-5", "--ks", "8..128:8")
    assert code == 0
    _, rows, [(name, order, label)] = parse_csv(out)
    assert len(rows) == 16 and all(r[2] == "nan" for r in rows)
    assert name == "fitted_order" and float(order) > 0.0 and label == "empirical"


def test_expand_uniform(capsys):
    code, out, _ = run_cli(capsys, "expand", "--dist", "uniform")
    assert code == 0
    headers, rows, trailers = parse_csv(out)
    assert headers == ["l", "mu_l"]
    assert len(rows) == 65
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-14)
    assert max(abs(float(r[1])) for r in rows[1:]) < 5e-15
    t = dict((c[0], c[1]) for c in trailers)
    assert float(t["normalization_residual"]) < 1e-14
    assert float(t["even_moment_sum"]) == pytest.approx(0.5, abs=1e-12)


def test_expand_ramp(capsys):
    code, out, _ = run_cli(capsys, "expand", "--dist", "ramp", "--order", "8")
    assert code == 0
    _, rows, trailers = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-14)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-14)
    t = {c[0]: c[1] for c in trailers}
    assert float(t["normalization_residual"]) < 1e-14


def test_expand_arcsine_fails_with_guard_code(capsys):
    code, _, err = run_cli(capsys, "expand", "--dist", "arcsine")
    assert code == 1
    assert "no convergent Chebyshev expansion" in err


def test_mc_output_and_determinism(capsys):
    args = ("mc", "--dist", "uniform01", "--k", "8", "--n", "20000", "--seed", "1")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    headers, rows, trailers = parse_csv(out1)
    assert headers == ["bin_left", "bin_right", "density"]
    assert len(rows) == 50
    t = {c[0]: c for c in trailers}
    assert t["ks_exact"][3] == "true"
    widths = [float(r[1]) - float(r[0]) for r in rows]
    total = sum(w * float(r[2]) for w, r in zip(widths, rows))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mc_json_structure(capsys):
    code, out, _ = run_cli(capsys, "mc", "--dist", "arcsine", "--k", "16",
                           "--n", "50000", "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"rows", "ks_exact", "ks_limit"}
    assert set(doc["rows"][0]) == {"bin_left", "bin_right", "density"}
    assert doc["ks_limit"]["pass"] is True
    assert doc["ks_exact"]["statistic"] < doc["ks_exact"]["threshold"]


def test_pdf_json_is_array_of_records(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--dist", "uniform", "--k", "2",
                           "--grid", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 5
    assert list(doc[0]) == ["z", "f_k", "s_k", "limit_pdf", "abs_error"]


def test_invariance_command(capsys):
    code, out, _ = run_cli(capsys, "invariance", "--k", "12")
    assert code == 0
    headers, rows, _ = parse_csv(out)
    assert headers == ["k", "max_abs_deviation"]
    assert [int(r[0]) for r in rows] == list(range(1, 13))
    assert max(float(r[1]) for r in rows) < 1e-13


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "pdf.csv"
    code, out, _ = run_cli(capsys, "pdf", "--dist", "ramp", "--k", "4",
                           "--grid", "9", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("z,f_k,s_k,limit_pdf,abs_error\n")
    assert len(text.strip().splitlines()) == 10


def test_unwritable_out_fails_with_guard_code(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "pdf", "--dist", "uniform", "--k", "3",
                             "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("chebpush: error: ") and str(target) in err
    assert "Traceback" not in err


def test_usage_errors_exit_two(capsys):
    for argv, reason in ((["pdf", "--dist", "nope", "--k", "2"], None),
                         (["pdf", "--dist", "gauss:0", "--k", "2"],
                          "gauss selector needs MU,SIGMA"),
                         (["pdf", "--dist", "uniform"], None),
                         (["converge", "--dist", "uniform", "--ks", "9..3"],
                          "bad range '9..3': need a <= b and step >= 1"),
                         (["pdf", "--dist", "uniform", "--k", "0"], None),
                         (["nosuch"], None)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if reason is not None:
            assert reason in err


def test_a_gaussian_run_loads_no_scipy(tmp_path):
    # a fresh interpreter, since the oracles of this session import scipy; checked
    # after a gaussian mc run, so a lazy import cannot hide there
    out = tmp_path / "mc.csv"
    code = ("import sys\n"
            "from chebpush.cli import main\n"
            "code = main(['mc', '--dist', 'gauss:0,0.25', '--k', '8', '--n', '1000',\n"
            f"             '--seed', '1', '--out', {str(out)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert out.read_text().startswith("bin_left,")


def test_an_mc_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 38 ms and 2 MB to import, and np.unique pulls it
    # in; a fresh interpreter runs mc on both routes and in both formats
    runs = [["mc", "--dist", dist, "--k", str(k), "--n", "5000", "--format", fmt]
            for dist, k in (("gauss:0,0.25", 8), ("uniform01", 32), ("arcsine", 7))
            for fmt in ("csv", "json")]
    code = ("import sys\n"
            "from chebpush.cli import main\n"
            f"codes = [main(argv + ['--out', {str(tmp_path / 'mc.out')!r}]) for argv in {runs!r}]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(runs)} False"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc, Linux fault counts")
def test_the_angle_sum_reuses_its_block_memory():
    # a fresh interpreter, as above: the 256 KiB block temporaries of a k = 8192
    # sum would be page-faulted in again on every block (about 4000 faults)
    # if importing chebpush left glibc's mmap threshold at its start
    code = ("import resource, sys\n"
            "from chebpush.densities import make_density\n"
            "from chebpush.pushforward import bounded_factor, default_grid\n"
            "d, z = make_density('uniform'), default_grid(201)\n"
            "bounded_factor(d, 8192, z)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "bounded_factor(d, 8192, z)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_console_script_runs():
    proc = run_python("-m", "chebpush", "invariance", "--k", "3", "--grid", "33")
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,max_abs_deviation")


@pytest.mark.parametrize("command", ["", "pdf", "dance", "converge", "expand", "mc",
                                     "invariance"])
def test_help_prints(command):
    # help strings are formatted with %-style defaults only when printed
    proc = run_python("-m", "chebpush", *command.split(), "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: chebpush")


@pytest.mark.parametrize("command", ["pdf", "dance", "converge", "expand", "mc"])
def test_every_dist_flag_shows_the_selector_grammar(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "gauss:MU,SIGMA" in text
    # a required flag has no default to print
    assert "(default: None)" not in text


def test_a_grid_below_two_exits_one_with_the_reason(capsys):
    code, out, err = run_cli(capsys, "pdf", "--dist", "uniform", "--k", "3", "--grid", "1")
    assert code == 1
    assert out == ""
    assert err == "chebpush: error: grid size must be an integer >= 2, got 1\n"


def test_the_readme_library_example_runs_with_no_warning():
    # the README's python block, in a fresh interpreter where any warning is an error
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    proc = run_python("-W", "error", "-c", blocks[0].split("```")[0])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_caps_and_work_budget_exit_one_before_computing(capsys, monkeypatch):
    _refuse_computing(monkeypatch)
    big = str(2**63)
    points = f"is above the cap MAX_POINTS = {MAX_POINTS}"
    budget = f"above the budget MAX_WORK = {MAX_WORK}"
    for argv, reason in (
            (["pdf", "--dist", "ramp", "--k", "2", "--grid", big], f"--grid {big} {points}"),
            (["dance", "--grid", big], points),
            # 77 * 1e5 angle terms are inside the budget, 1.1e6 output rows are not
            (["dance", "--ks", "2..12", "--grid", "100000"], f"dance's row count 1100000 {points}"),
            (["converge", "--dist", "uniform", "--grid", big], points),
            (["invariance", "--grid", big], points),
            (["mc", "--dist", "uniform", "--k", "2", "--n", big], f"--n {big} {points}"),
            (["expand", "--dist", "ramp", "--order", big],
             f"--order {big} is above the cap MAX_ORDER = {MAX_ORDER}"),
            # k * grid = 2^20 * 257 terms
            (["pdf", "--dist", "ramp", "--k", str(MAX_K), "--grid", "257"], budget),
            # K (K + 1) / 2 * grid, not K * grid
            (["invariance", "--k", "2000"], f"invariance would sum {2000 * 2001 // 2 * 201} "),
            (["dance", "--ks", f"{MAX_K // 2},{MAX_K}"], budget),
            (["converge", "--dist", "uniform", "--ks", f"1..{MAX_K}"], budget),
            (["mc", "--dist", "uniform", "--k", "4096", "--n", "100000"],
             f"mc would sum {4096 * 100000} angle terms"),
            # the KS needs KS_MIN_SAMPLES; sampling first only to fail there wastes the run
            (["mc", "--dist", "uniform", "--k", "2", "--n", "50"],
             f"KS needs at least {KS_MIN_SAMPLES} samples, got 50")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("chebpush: error: ") and reason in err, (argv, err)


def _load_run_experiments():
    path = ROOT / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hash_outputs_lists_each_output_of_a_workload_once(tmp_path, monkeypatch, capsys):
    # large_k at one seed: its 3 commands in CSV and in JSON, each line the
    # exit code, the sha256 of what main writes for that argv, and the argv;
    # the script's --workload, given twice, lists the same lines once
    path = ROOT / "scripts" / "hash_outputs.py"
    spec = importlib.util.spec_from_file_location("hash_outputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = script.listing([1], ["large_k"])
    assert len(lines) == 6
    for line in lines:
        code, digest, *argv = line.split(" ")
        assert argv[-2:] in (["--format", "csv"], ["--format", "json"])
        target = tmp_path / "out"
        assert code == str(main([*argv, "--out", str(target)])) == "0"
        assert digest == hashlib.sha256(target.read_bytes()).hexdigest()
    assert len({line.split(" ", 2)[2] for line in lines}) == 6
    monkeypatch.setattr(sys, "argv", ["hash_outputs.py", "1", "--workload", "large_k",
                                      "--workload", "large_k"])
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines() == lines
    monkeypatch.setattr(sys, "argv", ["hash_outputs.py", "1", "--workload", "no_such"])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_emit_profile_splits_the_time_of_emit(tmp_path, monkeypatch, capsys):
    # the stages of the fastest write lie inside its time, and translate
    # gets every byte of the output plus the NULs left in the chunks' cells
    path = ROOT / "scripts" / "emit_profile.py"
    spec = importlib.util.spec_from_file_location("emit_profile", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["dance", "--ks", "2..4", "--grid", "3000"]
    total, clock, rows = script.profile(argv, 2)
    assert rows == 9000
    assert min(clock.float_cells, clock.translate, clock.write) > 0.0
    assert clock.float_cells + clock.translate + clock.write < total
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    size = target.stat().st_size
    assert size <= clock.translated < 1.25 * size
    monkeypatch.setattr(sys, "argv", ["emit_profile.py", "--repeat", "1", "--workload", "large_k"])
    assert script.main() == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].split()[0] for line in lines] == ["converge", "dance", "pdf"]
    assert all(" B a row to translate, " in line for line in lines)
    # the last line sums each stage over the commands, to a hundredth of a ms
    numbers = [list(map(float, re.findall(r"\d+\.?\d*", line.split(": ")[1])))
               for line in (*lines, last)]
    assert last.startswith("total: _emit ") and re.search(r"\.\d\d ms = ", last)
    *each, total = numbers
    assert abs(total[0] - sum(total[1:5])) <= 0.02
    assert abs(total[0] - sum(n[0] for n in each)) <= 0.05 * len(each) + 0.005
    assert total[5] == sum(n[-1] for n in each)


def test_mc_profile_times_and_weighs_each_stage_of_mc(monkeypatch, capsys):
    # each stage's peak is what it allocates over its inputs: the stream's
    # n draws and the sorted copy, each 8 B a draw and a few hundred bytes
    path = ROOT / "scripts" / "mc_profile.py"
    spec = importlib.util.spec_from_file_location("mc_profile", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["mc", "--dist", "gauss:0,0.25", "--k", "8", "--n", "50000", "--seed", "3"]
    stages, n = script.profile(argv, 2)
    assert n == 50000
    assert list(stages) == ["stream", "ppf", "push", "sort", "ks_exact", "ks_limit",
                            "histogram", "_emit"]
    assert all(seconds > 0.0 and peak >= 0 for seconds, peak in stages.values())
    for name in ("stream", "sort"):
        assert 8 * n <= stages[name][1] < 8 * n + 4096
    monkeypatch.setattr(sys, "argv", ["mc_profile.py", "--repeat", "1"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("mc ") and line.endswith(", 200000 draws") for line in lines)


def test_code_lines_counts_each_module_and_the_total(capsys):
    # lines as wc -l counts them; code lines leave out blank lines, comment
    # lines and docstrings, and keep a line of code with a comment after it
    path = ROOT / "scripts" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    text = ('"""Module.\n\nDoc."""\n\n# note\nX = 1  # one\n\n\n'
            'def f():\n    """Doc."""\n    return X\n')
    assert script.counts(text) == (11, 3)
    assert script.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "chebpush").glob("*.py"))
    assert [row[0] for row in rows] == modules + ["total"]
    for name, lines, code in rows[:-1]:
        source = (ROOT / "src" / "chebpush" / name).read_bytes()
        assert int(lines) == source.count(b"\n") and 0 < int(code) < int(lines)
    assert rows[-1][1:] == [str(sum(int(row[i]) for row in rows[:-1])) for i in (1, 2)]


def test_cli_imports_no_private_name_of_the_package():
    # the routes and the report are read through pushforward's and
    # spectral's public names only
    tree = ast.parse((ROOT / "src" / "chebpush" / "cli.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _experiment_runs(n):
    return [argv for _, argv in _load_run_experiments().runs(n)]


def _experiment_mc_runs(n):
    return [argv for argv in _experiment_runs(n) if argv[0] == "mc"]


def test_the_experiment_mc_runs_pass_with_nothing_on_stderr(tmp_path):
    # every command of the experiments script, plus expansions whose series do
    # not decay, in a fresh interpreter so that stderr is what a shell sees;
    # -W error turns any Python warning into a failed run
    runs = _experiment_runs(1000)
    assert len(runs) == 21 and sum(argv[0] == "mc" for argv in runs) == 8
    runs += [["expand", "--dist", "uniform01"], ["converge", "--dist", "uniform01"],
             ["expand", "--dist", "gauss:0,0.001"]]
    code = ("from chebpush.cli import main\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    assert main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.csv']) == 0\n")
    proc = run_python("-W", "error", "-c", code)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    for i, argv in enumerate(runs):
        if argv[0] == "mc":
            _, _, trailers = parse_csv((tmp_path / f"{i}.csv").read_text())
            assert {c[0]: c for c in trailers}["ks_exact"][3] == "true", argv


def test_the_experiment_ks_tests_read_under_a_tenth_of_the_samples(monkeypatch, capsys):
    # the 8 mc runs of the experiments script at its n = 2e5: ks_exact and
    # ks_limit each hand their cdf three arrays, coarse to fine, whose
    # points add up to under 10% of n, all of them sorted samples
    n = 200_000
    tests = []

    def counted(batch, cdf):
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return cdf(x)

        tests.append((batch, seen))
        return ks_statistic(batch, spy)

    monkeypatch.setattr(cli, "ks_statistic", counted)
    runs = _experiment_mc_runs(n)
    assert len(runs) == 8
    for argv in runs:
        assert main(argv + ["--out", "-"]) == 0
    capsys.readouterr()
    assert len(tests) == 16
    for batch, seen in tests:
        assert batch.n == n and len(seen) == 3
        assert sum(map(len, seen)) < n // 10
        assert all(np.isin(points, batch.ordered).all() for points in seen)


def test_mc_takes_the_series_cdf_where_it_has_at_most_k_terms(capsys, monkeypatch):
    # from k = SERIES_MIN_K = 8, where the series route is the cheaper one,
    # and only for a decayed expansion: uniform01 is expanded piece by piece
    # around its jump, and arcsine is unbounded, so it is never expanded.
    # ks_exact reads its cdf in three passes, coarse to fine, all on one route
    calls = []
    for module, name in ((cli, "series_cdf"), (cli, "pushforward_cdf"),
                         (spectral, "expand_density")):
        def spy(*args, _fn=getattr(module, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    routes = {}
    for argv in _experiment_mc_runs(1000):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        routes[argv[2], int(argv[4])] = calls[:]
    assert len(routes) == 8
    series = {key for key, used in routes.items() if "series_cdf" in used}
    assert series == {(dist, k) for dist in ("uniform", "gauss:0,0.25", "uniform01")
                      for k in (8, 32)}
    assert all(routes[key] == ["expand_density"] + ["series_cdf"] * 3 for key in series)
    assert all(used == ["pushforward_cdf"] * 3 for key, used in routes.items()
               if key not in series)


ROUTE_FUNCTIONS = ("bounded_factor", "pushforward_cdf", "series_bounded_factor", "series_cdf")

# argv -> the compute calls of the command, in order
ROUTE_CASES = (
    # k = 7 stays on the angle sum and k = 8 takes the series route
    (["pdf", "--dist", "gauss:0,0.25", "--k", "7"], ["bounded_factor"]),
    (["pdf", "--dist", "gauss:0,0.25", "--k", "8"], ["expand_density", "series_bounded_factor"]),
    (["pdf", "--dist", "ramp", "--k", "32768"], ["expand_density", "series_bounded_factor"]),
    # a jump is expanded piece by piece from k = 8, and an unbounded pdf never
    (["pdf", "--dist", "uniform01", "--k", "7"], ["bounded_factor"]),
    (["pdf", "--dist", "uniform01", "--k", "64"], ["expand_density", "series_bounded_factor"]),
    (["pdf", "--dist", "arcsine", "--k", "64"], ["bounded_factor"]),
    # an expansion that has not decayed leaves the angle sum in place
    (["pdf", "--dist", "gauss:0,0.001", "--k", "8"], ["expand_density", "bounded_factor"]),
    # one expansion for the whole ladder, S_k and F_k from the same route
    (["dance", "--ks", "6..9"], ["expand_density"] + ["bounded_factor", "pushforward_cdf"] * 2
     + ["series_bounded_factor", "series_cdf"] * 2),
    (["dance", "--ks", "2..7"], ["bounded_factor", "pushforward_cdf"] * 6),
    (["dance", "--dist", "uniform01", "--ks", "7..9"], ["expand_density", "bounded_factor",
     "pushforward_cdf"] + ["series_bounded_factor", "series_cdf"] * 2),
    (["dance", "--dist", "arcsine", "--ks", "8,16"], ["bounded_factor", "pushforward_cdf"] * 2),
    # mc's ks_exact reads its cdf in three passes, coarse to fine
    (["mc", "--dist", "uniform", "--k", "7"], ["pushforward_cdf"] * 3),
    (["mc", "--dist", "uniform", "--k", "8"], ["expand_density"] + ["series_cdf"] * 3),
    (["mc", "--dist", "uniform01", "--k", "7"], ["pushforward_cdf"] * 3),
    (["mc", "--dist", "uniform01", "--k", "8"], ["expand_density"] + ["series_cdf"] * 3),
    (["mc", "--dist", "arcsine", "--k", "8"], ["pushforward_cdf"] * 3),
    # converge and invariance measure the angle sum itself, on the grid's
    # angles taken once, and read the expansion by the same rule: an
    # undecayed one is not read, and arcsine is never expanded
    (["converge", "--dist", "gauss:0,0.25", "--ks", "8,16,32"], ["expand_density"]
     + ["_bounded_from_beta"] * 3),
    (["converge", "--dist", "gauss:0,0.001", "--ks", "8,16,32"], ["expand_density"]
     + ["_bounded_from_beta"] * 3),
    (["invariance", "--k", "9"], ["_bounded_from_beta"] * 9),
)


def test_pdf_dance_and_mc_follow_one_route_rule(capsys, monkeypatch):
    # spies in cli and in pushforward, whose convergence_report, sup_error
    # and mass_left_of_zero call its own functions, and on the expansion in
    # spectral, which decayed_expansion calls; a call is listed only where
    # no spied call is running, so the angle sum that bounded_factor runs on
    # its angles is not listed again
    calls, running = [], []
    for module, names in ((cli, ROUTE_FUNCTIONS),
                          (pushforward, ("_bounded_from_beta", *ROUTE_FUNCTIONS)),
                          (spectral, ("expand_density",))):
        for name in names:
            def spy(*args, _fn=getattr(module, name), _name=name):
                if not running:
                    calls.append(_name)
                running.append(_name)
                try:
                    return _fn(*args)
                finally:
                    running.pop()
            monkeypatch.setattr(module, name, spy)
    small = {"pdf": ["--grid", "9"], "dance": ["--grid", "9"], "mc": ["--n", "1000"],
             "converge": ["--grid", "9"], "invariance": ["--grid", "9"]}
    for argv, expected in ROUTE_CASES:
        calls.clear()
        assert run_cli(capsys, *argv, *small[argv[0]])[0] == 0, argv
        assert calls == expected, argv
        assert calls.count("expand_density") <= 1


@pytest.mark.parametrize("argv, steps", (
    (["pdf", "--dist", "uniform01", "--k", "8", "--grid", "9"], [8]),
    # dance reads S_k and F_k(0) of each k, and mc's ks_exact F_k three times
    (["dance", "--ks", "6..9", "--grid", "9"], [8, 9]),
    (["dance", "--dist", "uniform01", "--ks", "8,64", "--grid", "9"], [8, 64]),
    (["mc", "--dist", "gauss:0,0.25", "--k", "32", "--n", "1000"], [32]),
    (["mc", "--dist", "uniform01", "--k", "8", "--n", "1000"], [8]),
    (["mc", "--dist", "uniform", "--k", "7", "--n", "1000"], []),
))
def test_each_k_of_the_series_route_takes_one_coefficient_step(capsys, monkeypatch, argv, steps):
    # the step under a cache like pushforward's own, which spies on its misses
    taken = []
    step = pushforward._aliased_coeffs

    def spy(series, k):
        taken.append(k)
        return step.__wrapped__(series, k)

    cached = functools.lru_cache(maxsize=step.cache_parameters()["maxsize"])(spy)
    monkeypatch.setattr(pushforward, "_aliased_coeffs", cached)
    assert run_cli(capsys, *argv)[0] == 0
    assert taken == steps


@pytest.mark.parametrize("argv", (
    ["dance", "--ks", "2..12", "--grid", "9"],
    ["dance", "--dist", "uniform01", "--ks", "2..12", "--grid", "9"],
    ["mc", "--dist", "gauss:0,0.25", "--k", "32", "--n", "1000"],
    ["mc", "--dist", "uniform01", "--k", "8", "--n", "1000"],
))
def test_each_expansion_takes_its_edges_once(capsys, monkeypatch, argv):
    # the edges do not depend on k: one _edges per expansion, not per k
    calls = []
    for module, name in ((spectral, "expand_density"), (pushforward, "_edges")):
        def spy(*args, _fn=getattr(module, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == ["expand_density", "_edges"]


def _whole_grid(z):
    # the cdf is defined on [-1, 1], ends included
    return np.concatenate(([-1.0], z, [1.0]))


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(-0.6, 0.6), sigma=st.floats(0.15, 1.0), k=st.integers(8, 4096))
def test_the_route_of_a_decayed_gaussian_matches_the_angle_sum(mu, sigma, k):
    d = make_density("gauss", mu=mu, sigma=sigma)
    assert expand_density(d).decayed
    [(bounded, cdf)] = cli._exact_routes(d, (k,))
    assert bounded.func is series_bounded_factor and cdf.func is series_cdf
    z = default_grid(33)
    assert np.max(np.abs(bounded(z) - bounded_factor(d, k, z))) <= 1e-11
    z = _whole_grid(z)
    assert np.max(np.abs(cdf(z) - pushforward_cdf(d, k, z))) <= 1e-12


def _two_jumps(place_and_log_gap):
    # both jumps in [-0.8, 0.8], the gap between them 10^log_gap
    place, log_gap = place_and_log_gap
    gap = 10.0 ** log_gap
    left = -0.8 + place * (1.6 - gap)
    return [left, left + gap]


# one jump, or two whose gap is log-uniform in [1e-6, 1]
_JUMPS = st.one_of(st.floats(-0.8, 0.8).map(lambda x: [x]),
                   st.tuples(st.floats(0.0, 1.0), st.floats(-6.0, 0.0)).map(_two_jumps))


@settings(max_examples=40, deadline=None)
@given(xstars=_JUMPS, ends=st.lists(st.floats(0.05, 2.0), min_size=6, max_size=6),
       bump=st.one_of(st.just(0.0), st.floats(0.1, 2.0)), k=st.integers(8, 4096))
def test_the_route_of_a_two_piece_density_matches_the_angle_sum(xstars, ends, bump, k):
    # one or two jumps between linear pieces, each end of each piece above
    # 0, so -1 and 1 are jumps to 0 as well, and with bump > 0 a gaussian
    # cut at the first jump, so that no piece is a polynomial; S_k jumps
    # where k t* +- beta is a multiple of 2 pi, t* = arccos(x*), and is
    # compared away from there. A piece's fourth derivative scales its
    # series' rounding noise by (2 / width)^4: a narrow piece either reads
    # without its noise or is not decayed and leaves the angle sum in place,
    # which at widths of 0.1 and up it never is. A curved piece has real
    # terms at every size, and the route needs them all
    d = two_piece_density(xstars, ends[:2 * len(xstars) + 2], bump=bump)
    [(bounded, cdf)] = cli._exact_routes(d, (k,))
    assert (bounded.func is series_bounded_factor) == (cdf.func is series_cdf)
    if len(xstars) == 1 or xstars[1] - xstars[0] >= 0.1:
        assert bounded.func is series_bounded_factor
    z = default_grid(33)
    beta, t = np.arccos(z), np.arccos(np.array(xstars))[:, None]
    image = np.min([np.abs(np.mod(k * t + side * beta + np.pi, 2.0 * np.pi) - np.pi)
                    for side in (1.0, -1.0)], axis=(0, 1))
    away = image > 1e-9
    assert np.max(np.abs(bounded(z) - bounded_factor(d, k, z))[away]) <= 1e-11
    z = _whole_grid(z)
    assert np.max(np.abs(cdf(z) - pushforward_cdf(d, k, z))) <= 1e-12


@pytest.mark.parametrize("workload", ("experiments", "large_k", "wide_grid"))
def test_the_benchmark_outputs_pass_their_reference_checks(workload, tmp_path, monkeypatch):
    # each unseeded command of one benchmark pass, checked against the
    # recorded reference values within the benchmark's own tolerances
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import checks
    import workloads

    reference = checks.load_reference()
    for name, argv in workloads.commands(workload, 1):
        if workloads.is_seeded(argv):
            continue
        path = tmp_path / name
        assert main(argv + ["--out", str(path)]) == 0, argv
        assert checks.check_file(reference, workload, name, argv, path) == [], argv


def test_budget_accepts_the_documented_runs():
    parser = cli.build_parser()
    accepted = [argv for _, argv in _load_run_experiments().runs(200000)]
    accepted += [
        # the largest k on the default grid: 2.1e8 angle terms
        ["pdf", "--dist", "ramp", "--k", str(MAX_K)],
        ["pdf", "--dist", "ramp", "--k", "1", "--grid", str(MAX_POINTS)],
        ["expand", "--dist", "ramp", "--order", str(MAX_ORDER)],
        ["invariance", "--k", "1024"],
        ["mc", "--dist", "uniform01", "--k", "32", "--n", "1000000", "--seed", "1"],
        ["pdf", "--dist", "gauss:0,0.25", "--k", "128", "--grid", "100000"],
        ["dance", "--ks", "2..12", "--grid", "20000"],
        ["invariance", "--k", "16", "--grid", "50000"],
        ["converge", "--dist", "gauss:0,0.25", "--ks", "1024..8192:1024"],
        ["dance", "--dist", "uniform01", "--ks", "1000..8000:1000"],
        ["pdf", "--dist", "ramp", "--k", "32768"],
    ]
    for argv in accepted:
        cli._check_budget(parser.parse_args(argv))


# small runs of all six subcommands; converge arcsine has a nan column and
# mc has bool trailers; the second dance writes 6000 rows, more than one
# chunk of EMIT_CELLS cells of its one plain float column
EMIT_CASES = (
    ["pdf", "--dist", "gauss:0,0.25", "--k", "5", "--grid", "17"],
    ["dance", "--ks", "2..4", "--grid", "9"],
    ["dance", "--grid", "2000", "--ks", "2..4"],
    ["converge", "--dist", "uniform", "--ks", "8,16,32", "--grid", "33"],
    ["converge", "--dist", "arcsine", "--ks", "4,8,16", "--grid", "33"],
    ["expand", "--dist", "ramp", "--order", "8"],
    ["mc", "--dist", "uniform", "--k", "4", "--n", "2000", "--seed", "1"],
    ["invariance", "--k", "5", "--grid", "17"],
)


def _row_count(columns):
    """The row count of columns as _emit reads it: the first plain column's length."""
    return len(next(c for c in columns if not isinstance(c, tuple)))


def _rows_of(columns):
    """The rows of _emit's columns as tuples of Python scalars, a (values,
    repeat) column read as values[i // repeat % len(values)] at row i."""
    out, rows = [], np.arange(_row_count(columns))
    for column in columns:
        values, repeat = column if isinstance(column, tuple) else (column, None)
        out.append((values if repeat is None else values[rows // repeat % len(values)]).tolist())
    return list(zip(*out))


def _columns(rows, width):
    """_emit's columns of rows, equal-length tuples of Python ints and floats
    with one type per column: a float column as float64, an int column as
    an object array of Python ints, whose %d keeps every digit past 2**63."""
    columns = list(zip(*rows)) or [()] * width
    return tuple(np.array(c, dtype=np.float64 if not c or type(c[0]) is float else object)
                 for c in columns)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("argv", EMIT_CASES, ids=lambda argv: "-".join(argv[:3]))
def test_emit_is_the_reference_byte_for_byte(capsys, monkeypatch, argv, fmt):
    calls = []
    emit = cli._emit

    def recorded(ns, headers, columns, trailers=()):
        calls.append((headers, columns, trailers))
        return emit(ns, headers, columns, trailers)

    monkeypatch.setattr(cli, "_emit", recorded)
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    [(headers, columns, trailers)] = calls
    rows, n = _rows_of(columns), _row_count(columns)
    assert_same_text(out, emit_reference(fmt, headers, rows, trailers))
    # a tuple of one column per header, each a numpy array of float64 or of
    # integers, one value per row, or such an array with a positive int
    # repeat (dance's repeated values) whose values, each repeated, fill the
    # rows a whole number of times; at least one plain column is float64
    assert type(columns) is tuple and len(columns) == len(headers)
    assert any(not isinstance(c, tuple) and c.dtype == np.float64 for c in columns)
    for column in columns:
        values, repeat = column if isinstance(column, tuple) else (column, None)
        assert isinstance(values, np.ndarray) and values.ndim == 1
        assert values.dtype == np.float64 or values.dtype.kind == "i"
        if repeat is None:
            assert len(values) == n
        else:
            assert type(repeat) is int and repeat >= 1
            assert n % (len(values) * repeat) == 0
    summary = [v for _, value in trailers
               for v in (value.values() if isinstance(value, dict) else (value,))]
    assert all(type(v) in (int, float, bool, str) for v in summary)
    if fmt == "json":
        doc = json.loads(out)
        data = doc["rows"] if trailers else doc
    else:
        data = parse_csv(out)[1]
    assert len(rows) == len(data) == n


# usage errors, which exit 2 from the parser with its message
USAGE_ERRORS = (["pdf", "--dist", "gauss:0", "--k", "3"], ["mc", "--k", "4"],
                ["dance", "--ks", "0"], ["expand", "--dist", "ramp", "--order", "-1"])


def _run_to_exit(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_main_with_the_bytes_of_a_fresh_one(capsys, monkeypatch):
    """main parses with one parser per process, cli._parser; build_parser
    gives a new one on each call.

    Every EMIT_CASES argv in both formats, and each usage error, runs twice,
    interleaved, and writes what it writes with a parser built for that run
    alone. ns.func is bound as the parser is built, so a cli.cmd_* patched
    after the first main would not reach main; no test patches one.
    """
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()
    runs = [[*argv, "--format", fmt] for argv in EMIT_CASES for fmt in ("csv", "json")]
    runs += USAGE_ERRORS
    once = [_run_to_exit(capsys, argv) for argv in runs + runs]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_run_to_exit(capsys, argv) for argv in runs]
    errors = len(USAGE_ERRORS)
    assert [code for code, _, _ in fresh] == [0] * (len(runs) - errors) + [2] * errors
    for argv, (code, out, err), (fresh_code, fresh_out, fresh_err) in zip(runs + runs, once,
                                                                         fresh + fresh):
        assert code == fresh_code and err == fresh_err, argv
        assert_same_text(out, fresh_out)


def _csv_run(directory, *argv):
    """(exit code, data rows as floats, trailers) of a CSV run written to a file."""
    path = directory / "out.csv"
    path.unlink(missing_ok=True)
    code = main([*argv, "--out", str(path)])
    if code:
        return code, [], []
    _, rows, trailers = parse_csv(path.read_text())
    return code, [[float(c) for c in row] for row in rows], {t[0]: t[1:] for t in trailers}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mu=st.floats(-1.0, 1.0), log_sigma=st.floats(-6.0, 0.0),
       k_high=st.integers(cli.SERIES_MIN_K + 1, 64), seed=st.integers(0, 2**31 - 1))
def test_a_gaussian_of_any_width_gets_its_law_on_both_sides_of_the_series_route(
        mu, log_sigma, k_high, seed, tmp_path_factory):
    """pdf, dance and a seeded mc at k = SERIES_MIN_K - 1 (the angle sum),
    SERIES_MIN_K and k_high above it, for gauss:MU,SIGMA over all of
    mu in [-1, 1] and log10 sigma in [-6, 0].

    Each exits 0 or 1, writes no negative density, and ks_exact passes from
    SERIES_MIN_K on wherever it passes at SERIES_MIN_K - 1: the series
    route is taken only where the expansion saw the mass. A bump narrower
    than the quadrature's node spacing falls between its nodes, and the
    empty series it gave was read as decayed. The KS gate fails a correct
    law at a rate of about 1e-3, so the examples are derandomized, fixed
    from run to run.
    """
    directory = tmp_path_factory.mktemp("gauss")
    dist = f"gauss:{mu!r},{10.0 ** log_sigma!r}"
    ks = (cli.SERIES_MIN_K - 1, cli.SERIES_MIN_K, k_high)
    for k in ks:
        code, rows, _ = _csv_run(directory, "pdf", "--dist", dist, "--k", str(k), "--grid", "33")
        assert code in (0, 1) and all(f >= 0.0 and s >= 0.0 for _, f, s, _, _ in rows), k
    code, rows, _ = _csv_run(directory, "dance", "--dist", dist, "--ks", ",".join(map(str, ks)),
                             "--grid", "33")
    assert code in (0, 1) and all(f >= 0.0 and 0.0 <= m <= 1.0 for _, _, f, m in rows)
    passed = []
    for k in ks:
        code, rows, trailers = _csv_run(directory, "mc", "--dist", dist, "--k", str(k),
                                        "--n", "1000", "--seed", str(seed))
        assert code in (0, 1) and all(density >= 0.0 for _, _, density in rows), k
        passed.append(code == 0 and trailers["ks_exact"][2] == "true")
    assert not passed[0] or passed[1:] == [True, True], passed


@pytest.mark.parametrize("dist", ("gauss:0,1e-300", "gauss:0.5,1e-200", "gauss:0.25,5e-324"))
def test_a_gaussian_of_any_tiny_width_raises_no_warning(capsys, dist):
    # below sigma = 1e-154 the gaussian's pdf overflowed t * t, and below
    # about 1e-308 its pdf and cdf overflowed (x - mu) / sigma: each a
    # RuntimeWarning on stderr from pdf, dance, converge, expand and mc
    runs = (["pdf", "--k", "8"], ["pdf", "--k", "3"], ["dance", "--ks", "2..12", "--grid", "50"],
            ["converge", "--ks", "8..64:8", "--grid", "50"], ["expand"],
            ["mc", "--k", "8", "--n", "2000"], ["mc", "--k", "3", "--n", "2000"])
    for command, *flags in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, command, "--dist", dist, *flags)
        assert code in (0, 1) and "Warning" not in err, (command, err)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_dance_formats_the_grid_once_and_each_mass_once(capsys, monkeypatch, fmt):
    # z repeats once per k and the mass once per grid point: float_cells
    # gets the 9 grid values once, EMIT_CELLS = 4 at a time, and the 3
    # masses once, and otherwise only the f_k column, its one plain float
    # column, 4 rows to a chunk, each of its values once.
    calls = []
    cells = cli.float_cells

    def spy(values, json_out):
        calls.append(np.array(values).ravel().tolist())
        return cells(values, json_out)

    monkeypatch.setattr(cli, "float_cells", spy)
    monkeypatch.setattr(cli, "EMIT_CELLS", 4)
    code, out, _ = run_cli(capsys, "dance", "--ks", "2..4", "--grid", "9", "--format", fmt)
    assert code == 0
    rows = _dance_rows(make_density("gauss", mu=0.0, sigma=0.25), (2, 3, 4), 9)
    assert [len(c) for c in calls[:4]] == [4, 4, 1, 3]
    grid = default_grid(9).tolist()
    assert calls[:4] == [grid[:4], grid[4:8], grid[8:], [m for _, _, _, m in rows[::9]]]
    assert [len(c) for c in calls[4:]] == [4] * 6 + [3]
    assert sum(calls[4:], []) == [f for _, _, f, _ in rows]
    assert_same_text(out, emit_reference(fmt, ("k", "z", "f_k", "mass_left_of_zero"), rows))


def _dance_rows(d, ks, grid):
    # dance's rows, all numbers, from the same routes
    z = default_grid(grid)
    root = np.sqrt((1.0 - z) * (1.0 + z))
    return [(k, x, f, cdf(0.0))
            for k, (bounded, cdf) in zip(ks, cli._exact_routes(d, ks))
            for x, f in zip(z.tolist(), (bounded(z) / root).tolist())]


@settings(max_examples=30, deadline=None)
@given(ks=st.lists(st.integers(1, 40), min_size=1, max_size=6), grid=st.integers(2, 40),
       dist=st.sampled_from(("gauss:0,0.25", "uniform01", "ramp", "arcsine")),
       fmt=st.sampled_from(("csv", "json")))
def test_dance_is_the_reference_of_its_numeric_rows(ks, grid, dist, fmt, tmp_path_factory):
    # k up to 40 runs both routes, the angle sum below SERIES_MIN_K and the
    # series route from it where the density has one
    target = tmp_path_factory.mktemp("dance") / "out"
    argv = ["dance", "--dist", dist, "--ks", ",".join(map(str, ks)), "--grid", str(grid),
            "--format", fmt, "--out", str(target)]
    assert main(argv) == 0
    rows = _dance_rows(parse_density(dist), tuple(ks), grid)
    headers = ("k", "z", "f_k", "mass_left_of_zero")
    assert_same_text(target.read_text(), emit_reference(fmt, headers, rows))


NAN, INF = float("nan"), float("inf")
EDGE_ROWS = [
    (1, 0.1, 0.0, INF),
    (-7, 1e300, NAN, -INF),
    (2**70, 5e-324, -0.0, 1.0),
]
# three finite rows first, so that with 1, 2 or 3 rows to a chunk the nan
# and the infinities appear only in a later chunk
LATE_EDGE_ROWS = [(i, i / 3, 2.0**-i, -float(i)) for i in range(3)] + EDGE_ROWS
# chunk sizes, in rows, that put chunk boundaries inside the rows above
EMIT_ROWS_SMALL = (1, 2, 3)
EDGE_TRAILERS = (
    (),
    (("scalar", NAN),),
    (("record", {"x": INF, "ok": True, "label": "fit", "n": 3, "y": -0.0}), ("bad", False)),
    # converge's trailer on arcsine: nan beside a str
    (("record", {"value": NAN, "label": "invariant"}),),
)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_emit_is_the_reference_on_edge_values(capsys, monkeypatch, fmt):
    # an int column, a finite float column, then columns holding nan and +-inf
    headers = ("n", "finite", "b%", 'c"')
    ns = SimpleNamespace(format=fmt, out="-")
    # three plain float columns, so EMIT_CELLS = 3 * size puts size rows to a chunk
    for emit_cells in (cli.EMIT_CELLS, *(3 * size for size in EMIT_ROWS_SMALL)):
        monkeypatch.setattr(cli, "EMIT_CELLS", emit_cells)
        for rows in (EDGE_ROWS, EDGE_ROWS[:1], EDGE_ROWS[1:2], [], LATE_EDGE_ROWS):
            for trailers in EDGE_TRAILERS:
                cli._emit(ns, headers, _columns(rows, len(headers)), trailers)
                assert_same_text(capsys.readouterr().out,
                                 emit_reference(fmt, headers, rows, trailers))


@pytest.mark.parametrize("fmt, expected", (
    ("csv", "a,b,c\n1,0.5,7\n2,3,8\n"),
    ("json", '[\n  {\n    "a": 1,\n    "b": 0.5,\n    "c": 7\n  },\n'
             '  {\n    "a": 2,\n    "b": 3.0,\n    "c": 8\n  }\n]\n'),
), ids=("csv", "json"))
def test_each_columns_dtype_fixes_its_format(capsys, monkeypatch, fmt, expected):
    # an integer column of any width is written with %d, and a float64
    # column as floats, an integral one too: 3.0 is "3" in CSV ("%.17g")
    # and 3.0 in JSON (repr), in the first chunk or a later one
    columns = (np.array([1, 2]), np.array([0.5, 3.0]), np.array([7, 8], dtype=np.uint8))
    # one plain float column: EMIT_CELLS = 1 is one row to a chunk
    for emit_cells in (cli.EMIT_CELLS, 1):
        monkeypatch.setattr(cli, "EMIT_CELLS", emit_cells)
        cli._emit(SimpleNamespace(format=fmt, out="-"), ("a", "b", "c"), columns)
        assert capsys.readouterr().out == expected


def _python_texts_spy(monkeypatch):
    """The floats float_cells hands to floattext.python_texts, one list per call."""
    calls = []
    texts = floattext.python_texts

    def spy(values, json_out):
        calls.append(list(values))
        return texts(calls[-1], json_out)

    monkeypatch.setattr(floattext, "python_texts", spy)
    return calls


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_only_what_the_kernel_leaves_reaches_the_python_formatters(capsys, monkeypatch,
                                                                     fmt):
    # the bytes are the same either way, so count the floats: on a float
    # column of nan and +-inf among finite values, python_texts gets exactly
    # the non-finite ones; an output as short as converge's 3 rows of 2
    # floats takes the kernel too, and python_texts gets only the cells the
    # kernel leaves: nan, zero and, in JSON, a power of two
    calls = _python_texts_spy(monkeypatch)
    # no power of two, which repr's asymmetric rounding interval sends to the fallback
    x = np.linspace(-0.9, 1.1, 3000)
    assert not np.any(np.frexp(x)[0] == 0.5)
    y = np.where(np.arange(3000) % 7 == 0, np.array([NAN, INF, -INF])[np.arange(3000) % 3], x)
    cli._emit(SimpleNamespace(format=fmt, out="-"), ("x", "y"), (x, y))
    out = capsys.readouterr().out
    assert_same_text(out, emit_reference(fmt, ("x", "y"), list(zip(x.tolist(), y.tolist()))))
    sent = sum(calls, [])
    assert len(sent) == np.count_nonzero(~np.isfinite(y)) and not any(map(math.isfinite, sent))
    calls.clear()
    code, out, _ = run_cli(capsys, "converge", "--dist", "arcsine", "--ks", "4,8,16", "--grid",
                           "33", "--format", fmt)
    # arcsine has no series, so its asymptotic_prediction_error column is
    # nan, and it is invariant, so its fitted_order is nan too; the trailer
    # is not a cell, and no kernel takes its nan
    assert code == 0 and out.count("nan" if fmt == "csv" else "null") == 4
    sent = sum(calls, [])
    others = [v for v in sent if not math.isnan(v)]
    assert len(sent) - len(others) == 3
    assert all(v == 0.0 or fmt == "json" and abs(math.frexp(v)[0]) == 0.5 for v in others)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_the_kernel_formats_nearly_every_float_of_a_wide_pdf(tmp_path, monkeypatch, fmt):
    # at most 1% of the 5e5 float cells of a 1e5-point pdf reach the
    # per-value Python formatters, so the output path cannot slide back to
    # formatting one cell at a time without this failing
    calls = _python_texts_spy(monkeypatch)
    target = tmp_path / "out"
    assert main(["pdf", "--dist", "gauss:0,0.25", "--k", "128", "--grid", "100000",
                 "--format", fmt, "--out", str(target)]) == 0
    assert sum(map(len, calls)) <= 0.01 * 5 * 100_000


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**80, 2**80), st.floats(),
                               st.floats(allow_nan=False, allow_infinity=False)),
                     max_size=12),
       fmt=st.sampled_from(("csv", "json")))
def test_emit_is_the_reference_on_any_floats(rows, fmt, tmp_path_factory):
    target = tmp_path_factory.mktemp("emit") / "out"
    trailers = (("tail", {"v": rows[0][1] if rows else NAN, "pass": bool(rows)}),)
    columns = _columns(rows, 3)
    default = cli.EMIT_CELLS
    try:
        # two plain float columns, so EMIT_CELLS = 2 * size puts size rows to a chunk
        for cli.EMIT_CELLS in (default, *(2 * size for size in EMIT_ROWS_SMALL)):
            for tail in ((), trailers):
                cli._emit(SimpleNamespace(format=fmt, out=str(target)), ("i", "x", "y"),
                          columns, tail)
                assert_same_text(target.read_text(),
                                 emit_reference(fmt, ("i", "x", "y"), rows, tail))
    finally:
        cli.EMIT_CELLS = default


# floats of each notation float_cells writes, either sign, and the values
# it leaves to the fallback
FLOAT_KINDS = {
    "fixed": st.floats(1e-4, 1e15) | st.floats(-1e15, -1e-4),
    "exponent": st.floats(1e-300, 1e-5) | st.floats(-1e300, -1e17) | st.floats(1e17, 1e300),
    "integral": st.integers(-2**53, 2**53).map(float),
    "fallback": st.sampled_from((NAN, INF, -INF, 0.0, -0.0)),
}


@settings(max_examples=80, deadline=None)
@given(size=st.integers(1, 5), data=st.data(), fmt=st.sampled_from(("csv", "json")))
def test_chunks_of_one_column_trim_to_their_own_widths(size, data, fmt, tmp_path_factory):
    # each chunk of size rows holds one kind of float in its plain float
    # column, so that each drops its own NUL byte positions, beside an int
    # column and a repeated float column of mixed kinds.
    kinds = data.draw(st.lists(st.sampled_from(sorted(FLOAT_KINDS)), min_size=1, max_size=5))
    x = [v for kind in kinds
         for v in data.draw(st.lists(FLOAT_KINDS[kind], min_size=size, max_size=size))]
    repeated = data.draw(st.lists(st.one_of(*FLOAT_KINDS.values()), min_size=1, max_size=3))
    columns = (np.arange(len(x)) - 2, np.array(x), (np.array(repeated), 2))
    headers = ("i", "x", "r")
    target = tmp_path_factory.mktemp("trim") / "out"
    default = cli.EMIT_CELLS
    try:
        cli.EMIT_CELLS = size
        cli._emit(SimpleNamespace(format=fmt, out=str(target)), headers, columns)
    finally:
        cli.EMIT_CELLS = default
    assert_same_text(target.read_text(), emit_reference(fmt, headers, _rows_of(columns)))


def test_dance_keeps_the_grids_cells_trimmed_and_contiguous(tmp_path, monkeypatch):
    # the z cells of dance --grid 20000, kept for every k: 7 bytes of head
    # ("-0.000" and the first digit, for |z| down to 1e-4), 16 digits, and
    # "e-05" for the 6 z below 1e-4 in magnitude, whose text is the longest,
    # 23 bytes. Untrimmed they are floattext.CELL = 32 bytes, and were 48.
    made = []
    column_cells = cli._column_cells

    def spy(values, json_out):
        made.append(column_cells(values, json_out))
        return made[-1]

    monkeypatch.setattr(cli, "_column_cells", spy)
    for fmt in ("csv", "json"):
        made.clear()
        assert main(["dance", "--grid", "20000", "--format", fmt,
                     "--out", str(tmp_path / "out")]) == 0
        _, z, mass = made
        assert z.shape[0] == 20000 and z.shape[1] <= 27
        assert mass.shape[1] <= 20
        assert z.flags.c_contiguous and mass.flags.c_contiguous


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_emit_memory_is_flat_in_the_rows(tmp_path, fmt):
    # one chunk of EMIT_CELLS formatted float cells at a time; built whole before
    # writing, the text of these 2e5 rows peaked at about 50 MB in CSV and
    # 62 MB in JSON. The nan column sends most of its floats to the Python
    # formatters.
    x = np.linspace(-1.0, 1.0, 200_000)
    columns = (x, 0.5 * x, np.where(np.arange(x.size) % 7, NAN, x), -x)
    ns = SimpleNamespace(format=fmt, out=str(tmp_path / "out"))
    tracemalloc.start()
    try:
        cli._emit(ns, ("a", "b", "c", "d"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_dance_holds_no_row_index(tmp_path):
    # 8 k on a 16384-point grid, 131072 rows: f_k is 8 B a row, and _emit
    # holds the grid's cells and one chunk; the whole command peaked at 31 B
    # a row in CSV. Formatting the grid whole, at about 280 B a grid point,
    # it peaked at 45-50 B, and with two int64 row indexes, 16 B a row
    # more, at 61-66 B.
    rows = 8 * 16384
    tracemalloc.start()
    try:
        assert main(["dance", "--ks", "2..9", "--grid", "16384",
                     "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * rows


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_emit_of_dance_holds_one_chunk_and_the_grids_cells(tmp_path, monkeypatch, fmt):
    # dance --grid 16384 writes 23 k x 16384 = 376832 rows. _emit holds the
    # grid's cells, 27 B a grid value once trimmed, formatted EMIT_CELLS at
    # a time, and one chunk: it peaks at 4.8 B a row in CSV and 6.2 B in
    # JSON. With 48 B cells, untrimmed, and float_cells' temporaries at
    # about 315 B a float, it peaked at 7.7 and 9.0 B; formatting the grid
    # whole, at about 282 B a grid value, at 12.5-12.8 B.
    peaks = []
    emit = cli._emit

    def measured(ns, headers, columns, trailers=()):
        tracemalloc.start()
        try:
            emit(ns, headers, columns, trailers)
            peaks.append(tracemalloc.get_traced_memory()[1] / _row_count(columns))
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", measured)
    assert main(["dance", "--grid", "16384", "--format", fmt,
                 "--out", str(tmp_path / "out")]) == 0
    [per_row] = peaks
    assert per_row < 7.0


@pytest.mark.parametrize("argv", (
    # 12000 rows, three chunks of byte matrix
    ["dance", "--ks", "2..5", "--grid", "3000"],
    # a 50-row histogram and its trailers, one chunk
    ["mc", "--dist", "uniform", "--k", "4", "--n", "2000", "--seed", "1", "--format", "json"],
), ids=("dance-csv", "mc-json"))
def test_stdout_gets_the_bytes_of_a_file(tmp_path, argv):
    # in fresh interpreters, as a shell runs them: the bytes written to
    # stdout, a pipe here, are the file's, after the text printed before
    # them and before the text printed after. The text layer holds what is
    # printed until flushed, as it does unless PYTHONUNBUFFERED is set.
    target = tmp_path / "out"
    proc = run_python("-m", "chebpush", *argv, "--out", str(target))
    assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
    script = ("import sys\nfrom chebpush.cli import main\n"
              "sys.stdout.reconfigure(write_through=False)\nprint('before')\n"
              f"code = main({[*argv, '--out', '-']!r})\nprint('after')\nsys.exit(code)\n")
    proc = run_python("-c", script, text=False)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == b"before\n" + target.read_bytes() + b"after\n"


@pytest.mark.parametrize("n", ("50", str(MAX_POINTS + 1)))
def test_run_experiments_refuses_a_bad_n_before_writing(n, tmp_path, monkeypatch, capsys):
    # every mc run needs KS_MIN_SAMPLES to MAX_POINTS samples; a value outside
    # is a usage error before the first file, not a failure at the first mc
    script = _load_run_experiments()
    outdir = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--n", n, "--outdir", str(outdir)])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert "argument --n" in capsys.readouterr().err
    assert not outdir.exists()


def test_run_experiments_writes_every_file(tmp_path, monkeypatch, capsys):
    script = _load_run_experiments()
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--n", "2000",
                                      "--outdir", str(tmp_path)])
    assert script.main() == 0
    names = [name for name, _ in script.runs(2000)]
    assert len(names) == 21
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        headers, rows, _ = parse_csv((tmp_path / name).read_text())
        assert headers and rows, name
