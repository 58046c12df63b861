import json
import subprocess
import sys

import numpy as np
import pytest

from chebpush import cli
from chebpush.cli import MAX_K, main, parse_ks


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_k_above_the_cap_exits_one_before_computing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("pushforward_on_grid", "mass_left_of_zero", "convergence_report",
                 "expand_density", "sample", "sup_error"):
        monkeypatch.setattr(cli, name, refuse)
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
    from chebpush.densities import make_density
    from chebpush.pushforward import default_grid, pushforward_pdf

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


def test_converge_uniform01_labeled_empirical(capsys):
    with pytest.warns(RuntimeWarning):
        code, out, _ = run_cli(capsys, "converge", "--dist", "uniform01",
                               "--ks", "8,16,32", "--grid", "101")
    assert code == 0
    _, rows, trailers = parse_csv(out)
    errs = [float(r[1]) for r in rows]
    assert errs[-1] < errs[0]
    assert trailers[0][2] == "empirical"


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


def test_import_leaves_out_scipy_integrate():
    # a fresh interpreter: this test session itself imports quad for the oracles
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chebpush.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chebpush", "invariance", "--k", "3", "--grid", "33"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,max_abs_deviation")
