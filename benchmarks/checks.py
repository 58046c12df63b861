"""Correctness checks of workload outputs.

A command fails when it exits nonzero, when its output is not
byte-identical across the passes of a run, or when its output is wrong:

- Unseeded outputs (pdf, dance, converge, expand, invariance) are compared
  with reference values recorded from the package in ``reference.json``:
  header, row count, every row of outputs up to SAMPLED_ROWS rows and an
  evenly spaced sample of SAMPLED_ROWS rows (first and last included) of
  longer ones, each column's sum, and every summary value. Each quantity
  may move by its tolerance in TOLERANCE, scaled by max(1, |reference|).
- Seeded mc outputs must report ``ks_exact`` as passed and their
  histogram must integrate to 1.

``python3 benchmarks/checks.py --record`` rewrites ``reference.json`` from
the package in ``src``. Do that only for a deliberate change of the
reference values, never to make a check pass.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

REFERENCE = pathlib.Path(__file__).with_name("reference.json")
SAMPLED_ROWS = 128

# Allowed deviation per output column or summary value, the tolerance the
# tier-1 tests put on that quantity.
TOLERANCE = {
    "k": 0.0,
    "l": 0.0,
    "z": 1e-12,                            # grid points (test_pushforward)
    "f_k": 1e-9,                           # S_k against the gaussian oracle,
    "s_k": 1e-9,                           # criterion 3 and test_pushforward
    "limit_pdf": 1e-9,
    "abs_error": 1e-9,
    "mass_left_of_zero": 1e-12,            # against the angle-interval oracle
    "sup_error": 1e-9,                     # a max of S_k - 1/pi
    "asymptotic_prediction_error": 1e-8,   # criterion 8, series against direct
    "fitted_order": 1e-6,                  # a log-log slope of the sup errors
    "mu_l": 1e-12,                         # coefficients against the moment oracle
    "normalization_residual": 1e-8,        # test_spectral, gaussian case
    "even_moment_sum": 1e-10,              # test_spectral
    "max_abs_deviation": 1e-13,            # criterion 1
}

# Histogram mass of an mc output must be 1 to this (test_montecarlo, test_cli).
HISTOGRAM_TOL = 1e-12


def _value(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _json_value(value):
    return float("nan") if value is None else value


def parse_output(path):
    """(headers, rows, trailers) of a CSV or JSON output file.

    rows is a list of lists of floats; trailers maps each summary name to
    the list of its values, in the order the output gives them.
    """
    path = pathlib.Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        records = doc if isinstance(doc, list) else doc.pop("rows")
        trailers = {} if isinstance(doc, list) else {
            name: [_json_value(v) for v in (value.values() if isinstance(value, dict)
                                            else [value])]
            for name, value in doc.items()}
        headers = list(records[0]) if records else []
        rows = [[float(_json_value(r[h])) for h in headers] for r in records]
        return headers, rows, trailers
    lines = text.splitlines()
    headers = lines[0].split(",")
    rows, trailers = [], {}
    for line in lines[1:]:
        cells = line.split(",")
        first = _value(cells[0])
        if isinstance(first, float):
            rows.append([float(c) for c in cells])
        else:
            trailers[cells[0]] = [_value(c) for c in cells[1:]]
    return headers, rows, trailers


def _sample_indices(n):
    if n <= SAMPLED_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)})


def _column_sum(rows, col):
    values = [r[col] for r in rows if not math.isnan(r[col])]
    return [math.fsum(values), math.fsum(max(1.0, abs(v)) for v in values)]


def fingerprint(path):
    """The reference record of one output file."""
    headers, rows, trailers = parse_output(path)
    return {
        "headers": headers,
        "nrows": len(rows),
        "rows": {str(i): rows[i] for i in _sample_indices(len(rows))},
        "sums": [_column_sum(rows, c) for c in range(len(headers))],
        "trailers": trailers,
    }


def _close(name, got, ref, scale=None):
    if isinstance(ref, (bool, str)) or isinstance(got, (bool, str)):
        return got == ref
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    scale = max(1.0, abs(ref)) if scale is None else scale
    return abs(got - ref) <= TOLERANCE[name] * scale


def compare(path, ref):
    """Problems of one unseeded output against its reference record."""
    headers, rows, trailers = parse_output(path)
    if headers != ref["headers"]:
        return [f"headers {headers} != {ref['headers']}"]
    if len(rows) != ref["nrows"]:
        return [f"{len(rows)} rows, reference has {ref['nrows']}"]
    problems = []
    for index, ref_row in ref["rows"].items():
        for name, got, want in zip(headers, rows[int(index)], ref_row):
            if not _close(name, got, want):
                problems.append(f"row {index} {name}: {got!r} != {want!r}")
    for col, (name, (want, scale)) in enumerate(zip(headers, ref["sums"])):
        got = _column_sum(rows, col)[0]
        if not _close(name, got, want, scale):
            problems.append(f"column sum {name}: {got!r} != {want!r}")
    if set(trailers) != set(ref["trailers"]):
        problems.append(f"summaries {sorted(trailers)} != {sorted(ref['trailers'])}")
    for name, want in ref["trailers"].items():
        got = trailers.get(name, [])
        if len(got) != len(want) or not all(_close(name, g, w) for g, w in zip(got, want)):
            problems.append(f"summary {name}: {got!r} != {want!r}")
    return problems[:5]


def check_mc(path):
    """Problems of one seeded mc output."""
    headers, rows, trailers = parse_output(path)
    problems = []
    ks = trailers.get("ks_exact", [])
    if len(ks) != 3 or ks[2] is not True:
        problems.append(f"ks_exact did not pass: {ks!r}")
    mass = math.fsum((right - left) * density for left, right, density in rows)
    if not abs(mass - 1.0) <= HISTOGRAM_TOL:
        problems.append(f"histogram integrates to {mass!r}")
    return problems


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_file(reference, workload, name, argv, path):
    """Problems of one output file of the workload; empty when correct."""
    if not pathlib.Path(path).exists():
        return ["no output written"]
    if workloads.is_seeded(argv):
        return check_mc(path)
    ref = reference.get(workload, {}).get(name)
    if ref is None or ref["argv"] != argv:
        return [f"no reference recorded for {' '.join(argv)}"]
    return compare(path, ref)


def record(root):
    """Run every unseeded command once and write reference.json."""
    sys.path.insert(0, str(root / "src"))
    import chebpush.cli as cli

    reference = {}
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    outdir = pathlib.Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        for workload in workloads.WORKLOADS:
            reference[workload] = {}
            for name, argv in workloads.commands(workload, seed=0):
                if workloads.is_seeded(argv):
                    continue
                path = outdir / name
                code = cli.main(argv + ["--out", str(path)])
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
                reference[workload][name] = {"argv": argv, **fingerprint(path)}
    finally:
        shutil.rmtree(outdir)
    REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--record", action="store_true", required=True,
                        help="rewrite reference.json from the package in src")
    parser.parse_args()
    record(pathlib.Path(__file__).resolve().parent.parent)
