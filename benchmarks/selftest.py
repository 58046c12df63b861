"""Self-tests of the benchmark harness.

    python3 benchmarks/selftest.py

Runs each workload once through the load generator in traced mode (two
untraced and two traced passes), and large_k once more with the speed probe
(three passes), about a minute in all, and checks that:

- traced, untraced and probed passes write byte-identical outputs, and the
  probe samples every probed pass and no other;
- work counts repeat exactly across the two traced passes;
- per-layer self times plus the untraced remainder sum to the pass wall time;
- every metric name matches [A-Za-z0-9_.-]+ and the names run.py reports
  are exactly those BENCHMARK.json lists;
- the output checks accept the package's outputs and reject a perturbed
  value, a failed KS check and a histogram that does not integrate to 1;
- the workload seed changes only the mc seeds.
"""

import argparse
import json
import pathlib
import re
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# Key of the one --trace 0 run, of the large_k workload, that runs with the
# speed probe.
PROBED = "large_k probed"


def traced_runs(scratch):
    """{workload: (load-generator result, output directory)}, plus PROBED."""
    env = run.child_env()
    runs = {}
    for workload, trace in [(w, 1) for w in workloads.WORKLOADS] + [("large_k", 0)]:
        key = workload if trace else PROBED
        outdir = scratch / key.replace(" ", "-")
        outdir.mkdir()
        args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=trace)
        runs[key] = (run.run_loadgen(args, env, outdir), outdir)
    return runs


def test_traced_outputs_are_identical(runs):
    for workload, (result, _) in _traced(runs):
        passes = result["passes"]
        assert sum(p["traced"] for p in passes) >= 2, workload
        assert sum(not p["traced"] for p in passes) >= 2, workload
        for record in passes:
            assert all(code == 0 for code in record["codes"]), (workload, record["errors"])
            assert record["hashes"] == passes[0]["hashes"], workload


def test_work_counts_repeat(runs):
    for workload, (result, _) in _traced(runs):
        traced = [p for p in result["passes"] if p["traced"]]
        calls = [{name: row["calls"] for name, row in tracing.layer_table(p["spans"]).items()}
                 for p in traced]
        assert all(c == calls[0] for c in calls), workload
        assert all(p["counts"] == traced[0]["counts"] for p in traced), workload
        assert traced[0]["counts"].get("cli.main.rows", 0) > 0, workload


def test_self_times_sum_to_wall(runs):
    for workload, (result, _) in _traced(runs):
        for record in (p for p in result["passes"] if p["traced"]):
            spans = record["spans"]
            own = tracing.self_times(spans)
            assert min(own) > -1e-9, workload
            remainder = record["wall_s"] - sum(s[2] - s[1] for s in spans if s[3] < 0)
            assert remainder >= 0.0, workload
            total = sum(tracing.layer_table(spans)[name]["self_s"]
                        for name in {s[0] for s in spans})
            assert abs(total + remainder - record["wall_s"]) <= 1e-9 * record["wall_s"], workload


def _traced(runs):
    return [(key, value) for key, value in runs.items() if key != PROBED]


def test_probe_keeps_outputs_and_samples_every_pass(runs):
    probed = runs[PROBED][0]["passes"]
    traced = runs["large_k"][0]["passes"]
    for record in probed:
        assert not record["traced"]
        assert all(code == 0 for code in record["codes"]), record["errors"]
        assert record["hashes"] == traced[0]["hashes"]
        # a pass of large_k takes seconds, so the timer fired many times
        assert len(record["probe_s"]) > 10, len(record["probe_s"])
        assert 0.0 < sum(record["cmd_s"]) <= record["wall_s"]
    assert all(not p["probe_s"] for p in traced)


def test_metric_names(runs):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    result, _ = runs["experiments"]
    layer = run.layer_metrics(result)
    assert [e["name"] for e in spec["per_layer"]] == list(layer), list(layer)
    for name, (_, unit) in layer.items():
        assert NAME.fullmatch(name), name
        assert unit == next(e["unit"] for e in spec["per_layer"] if e["name"] == name), name
    whole, _, _ = run.end_to_end_metrics(runs[PROBED][0], [1.0], [1.0])
    assert [e["name"] for e in spec["end_to_end"]] == list(whole), list(whole)
    for name, (_, unit) in whole.items():
        assert unit == next(e["unit"] for e in spec["end_to_end"] if e["name"] == name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _perturb(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_checks_accept_and_reject(runs):
    result, outdir = runs["experiments"]
    reference = checks.load_reference()
    first = outdir / "first"
    for name, argv in zip(result["files"], result["commands"]):
        assert not checks.check_file(reference, "experiments", name, argv, first / name), name

    pdf_argv = result["commands"][result["files"].index("pdf_gauss_k8.csv")]
    row = (first / "pdf_gauss_k8.csv").read_text(encoding="utf-8").splitlines()[1]
    f_k = row.split(",")[1]
    _perturb(first / "pdf_gauss_k8.csv", row, row.replace(f_k, repr(float(f_k) * (1 + 1e-6))))
    assert checks.check_file(reference, "experiments", "pdf_gauss_k8.csv", pdf_argv,
                             first / "pdf_gauss_k8.csv")

    mc = next(n for n in result["files"] if n.startswith("mc_"))
    mc_argv = result["commands"][result["files"].index(mc)]
    text = (first / mc).read_text(encoding="utf-8")
    ks_line = next(ln for ln in text.splitlines() if ln.startswith("ks_exact,"))
    shutil.copy(first / mc, first / "mc_copy.csv")
    _perturb(first / mc, ks_line, ks_line.replace("true", "false"))
    assert checks.check_file(reference, "experiments", mc, mc_argv, first / mc)
    first_row = text.splitlines()[1]
    left, right, density = first_row.split(",")
    _perturb(first / "mc_copy.csv", first_row, f"{left},{right},{float(density) + 1e-3!r}")
    assert checks.check_mc(first / "mc_copy.csv")


def test_seed_changes_only_mc_seeds(runs):
    for workload in workloads.WORKLOADS:
        assert workloads.commands(workload, 3) == workloads.commands(workload, 3)
    a = workloads.commands("experiments", 1)
    b = workloads.commands("experiments", 2)
    for (name_a, argv_a), (name_b, argv_b) in zip(a, b):
        assert name_a == name_b
        if workloads.is_seeded(argv_a):
            assert argv_a[:-1] == argv_b[:-1] and argv_a[-1] != argv_b[-1]
        else:
            assert argv_a == argv_b


def main():
    if not (run.ROOT / "src" / "chebpush").is_dir():
        print("selftest: no package source under src/", file=sys.stderr)
        return 2
    scratch_root = run.ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    failures = 0
    try:
        runs = traced_runs(scratch)
        for name, test in sorted(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test(runs)
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    finally:
        shutil.rmtree(scratch)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
