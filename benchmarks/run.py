"""chebpush benchmark: one workload, whole-run metrics or per-layer metrics.

    python3 benchmarks/run.py --workload experiments --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. With --trace 0 it first starts SETUP_STARTS fresh interpreters,
each timing the import of ``chebpush.cli`` and then one small first
command (SETUP_PROBE). It then starts one
load-generator process (loadgen.py) that runs the workload's command list
back to back for --seconds, and checks every output (checks.py). The
times it reports are rescaled by the speed probe (speedprobe.py) to the
reference machine speed. With --trace 1 the load generator alternates
untraced and traced passes and the per-layer metrics come from the spans of
the traced ones; the spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit, the failure ratio, the sample counts and
the machine record.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 7
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Traced per-layer metrics: span name -> work counts reported beside
# calls, busy_s and self_s.
LAYER_METRICS = {
    "chebpoly.cheb_eval": ("points",),
    "densities.parse_density": (),
    "densities.sample": ("draws",),
    "spectral.expand_density": ("undecayed",),
    "pushforward.bounded_factor": ("angle_evals", "ns_per_angle_eval"),
    "pushforward.pushforward_cdf": ("angle_evals",),
    "pushforward.pushforward_on_grid": (),
    "pushforward.convergence_report": (),
    "pushforward.sup_error": (),
    "pushforward.asymptotic_bounded_factor": (),
    "pushforward.mass_left_of_zero": (),
    "montecarlo.push_samples": (),
    "montecarlo.histogram": (),
    "montecarlo.ks_statistic": ("samples",),
    tracing.KS_CDF: (),
    "cli.main": ("rows", "bytes_out"),
}


def _nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment of the processes that import the package."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's BLAS gets no more threads than there are cores
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, str(_nproc()))
    return env


def machine_record(env):
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; "
         "cfg = numpy.show_config(mode='dicts')['Build Dependencies']; "
         "print(json.dumps([numpy.__version__, scipy.__version__, "
         "cfg.get('blas', {}).get('name')]))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    numpy_version, scipy_version, blas = json.loads(probe.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": _nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
    }


# Run in each fresh interpreter: the import of chebpush.cli, then one small
# gaussian mc command, timed apart. Lazily imported or lazily built state
# moves time from the first figure into the second. The speed probe runs
# during the command only, so the import is timed untouched.
SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import chebpush.cli
t1 = time.perf_counter()
from speedprobe import SpeedProbe
probe = SpeedProbe()
probe.start()
t2 = time.perf_counter()
code = chebpush.cli.main(sys.argv[3:] + ["--out", sys.argv[2]])
first = time.perf_counter() - t2 - probe.spent
probe.stop()
print(json.dumps([t1 - t0, first, probe.samples, code]))
"""
PROBE_ARGV = ["mc", "--dist", "gauss:0,0.25", "--k", "8", "--n", "50000", "--seed", "1"]


def measure_setup(env, outdir):
    """(import times, first-command times, problems) over SETUP_STARTS fresh starts.

    The first-command times are rescaled to the reference speed.
    """
    imports, firsts, problems = [], [], []
    for start in range(SETUP_STARTS):
        path = outdir / f"probe{start}.csv"
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), str(path),
                               *PROBE_ARGV],
                              env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        import_s, first_s, samples, code = json.loads(proc.stdout)
        imports.append(import_s)
        firsts.append(first_s * speedprobe.scale(samples))
        found = [f"exit code {code}"] if code != 0 else checks.check_mc(path)
        problems += [f"setup probe {start}: {p}" for p in found]
    return imports, firsts, problems


def run_loadgen(args, env, outdir):
    result_path = outdir / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "loadgen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--outdir", str(outdir), "--result", str(result_path)],
        env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def ks_retest(argv, env, outdir):
    """Rerun an mc command whose KS check failed, on a fresh derived seed.

    The exact-law KS check rejects a correct sampler with probability about
    1e-3, so one rejection in a run of hundreds of commands is expected
    now and then. An mc command fails only if the rerun also fails; a wrong
    law fails both.
    """
    retry = list(argv)
    at = retry.index("--seed") + 1
    retry[at] = str(int(retry[at]) + 1)
    path = outdir / "retest.csv"
    proc = subprocess.run([sys.executable, "-m", "chebpush", *retry, "--out", str(path)],
                          env=env, cwd=ROOT, timeout=60)
    return proc.returncode == 0 and not checks.check_mc(path)


def check_run(result, env, outdir):
    """(attempted, failed, problems) over every command of every pass."""
    workload = result["workload"]
    reference = checks.load_reference()
    first = result["passes"][0]
    problems = []
    verdict = []
    for index, (name, argv) in enumerate(zip(result["files"], result["commands"])):
        if first["codes"][index] != 0:
            found = [f"exit code {first['codes'][index]} {first['errors'][index]}".strip()]
        else:
            found = checks.check_file(reference, workload, name, argv, outdir / "first" / name)
            if found and workloads.is_seeded(argv) and ks_retest(argv, env, outdir):
                found = []
        verdict.append(not found)
        problems += [f"{name}: {p}" for p in found]
    attempted = len(verdict)
    failed = verdict.count(False)
    for number, record in enumerate(result["passes"][1:], start=1):
        for index, name in enumerate(result["files"]):
            attempted += 1
            if record["codes"][index] != 0:
                problem = f"exit code {record['codes'][index]} {record['errors'][index]}"
            elif record["hashes"][index] != first["hashes"][index]:
                problem = "output differs from the first pass"
            elif not verdict[index]:
                problem = "same output as the failed first pass"
            else:
                continue
            failed += 1
            problems.append(f"pass {number} {name}: {problem.strip()}")
    return attempted, failed, problems


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled_cmd_times(record):
    """A probed pass's command times, rescaled to the reference speed.

    Each command is rescaled by the probe samples taken while it ran, or by
    those of the whole pass if it was too short to be sampled.
    """
    samples = record["probe_s"]
    return [t * speedprobe.scale(samples[a:b] or samples)
            for t, (a, b) in zip(record["cmd_s"], record["cmd_probe"])]


def command_percentiles(times_per_pass):
    """(p50, p90) over the commands of a workload, each at its median over the passes.

    Pooling every pass's samples instead would put p90 on the upper tail of
    whichever single command straddles the top tenth of the list.
    """
    per_command = [statistics.median(times) for times in zip(*times_per_pass)]
    return (statistics.median(per_command),
            statistics.quantiles(per_command, n=10, method="inclusive")[8])


def end_to_end_metrics(result, imports, firsts):
    """(metrics, sample counts, the same times unscaled) of a --trace 0 run.

    A pass's rescaled wall time is the sum of its rescaled command times.
    """
    timed = [p for p in result["passes"] if not p["traced"]]
    scaled = [scaled_cmd_times(p) for p in timed]
    p50, p90 = command_percentiles(scaled)
    metrics = {
        "setup_s": (_median(imports), "s"),
        "first_cmd_ref_s": (_median(firsts), "s"),
        "wall_ref_s": (_median([sum(times) for times in scaled]), "s"),
        "cmd_p50_ref_s": (p50, "s"),
        "cmd_p90_ref_s": (p90, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw_p50, raw_p90 = command_percentiles([p["cmd_s"] for p in timed])
    raw = {
        "wall_s": _median([p["wall_s"] for p in timed]),
        "cmd_p50_s": raw_p50,
        "cmd_p90_s": raw_p90,
        "probe_ms": 1e3 * _median([s for p in timed for s in p["probe_s"]]),
    }
    samples = {"passes": len(timed), "commands": len(scaled[0]),
               "probe_samples": sum(len(p["probe_s"]) for p in timed)}
    return metrics, samples, raw


def _unit(name):
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    return {"ns_per_angle_eval": "ns", "bytes_out": "B"}.get(last, "count")


def layer_metrics(result):
    """Per-layer metrics: medians over the traced passes, per pass."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    per_pass = []
    for record in traced:
        table = tracing.layer_table(record["spans"])
        counts = dict(record["counts"])
        counts["cli.main.bytes_out"] = sum(record["bytes"])
        values = {}
        for span, extras in LAYER_METRICS.items():
            row = table.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            values[f"{span}.calls"] = row["calls"]
            values[f"{span}.busy_s"] = row["busy_s"]
            values[f"{span}.self_s"] = row["self_s"]
            for extra in extras:
                values[f"{span}.{extra}"] = counts.get(f"{span}.{extra}", 0)
        evals = values["pushforward.bounded_factor.angle_evals"]
        values["pushforward.bounded_factor.ns_per_angle_eval"] = (
            1e9 * values["pushforward.bounded_factor.self_s"] / evals if evals else 0.0)
        roots = sum(s[2] - s[1] for s in record["spans"] if s[3] < 0)
        values["trace.remainder_s"] = record["wall_s"] - roots
        values["trace.traced_wall_s"] = record["wall_s"]
        per_pass.append(values)
    metrics = {name: _median([v[name] for v in per_pass]) for name in per_pass[0]}
    metrics["trace.untraced_wall_s"] = _median([p["wall_s"] for p in untraced])
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def write_spans(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        for number, record in enumerate(result["passes"]):
            for span in record.get("spans", []):
                name, start, end, parent, command = span
                fh.write(json.dumps({"pass": number, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "command": command}) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "chebpush" / "cli.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'chebpush'}", file=sys.stderr)
        return 2

    env = child_env()
    machine = machine_record(env)
    print("machine " + json.dumps(machine))
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    outdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        imports, firsts, problems = ([], [], []) if args.trace else measure_setup(env, outdir)
        result = run_loadgen(args, env, outdir)
        attempted, failed, found = check_run(result, env, outdir)
    finally:
        shutil.rmtree(outdir)
    attempted += len(imports)
    failed += len(problems)
    problems += found

    for problem in problems:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = layer_metrics(result)
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(result, spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, samples, raw = end_to_end_metrics(result, imports, firsts)
        print(f"samples: setup_s and first_cmd_ref_s over {len(imports)} fresh starts, "
              f"wall_ref_s over {samples['passes']} passes, cmd_p50_ref_s/cmd_p90_ref_s over "
              f"{samples['commands']} commands at their medians over those passes, "
              f"machine speed over {samples['probe_samples']} probe samples")
        print(f"speed probe: median {raw['probe_ms']:.4g} ms, reference "
              f"{1e3 * speedprobe.REFERENCE_S:.4g} ms; *_ref_s times are rescaled to the "
              f"reference, unscaled: wall_s = {raw['wall_s']:.6g} s, cmd_p50_s = "
              f"{raw['cmd_p50_s']:.6g} s, cmd_p90_s = {raw['cmd_p90_s']:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
