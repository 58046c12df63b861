"""Load generator: runs one workload's command list in this process.

Started by run.py as a fresh interpreter with the package's ``src`` on
PYTHONPATH. It imports ``chebpush.cli`` once, then runs timed passes of the
command list back to back (a closed loop with one client) until the time
budget is spent. The first pass writes to ``first/`` and is kept for
checking; later passes overwrite ``hot/``. With --trace 0 the speed probe
(speedprobe.py) samples the machine's speed during every pass, and its own
time is taken out of the command times. With --trace 1 there is no probe;
the run alternates untraced and traced passes, so the tracing overhead is
measured on the same process. Outputs are hashed after each pass, outside
the timed region. The result, spans included, goes to one JSON file.
"""

import argparse
import hashlib
import json
import os
import pathlib
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_pass(cli, cmds, outdir, tracer=None, pass_id=0, probe=None):
    """Run the command list once; return per-command codes, times, hashes.

    With a probe, the probe's samples are returned too, with the range of
    them taken during each command, and the time spent in the probe is left
    out of the command and pass times.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    for name, _ in cmds:
        (outdir / name).unlink(missing_ok=True)
    codes, times, errors, sampled = [], [], [], []

    def probe_spent():
        return probe.spent if probe is not None else 0.0

    def probe_count():
        return len(probe.samples) if probe is not None else 0

    if probe is not None:
        probe.start()
    start = time.perf_counter()
    for index, (name, argv) in enumerate(cmds):
        if tracer is not None:
            tracer.command = f"p{pass_id}c{index}"
        error = ""
        spent, first_sample = probe_spent(), probe_count()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv + ["--out", str(outdir / name)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command counts as failed; keep going
            code = -1
            error = traceback.format_exc()
        times.append(time.perf_counter() - t0 - (probe_spent() - spent))
        sampled.append((first_sample, probe_count()))
        codes.append(code)
        errors.append(error)
    wall = time.perf_counter() - start - probe_spent()
    if probe is not None:
        probe.stop()
    hashes, sizes = [], []
    for name, _ in cmds:
        path = outdir / name
        hashes.append(_digest(path) if path.exists() else None)
        sizes.append(path.stat().st_size if path.exists() else 0)
    return {"traced": tracer is not None, "wall_s": wall, "cmd_s": times,
            "probe_s": probe.samples if probe is not None else [], "cmd_probe": sampled,
            "codes": codes, "errors": errors, "hashes": hashes, "bytes": sizes}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=pathlib.Path, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    args = parser.parse_args()

    import chebpush.cli as cli

    cmds = workloads.commands(args.workload, args.seed)
    need_untraced = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    need_traced = MIN_TRACED_PASSES if args.trace else 0
    passes = []
    begin = time.perf_counter()
    while True:
        traced = sum(p["traced"] for p in passes)
        untraced = len(passes) - traced
        if (time.perf_counter() - begin >= args.seconds
                and untraced >= need_untraced and traced >= need_traced):
            break
        outdir = args.outdir / ("hot" if passes else "first")
        if args.trace and untraced > traced:
            tracer = Tracer()
            tracer.install()
            try:
                record = run_pass(cli, cmds, outdir, tracer, len(passes))
            finally:
                tracer.uninstall()
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        else:
            probe = None if args.trace else SpeedProbe()
            record = run_pass(cli, cmds, outdir, None, len(passes), probe)
        passes.append(record)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": [argv for _, argv in cmds],
        "files": [name for name, _ in cmds],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
