#!/usr/bin/env python3
"""Hash every output of the benchmark workloads, to compare two checkouts.

For each seed given, runs every command of the workloads in
benchmarks/workloads.py through chebpush.cli.main, once with --format csv
and once with --format json, and prints one line per distinct output:
exit code, sha256 of the file written, and argv. Listings of two checkouts
are the same exactly where every output has the same bytes and exit code:

    PYTHONPATH=src python3 scripts/hash_outputs.py 1 2 3 > a.txt
    (in the other checkout, the same into b.txt)
    diff a.txt b.txt

With no --workload the listing also covers scripts/run_experiments.py, run
at the workloads' EXPERIMENTS_N, its default --n. Its commands differ from
the experiments workload's only in their mc seed, 42, so each mc run adds
one line per format. --workload NAME, repeatable, lists only those
workloads' outputs, such as --workload wide_grid, whose commands are not
seeded and take seconds.
"""

import argparse
import hashlib
import importlib.util
import pathlib
import tempfile

from chebpush.cli import main as chebpush_main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(relative):
    """The module at ROOT / relative, loaded from this checkout."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _load("benchmarks/workloads.py")


def _commands(seeds, workloads):
    """Each argv of the workloads at each seed; with none named, then the experiments script's."""
    module = _workloads()
    for seed in seeds:
        for workload in workloads or module.WORKLOADS:
            for _, argv in module.commands(workload, seed):
                yield argv
    if not workloads:
        for _, argv in _load("scripts/run_experiments.py").runs(module.EXPERIMENTS_N):
            yield argv


def listing(seeds, workloads=None):
    """The lines "exit sha256 argv..." of each distinct output, in run order."""
    seen, lines = set(), []
    with tempfile.TemporaryDirectory() as directory:
        target = pathlib.Path(directory) / "out"
        for argv in _commands(seeds, workloads):
            for fmt in ("csv", "json"):
                # the last --format wins, so a command's own is overridden
                run = [*argv, "--format", fmt]
                if tuple(run) in seen:
                    continue
                seen.add(tuple(run))
                target.unlink(missing_ok=True)
                code = chebpush_main([*run, "--out", str(target)])
                data = target.read_bytes() if target.exists() else b""
                lines.append(f"{code} {hashlib.sha256(data).hexdigest()} {' '.join(run)}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("seeds", type=int, nargs="+", help="workload seeds")
    parser.add_argument("--workload", action="append", choices=_workloads().WORKLOADS,
                        metavar="NAME", help="list only this workload's outputs; repeatable")
    args = parser.parse_args()
    for line in listing(args.seeds, args.workload):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
