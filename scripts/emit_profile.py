#!/usr/bin/env python3
"""Time chebpush.cli._emit on the rows of each command of a workload, by stage.

For each command of the workload in benchmarks/workloads.py (wide_grid
unless --workload names another), runs chebpush.cli.main once to catch the
rows the command hands to cli._emit, then writes those rows with _emit
--repeat times, in-process, to os.devnull. For the fastest of those writes
it prints _emit's time and its split:

- float_cells: every call of cli.float_cells, for the repeated columns'
  cells and for each chunk's;
- build: the rest, mostly each chunk's byte matrix built from its cells;
- translate: bytearray.translate, which drops the NULs of each chunk;
- write: the writes to the output;

then the bytes per row of the matrices handed to translate, and the rows.
A last line sums each stage, and the rows, over the workload's commands,
in ms to two decimals, so that a change of a tenth of a ms a command
shows in the total of a pass.

    PYTHONPATH=src python3 scripts/emit_profile.py [--repeat 7] [--workload NAME]

With another checkout's src on PYTHONPATH it times that checkout's _emit
on the same commands.
"""

import argparse
import importlib.util
import os
import pathlib
import sys
import time
from unittest import mock

from chebpush import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _workloads():
    """benchmarks/workloads.py, loaded from this checkout."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Clock:
    """The seconds of each stage of one _emit, and the bytes handed to translate."""

    def __init__(self):
        self.float_cells = self.translate = self.write = 0.0
        self.translated = 0


def _instruments(clock):
    """Stand-ins for cli.float_cells, cli's bytearray and sys.stdout that
    add their time (and translate's bytes) to clock."""
    cells = cli.float_cells

    def float_cells(*args):
        start = time.perf_counter()
        try:
            return cells(*args)
        finally:
            clock.float_cells += time.perf_counter() - start

    class Chunk(bytearray):
        def translate(self, *args):
            clock.translated += len(self)
            start = time.perf_counter()
            text = bytearray.translate(self, *args)
            clock.translate += time.perf_counter() - start
            return text

    class Out:
        """sys.stdout as _emit uses it: flush, and buffer.write to os.devnull."""

        def __init__(self, sink):
            self.buffer, self._sink = self, sink

        def flush(self):
            pass

        def write(self, data):
            start = time.perf_counter()
            self._sink.write(data)
            clock.write += time.perf_counter() - start

    return float_cells, Chunk, Out


def _emit_args(argv):
    """The arguments of the one _emit call of cli.main(argv)."""
    calls = []
    with mock.patch.object(cli, "_emit", lambda *args: calls.append(args)):
        code = cli.main([*argv, "--out", os.devnull])
    if code:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    [(ns, *args)] = calls
    ns.out = "-"
    return ns, args


def profile(argv, repeat):
    """(seconds of _emit, its _Clock, rows) of the fastest of repeat writes."""
    ns, args = _emit_args(argv)
    best = None
    with open(os.devnull, "wb") as sink:
        for _ in range(repeat):
            clock = _Clock()
            float_cells, chunk, out = _instruments(clock)
            with mock.patch.object(cli, "float_cells", float_cells), \
                    mock.patch.object(cli, "bytearray", chunk, create=True), \
                    mock.patch.object(sys, "stdout", out(sink)):
                start = time.perf_counter()
                cli._emit(ns, *args)
                total = time.perf_counter() - start
            if best is None or total < best[0]:
                best = total, clock
    # the rows of the first plain column, as _emit counts them
    return (*best, len(next(c for c in args[1] if not isinstance(c, tuple))))


def _stages(seconds, spec):
    """_emit's time and its split, in ms formatted by spec."""
    return ("_emit {} ms = float_cells {} + build {} + translate {} + write {}"
            .format(*(format(t * 1e3, spec) for t in seconds)))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=7, help="writes per command (best of)")
    parser.add_argument("--workload", default="wide_grid", choices=_workloads().WORKLOADS)
    args = parser.parse_args()
    sums, all_rows = [0.0] * 5, 0
    for _, argv in _workloads().commands(args.workload, 1):
        total, clock, rows = profile(argv, max(1, args.repeat))
        build = total - clock.float_cells - clock.translate - clock.write
        stages = (total, clock.float_cells, build, clock.translate, clock.write)
        sums = [s + t for s, t in zip(sums, stages)]
        all_rows += rows
        print(f"{' '.join(argv)}: {_stages(stages, '.1f')}; "
              f"{clock.translated / max(rows, 1):.1f} B a row to translate, {rows} rows")
    print(f"total: {_stages(sums, '.2f')}; {all_rows} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
