#!/usr/bin/env python3
"""Time each stage of the mc commands of a workload, and the memory it takes.

For each mc command of the workload in benchmarks/workloads.py
(experiments unless --workload names another), runs chebpush.cli.main
once to catch the density, sample count, seed and k it parses and the rows
it hands to cli._emit. Then, in-process, it runs each stage of mc on its
own --repeat times, its inputs made before the clock starts:

- stream: montecarlo.uniform_stream(seed, n);
- ppf: densities.sample on a copy of that stream, handed in for the one
  sample draws, so this is the ppf and its writes;
- push: montecarlo.push_samples(x, k), over a fresh copy x of the draws
  each run, since the push is written over its array;
- sort: montecarlo.SampleBatch of a fresh copy of the pushed draws, which
  it sorts in place;
- ks_exact and ks_limit: montecarlo.ks_statistic against the exact cdf of
  T_k(X) (the route cli._exact_routes picks) and against the arcsine law;
- histogram: montecarlo.histogram;
- _emit: cli._emit of the rows, to os.devnull.

For each stage it prints the fastest time and tracemalloc's peak of one
more run, in bytes a draw: what the stage allocates over its inputs,
temporaries and output alike.

    PYTHONPATH=src python3 scripts/mc_profile.py [--repeat 7] [--workload NAME]

With another checkout's src on PYTHONPATH it profiles that checkout's code
on the same commands.
"""

import argparse
import importlib.util
import math
import os
import pathlib
import time
import tracemalloc
from unittest import mock

from chebpush import cli, densities, montecarlo

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the workload lists and the catch of _emit's arguments, from the sibling script
_emit_profile = _load("emit_profile", ROOT / "scripts" / "emit_profile.py")


def _stage(run, repeat, prepare=tuple):
    """(seconds of the fastest of repeat calls run(*prepare()), tracemalloc
    peak of one more), prepare's work kept out of both."""
    best = math.inf
    for _ in range(repeat):
        args = prepare()
        start = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - start)
    args = prepare()
    tracemalloc.start()
    try:
        run(*args)
        return best, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def profile(argv, repeat):
    """({stage: (seconds, peak bytes)}, in mc's order, and the draw count) of the mc argv."""
    ns, args = _emit_profile._emit_args(argv)
    ns.out = os.devnull
    d, n, seed, k = ns.dist, ns.n, ns.seed, ns.k
    stream = montecarlo.uniform_stream(seed, n)
    draws = densities.sample(d, n, seed)
    pushed = montecarlo.push_samples(draws.copy(), k)
    # sorted before the clock, as mc's KS tests and histogram find it
    batch = montecarlo.SampleBatch(pushed.copy())
    [(_, exact)] = cli._exact_routes(d, (k,))
    arcsine = densities.make_density("arcsine").cdf
    stages = {"stream": _stage(lambda: montecarlo.uniform_stream(seed, n), repeat)}
    with mock.patch.object(densities, "uniform_stream") as handed:
        def ppf(u):
            handed.return_value = u
            densities.sample(d, n, seed)

        stages["ppf"] = _stage(ppf, repeat, lambda: (stream.copy(),))
    stages["push"] = _stage(lambda x: montecarlo.push_samples(x, k), repeat,
                            lambda: (draws.copy(),))
    stages["sort"] = _stage(montecarlo.SampleBatch, repeat, lambda: (pushed.copy(),))
    stages["ks_exact"] = _stage(lambda: montecarlo.ks_statistic(batch, exact), repeat)
    stages["ks_limit"] = _stage(lambda: montecarlo.ks_statistic(batch, arcsine), repeat)
    stages["histogram"] = _stage(lambda: montecarlo.histogram(batch), repeat)
    stages["_emit"] = _stage(lambda: cli._emit(ns, *args), repeat)
    return stages, n


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=7, help="runs per stage (best of)")
    parser.add_argument("--workload", default="experiments",
                        choices=_emit_profile._workloads().WORKLOADS)
    args = parser.parse_args()
    for _, argv in _emit_profile._workloads().commands(args.workload, 1):
        if argv[0] != "mc":
            continue
        stages, n = profile(argv, max(1, args.repeat))
        parts = ", ".join(f"{name} {seconds * 1e3:.2f} ms {peak / n:.1f} B"
                          for name, (seconds, peak) in stages.items())
        print(f"{' '.join(argv)}: {parts}; B a draw at each stage's peak, {n} draws")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
