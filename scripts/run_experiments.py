#!/usr/bin/env python3
"""Reproduce the headline experiments as data files.

Writes one CSV per experiment into the output directory (default ./out):
the dance of a centered gaussian bump across k, convergence traces for
smooth and jump inputs, the arcsine invariance sweep, series expansions,
and seeded Monte Carlo validation runs. Every file is deterministic.
"""

import argparse
import pathlib
import sys

from chebpush.cli import MAX_POINTS
from chebpush.cli import main as chebpush_main
from chebpush.montecarlo import KS_MIN_SAMPLES


def runs(n_mc):
    yield "dance.csv", ["dance"]
    yield "converge_uniform.csv", ["converge", "--dist", "uniform", "--ks", "8..128:8"]
    yield "converge_gauss.csv", ["converge", "--dist", "gauss:0,0.25", "--ks", "8..128:8"]
    yield "converge_uniform01.csv", ["converge", "--dist", "uniform01", "--ks", "8..128:8"]
    yield "converge_arcsine.csv", ["converge", "--dist", "arcsine"]
    yield "invariance.csv", ["invariance", "--k", "64"]
    for dist in ("uniform", "ramp", "gauss:0,0.25"):
        tag = dist.replace(":", "_").replace(",", "_")
        yield f"expand_{tag}.csv", ["expand", "--dist", dist]
    for dist in ("uniform", "gauss:0,0.25", "uniform01", "arcsine"):
        tag = dist.replace(":", "_").replace(",", "_")
        for k in (8, 32):
            yield (f"mc_{tag}_k{k}.csv",
                   ["mc", "--dist", dist, "--k", str(k), "--n", str(n_mc), "--seed", "42"])
    for k in (2, 4, 8, 24):
        yield f"pdf_gauss_k{k}.csv", ["pdf", "--dist", "gauss:0,0.25", "--k", str(k)]


def sample_count(text):
    """--n as an int that every mc run accepts, so a bad value writes no file."""
    n = int(text)
    if not KS_MIN_SAMPLES <= n <= MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"must be at least {KS_MIN_SAMPLES} (the KS needs them) and at most {MAX_POINTS}, "
            f"got {n}")
    return n


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for the CSV files")
    parser.add_argument("--n", type=sample_count, default=200000,
                        help="Monte Carlo sample count per run")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, argv in runs(args.n):
        target = outdir / filename
        code = chebpush_main(argv + ["--out", str(target)])
        if code != 0:
            print(f"failed: {' '.join(argv)} (exit {code})", file=sys.stderr)
            return code
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
