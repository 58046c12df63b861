"""Command lists of the benchmark workloads.

Each workload is a list of (output file name, argv) pairs fed to
``chebpush.cli.main`` back to back, one client in one process. The workload
seed only chooses the ``mc --seed`` values of ``experiments``; every other
argument is fixed, so the same seed always gives the same argv lists.
"""

import random

WORKLOADS = ("experiments", "large_k", "wide_grid")

# Monte Carlo sample count per mc run, as `scripts/run_experiments.py --n`.
EXPERIMENTS_N = 200000


def _tag(dist):
    return dist.replace(":", "_").replace(",", "_")


def _experiments(seed):
    # The command list of scripts/run_experiments.py, copied so that later
    # edits to the script do not silently change the workload.
    mc_seeds = random.Random(f"experiments:{seed}")
    yield "dance.csv", ["dance"]
    yield "converge_uniform.csv", ["converge", "--dist", "uniform", "--ks", "8..128:8"]
    yield "converge_gauss.csv", ["converge", "--dist", "gauss:0,0.25", "--ks", "8..128:8"]
    yield "converge_uniform01.csv", ["converge", "--dist", "uniform01", "--ks", "8..128:8"]
    yield "converge_arcsine.csv", ["converge", "--dist", "arcsine"]
    yield "invariance.csv", ["invariance", "--k", "64"]
    for dist in ("uniform", "ramp", "gauss:0,0.25"):
        yield f"expand_{_tag(dist)}.csv", ["expand", "--dist", dist]
    for dist in ("uniform", "gauss:0,0.25", "uniform01", "arcsine"):
        for k in (8, 32):
            mc_seed = mc_seeds.randrange(2**31)
            yield (f"mc_{_tag(dist)}_k{k}.csv",
                   ["mc", "--dist", dist, "--k", str(k), "--n", str(EXPERIMENTS_N),
                    "--seed", str(mc_seed)])
    for k in (2, 4, 8, 24):
        yield f"pdf_gauss_k{k}.csv", ["pdf", "--dist", "gauss:0,0.25", "--k", str(k)]


def _large_k(seed):
    # Many large k on the default 201-point grid: per-k Python overhead of
    # the angle sum and of the scalar cdf behind mass_left_of_zero.
    yield "converge_gauss.csv", ["converge", "--dist", "gauss:0,0.25",
                                 "--ks", "1024..8192:1024"]
    yield "dance_uniform01.csv", ["dance", "--dist", "uniform01", "--ks", "1000..8000:1000"]
    yield "pdf_ramp_k32768.csv", ["pdf", "--dist", "ramp", "--k", "32768"]


def _wide_grid(seed):
    # Few moderate k on wide grids, CSV and JSON: wide vectors through the
    # same pushforward layer, and output formatting in cli.
    yield "pdf_gauss_k128.json", ["pdf", "--dist", "gauss:0,0.25", "--k", "128",
                                  "--grid", "100000", "--format", "json"]
    yield "dance_gauss.csv", ["dance", "--ks", "2..12", "--grid", "20000"]
    yield "invariance.csv", ["invariance", "--k", "16", "--grid", "50000"]


_BUILDERS = {"experiments": _experiments, "large_k": _large_k, "wide_grid": _wide_grid}


def commands(workload, seed):
    """The (file name, argv) list of one pass of the workload."""
    return list(_BUILDERS[workload](seed))


def is_seeded(argv):
    """Whether the command's output depends on the workload seed."""
    return argv[0] == "mc"
