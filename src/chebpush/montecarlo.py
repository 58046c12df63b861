"""Deterministic Monte Carlo support.

Uniform variates come from a counter-based generator (Philox) keyed by the
seed, so the same seed always gives the same draws. Batches carry their
provenance and can be pushed through Chebyshev maps elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import cheb_eval

# One-sample Kolmogorov-Smirnov acceptance factor; 1.95/sqrt(n) corresponds
# to alpha ~ 0.001.
KS_FACTOR = 1.95


def uniform_stream(seed, n):
    """The first n uniform variates of the Philox stream keyed by seed."""
    if int(n) != n or n < 0:
        raise ValueError(f"sample count must be a nonnegative integer, got {n!r}")
    bitgen = np.random.Philox(key=np.uint64(int(seed) & (2**64 - 1)))
    return np.random.Generator(bitgen).random(int(n))


@dataclass(frozen=True)
class SampleBatch:
    """Seeded draws plus provenance.

    k records the net Chebyshev index applied to the original draws
    (0 means untransformed); source is the catalog name of the density
    the draws came from.
    """

    values: np.ndarray
    seed: int
    n: int
    k: int
    source: str

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ValueError("batch length disagrees with its declared count")


def push_samples(batch, k):
    """Apply T_k elementwise; pushes compose multiplicatively in k."""
    if int(k) != k or k < 1:
        raise ValueError(f"push index must be a positive integer, got {k!r}")
    k = int(k)
    # T_1 is the identity; keep it exact instead of the cos(arccos x) roundtrip
    values = batch.values if k == 1 else cheb_eval(k, batch.values)
    new_k = k if batch.k == 0 else batch.k * k
    return SampleBatch(values=values, seed=batch.seed, n=batch.n, k=new_k,
                       source=batch.source)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int
    threshold: float
    passed: bool


def ks_statistic(batch, cdf):
    """One-sample KS distance of batch.values against a reference cdf.

    Sorted-sample formula: D = max(D+, D-) with D+ = max_i(i/n - F(x_(i)))
    and D- = max_i(F(x_(i)) - (i-1)/n). The test passes below
    KS_FACTOR / sqrt(n). Below n = 100 the statistic is too noisy to gate
    anything, so that is rejected outright.
    """
    n = batch.n
    if n < 100:
        raise ValueError(f"KS needs at least 100 samples, got {n}")
    xs = np.sort(batch.values)
    ref = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - ref))
    d_minus = float(np.max(ref - (i - 1) / n))
    stat = max(d_plus, d_minus)
    thr = KS_FACTOR / math.sqrt(n)
    return KSResult(statistic=stat, n=n, threshold=thr, passed=stat < thr)


def histogram(batch, bins=50):
    """Density-normalized histogram of a batch on [-1, 1].

    Returns (edges, density); density * bin width sums to 1.
    """
    if int(bins) != bins or bins < 4:
        raise ValueError(f"need at least 4 bins, got {bins!r}")
    density, edges = np.histogram(batch.values, bins=int(bins), range=(-1.0, 1.0),
                                  density=True)
    return edges, density
