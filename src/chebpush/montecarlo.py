"""Deterministic Monte Carlo support.

Uniform variates come from a counter-based generator (Philox) keyed by the
seed, so the same seed always gives the same draws. Batches of draws can be
pushed through Chebyshev maps elementwise and tested against a cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import _index, cheb_eval

# One-sample Kolmogorov-Smirnov acceptance factor; 1.95/sqrt(n) corresponds
# to alpha ~ 0.001.
KS_FACTOR = 1.95

# Fewer samples than this make the KS statistic too noisy to gate anything.
KS_MIN_SAMPLES = 100


def uniform_stream(seed, n):
    """The first n uniform variates of the Philox stream keyed by seed."""
    n = _index(n, 0, "sample count")
    if seed % 1 != 0:  # 0 for any int, however large; nan for inf and nan
        raise ValueError(f"seed must be an integer, got {seed!r}")
    bitgen = np.random.Philox(key=np.uint64(int(seed) & (2**64 - 1)))
    return np.random.Generator(bitgen).random(n)


@dataclass(frozen=True)
class SampleBatch:
    """Draws on [-1, 1], as drawn or after pushes through T_k."""

    values: np.ndarray

    @property
    def n(self):
        return len(self.values)


def push_samples(batch, k):
    """Apply T_k elementwise; pushes compose multiplicatively in k."""
    k = _index(k, 1, "push index")
    # T_1 is the identity; keep it exact instead of the cos(arccos x) roundtrip
    return batch if k == 1 else SampleBatch(cheb_eval(k, batch.values))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float
    passed: bool


def ks_statistic(batch, cdf):
    """One-sample KS distance of batch.values against a reference cdf.

    Sorted-sample formula: D = max(D+, D-) with D+ = max_i(i/n - F(x_(i)))
    and D- = max_i(F(x_(i)) - (i-1)/n). The test passes below
    KS_FACTOR / sqrt(n). Below n = KS_MIN_SAMPLES the statistic is too
    noisy to gate anything, so that is rejected outright.
    """
    n = batch.n
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS needs at least {KS_MIN_SAMPLES} samples, got {n}")
    xs = np.sort(batch.values)
    ref = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - ref))
    d_minus = float(np.max(ref - (i - 1) / n))
    stat = max(d_plus, d_minus)
    thr = KS_FACTOR / math.sqrt(n)
    return KSResult(statistic=stat, threshold=thr, passed=stat < thr)


def histogram(batch):
    """Density-normalized 50-bin histogram of a batch on [-1, 1].

    Returns (edges, density); density * bin width sums to 1.
    """
    density, edges = np.histogram(batch.values, bins=50, range=(-1.0, 1.0), density=True)
    return edges, density
