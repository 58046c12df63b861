"""Deterministic Monte Carlo support.

Uniform variates come from a counter-based generator (Philox) keyed by the
seed, so the same seed always gives the same draws. Batches of draws can be
pushed through Chebyshev maps elementwise and tested against a cdf. A batch
is sorted once, on first use, and every KS test and the histogram of it read
that one sorted copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Draws on [-1, 1], as drawn or after pushes through T_k.

    values keeps the draw order, which pushes compose on; ordered is the
    same values sorted, made on first use and then shared by ks_statistic
    and histogram, so a batch is sorted once however often it is tested.
    """

    values: np.ndarray

    @property
    def n(self):
        return len(self.values)

    @cached_property
    def ordered(self):
        # cached_property writes the instance __dict__, which frozen allows
        return np.sort(self.values)


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
    and D- = max_i(F(x_(i)) - (i-1)/n), the x_(i) read from batch.ordered.
    The ranks i/n are one float vector, bit for bit the int64 i / n. The
    test passes below KS_FACTOR / sqrt(n). Below n = KS_MIN_SAMPLES the
    statistic is too noisy to gate anything, so that is rejected outright.
    """
    n = batch.n
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS needs at least {KS_MIN_SAMPLES} samples, got {n}")
    ref = np.asarray(cdf(batch.ordered), dtype=float)
    ranks = np.arange(n + 1.0) / n
    d_plus = float(np.max(ranks[1:] - ref))
    d_minus = float(np.max(ref - ranks[:-1]))
    stat = max(d_plus, d_minus)
    thr = KS_FACTOR / math.sqrt(n)
    return KSResult(statistic=stat, threshold=thr, passed=stat < thr)


def histogram(batch):
    """Density-normalized 50-bin histogram of a batch on [-1, 1].

    Returns (edges, density); density * bin width sums to 1. The counts are
    taken by bisection on batch.ordered under np.histogram's rule: bin i
    holds edges[i] <= x < edges[i + 1], the last bin is closed, and values
    outside [-1, 1] or nan are dropped. The density is its formula too, so
    the result is np.histogram(values, 50, (-1, 1), density=True) bit for bit.
    """
    edges = np.linspace(-1.0, 1.0, 51)
    below = np.searchsorted(batch.ordered, edges, side="left")
    below[-1] = np.searchsorted(batch.ordered, edges[-1], side="right")
    counts = np.diff(below)
    return edges, counts / np.diff(edges) / counts.sum()
