"""Deterministic Monte Carlo support.

Uniform variates come from a counter-based generator (Philox) keyed by the
seed, so the same seed always gives the same draws. Batches of draws can be
pushed through Chebyshev maps elementwise and tested against a cdf. A batch
is sorted once, on first use, and every KS test and the histogram of it read
that one sorted copy.

A KS test reads its cdf only where the supremum can be. The cdf is
nondecreasing, so on a block of sorted samples its values at the two ends
bound every term of the statistic inside. ks_statistic evaluates the cdf
on a coarse subset of the sorted samples, then, finer at each pass, only
inside the blocks whose bound can still beat the largest term found. That
set holds the argmax, so the statistic is the full scan's bit for bit,
from about 2-3% of the cdf values at n = 2e5. A cdf seen to fall between
evaluated points gets the full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chebpoly import _in_chunks, _index, cheb_eval

# One-sample Kolmogorov-Smirnov acceptance factor; 1.95/sqrt(n) corresponds
# to alpha ~ 0.001.
KS_FACTOR = 1.95

# Fewer samples than this make the KS statistic too noisy to gate anything.
KS_MIN_SAMPLES = 100

# How far ks_statistic lets the cdf fall from one sorted sample to a later
# one, as rounding might make it; a larger fall between the points it
# evaluates sends it to the full scan. A block is left unread only if its
# bound is below the largest term by more than twice this. The catalog
# cdfs never fell on the 2e5 sorted samples of the experiments' mc runs,
# nor on 400 points 1e-13 apart up to k = 2^18, on either route, and
# series_cdf is tested monotone to 1e-12. The terms move in steps of
# 1 / n >= 1e-6, so the slack costs next to no extra reads.
KS_MONOTONE_SLACK = 1e-9


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
    """Apply T_k elementwise; pushes compose multiplicatively in k.

    T_k is evaluated at most SUM_CHUNK values at a time into one new
    array, so beyond the batch and that array the memory held is one
    chunk's; the values are cheb_eval(k, batch.values) bit for bit.
    """
    k = _index(k, 1, "push index")
    # T_1 is the identity; keep it exact instead of the cos(arccos x) roundtrip
    if k == 1:
        return batch
    x = batch.values
    return SampleBatch(_in_chunks(lambda chunk: cheb_eval(k, chunk), x, np.empty(np.shape(x))))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float
    passed: bool


def _ks_strides(n):
    """ks_statistic's strides over n sorted samples, coarse to fine: about n^(1/3), n^(1/6), 1.

    A block of B samples is read when its bound, about 2B / n above its own
    terms, reaches the largest term. The empirical process moves in steps
    of 1 / n, like a random walk, and spends about (h n)^2 samples within h
    of its max, so the blocks read hold about B^2 samples. The coarse pass
    reads n / B_1 = n^(2/3) points, the next about B_1^2 / B_2 = n^(1/2)
    and the last about B_2^2 = n^(1/3): at n = 2e5, 3450, then 300-1800
    and 40-240 on the experiments' mc runs.
    """
    return max(1, round(n ** (1 / 3))), max(1, round(n ** (1 / 6))), 1


def _largest_terms(at, values, n):
    """The largest D+ and D- terms, (i + 1) / n - F_i and F_i - i / n, over the
    0-based sorted positions i in at, F_i in values."""
    return float(np.max((at + 1) / n - values)), float(np.max(values - at / n))


def _rises(values):
    """Whether no value is below the one before it by more than KS_MONOTONE_SLACK; nan fails."""
    return bool(np.all(np.diff(values) >= -KS_MONOTONE_SLACK))


def ks_statistic(batch, cdf):
    """One-sample KS distance of batch.values against a reference cdf.

    Sorted-sample formula: D = max(D+, D-) with D+ = max_i(i/n - F(x_(i)))
    and D- = max_i(F(x_(i)) - (i-1)/n), the x_(i) read from batch.ordered
    and each rank i/n an int64 i / n, as the full scan takes them. The
    test passes below KS_FACTOR / sqrt(n). Below n = KS_MIN_SAMPLES the
    statistic is too noisy to gate anything, so that is rejected outright.

    The cdf is read only where the max can be. F is nondecreasing, so
    between two sorted samples a < b every x_(i) has F(x_(a)) <= F(x_(i))
    <= F(x_(b)): no D+ term inside exceeds (b-1)/n - F(x_(a)), nor any D-
    term F(x_(b)) - a/n, and rounding, being monotone, keeps both bounds.
    The cdf is evaluated on every _ks_strides(n)[0]-th sample and the
    last. Then, one stride finer at a time, it is evaluated only inside
    the blocks whose bound comes within 2 KS_MONOTONE_SLACK of the largest
    term found so far. D is the max over every evaluated point, a set that
    holds the argmax, so it is the full scan's value bit for bit, given a
    pointwise cdf, whose value at a point does not depend on the other
    points of the call, as every cdf of the package's routes is. cdf is
    called once per stride, each time on a 1-d array of sorted samples
    (empty when no block is left), and at n = 2e5 the three arrays hold
    2-3% of the samples. Only the points read are held, with their
    values, never an array of n cdf values.

    Where the values fall by more than KS_MONOTONE_SLACK from one
    evaluated point to the next, F is not monotone (or not finite) and the
    bounds do not hold: one more call reads the whole sorted sample, and D
    is the full scan's.
    """
    n = batch.n
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS needs at least {KS_MIN_SAMPLES} samples, got {n}")
    x, (coarse, *finer) = batch.ordered, _ks_strides(n)
    # the sorted positions read so far and their cdf values, in order, and
    # which pairs of neighbours are blocks still open
    knots = np.append(np.arange(0, n - 1, coarse), n - 1)
    values = np.asarray(cdf(x[knots]), dtype=float)
    blocks = np.ones(knots.size - 1, dtype=bool)
    for stride in finer:
        if not _rises(values):
            break
        # each pair's bound on the terms between them, 0-based: the
        # docstring's (b-1)/n - F(x_(a)) and F(x_(b)) - a/n
        lo, hi = knots[:-1], knots[1:]
        bound = np.maximum(hi / n - values[:-1], values[1:] - (lo + 1) / n)
        blocks &= bound >= max(_largest_terms(knots, values, n)) - 2.0 * KS_MONOTONE_SLACK
        # every stride-th sample inside each open block, inserted after its
        # left end: lo + stride * step for step = 1, 2, ... below hi
        counts = np.where(blocks, (hi - lo - 1) // stride, 0)
        at = np.repeat(np.arange(1, knots.size), counts)
        step = np.arange(1, at.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        new = knots[at - 1] + stride * step
        knots = np.insert(knots, at, new)
        values = np.insert(values, at, np.asarray(cdf(x[new]), dtype=float))
        blocks = np.repeat(blocks, counts + 1)
    if not _rises(values):
        knots, values = np.arange(n), np.asarray(cdf(x), dtype=float)
    d_plus, d_minus = _largest_terms(knots, values, n)
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
