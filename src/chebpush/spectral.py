"""Chebyshev series expansion of densities.

Coefficients are the weighted projections

    mu_l = c_l / pi * integral of f(x) T_l(x) / sqrt(1 - x^2),  c_0 = 1, c_l = 2,

computed by Gauss-Chebyshev quadrature on the roots grid x_j = cos(theta_j),
theta_j = pi (j + 1/2) / N. The nodes absorb the weight exactly, so the
endpoint singularity of the weight never appears numerically, and the rule
is exact for integrands of polynomial degree < 2N - l.

A density with interior jumps is also expanded piece by piece, one series
per piece between its breakpoints, each on its piece mapped to [-1, 1]. Its
global series converges slowly, like 1/l, but its pieces' series decay as a
smooth density's do, and they are what the series route of pushforward
reads. A series whose tail has not decayed (a narrow bump, a piece too
narrow to resolve past its rounding noise, or too low an order), or whose
mass is not 1 (a bump so narrow that it falls between the nodes), is still
returned, with ChebSeries.decayed False. That flag is the only report of
it: no warning is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebpoly import _index

# A truncated series is considered decayed when its last four coefficients
# are below this (a piece's scaled by its width, see _fit). Smooth catalog
# densities sit below 1e-16 at order 64; a jump density sits near 1e-2, so
# anything between separates the two cleanly.
DECAY_TOL = 1e-10

# Order of an expansion when none is asked for.
DEFAULT_ORDER = 64


@dataclass(frozen=True, eq=False)
class ChebSeries:
    """Truncated Chebyshev expansion f ~ sum_l coeffs[l] T_l.

    For a density with interior jumps, pieces holds one expansion per piece
    between them, left to right, as (lo, hi, coeffs) with
    f(x) ~ sum_l coeffs[l] T_l(u) on [lo, hi], x = (lo + hi) / 2 + (hi - lo) u / 2;
    it is empty for a density without jumps, whose one piece is coeffs.
    decayed is False when the tail of the pieces (of coeffs without jumps)
    had not dropped below DECAY_TOL at the truncation order, a piece's tail
    scaled by (2 / (hi - lo))^4, i.e. the series is usable but not
    spectrally accurate, or when the pieces' mass is not 1 within
    DECAY_TOL. A piece's coefficients at its rounding level are zeroed
    (see expand_density). A series compares and hashes by identity, and
    pushforward reads its edges once per series: its arrays are not
    changed once it is made (expand_density's are read-only).
    """

    coeffs: np.ndarray
    decayed: bool = True
    pieces: tuple = ()


def _fit(pdf, lo, hi, order):
    """The coefficients of pdf on [lo, hi] mapped to [-1, 1], and which of them are small.

    The quadrature uses n = max(256, 4 (order + 1)) roots-grid points. Its
    sums over the grid are a DCT-II, taken by one real FFT of length 2n, so
    time is O(n log n) and memory O(n). A coefficient is small when it is
    below DECAY_TOL times (hi - lo)^4 / 16, and a series has decayed when
    its tail is. The series route reads a piece's derivatives up to the
    fourth at its ends, and on [lo, hi] they scale the coefficients by
    (2 / (hi - lo))^4 more than on [-1, 1], so a narrow piece's rounding
    noise would swamp them.
    """
    n = max(256, 4 * (order + 1))
    theta = np.pi * (np.arange(n) + 0.5) / n
    fx = pdf(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta))
    # sum_j fx_j cos(l theta_j) is half of exp(-i pi l / 2n) times the l-th
    # FFT term of fx followed by its mirror image
    ls = np.arange(order + 1)
    spectrum = np.fft.rfft(np.concatenate([fx, fx[::-1]]))[:order + 1]
    mu = (np.exp(-0.5j * np.pi * ls / n) * spectrum).real / (2 * n)
    mu[1:] *= 2.0
    mu.flags.writeable = False
    return mu, np.abs(mu) < DECAY_TOL * (0.5 * (hi - lo)) ** 4


def _decayed(small):
    # judge decay on a short tail window, not the last coefficient alone:
    # symmetric or half-supported densities zero out every other coefficient
    return bool(small[max(1, len(small) - 4):].all())


def _integrals(n):
    """The integral of T_l over [-1, 1] for l < n: 2 / (1 - l^2) at even l, 0 at odd l."""
    ls = np.arange(n, dtype=np.float64)
    return np.divide(2.0, 1.0 - ls * ls, out=np.zeros_like(ls), where=ls % 2 == 0)


def _mass(coeffs):
    """sum_l coeffs[l] * integral of T_l over [-1, 1]."""
    return float(np.dot(coeffs, _integrals(len(coeffs))))


def expand_density(d, order=DEFAULT_ORDER):
    """Expand a bounded density to the given order, and each piece of one with jumps.

    Densities flagged non-expandable (unbounded pdf) raise ValueError: their
    coefficients are not defined by this quadrature. A series whose last
    four coefficients are not all small (see _fit; on [-1, 1], below
    DECAY_TOL) is returned with decayed=False, which is the only report of
    it: no warning is raised. So is one whose mass, summed over its pieces
    (over coeffs without jumps), is not 1 within DECAY_TOL: a bump narrower
    than the quadrature's node spacing falls between the nodes, and its
    series is about 0 throughout, small but empty. A piece's coefficients
    at most eps times the sum of their sizes, which bounds |pdf| on the
    piece, are rounding and are zeroed, so that the derivatives read at its
    ends are those of the function it resolves; every coefficient above
    that is kept, however small, since the pdf's own values are read from
    the same series. A piece too narrow for its rounding noise to fall
    below DECAY_TOL scaled as in _fit is not decayed.
    """
    if not d.expandable:
        raise ValueError(f"{d.name} has no convergent Chebyshev expansion (unbounded pdf)")
    order = _index(order, 1, "series order")
    mu, small = _fit(d.pdf, -1.0, 1.0, order)
    if not d.breakpoints:
        decayed = _decayed(small) and abs(1.0 - _mass(mu)) <= DECAY_TOL
        return ChebSeries(coeffs=mu, decayed=decayed)
    edges = (-1.0, *sorted(map(float, d.breakpoints)), 1.0)
    fits = [(lo, hi, *_fit(d.pdf, lo, hi, order)) for lo, hi in zip(edges, edges[1:])]
    pieces = []
    for lo, hi, coeffs, _ in fits:
        size = np.abs(coeffs)
        coeffs = np.where(size <= np.finfo(float).eps * np.sum(size), 0.0, coeffs)
        coeffs.flags.writeable = False
        pieces.append((lo, hi, coeffs))
    mass = sum(0.5 * (hi - lo) * _mass(coeffs) for lo, hi, coeffs in pieces)
    decayed = all(_decayed(fit[3]) for fit in fits) and abs(1.0 - mass) <= DECAY_TOL
    return ChebSeries(coeffs=mu, decayed=decayed, pieces=tuple(pieces))


def decayed_expansion(d):
    """The Chebyshev expansion of d where it may be read, else None.

    It may be read where d is expandable (arcsine, an unbounded pdf, is not)
    and its expansion has decayed, which ChebSeries.decayed reports. This
    is the one rule for the series route and the asymptotic expansion
    alike; d is expanded at most once.
    """
    if d.expandable:
        series = expand_density(d)
        if series.decayed:
            return series
    return None


def normalization_residual(series):
    """|1 - sum_l mu_l * integral(T_l)|, over coeffs.

    For a probability density the weighted coefficient sum must reproduce
    total mass 1; the residual measures quadrature plus truncation error.
    For a density with jumps it is taken over the whole-interval coeffs,
    whose slow 1/l tail keeps it well above DECAY_TOL; decayed weighs the
    mass of the pieces instead.
    """
    return abs(1.0 - _mass(series.coeffs))


def even_moment_sum(series):
    """Sum of the even-index coefficients.

    For a series that converges at the endpoints this equals
    (f(1) + f(-1)) / 2, and it is the constant that drives the second-order
    convergence term of the pushforward.
    """
    return float(np.sum(series.coeffs[::2]))
