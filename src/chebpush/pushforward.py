"""Distribution of T_k(X) for a random variable X on [-1, 1].

Write Theta = arccos(X) in [0, pi] and Psi = k Theta, so that
T_k(X) = cos(Psi). Folding Psi back through the cosine gives, for
z in (-1, 1), the exact pushforward density

    f_k(z) = S_k(z) / sqrt(1 - z^2),

where S_k(z) collects the Theta density over the k preimage angles of z:

    S_k(z) = (1/k) * sum_{j=1..floor(k/2)} [ f_Theta((2 pi j - beta) / k)
                                           + f_Theta((2 pi (j-1) + beta) / k) ]
             (+ (1/k) f_Theta((2 pi floor(k/2) + beta) / k) for odd k),

with beta = arccos(z) and f_Theta = d.angle_pdf; the cdf sums d.angle_cdf
over the same angles. Those two and d.breakpoints are all this module reads
of a density. S_k is the bounded object; the 1/sqrt(1 - z^2)
factor carries the integrable endpoint singularities. For continuous input
densities S_k converges pointwise to 1/pi at rate 1/k^2, i.e. the
distribution of T_k(X) converges to the arcsine law; the arcsine law itself
has S_k identically 1/pi for every k, which is its invariance.

Three routes to S_k live here and deliberately stay independent so they can
cross-check each other: the direct angle sum above, a closed-form reassembly
through the Chebyshev series of the input density, and a second-order
asymptotic expansion in 1/k. The series route also integrates to the cdf,
series_cdf, at a cost independent of k. Past the coefficients it takes
exactly, it has one model: the edges where f jumps, -1 and 1 with f = 0
outside [-1, 1] and each interior jump of a density expanded piece by
piece between its jumps. Each edge's terms sum in closed form over the
aliased coefficients (Eckhoff's correction), so the route covers any
bounded piecewise-smooth pdf. S_k itself jumps where z = T_k(x*), x* an
interior jump; there the series route gives the midpoint of its two
one-sided values.

The angle sum and the cdf share one evaluator, _preimage_sum. It takes
SUM_BLOCK values of j at a time as an interleaved (a_1, b_1, a_2, b_2, ...)
x points array, on chunks of points of about SUM_CHUNK elements, so memory
stays flat in k and in the number of points. It adds the terms one row at a
time, in exactly the order of a scalar loop over j, and its results are bit
for bit those of that loop. The order matters: at k in the thousands the
sup error |S_k - 1/pi| is about 1e-11, so the last bits of S_k move the
fitted convergence order; summing each block first and then adding it to
the running sum shifts that order in its seventh digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebpoly import (SUM_CHUNK, _in_chunks, _index, _open_interval, _pointwise,
                       _unit_interval, cheb_eval)
from .spectral import _integrals, decayed_expansion, even_moment_sum

_TWO_PI = 2.0 * np.pi

# Bounded factor of the arcsine law: the pointwise limit of S_k.
LIMIT_BOUNDED_FACTOR = 1.0 / np.pi

# Default evaluation grid: z = cos(beta) with beta uniform on
# [GRID_EPS, pi - GRID_EPS]. The endpoints are excluded because f_k is
# singular there; S_k is what gets measured.
GRID_EPS = 1e-3

# Below this sup deviation from 1/pi a density is reported as invariant
# rather than converging (rounding floor of the angle sum).
INVARIANT_TOL = 1e-13

# Gauss-Legendre nodes per panel of the total-mass quadrature.
MASS_NODES = 64

# The angle sum evaluates SUM_BLOCK values of j per step, on chunks of
# points sized so that each temporary array holds about SUM_CHUNK elements
# (chebpoly, 256 KiB), whatever k and the number of points.
SUM_BLOCK = 64

# glibc's malloc starts with a 128 KiB mmap threshold, and trims the heap
# top past twice the threshold. Until a bigger mapped block is freed, which
# raises both, the 256 KiB temporaries of SUM_CHUNK points (the blocks above,
# and the chunks of sample and push_samples) are mapped or trimmed and
# page-faulted in again on every block. Importing scipy used to free such a
# block; freeing one 2 MiB block here does it without scipy. The package's
# __init__ imports this module, so the raise holds for any use of it.
np.empty(2**18)

# The series route takes c_m exactly up to m = SERIES_SPAN (L + 1) and models the rest.
SERIES_SPAN = 8

# sum_{n>=1} sin(n x) / n^p for odd p and cos(n x) / n^p for even p, x in
# (0, 2 pi), as coefficients in y = x - pi, lowest degree first, one row per
# p = 1..6: the sawtooth -y / 2, then Bernoulli polynomials, each row the one
# above it integrated, sin sums from 0 and cos sums from -eta(p) at y = 0.
# Centred, each row is odd or even in y and the terms cancel far less near
# x = 0 and 2 pi than in x.
_SUM_COEFS = np.array([
    [0, -1 / 2, 0, 0, 0, 0, 0],
    [-np.pi**2 / 12, 0, 1 / 4, 0, 0, 0, 0],
    [0, -np.pi**2 / 12, 0, 1 / 12, 0, 0, 0],
    [-7 * np.pi**4 / 720, 0, np.pi**2 / 24, 0, -1 / 48, 0, 0],
    [0, -7 * np.pi**4 / 720, 0, np.pi**2 / 72, 0, -1 / 240, 0],
    [-31 * np.pi**6 / 30240, 0, 7 * np.pi**4 / 1440, 0, -np.pi**2 / 288, 0, 1 / 1440]])

# The sawtooth jumps where its argument is a multiple of 2 pi, and so does
# S_k at the image T_k(x*) of a pdf jump x*. There the series route gives
# the midpoint of the two one-sided values: at an argument within this
# many ulps of (k + 1) pi of the jump, past the rounding of k t* +- beta.
IMAGE_ULPS = 16


def default_grid(n=201):
    """Ascending z grid cos(beta), beta uniform on [GRID_EPS, pi - GRID_EPS]."""
    beta = np.linspace(GRID_EPS, np.pi - GRID_EPS, _index(n, 2, "grid size"))
    return np.cos(beta)[::-1].copy()


def _preimage_sum(term, k, beta, interval=False):
    """Sum term over the k preimage angles of cos(beta), in the j loop's order.

    The preimage angles are a_j = (2 pi j - beta) / k and
    b_j = (2 pi (j - 1) + beta) / k for j = 1..floor(k/2), plus
    c = (2 pi floor(k/2) + beta) / k for odd k. The result is

        (...((0 + t(a_1)) + t(b_1)) + t(a_2) + ...) + t(c),

    added left to right exactly as a scalar loop over j adds it. With
    interval=True the b_j terms enter negated and the odd term as 1 - t(c):
    the cdf's sum of angle-interval probabilities. Negation is exact, so
    acc + (-t) is acc - t bit for bit.

    The running sum is folded into row 0 of each block and the block is
    reduced with sum(axis=0), which numpy adds one row at a time whenever
    the chunk is at least two points wide. _in_chunks cuts the points
    evenly, so no chunk is narrower unless there is one point, which is
    evaluated twice. Each point's value then does not depend on how the
    points are chunked.
    """
    flat = beta.ravel()
    if flat.size == 1:
        # a one-column sum(axis=0) is pairwise; two equal columns keep it in order
        flat = np.repeat(flat, 2)
    m = k // 2

    def fold(b):
        acc = np.zeros_like(b)
        for j0 in range(1, m + 1, SUM_BLOCK):
            j = np.arange(j0, min(j0 + SUM_BLOCK, m + 1))[:, None]
            theta = np.empty((2 * len(j), b.size))
            theta[0::2] = (_TWO_PI * j - b) / k
            theta[1::2] = (_TWO_PI * (j - 1) + b) / k
            vals = term(theta)
            if interval:
                vals[1::2] *= -1.0
            vals[0] += acc
            acc = vals.sum(axis=0)
        if k % 2 == 1:
            tail = term((_TWO_PI * m + b) / k)
            acc += 1.0 - tail if interval else tail
        return acc

    width = SUM_CHUNK // max(1, 2 * min(m, SUM_BLOCK))
    return _in_chunks(fold, flat, np.empty(flat.size), width)[:beta.size].reshape(beta.shape)


def _bounded_from_beta(d, k, beta):
    return _preimage_sum(d.angle_pdf, k, beta) / k


@_pointwise
def bounded_factor(d, k, z):
    """S_k(z): the pushforward density with the arcsine singularity factored out."""
    k = _index(k, 1, "Chebyshev index")
    return _bounded_from_beta(d, k, np.arccos(_open_interval(z)))


@_pointwise
def pushforward_pdf(d, k, z):
    """Exact density of T_k(X) at z in (-1, 1)."""
    return bounded_factor(d, k, z) / np.sqrt((1.0 - z) * (1.0 + z))


@_pointwise
def pushforward_cdf(d, k, z):
    """Exact distribution function of T_k(X) on [-1, 1].

    Accumulates the Psi tail probabilities branch by branch. z may stray
    past [-1, 1] by chebpoly.DOMAIN_SLACK; z and the result are clipped.
    """
    k = _index(k, 1, "Chebyshev index")
    beta = np.arccos(_unit_interval(z))
    return np.clip(_preimage_sum(d.angle_cdf, k, beta, interval=True), 0.0, 1.0)


def _sin_coeffs(j):
    # |sin t| = a_0 / 2 + sum_{j>=1} a_j cos(j t), zero for odd j
    return np.divide(-4.0 / np.pi, j * j - 1.0, out=np.zeros(j.shape), where=j % 2 == 0)


def _on_roots(b, n):
    """sum_l b_l cos(l theta_j) at theta_j = pi (j + 1/2) / n for j < n.

    That is a DCT-III, taken by one FFT of length 2n.
    """
    phase = np.exp(-0.5j * np.pi * np.arange(len(b)) / n)
    return np.fft.fft(b * phase, 2 * n)[:n].real


@lru_cache(maxsize=4)
def _fejer_rule(n):
    """Nodes cos(pi (j + 1/2) / n) and weights of Fejer's first rule on [-1, 1].

    The rule is exact for polynomials of degree below n. Its weights are
    (2 / n) sum_l b_l cos(l theta_j), b_l the integral of T_l over [-1, 1]
    (spectral._integrals), b_0 halved.
    """
    b = _integrals(n)
    b[0] /= 2.0
    u, w = np.cos(np.pi * (np.arange(n) + 0.5) / n), _on_roots(b, n) * (2.0 / n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _piece_moments(pieces, k, span):
    """The exact c_m = (1/pi) int f T_m dx for m = 0, k, 2k, ... up to span, piece by piece.

    Fejer's rule on each piece integrates its degree-L expansion times T_m
    exactly for m up to span; the expansion's values on the rule's nodes
    are one DCT-III. A piece where f is 0, such as uniform01's left one,
    adds nothing and is skipped. The cosines are taken a block of m at a
    time, so no temporary holds much more than SUM_CHUNK elements.
    """
    n = len(pieces[0][2]) + span
    u, w = _fejer_rule(n)
    pieces = [piece for piece in pieces if piece[2].any()]
    theta = np.concatenate([np.arccos(0.5 * (lo + hi) + 0.5 * (hi - lo) * u)
                            for lo, hi, _ in pieces])
    vals = np.concatenate([0.5 * (hi - lo) / np.pi * w * _on_roots(coeffs, n)
                           for lo, hi, coeffs in pieces])
    m = np.arange(0, span + 1, k)
    rows = max(1, SUM_CHUNK // theta.size)
    return np.concatenate([np.cos(np.outer(m[i:i + rows], theta)) @ vals
                           for i in range(0, m.size, rows)])


@lru_cache(maxsize=4)
def _end_table(order):
    """T_l^(j)(1) and T_l^(j)(-1) for j = 0..4 and l = 0..order, as a (2, 5, order + 1) array."""
    l = np.arange(order + 1.0)
    rows = [np.ones(order + 1)]
    for j in range(4):
        # T_l^(j+1)(1) = T_l^(j)(1) (l^2 - j^2) / (2 j + 1); T_l^(j)(-1) = (-1)^(l + j) T_l^(j)(1)
        rows.append(rows[-1] * (l * l - j * j) / (2 * j + 1))
    rows = np.array(rows)
    table = np.array([rows, rows * (-1.0) ** (l + np.arange(5.0)[:, None])])
    table.flags.writeable = False
    return table


def _jump_model(x, df):
    """G = (-[h], -[h'], [h''], [h'''], -[h'''']) of h(t) = f(cos t) sin t at t* = arccos(x).

    x is a float and df the five jumps of f and its first four derivatives
    across it, the value below x minus the one above: [.] is the value after
    t* minus the value before, and t grows as x falls. Integrating by parts,
    c_m gains (1/pi) sum_p G_p trig_p(m t*) / m^p + O(m^-6), trig_p = sin
    for odd p and cos for even p. At x = +-1, s = 0, so h, h'' and h'''' are
    0 and only the cos terms are left.
    """
    s, c = math.sqrt((1.0 - x) * (1.0 + x)), x
    # the t derivatives of g(t) = f(cos t), then by Leibniz those of h = g sin t
    g = (df[0], -s * df[1], s * s * df[2] - c * df[1],
         s * df[1] + 3.0 * s * c * df[2] - s**3 * df[3],
         c * df[1] + (3.0 * c * c - 4.0 * s * s) * df[2] - 6.0 * s * s * c * df[3] + s**4 * df[4])
    h = (g[0] * s, g[1] * s + g[0] * c, g[2] * s + 2.0 * g[1] * c - g[0] * s,
         g[3] * s + 3.0 * g[2] * c - 3.0 * g[1] * s - g[0] * c,
         g[4] * s + 4.0 * g[3] * c - 6.0 * g[2] * s - 4.0 * g[1] * c + g[0] * s)
    return -h[0], -h[1], h[2], h[3], -h[4]


def _edges(pieces):
    """t* = arccos(x) of each edge x of the pieces, -1, each breakpoint and 1, and its G.

    G is _jump_model's, on f and its first four derivatives just below the
    edge minus those just above it, read from the series of the piece on
    each side, with f = 0 outside [-1, 1].
    """
    lo, hi, coeffs = zip(*pieces)
    x = np.array((*lo, hi[-1]))
    scale = (2.0 / (x[1:] - x[:-1])) ** np.arange(5.0)[:, None]
    at_hi, at_lo = _end_table(len(coeffs[0]) - 1) @ np.array(coeffs).T * scale
    df = np.zeros((5, len(x)))
    df[:, 1:] += at_hi
    df[:, :-1] -= at_lo
    return np.arccos(x), np.array([_jump_model(*edge) for edge in zip(x.tolist(), df.T.tolist())])


@lru_cache(maxsize=4)
def _series_edges(series):
    """_edges of a ChebSeries, its pieces or its one whole-interval series.

    They do not depend on k, so a ladder of k takes them once per series
    (ChebSeries is hashed by identity). Every caller shares them, read-only.
    """
    edges = _edges(series.pieces or ((-1.0, 1.0, series.coeffs),))
    for array in edges:
        array.flags.writeable = False
    return edges


def _edge_model(t, jumps, m):
    """The Eckhoff terms of c_m, (1/pi) sum_p G_p trig_p(m t*) / m^p, summed over the edges."""
    inv = m ** -np.arange(1.0, 6.0)[:, None]
    mt = np.outer(t, m)
    model = (jumps[:, 0::2] @ inv[0::2]) * np.sin(mt) + (jumps[:, 1::2] @ inv[1::2]) * np.cos(mt)
    return model.sum(axis=0) / np.pi


@lru_cache(maxsize=4)
def _aliased_coeffs(series, k):
    """The Chebyshev coefficients of S_k, exact part and edge model apart.

    Returns c = [c_0, 2 e_k, 2 e_2k, ...], e_{nk} the exact c_{nk} minus the
    edges' model, for nk up to SERIES_SPAN (L + 1), and the model as phases
    and g: phase = k t* mod 2 pi, t* = arccos(x) of an edge x, and g_p =
    G_p / k^p summed over the edges at that phase. An edge where G is 0,
    such as uniform01's -1, is left out. The model's part of S_k(cos beta)
    is (1/pi) sum_p g_p [s_p(phase + beta) + s_p(phase - beta)], s_p the row
    p of _SUM_COEFS. series_bounded_factor documents the formulas.

    They are kept for the last few (series, k), read-only and shared by
    every caller (ChebSeries is hashed by identity), so that S_k and F_k of
    one k read more than once, as dance and mc's KS do, take this step once.
    """
    mu = series.coeffs
    order = len(mu) - 1
    span = SERIES_SPAN * (order + 1)
    if series.pieces:
        c = _piece_moments(series.pieces, k, span)
    else:
        # a_{|j|} for j = -L..span + L: the two correlations sum mu_l a_{|m-l|}
        # and mu_l a_{m+l} over l, for m = 0..span
        a = _sin_coeffs(np.abs(np.arange(-order, span + order + 1)))
        c = (np.correlate(a[:span + order + 1], mu[::-1], "valid")
             + np.correlate(a[order:], mu, "valid"))[::k] / 4.0
    t, jumps = _series_edges(series)
    c[1:] = 2.0 * (c[1:] - _edge_model(t, jumps, k * np.arange(1.0, len(c))))
    merged = {}
    for tx, gx in zip(t.tolist(), jumps.tolist()):
        if any(gx):
            # in turns first, so that the phases of -1 and 1 are exact
            merged.setdefault(_TWO_PI * math.fmod(k * (tx / _TWO_PI), 1.0), []).append(gx)
    g = np.reshape([[sum(p) for p in zip(*gs)] for gs in merged.values()], (-1, 5))
    aliased = c, np.array(list(merged)), g / float(k) ** np.arange(1, 6)
    for array in aliased:
        array.flags.writeable = False
    return aliased


def _series_on_chunks(series, k, arr, shift):
    """A series route at the points arr, by chunks (_in_chunks): S_k for shift 0, F_k for 1.

    It reads c, the edge phases and g of _aliased_coeffs(series, k). With
    beta = arccos(x) and c the aliased coefficients, the exact part is
    sum_n c_n T_n(x) for S_k, and for F_k c_0 (pi - beta) - sin(beta)
    sum_n c_n U_{n-1}(x) / n. As U_{n-1} = 2 (T_{n-1} + T_{n-3} + ...), its
    T_0 term halved, that sum is sum_j b_j T_j(x), b_j twice the sum of c_n / n
    over n = j + 1, j + 3, ... (b_0 once). Both take one _clenshaw pass.
    Each edge phase adds (1/pi) [P(x+) + (-1)^shift P(x-)],
    x+- = (phase +- beta) mod 2 pi, with P = sum_p g_p s_p for S_k and,
    integrated once more for F_k, P = sum_p (-1)^(p+1) g_p s_(p+1), s_p the
    rows of _SUM_COEFS, in x - pi: one Horner pass over every phase and side
    at once. Every step but the last is pointwise. The last sums the rows
    of phases and sides by one matrix product, which BLAS may round by a
    point's place in the chunk, so a point's value can move by a few ulps
    with the chunking (uniform01's F_9 at z = -0.9999995 by 11, 6e-19).
    """
    c, phase, g = _aliased_coeffs(series, k)
    b = c
    if shift:
        # c_n / n at n - 1, in pairs of one even and one odd index, with zeros on top
        b = np.zeros(len(c) + len(c) % 2)
        b[:len(c) - 1] = c[1:] / np.arange(1.0, len(c))
        b = 2.0 * np.cumsum(b.reshape(-1, 2)[::-1], axis=0)[::-1].ravel()
        b[0] /= 2.0
    # one row per edge phase and side; the S_k rows have degree 5
    phase, g = np.repeat(phase - np.pi, 2)[:, None], np.repeat(g, 2, axis=0)
    side = np.array([1.0, -1.0] * (len(phase) // 2)).reshape(-1, 1)
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0]) ** shift
    coefs = ((signs * g) @ _SUM_COEFS[shift:shift + 5, :6 + shift]).T[:, :, None]
    weight = side[:, 0] ** shift / np.pi
    saw = g[:, :1] if shift == 0 and g[:, 0].any() else None
    near = IMAGE_ULPS * np.spacing((k + 1) * np.pi)

    def on_chunk(x):
        beta = np.arccos(x)
        values = _clenshaw(x, b)
        if shift:
            values = c[0] * (np.pi - beta) - np.sqrt((1.0 - x) * (1.0 + x)) * values
        # y = phase - pi + side beta lies in [-2 pi, 2 pi); one shift of 2 pi
        # takes it to [-pi, pi]
        y = side * beta
        y += phase
        np.subtract(y, side * _TWO_PI, out=y, where=side * y >= np.pi)
        part = coefs[-1] * y
        for ci in coefs[-2:0:-1]:
            part += ci
            part *= y
        part += coefs[0]
        if saw is not None:
            # at the sawtooth's jump, its midpoint 0 rather than +-pi/2
            at = np.nonzero((saw != 0.0) & (np.abs(y) >= np.pi - near))
            part[at] += saw[at[0], 0] * y[at] / 2.0
        return values + weight @ part

    return _in_chunks(on_chunk, arr.ravel(), np.empty(arr.size)).reshape(arr.shape)


def _clenshaw(x, c):
    """np.polynomial.chebyshev.chebval(x, c) for a 1-d x, in three buffers.

    It does chebval's operations in chebval's order, so its bits are
    chebval's: b'' <- c_i - b', b' <- b'' + 2 x b', then b'' + x b'.
    """
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    twice = 2 * x
    b0, b1, t = np.full_like(x, c[-2]), np.full_like(x, c[-1]), np.empty_like(x)
    for ci in c[-3::-1]:
        np.subtract(ci, b1, out=t)
        b1 *= twice
        b1 += b0
        b0, t = t, b0
    b1 *= x
    b1 += b0
    return b1


@_pointwise
def series_bounded_factor(series, k, z):
    """S_k(z) reassembled from the Chebyshev coefficients of the input density.

    The k preimage angles of cos(beta) form a coset, so aliasing keeps only
    the multiples of k among the cosine coefficients c_m of
    h(t) = f(cos t) |sin t| on [0, pi]: S_k(z) = c_0 + 2 sum_{n>=1} c_{nk} T_n(z).
    With |sin t| = a_0 / 2 + sum_j a_j cos(j t), a_j = -4 / (pi (j^2 - 1))
    for even j, c_m = (1/4) sum_l mu_l (a_{|m-l|} + a_{m+l}), taken exactly
    for m up to SERIES_SPAN (L + 1), L the series order.

    The rest comes from the edges of f, where it jumps: -1 and 1, with
    f = 0 outside [-1, 1], and each interior jump x* of a density with one
    series per piece between its jumps (ChebSeries.pieces), whose exact
    c_m = (1/pi) int f T_m dx are integrated piece by piece. Integrating by
    parts, each edge x adds (1/pi) (G_1 sin(m t*) / m + G_2 cos(m t*) / m^2
    + G_3 sin(m t*) / m^3 + G_4 cos(m t*) / m^4 + G_5 sin(m t*) / m^5) to
    c_m, t* = arccos(x), G the one-sided jumps of h and its first four
    derivatives there, read from the series on each side (Eckhoff's
    correction; _jump_model gives the signs). At -1 and 1, sin t* = 0
    leaves only the cos terms, which over both ends are the closed form
    c_m = -(2 P_r / m^2 + Q_r / m^4) / pi, P_r and Q_r the sums of mu_l and
    (6 l^2 + 2) mu_l over l of the parity r of m. The fifth term takes the
    gap to the angle sum next to a jump's image at k = 9 from 1.1e-13 to
    1.0e-14. The model is summed in closed form over every n and taken out
    of the exact part: sum_n sin(n k t*) cos(n beta) / n^p is half the sum
    of sin(n x) / n^p at x = k t* + beta and at k t* - beta, a sawtooth for
    p = 1 and a Bernoulli polynomial otherwise. S_k then jumps where
    z = T_k(x*), and there the route gives the midpoint of its two one-sided
    values. The angle sum gives one of them, whichever side the rounded
    preimage angle falls on.

    The route sees only the coefficients, never the density. It runs on
    chunks of at most SUM_CHUNK points, so its cost does not grow with k
    and its memory beyond the result does not grow with the number of
    points. The coefficients of the last few (series, k) are kept
    (_aliased_coeffs), so a k read again skips the coefficient step and
    gives the same values.
    """
    k = _index(k, 1, "Chebyshev index")
    return _series_on_chunks(series, k, _open_interval(z), 0)


@_pointwise
def series_cdf(series, k, z):
    """Distribution function of T_k(X) from the Chebyshev coefficients of the input density.

    T_k(X) <= cos(beta) when the folded angle arccos(T_k(X)), whose density
    is S_k(cos phi) on [0, pi], lies in [beta, pi]. Integrating the series of
    series_bounded_factor over that interval gives

        F_k(cos beta) = c_0 (pi - beta) - 2 sum_{n>=1} c_{nk} sin(n beta) / n.

    The edges' model integrates in closed form, each sum over n by the next
    row of _SUM_COEFS. In the exact part, sin(n beta) = sin(beta)
    U_{n-1}(cos beta), and 2 sum_n c_{nk} U_{n-1}(z) / n is the derivative of
    2 sum_n c_{nk} T_n(z) / n^2, a T-series whose coefficients are suffix
    sums over each parity. So it is sin(beta) times one Clenshaw pass over
    about SERIES_SPAN (L + 1) / k terms, the same pass as S_k's, on chunks
    of at most SUM_CHUNK points (_series_on_chunks). The cost does not grow
    with k. F_k is continuous at the images of pdf jumps. z may stray past
    [-1, 1] by chebpoly.DOMAIN_SLACK; z and the result are clipped, as in
    pushforward_cdf. It shares series_bounded_factor's coefficients at this
    k.
    """
    k = _index(k, 1, "Chebyshev index")
    out = _series_on_chunks(series, k, _unit_interval(z), 1)
    return np.clip(out, 0.0, 1.0, out=out)


@_pointwise
def asymptotic_bounded_factor(series, k, z):
    """Second-order expansion of S_k in 1/k.

    S_k(z) ~ 1/pi + (1/k^2) (pi/3 - (pi - beta)^2 / pi) * sum_l mu_{2l},
    beta = arccos(z). The remainder is O(1/k^4) for densities whose series
    decays; only the even coefficient sum of the input enters at this order.
    """
    k = _index(k, 1, "Chebyshev index")
    if k < 2:
        raise ValueError("the expansion needs k >= 2; k = 1 is the identity map")
    beta = np.arccos(_open_interval(z))
    return LIMIT_BOUNDED_FACTOR + _asymptotic_profile(series, beta) / (k * k)


def _asymptotic_profile(series, beta):
    """k^2 (S_k - 1/pi) of asymptotic_bounded_factor at z = cos(beta),
    which does not depend on k."""
    gap = np.pi - beta
    return (np.pi / 3.0 - gap * gap / np.pi) * even_moment_sum(series)


def _sup_deviation(bounded):
    return float(np.max(np.abs(bounded - LIMIT_BOUNDED_FACTOR)))


def sup_error(d, k, grid=201):
    """Sup over the standard grid of |S_k(z) - 1/pi|."""
    return _sup_deviation(bounded_factor(d, k, default_grid(grid)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-error trace over a ladder of k values plus a log-log fit.

    label is "invariant" when every error sits at the rounding floor
    (fitted_order is then nan); "fit" when d has no jump and has a decayed
    expansion (spectral.decayed_expansion), so that the smooth-case
    analysis covers the error decay; and "empirical" otherwise, where the
    decay is observed rather than covered. fitted_order is nan with fewer
    than three k values. asymptotic_errors holds, for each k, the sup over
    the grid of |S_k - asymptotic_bounded_factor|: nan at k = 1, where the
    expansion is not defined, and at every k for a density without a
    decayed expansion.
    """

    ks: tuple
    sup_errors: tuple
    fitted_order: float
    label: str
    asymptotic_errors: tuple


def convergence_report(d, ks, grid=201):
    """Sup errors of S_k, against 1/pi and against the expansion, over an increasing ladder.

    S_k is the angle sum on default_grid(grid), whose angles are taken
    once. Each S_k is dropped once its two sups are taken, so memory does
    not grow with the number of k values.
    """
    ks = tuple(_index(k, 1, "Chebyshev index") for k in ks)
    if len(ks) < 1:
        raise ValueError("need at least one k")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k values must be strictly increasing")
    # the grid's angles, in the grid's own array
    beta = default_grid(grid)
    np.arccos(beta, out=beta)
    series = decayed_expansion(d)
    # the expansion's profile, taken once: its S_k is 1/pi + profile / k^2
    profile = _asymptotic_profile(series, beta) if series is not None else None
    errors, asymptotic = [], []
    for k in ks:
        s = _bounded_from_beta(d, k, beta)
        errors.append(_sup_deviation(s))
        asymptotic.append(float(np.max(np.abs(s - (LIMIT_BOUNDED_FACTOR + profile / (k * k)))))
                          if profile is not None and k >= 2 else math.nan)
        del s
    if max(errors) < INVARIANT_TOL:
        label, order = "invariant", float("nan")
    else:
        label = "fit" if series is not None and not d.discontinuous else "empirical"
        if len(ks) < 3:
            order = float("nan")
        else:
            order = float(np.polyfit(np.log(np.asarray(ks, dtype=float)),
                                     np.log(np.asarray(errors)), 1)[0])
    return ConvergenceReport(ks=ks, sup_errors=tuple(errors), fitted_order=order, label=label,
                             asymptotic_errors=tuple(asymptotic))


def mass_left_of_zero(d, k):
    """P(T_k(X) < 0), the quantity whose oscillation traces the dance of a
    centered bump between the endpoints before it settles into the limit."""
    return pushforward_cdf(d, k, 0.0)


@lru_cache(maxsize=1)
def _gl_rule():
    return np.polynomial.legendre.leggauss(MASS_NODES)


def _panel_breaks(d, k):
    # beta values where a preimage angle crosses an interior pdf jump x*:
    # that angle is arccos(x*), so cos(beta) = T_k(x*); integrating panelwise
    # keeps Gauss-Legendre spectrally accurate
    betas = np.arccos(cheb_eval(k, d.breakpoints))
    return [0.0] + sorted({float(b) for b in betas if 0.0 < b < np.pi}) + [float(np.pi)]


def pushforward_mass(d, k):
    """Total mass of the pushforward, integrated in angle space.

    Substituting z = cos(beta) turns the singular integral of f_k over
    (-1, 1) into the smooth integral of S_k(cos beta) over (0, pi), handled
    by composite Gauss-Legendre (MASS_NODES nodes per panel) with panel
    breaks at the images of pdf jumps. Equals 1 up to quadrature error for
    any correct density.
    """
    k = _index(k, 1, "Chebyshev index")
    x, w = _gl_rule()
    breaks = np.array(_panel_breaks(d, k))
    half = 0.5 * np.diff(breaks)[:, None]
    beta = (half * x + 0.5 * (breaks[1:] + breaks[:-1])[:, None]).ravel()
    return float(np.dot((half * w).ravel(), _bounded_from_beta(d, k, beta)))
