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
series_cdf, at a cost independent of k.

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebpoly import _index, _open_interval, _pointwise, _unit_interval, cheb_eval
from .spectral import even_moment_sum

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
# (256 KiB), whatever k and the number of points.
SUM_BLOCK = 64
SUM_CHUNK = 2**15

# glibc's malloc starts with a 128 KiB mmap threshold, and trims the heap
# top past twice the threshold. Until a bigger mapped block is freed, which
# raises both, the 256 KiB block temporaries above are mapped or trimmed and
# page-faulted in again on every block. Importing scipy used to free such a
# block; freeing one 2 MiB block here does it without scipy.
np.empty(2**18)

# The series route takes c_m exactly up to m = SERIES_SPAN (L + 1) and models the rest.
SERIES_SPAN = 8

# sum_{n>=1} cos(n x) / n^p for x in [0, 2 pi], p = 2 and 4 (Bernoulli polynomials)
_COS_SUMS = {2: np.polynomial.Polynomial([np.pi**2 / 6, -np.pi / 2, 1 / 4]),
             4: np.polynomial.Polynomial([np.pi**4 / 90, 0, -np.pi**2 / 12, np.pi / 12, -1 / 48])}
# their antiderivatives from 0: sum_{n>=1} sin(n x) / n^(p+1) on the same interval
_SIN_SUMS = {p: s.integ() for p, s in _COS_SUMS.items()}


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
    the chunk is at least two points wide. Chunks are cut evenly, so none
    is narrower, and a single point is evaluated twice. Each point's value
    then does not depend on how the points are chunked.
    """
    flat = beta.ravel()
    if flat.size == 1:
        # a one-column sum(axis=0) is pairwise; two equal columns keep it in order
        flat = np.repeat(flat, 2)
    m = k // 2
    n = flat.size
    width = SUM_CHUNK // max(1, 2 * min(m, SUM_BLOCK))
    chunks = max(1, -(-n // width))  # one empty chunk for no points
    bounds = [n * i // chunks for i in range(chunks + 1)]
    out = np.empty(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        b = flat[lo:hi]
        acc = np.zeros_like(b)
        for j0 in range(1, m + 1, SUM_BLOCK):
            j = np.arange(j0, min(j0 + SUM_BLOCK, m + 1))[:, None]
            theta = np.empty((2 * len(j), hi - lo))
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
        out[lo:hi] = acc
    return out[:beta.size].reshape(beta.shape)


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
    k = _index(k, 1, "Chebyshev index")
    arr = _open_interval(z)
    return _bounded_from_beta(d, k, np.arccos(arr)) / np.sqrt((1.0 - arr) * (1.0 + arr))


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


def _aliased_coeffs(series, k):
    """The Chebyshev coefficients of S_k, exact part and tail model apart.

    Returns c = [c_0, 2 e_k, 2 e_2k, ...], e_{nk} the exact c_{nk} minus its
    1/m^2, 1/m^4 model, for nk up to SERIES_SPAN (L + 1), and the model as
    (p, odd, even) triples: the model part of S_k(cos beta) is
    -(2 / pi) sum_p sum_{n>=1} w_n cos(n beta) / n^p, with w_n = odd for odd
    n and even for even n. series_bounded_factor documents the formulas.
    """
    mu = series.coeffs
    order = len(mu) - 1
    l = np.arange(order + 1)
    span = SERIES_SPAN * (order + 1)
    # a_{|j|} for j = -L..span + L: the two correlations sum mu_l a_{|m-l|}
    # and mu_l a_{m+l} over l, for m = 0..span
    a = _sin_coeffs(np.abs(np.arange(-order, span + order + 1)))
    c = (np.correlate(a[:span + order + 1], mu[::-1], "valid")
         + np.correlate(a[order:], mu, "valid"))[::k] / 4.0
    p_r = np.bincount(l % 2, mu, minlength=2)
    q_r = np.bincount(l % 2, (6.0 * l * l + 2.0) * mu, minlength=2)
    r = k * np.arange(1, len(c)) % 2
    m2 = (k * np.arange(1.0, len(c))) ** 2
    c[1:] = 2.0 * (c[1:] + (2.0 * p_r[r] + q_r[r] / m2) / (np.pi * m2))
    # for odd k, nk has the parity of n; for even k every nk is even
    model = tuple((p, w[k % 2] / k**p, w[0] / k**p) for p, w in ((2, 2.0 * p_r), (4, q_r)))
    return c, model


def _series_on_chunks(series, k, arr, sums, halve, finish):
    """A series route at the points arr, SUM_CHUNK points at a time.

    For each chunk of points x, with beta = arccos(x), the tail model is
    summed in closed form as (2 / pi) sum_p [odd s_p(beta)
    + (even - odd) s_p(2 beta) / 2^(p + halve)], s_p = sums[p]: odd n take
    the weights of beta, even n those of 2 beta. finish(c, x, beta, model)
    gives the chunk's values from that and the aliased coefficients c.
    Every step is pointwise, so a point's value does not depend on the
    chunking, and no temporary is larger than a chunk.
    """
    c, model = _aliased_coeffs(series, k)
    flat = arr.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, SUM_CHUNK):
        x = flat[lo:lo + SUM_CHUNK]
        beta = np.arccos(x)
        tail = 0.0
        for p, odd, even in model:
            tail = tail + odd * sums[p](beta) + (even - odd) * sums[p](2.0 * beta) / 2**(p + halve)
        out[lo:lo + SUM_CHUNK] = finish(c, x, beta, 2.0 * tail / np.pi)
    return out.reshape(arr.shape)


def _series_pdf_chunk(c, x, beta, model):
    return np.polynomial.chebyshev.chebval(x, c) - model


def _series_cdf_chunk(c, x, beta, model):
    # Clenshaw for sum_n u_n U_{n-1}(x), u_n = 2 e_{nk} / n: b <- u_n + 2 x b' - b'',
    # in three buffers
    twice = 2.0 * x
    b1, b2, b = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for un in c[:0:-1] / np.arange(len(c) - 1, 0, -1):
        np.multiply(twice, b1, out=b)
        b -= b2
        b += un
        b1, b2, b = b, b1, b2
    return c[0] * (np.pi - beta) - np.sqrt((1.0 - x) * (1.0 + x)) * b1 + model


@_pointwise
def series_bounded_factor(series, k, z):
    """S_k(z) reassembled from the Chebyshev coefficients of the input density.

    The k preimage angles of cos(beta) form a coset, so aliasing keeps only
    the multiples of k among the cosine coefficients c_m of
    h(t) = f(cos t) |sin t| on [0, pi]: S_k(z) = c_0 + 2 sum_{n>=1} c_{nk} T_n(z).
    With |sin t| = a_0 / 2 + sum_j a_j cos(j t), a_j = -4 / (pi (j^2 - 1))
    for even j, c_m = (1/4) sum_l mu_l (a_{|m-l|} + a_{m+l}), taken exactly
    for m up to SERIES_SPAN (L + 1), L the series order. The rest follows
    c_m = -(2 P_r / m^2 + Q_r / m^4) / pi + O(m^-6), with P_r and Q_r the
    sums of mu_l and (6 l^2 + 2) mu_l over l of the parity r of m; that
    model is summed in closed form over every n and taken out of the exact
    part. The route sees only the coefficients, never the density. It runs
    on chunks of SUM_CHUNK points, so its cost does not grow with k and its
    memory beyond the result does not grow with the number of points.
    """
    k = _index(k, 1, "Chebyshev index")
    return _series_on_chunks(series, k, _open_interval(z), _COS_SUMS, 0, _series_pdf_chunk)


@_pointwise
def series_cdf(series, k, z):
    """Distribution function of T_k(X) from the Chebyshev coefficients of the input density.

    T_k(X) <= cos(beta) when the folded angle arccos(T_k(X)), whose density
    is S_k(cos phi) on [0, pi], lies in [beta, pi]. Integrating the series of
    series_bounded_factor over that interval gives

        F_k(cos beta) = c_0 (pi - beta) - 2 sum_{n>=1} c_{nk} sin(n beta) / n.

    The tail model integrates in closed form (x = 2 beta halves its
    antiderivative once more), and the exact part is one Clenshaw pass
    through sin(n beta) = sin(beta) U_{n-1}(cos beta) over about
    SERIES_SPAN (L + 1) / k terms, on chunks of SUM_CHUNK points, as in
    series_bounded_factor. The cost does not grow with k. z may stray past
    [-1, 1] by chebpoly.DOMAIN_SLACK; z and the result are clipped, as in
    pushforward_cdf.
    """
    k = _index(k, 1, "Chebyshev index")
    out = _series_on_chunks(series, k, _unit_interval(z), _SIN_SUMS, 1, _series_cdf_chunk)
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
    gap = np.pi - np.arccos(_open_interval(z))
    return (LIMIT_BOUNDED_FACTOR
            + (np.pi / 3.0 - gap * gap / np.pi) * even_moment_sum(series) / (k * k))


def _sup_deviation(bounded):
    return float(np.max(np.abs(bounded - LIMIT_BOUNDED_FACTOR)))


def sup_error(d, k, grid=201):
    """Sup over the standard grid of |S_k(z) - 1/pi|."""
    return _sup_deviation(bounded_factor(d, k, default_grid(grid)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-error trace over a ladder of k values plus a log-log fit.

    label is "invariant" when every error sits at the rounding floor
    (fitted_order is then nan), "empirical" for discontinuous inputs where
    the error decay is observed rather than covered by the smooth-case
    analysis, and "fit" otherwise. fitted_order is nan with fewer than
    three k values. bounded holds S_k on default_grid(grid), one array per
    k, so other routes can be compared against the same values without
    summing the angles again.
    """

    ks: tuple
    sup_errors: tuple
    fitted_order: float
    label: str
    bounded: tuple


def convergence_report(d, ks, grid=201):
    """S_k and its sup error for each k in an increasing ladder, with the fit."""
    ks = tuple(_index(k, 1, "Chebyshev index") for k in ks)
    if len(ks) < 1:
        raise ValueError("need at least one k")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k values must be strictly increasing")
    z = default_grid(grid)
    bounded = tuple(bounded_factor(d, k, z) for k in ks)
    errors = tuple(_sup_deviation(s) for s in bounded)
    if max(errors) < INVARIANT_TOL:
        label, order = "invariant", float("nan")
    else:
        label = "empirical" if d.discontinuous else "fit"
        if len(ks) < 3:
            order = float("nan")
        else:
            order = float(np.polyfit(np.log(np.asarray(ks, dtype=float)),
                                     np.log(np.asarray(errors)), 1)[0])
    return ConvergenceReport(ks=ks, sup_errors=errors, fitted_order=order, label=label,
                             bounded=bounded)


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
