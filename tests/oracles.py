"""Independent oracles for the test suite.

Every expected value here is derived by a route disjoint from the library:
the three-term recurrence for T_k, exact integer sign tests on dyadic
bisection points for branch inversion, interval unions in angle space for
distribution functions, adaptive quadrature for moments and cdfs, and the
error function for the truncated gaussian. Tests compare the library
against these, never against itself. CATALOG is the set of densities the
tests sweep over; two_piece_density builds one outside it, with one or two
jumps anywhere inside (-1, 1), linear between them or with a gaussian cut
at the first.

The exceptions are the scalar j loop of the angle sum
(`angle_sum_reference`, `angle_cdf_reference`), the per-cell output
emitter (`emit_reference`), the closed-form endpoint model of the series
route (`endpoint_model_reference`) and the Monte Carlo statistics over a
batch sorted afresh (`ks_reference`, `histogram_reference`). They repeat an
earlier form of the library's code on purpose: the angle sum gives the
summation order the library's block evaluation must reproduce bit for bit,
the emitter gives the bytes the CLI output must reproduce, the endpoint
model gives the 1/m^2 and 1/m^4 law of c_m that the series route's edges at
-1 and 1 must reproduce, and the KS and histogram forms give the values the
one shared sorted copy must reproduce bit for bit, so they check the
evaluation, the formatting and the rewritten form, not the mathematics.
`pushed_density` reads the library's angle sum too, at n, as the first of
two stages: the law T_m(T_n(X)) = T_mn(X) then checks the sum at mn by
sums at m and at n that share no term with it. The CLI fixes each
column's format from the first row, in CSV and JSON alike, and writes a
JSON chunk with a non-finite value from JSON tokens.
"""

import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, ndtr, ndtri

from chebpush.densities import Density, make_density
from chebpush.pushforward import _bounded_from_beta, _preimage_sum

TWO_PI = 2.0 * np.pi

# Every catalog density, the gaussian as gauss:0,0.25.
CATALOG = (*(make_density(name) for name in ("arcsine", "uniform", "ramp", "uniform01")),
           make_density("gauss", mu=0.0, sigma=0.25))


def two_piece_density(xstars, ends, bump=0.0):
    """A density with jumps at the one or two points xstars inside (-1, 1).

    ends holds the unnormalized pdf values of the linear part at the two
    ends of each piece, left to right: (at -1, at x*_1, at x*_1, ..., at 1).
    To every piece it adds bump times a gaussian of width 0.25 centred on
    the first jump, which cuts it there; the width is the catalog
    gaussian's, so its derivatives grow as 4^r, as gauss:0,0.25's do. With
    bump > 0 no piece is a polynomial, so its Chebyshev series has terms at
    every size down to the rounding, on a narrow piece as on a wide one.
    At a jump the pdf takes the left piece's value. The cdf is the
    integral of the lines and of the gaussian (through erf) in closed form,
    the ppf inverts it by bisection, and the angle law is built from both
    as in the catalog, so the density is as exact as they are.
    """
    edges = np.array([-1.0, *sorted(xstars), 1.0])
    lo, width = edges[:-1], np.diff(edges)
    a, b = np.reshape(np.asarray(ends, dtype=float), (-1, 2)).T
    centre, sigma = edges[1], 0.25
    scale = sigma * np.sqrt(2.0)

    def gauss_below(x):
        # the integral of the gaussian from -1 to x
        return 0.5 * np.sqrt(np.pi) * scale * (erf((x - centre) / scale)
                                               - erf((-1.0 - centre) / scale))

    lines = np.concatenate([[0.0], np.cumsum(0.5 * (a + b) * width)])
    total = lines[-1] + bump * gauss_below(1.0)

    def piece(x):
        return np.clip(np.searchsorted(edges, x) - 1, 0, len(lo) - 1)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        i = piece(x)
        val = a[i] + (b[i] - a[i]) * (x - lo[i]) / width[i]
        if bump:
            val = val + bump * np.exp(-0.5 * ((x - centre) / sigma) ** 2)
        return np.where((x >= -1.0) & (x <= 1.0), val, 0.0) / total

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        i = piece(x)
        u = x - lo[i]
        val = lines[i] + a[i] * u + (b[i] - a[i]) * u * u / (2.0 * width[i])
        if bump:
            val = val + bump * gauss_below(x)
        return val / total

    def ppf(q):
        lo_q, hi_q = np.full(np.shape(q), -1.0), np.full(np.shape(q), 1.0)
        for _ in range(60):
            mid = 0.5 * (lo_q + hi_q)
            left = cdf(mid) < q
            lo_q, hi_q = np.where(left, mid, lo_q), np.where(left, hi_q, mid)
        return 0.5 * (lo_q + hi_q)

    return Density(f"two-piece:{','.join(map(str, sorted(xstars)))}", pdf, cdf, ppf,
                   angle_pdf=lambda theta: pdf(np.cos(theta)) * np.sin(theta),
                   angle_cdf=lambda theta: 1.0 - cdf(np.cos(theta)),
                   breakpoints=tuple(sorted(xstars)))


def endpoint_model_reference(coeffs, m):
    """The endpoint model of c_m for a series on [-1, 1], and the size of its terms.

    c_m ~ -(2 P_r / m^2 + Q_r / m^4) / pi, with P_r and Q_r the sums of
    coeffs[l] and (6 l^2 + 2) coeffs[l] over the l of the parity r of m:
    the series route's closed form for the ends before they became edges.
    The size, (2 (|P_0| + |P_1|) / m^2 + (|Q_0| + |Q_1|) / m^4) / pi, is
    what agreement is judged against: at odd m the two terms can cancel,
    and a symmetric density's odd sums are rounding noise.
    """
    coeffs, m = np.asarray(coeffs, dtype=float), np.asarray(m, dtype=float)
    l = np.arange(len(coeffs))
    p = np.array([np.sum(coeffs[l % 2 == r]) for r in (0, 1)])
    q = np.array([np.sum(((6.0 * l * l + 2.0) * coeffs)[l % 2 == r]) for r in (0, 1)])
    r = (m % 2).astype(int)
    size = (2.0 * np.sum(np.abs(p)) / m**2 + np.sum(np.abs(q)) / m**4) / np.pi
    return -(2.0 * p[r] / m**2 + q[r] / m**4) / np.pi, size


def ks_reference(values, cdf):
    """The one-sample KS statistic of values against cdf, as first written.

    values are sorted here, and the ranks are int64 i / n and (i - 1) / n.
    """
    n = len(values)
    ref = np.asarray(cdf(np.sort(values)), dtype=float)
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - ref)), float(np.max(ref - (i - 1) / n)))


def histogram_reference(values):
    """(edges, density) of values in 50 equal bins on [-1, 1], by np.histogram."""
    density, edges = np.histogram(values, bins=50, range=(-1.0, 1.0), density=True)
    return edges, density


def cheb_eval_recurrence(k, x):
    """T_k(x) by the three-term recurrence T_{j+1} = 2x T_j - T_{j-1}."""
    arr = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(arr), arr
    if k == 0:
        cur = prev
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * arr * cur - prev
    return float(cur) if np.ndim(x) == 0 else cur


def int_cheb_coeffs(k):
    """Integer coefficients of T_k, lowest degree first, by the recurrence."""
    if k == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _dyadic(x):
    """(n, s) with float x == n / 2**s exactly; every float is dyadic."""
    n, den = float(x).as_integer_ratio()
    return n, den.bit_length() - 1


def branch_pushforward_pdf(d, k, z, iters=54):
    """Brute-force change-of-variables density of T_k(X) at scalar z.

    Splits [-1, 1] at the extrema of T_k, inverts each monotone branch by
    bisection, then sums pdf(root) / |T_k'(root)|. Float bisection cannot
    reach 1e-9 near the double roots where T_k' vanishes, so the sign tests
    are exact instead. The branch edges lo, hi and z are floats, hence
    dyadic rationals. With e = (largest denominator exponent of lo, hi,
    z) + iters, they and all iters midpoints bisection takes from them are
    integer multiples of 2**-e, so bisection runs on the integers
    X = x * 2**e and halves exactly with a shift. T_k has integer
    coefficients c_i, so the sign of T_k(x) - z is the sign of the integer
    sum_i c_i X**i 2**(e (k - i)) - Z 2**(e (k - 1)). The final midpoint is
    rounded once to the nearest float.
    """
    coeffs = int_cheb_coeffs(k)
    dcoeffs = [float(i * c) for i, c in enumerate(coeffs)][1:]
    edges = np.cos(np.pi * np.arange(k, -1, -1) / k)
    z_n, z_s = _dyadic(z)
    total = 0.0
    for b in range(k):
        (lo_n, lo_s), (hi_n, hi_s) = _dyadic(edges[b]), _dyadic(edges[b + 1])
        e = max(lo_s, hi_s, z_s) + iters
        # homogeneous coefficients c_i 2**(e (k - i)), lowest degree first,
        # with Z 2**(e (k - 1)) folded into the constant term
        hom = [c << (e * (k - i)) for i, c in enumerate(coeffs)]
        hom[0] -= z_n << (e - z_s + e * (k - 1))
        lo_i, hi_i = lo_n << (e - lo_s), hi_n << (e - hi_s)
        lo_neg = _horner(hom, lo_i) < 0
        for _ in range(iters):
            mid = (lo_i + hi_i) >> 1
            if (_horner(hom, mid) < 0) == lo_neg:
                lo_i = mid
            else:
                hi_i = mid
        root = (lo_i + hi_i) / (1 << (e + 1))
        deriv = _horner(dcoeffs, root)
        total += float(d.pdf(root)) / abs(deriv)
    return total


def pushforward_cdf_oracle(d, k, z):
    """P(T_k(X) <= z) as a union of angle intervals.

    cos(k theta) <= z exactly when k theta mod 2 pi lies in
    [arccos z, 2 pi - arccos z]; summing the Theta probability of each such
    interval inside [0, pi] gives the cdf with no branch bookkeeping shared
    with the library.
    """
    beta = float(np.arccos(np.clip(z, -1.0, 1.0)))
    total = 0.0
    j = 0
    while (beta + TWO_PI * j) / k < np.pi:
        a = (beta + TWO_PI * j) / k
        b = min((TWO_PI - beta + TWO_PI * j) / k, np.pi)
        if b > a:
            total += float(d.cdf(np.cos(a))) - float(d.cdf(np.cos(b)))
        j += 1
    return total


def mass_left_oracle(d, k):
    """P(T_k(X) < 0) by the same interval-union route at z = 0."""
    return pushforward_cdf_oracle(d, k, 0.0)


def moment_oracle(d, l, breakpoints=()):
    """Chebyshev coefficient mu_l by adaptive quadrature in angle space."""
    pts = sorted(float(np.arccos(b)) for b in breakpoints) or None
    val, _ = quad(lambda th: float(d.pdf(np.cos(th))) * np.cos(l * th),
                  0.0, np.pi, points=pts, limit=200)
    return (1.0 if l == 0 else 2.0) * val / np.pi


def truncated_gaussian_cdf_oracle(mu, sigma, x):
    """Truncated-normal cdf through scipy's erf, independent of densities.normal_cdf."""
    s2 = sigma * np.sqrt(2.0)
    lo = erf((-1.0 - mu) / s2)
    hi = erf((1.0 - mu) / s2)
    return (erf((np.asarray(x, dtype=float) - mu) / s2) - lo) / (hi - lo)


def truncated_gaussian_ppf_oracle(mu, sigma, u):
    """Truncated-normal quantile through scipy's ndtri, not the library's AS241."""
    lo = ndtr((-1.0 - mu) / sigma)
    hi = ndtr((1.0 - mu) / sigma)
    return mu + sigma * ndtri(lo + np.asarray(u, dtype=float) * (hi - lo))


def quad_integral_t_k(k):
    """Integral of T_k over [-1, 1] by adaptive quadrature of the cosine form."""
    val, _ = quad(lambda x: np.cos(k * np.arccos(np.clip(x, -1.0, 1.0))),
                  -1.0, 1.0, limit=200)
    return val


def numeric_cdf_check(d, support, grid):
    """Worst |cdf(z) - integral of pdf up to z| over an interior grid of support.

    Adaptive quadrature from the left support edge, split at pdf
    breakpoints. A correct pdf/cdf pair keeps this at quadrature noise.
    """
    lo, hi = support
    zs = np.linspace(lo, hi, int(grid) + 2)[1:-1]
    worst = 0.0
    for z in zs:
        pts = [b for b in d.breakpoints if lo < b < z]
        val, _ = quad(lambda x: float(d.pdf(x)), lo, float(z),
                      points=pts or None, limit=200)
        worst = max(worst, abs(val - float(d.cdf(z))))
    return worst


def pushed_density(d, n):
    """The law of T_n(X), X ~ d, as a Density known by its angle law alone.

    The folded angle phi = arccos T_n(X) has density S_n(cos phi) on
    [0, pi] and distribution function 1 - F_n(cos phi). angle_pdf and
    angle_cdf are those, taken by the library's angle sum at n straight
    from phi; pdf, cdf and ppf refuse to be read, and breakpoints are not
    given. As T_m(T_n(X)) = T_mn(X), S_m and F_m of it are S_mn and F_mn
    of d. That two-stage sum, m terms each n terms wide, shares no term and
    no rounding order with the one-stage sum of mn terms, and no
    coefficient with the series route.
    """
    def angle_pdf(phi):
        return _bounded_from_beta(d, n, phi)

    def angle_cdf(phi):
        return 1.0 - np.clip(_preimage_sum(d.angle_cdf, n, phi, interval=True), 0.0, 1.0)

    def unread(x):
        raise AssertionError("a pushed density is read through its angle law only")

    return Density(f"T_{n}({d.name})", unread, unread, unread, angle_pdf, angle_cdf,
                   expandable=False)


def angle_sum_reference(d, k, z):
    """S_k(z) by a scalar loop over j, adding the preimage terms one by one.

    Left to right: f(a_1), f(b_1), f(a_2), f(b_2), ..., then f(c) for odd k,
    with a_j = (2 pi j - beta) / k, b_j = (2 pi (j - 1) + beta) / k and
    c = (2 pi floor(k/2) + beta) / k.
    """
    beta = np.arccos(np.asarray(z, dtype=float))
    m = k // 2
    acc = np.zeros_like(beta)
    for j in range(1, m + 1):
        acc += d.angle_pdf((TWO_PI * j - beta) / k)
        acc += d.angle_pdf((TWO_PI * (j - 1) + beta) / k)
    if k % 2 == 1:
        acc += d.angle_pdf((TWO_PI * m + beta) / k)
    return acc / k


def angle_cdf_reference(d, k, z):
    """P(T_k(X) <= z) by the same scalar loop over angle intervals [b_j, a_j]."""
    beta = np.arccos(np.clip(np.asarray(z, dtype=float), -1.0, 1.0))
    m = k // 2
    acc = np.zeros_like(beta)
    for j in range(1, m + 1):
        acc += d.angle_cdf((TWO_PI * j - beta) / k)
        acc -= d.angle_cdf((TWO_PI * (j - 1) + beta) / k)
    if k % 2 == 1:
        acc += 1.0 - d.angle_cdf((TWO_PI * m + beta) / k)
    return np.clip(acc, 0.0, 1.0)


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) else v
    return value


def emit_reference(fmt, headers, rows, trailers=()):
    """The CLI's output text, one cell at a time through json.dumps(indent=2)
    or "%.17g". The CLI's emitter, whose first row fixes each column's format
    and which writes a JSON chunk with a non-finite value from JSON tokens,
    must match it byte for byte.

    CSV: header, data rows, then one row per trailer ("name,value,...").
    JSON: a bare array of row records, or {"rows": [...], trailer: ...}
    when trailers exist.
    """
    if fmt == "json":
        records = [
            {h: _json_value(v) for h, v in zip(headers, row)} for row in rows
        ]
        if trailers:
            payload = {"rows": records}
            for name, value in trailers:
                if isinstance(value, dict):
                    payload[name] = {k: _json_value(v) for k, v in value.items()}
                else:
                    payload[name] = _json_value(value)
            return json.dumps(payload, indent=2) + "\n"
        return json.dumps(records, indent=2) + "\n"
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    for name, value in trailers:
        if isinstance(value, dict):
            cells = [name] + [_cell(v) for v in value.values()]
        else:
            cells = [name, _cell(value)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
