#!/usr/bin/env python3
"""Fit the rational coefficients of chebpush's normal cdf, and check it and its inverse.

chebpush.densities evaluates the standard normal cdf as

    Phi(-s) = 0.5 * exp(-s^2 / 2) * P(s) / Q(s),   s = |t| >= 0,

where P/Q, of degree 10 over 11, approximates erfcx(s / sqrt(2)) =
exp(s^2 / 2) * erfc(s / sqrt(2)) on all of [0, inf). erfcx is completely
monotone, so a rational with positive coefficients fits it (Cody, Math.
Comp. 23, 1969, uses the same form on pieces); positive coefficients make
the Horner sums free of cancellation for every s >= 0. The fit is
linearised least squares (Sanathanan-Koerner iteration) in mpmath at 40
digits, weighing relative error, on Chebyshev nodes in y = (s - 4) / (s + 4),
so that [0, inf) maps to [-1, 1).

The inverse is not fitted here: it is Wichura's AS241 (Appl. Statist. 37,
1988) with its published coefficients, as in CPython's statistics module
(NormalDist.inv_cdf). --check measures it against mpmath's quantile.

    python3 scripts/fit_normal.py            # print the coefficient tuples
    python3 scripts/fit_normal.py --check    # also compare with the package

Needs mpmath (1.3.0 was used). The output is deterministic; the tuples in
densities.py are its output verbatim. --check imports chebpush from the
checkout's src and prints the largest gaps of its Phi and of its inverse to
mpmath: absolute where |t| <= 1 and relative beyond.
"""

import argparse
import pathlib
import sys

import mpmath as mp

mp.mp.dps = 40

ERFCX_DEGREES = (10, 11)
NODES = 300
SWEEPS = 10


def chebyshev_nodes(lo, hi, n):
    return [lo + (hi - lo) * (1 + mp.cos(mp.pi * (j + mp.mpf(0.5)) / n)) / 2 for j in range(n)]


def rational_fit(xs, fs, weights, m, n):
    """P/Q, Q(0) = 1, minimising sum (w (P(x) - f Q(x)) / Q_prev(x))^2.

    Returns the numerator and denominator coefficients, lowest degree first,
    and the largest weighted gap w |P/Q - f| at the nodes.
    """
    scale = [mp.mpf(1)] * len(xs)
    for _ in range(SWEEPS):
        a = mp.matrix(len(xs), m + 1 + n)
        b = mp.matrix(len(xs), 1)
        for i, (x, f, w) in enumerate(zip(xs, fs, weights)):
            row = w * scale[i]
            for k in range(m + 1):
                a[i, k] = x ** k * row
            for k in range(1, n + 1):
                a[i, m + k] = -f * x ** k * row
            b[i] = f * row
        sol = mp.qr_solve(a, b)[0]
        p = [sol[k] for k in range(m + 1)]
        q = [mp.mpf(1)] + [sol[m + k] for k in range(1, n + 1)]
        scale = [1 / abs(mp.polyval(q[::-1], x)) for x in xs]
    gap = max(w * abs(mp.polyval(p[::-1], x) / mp.polyval(q[::-1], x) - f)
              for x, f, w in zip(xs, fs, weights))
    return p, q, gap


def fit_erfcx():
    ys = chebyshev_nodes(-1, 1, NODES)
    ss = [4 * (1 + y) / (1 - y) for y in ys]
    fs = [mp.erfc(s / mp.sqrt(2)) * mp.exp(s * s / 2) for s in ss]
    return rational_fit(ss, fs, [1 / f for f in fs], *ERFCX_DEGREES)


def lower_quantile(q, start):
    """t with Phi(t) = q, q <= 1/2, by mpmath's findroot (secant steps) from a float start."""
    return mp.findroot(lambda t: mp.ncdf(t) - q, mp.mpf(start))


def tuple_source(name, coeffs):
    """name = (highest degree first, ...), wrapped at 100 columns."""
    lines = [f"{name} = ("]
    for text in (repr(float(c)) for c in coeffs[::-1]):
        if len(lines[-1]) + len(text) + 2 > 100:
            lines.append(" " * (len(name) + 4))
        lines[-1] += text + ", "
    return "\n".join(line.rstrip() for line in lines)[:-1] + ")"


def check():
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import numpy as np

    from chebpush.densities import normal_cdf, normal_ppf

    ts = np.linspace(-40.0, 40.0, 8001)
    exact = [mp.ncdf(mp.mpf(float(t))) for t in ts]
    got = normal_cdf(ts)
    abs_gap = max(abs(mp.mpf(float(g)) - e) for g, e in zip(got, exact))
    rel_gap = max(abs(mp.mpf(float(g)) / e - 1) for g, e, t in zip(got, exact, ts) if -37 <= t <= 0)
    print(f"# Phi on [-40, 40]: max abs gap {float(abs_gap):.2e}, "
          f"max rel gap on [-37, 0] {float(rel_gap):.2e}")
    ps = np.concatenate([np.logspace(-300, np.log10(0.5), 601), np.linspace(0.001, 0.999, 999)])
    inner = outer = mp.mpf(0)
    for p, x in zip(ps.tolist(), normal_ppf(ps).tolist()):
        q = mp.mpf(p)
        # the mirror image keeps the quantile of p > 1/2 in a lower tail
        t = lower_quantile(q, x) if q <= 0.5 else -lower_quantile(1 - q, -x)
        if abs(t) <= 1:
            inner = max(inner, abs(x - t))
        else:
            outer = max(outer, abs(x / t - 1))
    print(f"# Phi^-1 on [1e-300, 0.999]: max abs gap for |t| <= 1 {float(inner):.2e}, "
          f"max rel gap above {float(outer):.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="also print the package kernel's gaps to mpmath")
    args = parser.parse_args()
    p, q, gap = fit_erfcx()
    print(f"# erfcx fit: max relative gap at the nodes {float(gap):.1e}")
    print(tuple_source("_ERFCX_NUM", p))
    print(tuple_source("_ERFCX_DEN", q))
    if args.check:
        check()


if __name__ == "__main__":
    main()
