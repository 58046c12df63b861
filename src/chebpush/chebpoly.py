"""Chebyshev polynomials of the first kind: T_k and its integral over [-1, 1].

Everything lives on the natural domain [-1, 1]. Inputs that stray outside it
by more than a small rounding slack raise ValueError rather than silently
producing garbage; values inside the slack are clipped, because iterated
polynomial maps routinely land a few ulp past the endpoints.
"""

from __future__ import annotations

import numpy as np

# Tolerated overshoot of |x| past 1 before input is considered invalid.
DOMAIN_SLACK = 1e-12


def _check_degree(k):
    if k < 0 or not float(k).is_integer():
        raise ValueError(f"polynomial degree must be an integer >= 0, got {k!r}")
    return int(k)


def _unit_interval(x):
    """Validate x against [-1, 1] with rounding slack; return a clipped float array."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    if np.any(np.abs(arr) > 1.0 + DOMAIN_SLACK):
        worst = float(np.max(np.abs(arr)))
        raise ValueError(f"argument outside [-1, 1] beyond rounding slack: |x| = {worst}")
    return np.clip(arr, -1.0, 1.0)


def cheb_eval(k, x):
    """T_k(x) = cos(k arccos x), vectorized over x.

    The cosine form is uniformly stable in k (it never leaves the unit
    circle), so it is the production evaluator; the test suite cross-checks
    it against the three-term recurrence.
    """
    k = _check_degree(k)
    out = np.cos(k * np.arccos(_unit_interval(x)))
    return float(out) if np.ndim(x) == 0 else out


def cheb_integral(k):
    """Integral of T_k over [-1, 1]: 2 / (1 - k^2) for even k, 0 for odd k."""
    k = _check_degree(k)
    return 0.0 if k % 2 else 2.0 / (1.0 - k * k)
