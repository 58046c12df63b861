"""Chebyshev polynomials of the first kind: T_k on [-1, 1].

Everything lives on the natural domain [-1, 1]. Inputs that stray outside it
by more than a small rounding slack raise ValueError rather than silently
producing garbage; values inside the slack are clipped, because iterated
polynomial maps routinely land a few ulp past the endpoints.

The argument contract of the whole package lives here too: _index checks
every integer index (degree, k, order, count), _pointwise adapts every
point argument, and _unit_interval and _open_interval check its domain.
SUM_CHUNK sizes the chunks that long arrays of points are computed in, and
_in_chunks applies a pointwise map to an array that many points at a time.
_horner is the package's one Horner pass, for the normal cdf and quantile
and for the series route's edge terms.
"""

from __future__ import annotations

import functools

import numpy as np

# Tolerated overshoot of |x| past 1 before input is considered invalid.
DOMAIN_SLACK = 1e-12

# Points per chunk wherever a long array of points is computed a piece at a
# time (the angle sum, the series route, sampling and pushes), so that each
# temporary array holds about SUM_CHUNK elements (256 KiB) however many
# points there are.
SUM_CHUNK = 2**15


def _index(value, lo, what):
    """int(value) for an integer value in [lo, 2**63), else ValueError.

    Nothing is converted to float, so a huge int, inf or nan cannot overflow or warn.
    """
    try:
        valid = lo <= value < 2**63 and value == int(value)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        # past sys.get_int_max_str_digits() digits, repr of an int raises
        got = (f"an integer of {value.bit_length()} bits"
               if isinstance(value, int) and value.bit_length() > 64 else repr(value))
        raise ValueError(f"{what} must be an integer >= {lo}, got {got}")
    return int(value)


def _pointwise(fn):
    """fn, written for a float array as its last argument, taking a scalar
    (giving a Python float), a list or an array there, by position or keyword.
    """
    code = fn.__code__
    point = code.co_varnames[code.co_argcount - 1]  # the last parameter's name

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if point in kwargs:
            x = kwargs[point] = np.asarray(kwargs[point], dtype=float)
        elif args:  # with no argument at all, fn raises the TypeError
            x = np.asarray(args[-1], dtype=float)
            args = args[:-1] + (x,)
        out = fn(*args, **kwargs)
        return float(out) if x.ndim == 0 else out

    return wrapped


def _in_chunks(fn, x, out, size=SUM_CHUNK):
    """out, with fn(x) written into it at most size points of x at a time.

    fn is pointwise: a point's value does not depend on the other points of
    the call. So out holds fn(x) bit for bit, and fn's temporaries hold one
    chunk, not len(x) points. out may be x itself.

    x is cut evenly, into ceil(len(x) / size) chunks that end at
    len(x) i // chunks. So no chunk is narrower than size // 2 points unless
    x is: a reduction down the rows of a chunk, such as the angle sum's
    sum(axis=0), adds one row at a time only on at least two columns. No
    points make one empty chunk.
    """
    n = len(x)
    chunks = max(1, -(-n // size))
    for i in range(chunks):
        lo, hi = n * i // chunks, n * (i + 1) // chunks
        out[lo:hi] = fn(x[lo:hi])
    return out


def _horner(coeffs, x):
    """sum_i coeffs[i] x^(n - i), n = len(coeffs) - 1 >= 1, highest degree first.

    One multiply and one add a degree, in place and pointwise. The
    coefficients may be arrays that broadcast against x.
    """
    out = coeffs[0] * x
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _unit_interval(x):
    """Validate a float array x against [-1, 1] with rounding slack; return it clipped."""
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(np.abs(x) > 1.0 + DOMAIN_SLACK):
        worst = float(np.max(np.abs(x)))
        raise ValueError(f"argument outside [-1, 1] beyond rounding slack: |x| = {worst}")
    return np.clip(x, -1.0, 1.0)


def _open_interval(z):
    """Validate a float array z against the open interval (-1, 1); return it as is."""
    if not np.all(np.isfinite(z)):
        raise ValueError("evaluation point must be finite")
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("pushforward density is evaluated on the open interval "
                         "(-1, 1); it is singular at the endpoints")
    return z


@_pointwise
def cheb_eval(k, x):
    """T_k(x) = cos(k arccos x), vectorized over x.

    The cosine form is uniformly stable in k (it never leaves the unit
    circle), so it is the production evaluator; the test suite cross-checks
    it against the three-term recurrence.
    """
    return np.cos(_index(k, 0, "polynomial degree") * np.arccos(_unit_interval(x)))
