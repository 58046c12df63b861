"""Float columns to text, a whole column at a time.

`float_cells` writes the text of every float of an array as one row of
bytes each, NUL-padded, byte for byte what Python's per-value formatters
write: `repr` (JSON's shortest round-trip digits, as json.dumps writes a
finite float) or "%.17g" (CSV's correctly rounded 17 significant digits). Both are one
rounding decision at bounded precision (Steele & White 1990; Adams,
"Ryu", PLDI 2018), so numpy takes it for the whole column at once.

- Digits. E = floor(log10|x|), corrected by one where the integer part of
  q = |x| 10^(16 - E) falls outside [10^16, 10^17). q is formed as a
  double-double: Dekker's exact product of |x| with the double nearest
  10^s, s = 16 - E, plus |x| times the residual of 10^s. Its integer part
  N and fraction f are known to better than 1e-14, and the 17 digits are
  N + [f > 1/2]. For s in [0, 22], 10^s is a double, q is exact and a tie
  f = 1/2 goes to the even digit, as in dtoa.
- Shortest digits (JSON). The rounding interval of x is q +- hw, with
  hw = ulp(x) 10^s / 2. The p-digit rounding D_p of q round-trips exactly
  when |D_p 10^(17-p) - q| < hw, and if it does, so does the (p+1)-digit
  one. So p walks down from 16 over the values whose (p+1)-digit rounding
  round-tripped, and each value keeps its last round-tripping digits.
- Fallback. `python_texts`, the per-value Python formatters, writes every
  value the kernel does not decide: a decision within DELTA of a rounding
  tie or of the interval's edge that the arithmetic above cannot settle
  exactly; powers of two in shortest mode, whose interval is asymmetric;
  +-0, nan and +-inf; |x| outside [1e-289, 1e299], where the 10^s pair
  is not normal; and a column shorter than KERNEL_MIN, whole.
- Text. A cell is 48 bytes, six 8-byte words each gathered from a table:
  the sign, a leading "0." and its zeros, the first digit and a point
  after it; the other 16 digits in four 4-digit words, each digit followed
  by a slot for the point; then e+-XX. Unused slots are NUL, and the writer
  drops every NUL of a chunk at once. Notation follows Python: fixed from
  1e-4 up to 1e16 (repr) or 1e17 ("%.17g"), where an integral value is
  padded with zeros and repr adds ".0", and exponent form outside.

The tables are built on first use, from ints and floats: the powers of
ten in 0.5-0.7 ms and the glyphs in 1.4-1.6 ms, in a fresh interpreter on
a 2-core x86-64 container. Importing this module builds nothing.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Bytes of one cell: room for the longest float text, 24 bytes
CELL = 48
# A rounding decision within DELTA of a tie or of the interval's edge goes
# to the fallback. q carries an error below 1e-14, and hw and the digit
# distances are 0.55 to 11, so DELTA is far outside the error, and a value
# lands there about once in 1e8 draws.
DELTA = 1e-9
# Columns of fewer floats are formatted whole by python_texts. On 64 to
# 1005 floats of a pdf, the kernel took about 150-250 us a call, nearly all
# of it fixed, and python_texts about 0.6-0.9 us a float: they broke even
# at about 200 floats in CSV and 250 in JSON.
KERNEL_MIN = 256
# The range of s = 16 - E whose pair (hi, lo) is normal, and so the range of
# |x| that the kernel formats: E from -290 to 300 after the correction
_S_MIN, _S_MAX = -284, 306
_X_MIN, _X_MAX = -300, 310
# Veltkamp's constant: a * _SPLIT splits a double into two 26-bit halves
_SPLIT = 134217729.0

# Tokens of the floats JSON has no literal for: json.dumps's spellings of
# +-inf, and null for nan
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def python_texts(values, json_out):
    """The text of each Python float of values as Python writes it: in
    JSON, repr for a finite float and json.dumps's Infinity and -Infinity,
    with nan as null; or "%.17g".

    One %-template over all of values formats them: on 150 floats it took
    135 us, one "%.17g" % v per float 157 us.
    """
    texts = (("%r\n" if json_out else "%.17g\n") * len(values) % tuple(values)).split("\n")
    del texts[-1]
    return [_JSON_NONFINITE.get(t, t) for t in texts] if json_out else texts


def text_cells(texts):
    """A uint8 matrix of one NUL-padded row of bytes per str of texts."""
    cells = np.array(texts, dtype="S")
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@cache
def _pow10():
    """Tables over s = _S_MIN.._S_MAX, by s - _S_MIN: hi and lo, with
    hi + lo = 10^s to a relative 3e-32, and hi's two 26-bit halves."""
    p, his, los = 1, [], []
    for _ in range(max(_S_MAX, -_S_MIN) + 1):
        h = float(p)
        his.append(h)
        los.append(float(p - int(h)))
        p *= 10
    hi, lo = np.array(his), np.array(los)
    # 10^-n = 1 / (hi + lo) as a double-double: r = 1 / hi, and the
    # residual 1 - r (hi + lo) from r hi's exact product, with hi scaled
    # into [0.5, 1) so that the halves do not overflow
    h, l = hi[1:1 - _S_MIN], lo[1:1 - _S_MIN]
    scale = np.ldexp(1.0, -np.frexp(h)[1])
    hs, ls = h * scale, l * scale
    rs = 1.0 / h / scale
    (rh, rl), (hh, hl) = _split(rs), _split(hs)
    prod = rs * hs
    err = ((rh * hh - prod) + rh * hl + rl * hh) + rl * hl
    rlo = (((1.0 - prod) - err) - rs * ls) / hs * scale
    hi = np.concatenate([(rs * scale)[::-1], hi[:_S_MAX + 1]])
    lo = np.concatenate([rlo[::-1], lo[:_S_MAX + 1]])
    mant, ex = np.frexp(hi)
    mh, ml = _split(mant)
    return hi, lo, np.ldexp(mh, ex), np.ldexp(ml, ex)


def _words(texts):
    """Each str of texts as one 8-byte word, NUL-padded."""
    return np.array([t.encode("latin-1") for t in texts], dtype="S8").view(np.uint64)


@cache
def _glyphs():
    """The word tables of a cell, and the trailing zeros of each 4-digit group."""
    # by ((sign * 5 + zeros) * 10 + first digit) * 2 + point: "-", "0." and
    # zeros - 1 zeros, the first digit, and "." after it
    head = _words([sign + prefix.ljust(5, "\0") + d + point for sign in "\0-"
                   for prefix in ("", "0.", "0.0", "0.00", "0.000")
                   for d in "0123456789" for point in "\0."])
    d = np.arange(10000)
    spread = np.zeros((10000, 8), np.uint8)
    for j, div in enumerate((1000, 100, 10, 1)):
        spread[:, 2 * j] = 48 + d // div % 10
    # by shown digits: which digits of the four groups (digits 1-4, ...,
    # 13-16) are shown, as a mask of their bytes
    cut = _words(["\xff\0" * c + "\0" * (8 - 2 * c) for c in range(5)])
    masks = cut[np.clip(np.arange(18)[:, None] - np.arange(1, 17, 4), 0, 4)]
    zeros = sum(d % (10 * j) == 0 for j in (1, 10, 100, 1000))
    zeros[0] = 4
    exps = _words([""] + ["e%+03d" % x for x in range(_X_MIN + 1, _X_MAX)])
    return head, spread.view(np.uint64).ravel(), masks.view("V32").ravel(), zeros, exps


def _scaled(v, s):
    """N and f of q = v 10^s = N + f, N an integer and f in [0, 1)."""
    hi, lo, hh, hl = (np.take(t, s - _S_MIN) for t in _pow10())
    p = v * hi
    vh, vl = _split(v)
    t = (((vh * hh - p) + vh * hl + vl * hh) + vl * hl) + v * lo
    whole = np.floor(p)
    t += p - whole
    ft = np.floor(t)
    return whole.astype(np.int64) + ft.astype(np.int64), t - ft


def float_cells(values, json_out):
    """The text of each float of values, repr (json_out) or "%.17g", as a
    uint8 matrix of one NUL-padded row per float, in values' flat order.

    The bytes are python_texts's; see the module docstring for how the
    digits are decided and which floats python_texts formats itself.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = x.size
    if n < KERNEL_MIN:
        return text_cells(python_texts(x.tolist(), json_out))
    ax = np.abs(x)
    ok = (ax >= 1e-289) & (ax <= 1e299)
    if json_out:
        ok &= (x.view(np.uint64) & np.uint64(2**52 - 1)) != 0
    v = np.where(ok, ax, 1.5)  # a stand-in that the fallback overwrites
    E = np.floor(np.log10(v)).astype(np.int64)
    N, f = _scaled(v, 16 - E)
    off = (N < 10**16).astype(np.int64) - (N >= 10**17)
    wrong = np.flatnonzero(off)
    if wrong.size:
        E[wrong] -= off[wrong]
        N[wrong], f[wrong] = _scaled(v[wrong], 16 - E[wrong])
    exact = (E >= -6) & (E <= 16)
    near = (np.abs(f - 0.5) < DELTA) & ~exact
    # the 17 digits, and below them each value's shortest, as a 17-digit integer
    digits = N + ((f > 0.5) | ((f == 0.5) & ((N & 1) == 1)))
    shown = np.full(n, 17)
    if json_out:
        hw = 0.5 * np.spacing(v) * np.take(_pow10()[0], 16 - E - _S_MIN)
        live, Nl, fl, hl = np.arange(n), N, f, hw
        for p in range(16, 0, -1):
            m = 10 ** (17 - p)
            # r from the quotient, which gives the digits too: an int64 % by a
            # scalar costs about ten times a //
            q = Nl // m
            r = Nl - q * m
            tie = (r - m // 2) + fl
            up = tie > 0
            gap = hl - np.where(up, (m - r) - fl, r + fl)
            close = ((np.abs(tie) < DELTA) & (gap > -DELTA)) | (np.abs(gap) < DELTA)
            near[live[close]] = True
            trips = np.flatnonzero((gap > 0) & ~close)
            if not trips.size:
                break
            live, Nl, fl, hl = live[trips], Nl[trips], fl[trips], hl[trips]
            digits[live] = (q[trips] + up[trips]) * m
            shown[live] = p
    carry = digits == 10**17
    digits[carry] = 10**16
    X = E + carry
    first = digits // 10**16
    rest = digits - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.empty((n, 4), np.int64)
    groups[:, 0] = high // 10**4
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 2] = low // 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4
    head, spread, masks, zeros, exps = _glyphs()
    if not json_out:
        # "%.17g" drops trailing zeros: count them where the last digit is one
        last = groups[:, 3]
        z = np.flatnonzero(last - last // 10 * 10 == 0)
        g = groups[z].T
        z4 = g[3] == 0
        z3 = z4 & (g[2] == 0)
        z2 = z3 & (g[1] == 0)
        shown[z] -= zeros[g[3]] + z4 * zeros[g[2]] + z3 * zeros[g[1]] + z2 * zeros[g[0]]
    # fixed notation from 1e-4 up to 1e16 (repr) or 1e17 ("%.17g"), where an
    # integral value is padded with zeros, and repr writes ".0" after it
    fixed = (X >= -4) & (X <= (15 if json_out else 16))
    whole = fixed & (X >= 0)
    keep = np.where(whole, np.maximum(shown, X + (2 if json_out else 1)), shown)
    point = np.where(whole, X, np.where(fixed, -1, 0))
    point = np.where((json_out & whole) | (shown > point + 1), point, -1)
    cells = np.empty((n, CELL // 8), np.uint64)
    zeros_before = np.where(fixed & (X < 0), -X, 0)
    cells[:, 0] = head[(((x < 0) * 5 + zeros_before) * 10 + first) * 2 + (point == 0)]
    cells[:, 1:5] = np.take(spread, groups) & np.take(masks, keep).view(np.uint64).reshape(n, 4)
    cells[:, 5] = exps[np.where(fixed, 0, X - _X_MIN)]
    text = cells.view(np.uint8)
    dots = np.flatnonzero(point > 0)
    text[dots, 7 + 2 * point[dots]] = ord(".")
    fallback = np.flatnonzero(~ok | near)
    if fallback.size:
        texts = text_cells(python_texts(x[fallback].tolist(), json_out))
        text[fallback] = 0
        text[fallback, :texts.shape[1]] = texts
    return text
