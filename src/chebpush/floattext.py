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
  hw = ulp(x) 10^s / 2 <= 11.1. The p-digit rounding D_p of q round-trips
  exactly when |D_p 10^(17-p) - q| < hw, and if it does, so does the
  (p+1)-digit one. Two checks decide it: 16 digits, then 15 where 16
  round-tripped. The interval is narrower than 100, so a 15-digit
  rounding that round-trips is the one multiple of 100 inside it, and
  every shorter rounding that does is the same value. So in both modes a
  value shows its last round-tripping digits (or its 17) less their
  trailing zeros, as "%.17g" does.
- Fallback. `python_texts`, the per-value Python formatters, writes every
  value the kernel does not decide: a decision within DELTA of a rounding
  tie or of the interval's edge that the arithmetic above cannot settle
  exactly; powers of two in shortest mode, whose interval is asymmetric;
  +-0, nan and +-inf; and |x| outside [1e-289, 1e299], where the 10^s
  pair is not normal. A column of any length takes the kernel, whose fixed
  cost is about 90 us a call in CSV and 130 us in JSON; python_texts is
  the faster below about 230-250 floats.
- Text. A cell is 32 bytes, four 8-byte words, each looked up in 1-D
  tables: a head word, right-aligned, of the sign, a leading "0." and its
  zeros, the first digit and a point after it; the other 16 digits, one
  4-digit group a half word, cut to the digits shown; and a tail word
  of e+-XX. A point among the 16 digits is put in by shifting the digits
  after it up a byte, the last of them into the tail word. Unused bytes
  are NUL. The writer drops a column's byte positions that are NUL in
  every row of a chunk, then every NUL of the chunk at once. Notation
  follows Python: fixed from 1e-4 up to 1e16 (repr) or 1e17 ("%.17g"),
  where an integral value is padded with zeros and repr adds ".0", and
  exponent form outside. A fallback text is written from byte 7, where a
  first digit without a sign sits.

The tables are built on first use, from ints and floats: the powers of
ten in 1.2-1.8 ms, the glyphs in 0.9-1.4 ms and each notation's in
0.3-0.5 ms, in a fresh interpreter on a 2-core x86-64 container.
Importing this module builds nothing.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Bytes of one cell: four 8-byte words
CELL = 32
# A rounding decision within DELTA of a tie or of the interval's edge goes
# to the fallback. q carries an error below 1e-14, and hw and the digit
# distances are 0.55 to 11, so DELTA is far outside the error, and a value
# lands there about once in 1e8 draws.
DELTA = 1e-9
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
    """A table over s = _S_MIN.._S_MAX, a row by s - _S_MIN: hi, the double
    nearest 10^s, lo, the double nearest 10^s - hi, and hi's two 26-bit
    halves. Python's int division rounds correctly, so 10^s = num / den
    gives both."""
    his, los = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        a, b = (num / den).as_integer_ratio()
        his.append(a / b)
        los.append((num * b - a * den) / (den * b))
    mant, ex = np.frexp(his)
    mh, ml = _split(mant)
    return np.stack([his, los, np.ldexp(mh, ex), np.ldexp(ml, ex)], axis=1)


def _words(texts):
    """Each str of texts as one 8-byte word, NUL-padded."""
    return np.array([t.encode("latin-1") for t in texts], dtype="S8").view(np.uint64)


@cache
def _glyphs():
    """The tables of a cell's text that do not depend on the notation."""
    # by (sign * 5 + zeros) * 20 + first digit * 2 + point, right-aligned:
    # "-", "0." and zeros - 1 zeros, the first digit, and "." after it
    head = _words([(sign + prefix + d + point).rjust(8, "\0") for sign in ("", "-")
                   for prefix in ("", "0.", "0.0", "0.00", "0.000")
                   for d in "0123456789" for point in ("", ".")])
    # by a 4-digit group: its four digits in the low half of a word, and
    # its trailing zeros
    d = np.arange(10000)
    quad = sum((48 + d // 10 ** (3 - j) % 10) << 8 * j for j in range(4)).astype(np.uint64)
    zeros = sum(d % 10**j == 0 for j in range(1, 5))
    # by c = 0..16, the bytes of the first c of 16 digits in each of two words
    shown = np.arange(16) < np.arange(17)[:, None]
    low, high = (shown * np.uint8(255)).view(np.uint64).T.copy()
    return head, quad, low, high, zeros


@cache
def _notation(json_out):
    """A table of four rows by X - _X_MIN of the exponent X: the tail word,
    e+-XX or none in fixed notation; the head's offset for the zeros
    before the first digit, 20 a zero; the digits after the first that a
    point follows, if more are shown (99: no point); the least digits
    shown."""
    # fixed notation from 1e-4 up to 1e16 (repr) or 1e17 ("%.17g"), where an
    # integral value is padded with zeros, and repr writes ".0" after it
    X = np.arange(_X_MIN, _X_MAX + 1)
    fixed = (X >= -4) & (X <= 16 - json_out)
    whole = fixed & (X >= 0)
    tails = _words(["" if f else "e%+03d" % e for e, f in zip(X.tolist(), fixed.tolist())])
    return np.stack([tails.view(np.int64), np.where(fixed & (X < 0), -20 * X, 0),
                     np.where(whole, X, fixed * 99), np.where(whole, X + 1 + json_out, 0)])


def _scaled(v, E):
    """N and f of q = v 10^(16 - E) = N + f, N an integer and f in [0, 1)."""
    hi, lo, hh, hl = np.take(_pow10(), (16 - _S_MIN) - E, axis=0).T
    p = v * hi
    vh, vl = _split(v)
    # t = (((vh hh - p) + vh hl + vl hh) + vl hl) + v lo, a term at a time
    t = vh * hh
    t -= p
    for a, b in ((vh, hl), (vl, hh), (vl, hl), (v, lo)):
        t += a * b
    whole = np.floor(p)
    p -= whole
    t += p
    ft = np.floor(t, out=p)
    t -= ft
    N = whole.astype(np.int64)
    N += ft.astype(np.int64)
    return N, t


def float_cells(values, json_out):
    """The text of each float of values, repr (json_out) or "%.17g", as a
    uint8 matrix of one NUL-padded CELL-byte row per float, in values' flat
    order.

    The bytes are python_texts's; see the module docstring for how the
    digits are decided and which floats python_texts formats itself.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    X, digits, fallback = _digits(x, json_out)
    text = _cells(x < 0, X, digits, json_out).view(np.uint8)
    if fallback.size:
        # from byte 7, where a first digit without a sign sits
        cells = text_cells(python_texts(x[fallback].tolist(), json_out))
        text[fallback] = 0
        text[fallback, 7:7 + cells.shape[1]] = cells
    return text


def _digits(x, json_out):
    """The exponent X of each float of x, its digits as a 17-digit integer,
    and the indexes of the floats left to the fallback."""
    v = np.abs(x)
    ok = (v >= 1e-289) & (v <= 1e299)
    if json_out:
        ok &= (x.view(np.uint64) & np.uint64(2**52 - 1)) != 0
    v[~ok] = 1.5  # a stand-in that the fallback overwrites
    E = np.log10(v)
    E = np.floor(E, out=E).astype(np.int64)
    N, f = _scaled(v, E)
    off = (N < 10**16).astype(np.int64) - (N >= 10**17)
    wrong = np.flatnonzero(off)
    if wrong.size:
        E[wrong] -= off[wrong]
        N[wrong], f[wrong] = _scaled(v[wrong], E[wrong])
    near = np.abs(f - 0.5) < DELTA
    near &= (E < -6) | (E > 16)
    # the 17 digits, and in JSON the 16 or 15 of the shortest that round-trip
    digits = N + ((f > 0.5) | ((f == 0.5) & ((N & 1) == 1)))
    if json_out:
        # half an ulp, from the exponent bits, times 10^s
        hw = ((v.view(np.uint64) & np.uint64(0x7FF << 52)) - np.uint64(53 << 52)).view(np.float64)
        hw *= np.take(_pow10()[:, 0], (16 - _S_MIN) - E)
        live, Nl, fl, hl = np.arange(len(x)), N, f, hw
        # hw is at most 11.1, so a 15-digit rounding that round-trips is the
        # one multiple of 100 in the interval, and so is any shorter one
        for m in (10, 100):
            q = Nl // m
            # r - m / 2 + f, for r = Nl - q m: the rounding lies m / 2 - |tie| from q
            tie = (Nl - q * m - m // 2) + fl
            far = np.abs(tie)
            gap = (hl - m / 2) + far
            near[live[((far < DELTA) & (gap > -DELTA)) | (np.abs(gap) < DELTA)]] = True
            trips = np.flatnonzero((gap >= DELTA) & (far >= DELTA))
            live, Nl, fl, hl = live[trips], Nl[trips], fl[trips], hl[trips]
            digits[live] = (q[trips] + (tie[trips] > 0)) * m
    carry = digits == 10**17
    digits[carry] = 10**16
    E += carry
    return E, digits, np.flatnonzero(~ok | near)


def _cells(negative, X, digits, json_out):
    """The four words of each cell, from the sign, the exponent X and the
    17 digits, which it overwrites."""
    head, quad, low, high, zeros = _glyphs()
    first = digits // 10**16
    digits -= first * 10**16
    # the other 16 digits as four 4-digit groups, the last left in digits
    groups = []
    for scale in (10**12, 10**8, 10**4):
        groups.append(digits // scale)
        digits -= groups[-1] * scale
    g0, g1, g2 = groups
    # 17 digits less their trailing zeros, counted on where the last group has 4
    shown = 17 - np.take(zeros, digits)
    z = np.flatnonzero(digits == 0)
    a, b, c = g2[z], g1[z], g0[z]
    shown[z] -= zeros[a] + (a == 0) * (zeros[b] + (b == 0) * zeros[c])
    lo = quad[g0] | quad[g1] << 32
    hi = quad[g2] | quad[digits] << 32
    del groups, g0, g1, g2
    tails, before, pos, least = np.take(_notation(json_out), X - _X_MIN, axis=1)
    keep = np.maximum(shown, least)
    point = np.where(keep > pos + 1, pos, -1)
    cells = np.empty((len(X), CELL // 8), np.uint64)
    cells[:, 0] = head[negative * 100 + before + first * 2 + (point == 0)]
    keep -= 1
    lo &= low[keep]
    hi &= high[keep]
    # a point among the 16 digits: the digits after it move up a byte, and
    # the last of them into the tail word
    dots = np.flatnonzero(point > 0)
    p = point[dots]
    dlo, dhi, m, mh = lo[dots], hi[dots], low[p], high[p]
    dot = (46 << 8 * (p & 7)).view(np.uint64)
    lo[dots] = (dlo & m) | (dlo & ~m) << 8 | np.where(p < 8, dot, 0)
    hi[dots] = (dhi & mh) | (dhi & ~mh) << 8 | (dlo & ~m) >> 56 | np.where(p < 8, 0, dot)
    tails[dots] = (dhi >> 56).view(np.int64)
    cells[:, 1] = lo
    cells[:, 2] = hi
    cells[:, 3] = tails
    return cells
