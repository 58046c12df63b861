"""floattext.float_cells against the per-value Python formatters.

float_cells must write, byte for byte, what repr (JSON: json.dumps's text
of a finite float, with nan as null and +-inf as Infinity) and "%.17g"
(CSV) write, on a column of any length.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpush.floattext import float_cells, python_texts
from test_cli import run_python


def texts(cells):
    """The str of each row of a cell matrix, its NULs dropped."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def assert_kernel_writes_python_texts(values):
    values = np.asarray(values, dtype=np.float64)
    for json_out in (False, True):
        want = python_texts(values.tolist(), json_out)
        got = texts(float_cells(values, json_out))
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not bad, (json_out, len(bad), bad[:5])


POWERS = 10.0 ** np.arange(-30, 31)


@pytest.mark.parametrize("values", [
    # both neighbours of 10^e: where log10 rounds up, q lands a hair under
    # 10^16 and E must drop by one (9.999999999999999e-17)
    np.concatenate([np.nextafter(POWERS, 0.0), POWERS, np.nextafter(POWERS, np.inf)]),
    [9.999999999999999e-17, 1e-16, 1.0000000000000001e-16],
    # powers of two, whose rounding interval is asymmetric
    np.ldexp(1.0, np.arange(-300, 300, 7)),
    [1.0, 100.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 1e22, 1e23],
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, float("nan"), float("inf"), -float("inf")],
    # a shortest repr of each length from 1 to 17
    [float("0." + "123456789123456789"[:p] + "e-3") for p in range(1, 18)],
    [float("9." + "87654321987654321"[:p - 1] + "e12") for p in range(1, 18)],
    # decimal ties, and integral values padded with zeros in fixed notation
    [0.125, 2.5, 0.5, 1.5, 1234567890123456.8, 1500.0, 123.0, 1e15, 12345678901234567.0],
    # the ends of fixed notation: 1e-4 to 1e16 in repr, to 1e17 in "%.17g"
    [1e-5, 1.5e-5, 1e-4, 1.5e-4, 0.001234, 999999999999999.9, 9999999999999998.0,
     99999999999999984.0],
], ids=["powers-of-ten", "below-1e-16", "powers-of-two", "integers", "edges",
        "lengths-small", "lengths-large", "ties", "notation"])
def test_named_cases(values):
    assert_kernel_writes_python_texts(values)


def test_random_bit_patterns_and_short_decimals():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**63, 20_000, dtype=np.int64).view(np.uint64)
    bits[::2] |= np.uint64(2**63)
    # exponents inside the kernel's range, where nothing falls back by range
    inside = np.ldexp(rng.random(20_000) + 0.5, rng.integers(-900, 900, 20_000))
    inside[1::2] *= -1.0
    digits = rng.integers(1, 18, 20_000).tolist()
    scale = (rng.random(20_000) * 10.0 ** rng.integers(-20, 20, 20_000)).tolist()
    short = [float("%.*g" % (p, v)) for p, v in zip(digits, scale)]
    assert_kernel_writes_python_texts(np.concatenate([bits.view(np.float64), inside, short]))


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern(bits):
    assert_kernel_writes_python_texts(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    assert_kernel_writes_python_texts(values)


@pytest.mark.parametrize("json_out", (False, True), ids=("csv", "json"))
def test_float_cells_peaks_below_170_bytes_a_float(json_out):
    # tracemalloc's peak of one call on 5120 floats, with the tables built
    # before it: 155 B a float in CSV and in JSON. Holding every temporary
    # to the end, the kernel peaked at 315 and 319 B.
    values = np.linspace(-3.7, 3.7, 5120)
    float_cells(values, json_out)
    tracemalloc.start()
    try:
        float_cells(values, json_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 170 * values.size


def test_a_pdf_run_imports_neither_fractions_nor_decimal():
    # the kernel's tables are built on first use, from ints and floats
    code = ("import sys; from chebpush import cli; "
            "assert cli.main(['pdf', '--dist', 'gauss:0,0.25', '--k', '9', '--out', "
            f"{os.devnull!r}]) == 0; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
