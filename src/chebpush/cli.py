"""Command-line front end.

Every subcommand emits a deterministic data file (CSV or JSON) built from
the exact pushforward machinery; there is no plotting here, any tool can
consume the output. Exit codes: 0 success, 1 numerical-guard failure
(a computation refused its input, such as a k above MAX_K or a command
above the work budget MAX_WORK) or unwritable output, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache, partial

import numpy as np

from . import floattext
from .densities import make_density, parse_density, sample
from .floattext import float_cells, text_cells
from .montecarlo import KS_MIN_SAMPLES, histogram, ks_statistic, push_samples
from .pushforward import (
    LIMIT_BOUNDED_FACTOR,
    bounded_factor,
    convergence_report,
    default_grid,
    pushforward_cdf,
    series_bounded_factor,
    series_cdf,
)
from .spectral import (
    DEFAULT_ORDER,
    decayed_expansion,
    even_moment_sum,
    expand_density,
    normalization_residual,
)

# Caps on what one command may ask for. A command above any of them exits 1
# with the reason before any computation starts. Times and sizes are from a
# 2-core x86-64 container.
# Largest Chebyshev index of any --k or --ks value. The angle sum costs O(k)
# per grid point: `pdf --dist gauss:0,0.001 --k 1048576` on the default
# 201-point grid, whose expansion has not decayed and which so stays on it,
# takes about 10 s. The series route takes `pdf --dist uniform01` there in
# 0.02 s, which took 7.4 s on the angle sum.
MAX_K = 2**20
# Angle terms one command may sum: k per grid point (per sample for mc's
# exact-cdf KS), added up over every k it computes. `pdf --k 1048576` on
# the default grid is 2.1e8 of them.
MAX_WORK = 2**28
# Largest --order. expand_density is one FFT of 8 (order + 1) points, about
# 4 ms at 4096, and expand writes one row per coefficient.
MAX_ORDER = 4096
# Largest --grid, --n and number of rows dance writes (k values x grid).
# Peak memory above import (ru_maxrss, fresh process, CSV or JSON): a
# 5-column pdf row about 66 B (`pdf --dist gauss:0,0.25 --k 128 --grid
# 262144`: its five float64 columns and their temporaries), a dance row
# about 16 B (`dance --ks 2..17 --grid 65536`: f_k's 8 B, the grid's text
# and one chunk) and an mc draw about 25 B (`mc --dist gauss:0,0.25 --k 8
# --n 1048576`: the pushed draws and their sorted copy, as the ppf and T_k
# run SUM_CHUNK draws at a time), so 2^20 of any take at most about 70 MB.
MAX_POINTS = 2**20

# Float cells _emit formats at a time. A chunk holds EMIT_CELLS // (plain
# float columns) rows, 1024 of pdf's five columns and 5120 of dance's one,
# and a (values, repeat) column is formatted EMIT_CELLS values at a time,
# so the memory _emit holds is one chunk's whatever the row count.
# float_cells has a fixed cost per call: on dance's values it took 232 ns
# a float at 1024 a call and 133 at 4096 (CSV). At 2048, 5120 and 8192,
# _emit of `dance --ks 2..12 --grid 20000` took 87, 77 and 80 ms in CSV
# (in-process, best of 9) and peaked at 1.7, 2.9 and 4.0 MB.
EMIT_CELLS = 5120

# The smallest k that pdf, dance and mc take the series route for, where the
# density allows it (see _exact_routes). At DEFAULT_ORDER, the angle sum's
# time over the series route's, best of 9 with the two alternating, on 2e5
# sorted points (cdf) and a 1e5-point grid (S_k): gauss:0,0.25 0.80 / 0.72
# at k = 4, 1.91 / 1.64 at 7 and 2.44 / 2.40 at 8; uniform and ramp
# 0.31-0.42 / 0.82-0.87 at k = 4, 0.84-0.91 / 1.35-1.75 at 7 and
# 1.24-1.27 / 2.55-2.63 at 8. From k = 8 on, both series routes are the
# cheaper on every smooth density. uniform01, whose jump is one more edge of
# the route's model and whose angle law is cheap, reads 0.36 / 0.69 at
# k = 4, 0.72-0.82 / 1.30-1.33 at 7, 0.86-1.13 / 2.01-2.03 at 8, 1.14 / 1.85
# at 9 and 3.82 / 6.17 at 16: its S_k crosses below k = 7 and its cdf at
# k = 8 or 9, so mc may pay a little at k = 8 there. The series route has a
# fixed cost of about 0.15-0.4 ms per call (0.2-1.0 ms with a jump), so on a
# few hundred points the angle sum stays cheaper further up; the rule does
# not look at the count.
SERIES_MIN_K = 8

# The angle terms of each command that sums any, as counted for MAX_WORK.
# mc's KS reads its cdf at a few percent of the samples, but at all of them
# when the cdf is seen to fall (montecarlo.ks_statistic), so mc is still
# budgeted k per sample, the full scan's worst case, under the same cap.
_WORK = {
    "pdf": lambda ns: ns.k * ns.grid,
    "dance": lambda ns: sum(ns.ks) * ns.grid,
    "converge": lambda ns: sum(ns.ks) * ns.grid,
    "invariance": lambda ns: ns.k * (ns.k + 1) // 2 * ns.grid,
    "mc": lambda ns: ns.k * ns.n,
}


def parse_ks(text):
    """Parse a k-list: comma-separated integers and inclusive ranges a..b[:step]."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry in k list {text!r}")
        if ".." in part:
            lo_s, _, rest = part.partition("..")
            hi_s, _, step_s = rest.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            step = int(step_s) if step_s else 1
            if step < 1 or hi < lo:
                raise ValueError(f"bad range {part!r}: need a <= b and step >= 1")
            # stop after the first value above MAX_K (main refuses it), or at a
            # start below 1 (refused below), so no huge range is ever expanded
            last = max(lo, MAX_K + step) if lo >= 1 else lo
            out.extend(range(lo, min(hi, last) + 1, step))
        else:
            out.append(int(part))
    if not out or any(k < 1 for k in out):
        raise ValueError(f"k values must be positive integers, got {text!r}")
    return tuple(out)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {text}")
    return value


def _flag(parse):
    """parse as an argparse type that keeps the ValueError's reason in the usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _json_null(value):
    """A trailer's value as json.dumps should see it: nan, or a nan value
    of a dict, as None, which json.dumps writes null."""
    if isinstance(value, dict):
        return {k: _json_null(v) for k, v in value.items()}
    return None if value != value else value


def _column_cells(values, json_out):
    """The cells of a column made once: %d for integers, and for floats
    float_cells EMIT_CELLS values at a time, into one matrix of
    floattext.CELL bytes a value, so that no temporary grows with the
    column. The float cells are kept contiguous, without the byte
    positions that are NUL in every row (_spans)."""
    if values.dtype != np.float64:
        return text_cells(["%d" % v for v in values.tolist()])
    cells = np.empty((len(values), floattext.CELL), np.uint8)
    for start in range(0, len(values), EMIT_CELLS):
        cells[start:start + EMIT_CELLS] = float_cells(values[start:start + EMIT_CELLS], json_out)
    [span] = _spans(cells[:, None])
    return np.ascontiguousarray(cells[:, span])


def _spans(cells):
    """For each column of cells, a (rows, columns, floattext.CELL) uint8
    array of float_cells rows, the slice from its first to its last byte
    position that is not NUL in some row."""
    # one OR along each word position of a transposed copy: along the rows
    # in place, a few words a row, numpy took about 18 ns a row
    words = cells.view(np.uint64).reshape(len(cells), -1).T.copy()
    used = np.bitwise_or.reduce(words, axis=1).view(np.uint8).reshape(cells.shape[1], -1)
    return [slice(at[0], at[-1] + 1) for at in map(np.flatnonzero, used)]


def _emit(ns, headers, columns, trailers=()):
    """Write columns as rows (+ trailing summary records) in the selected format.

    columns holds one entry per header. A plain column is a 1-D array with
    one value per row: float64, whose text floattext.float_cells writes, or
    integers, written with %d. Or it is a pair (values, repeat) whose row i
    holds values[i // repeat % len(values)]: each value stands in repeat
    rows in a row, and the values start over after the last. values is
    formatted once and its text gathered for each row, so that a value
    repeated in many rows, such as dance's grid once per k, is formatted
    once. The first plain column gives the row count, and at least one
    plain column is float64.

    Each column's dtype fixes its format: %d for integers, and for float64
    "%.17g" in CSV or repr in JSON, which is what json.dumps writes for a
    finite float, with nan written as null and +-inf as json.dumps spells
    them. CSV: header, data rows, then one row per trailer
    ("name,value,..."). JSON: a bare array of row records, or
    {"rows": [...], trailer: ...} when trailers exist, the text after the
    rows array being json.dumps of the trailers (nan as null). Field names
    match between formats. The bytes are those of the per-cell
    json.dumps(indent=2) and "%.17g" emitter kept in tests/oracles.py.

    The rows are written as bytes a chunk at a time, EMIT_CELLS plain
    float cells to a chunk, so the memory held does not grow with the
    output. Every output, of no rows or of 2^20, takes the one path, so a
    short output pays float_cells' fixed cost: mc's 50-row histogram takes
    about 175 us in CSV and 250 us in JSON. float_cells formats all of a
    chunk's plain float columns in one call; a (values, repeat) column is
    formatted once, before the first chunk, and each chunk gathers its
    rows' cells with np.take. The chunk is one uint8 matrix: the constant
    text between cells, and each column's NUL-padded cells without the
    byte positions that are NUL in every row (_spans), whose other NULs
    are dropped at once.
    """
    json_out = ns.format == "json"
    columns = [c if isinstance(c, tuple) else (np.asarray(c), None) for c in columns]
    n = len(next(values for values, repeat in columns if repeat is None))
    tail = []
    if json_out:
        depth = 2 if trailers else 0
        pad = " " * (depth + 2)
        head = ('{\n  "rows": ' if trailers else "") + ("[\n" if n else "[]")
        # the text before each cell of a record, and after its last one
        between = [f"{pad}{{\n"] + [",\n"] * (len(headers) - 1)
        between = [b + f"{pad}  {json.dumps(h)}: " for b, h in zip(between, headers)]
        joint, end = ",\n", f"\n{pad}}}"
        tail.append(f"\n{' ' * depth}]" if n else "")
        if trailers:
            # the trailers' own document, its opening brace the comma after the rows
            doc = {name: _json_null(value) for name, value in trailers}
            tail.append("," + json.dumps(doc, indent=2)[1:])
        tail.append("\n")
    else:
        head, joint, end = ",".join(headers) + "\n", "", "\n"
        between = [""] + [","] * (len(headers) - 1)
        for name, value in trailers:
            cells = (name, *(value.values() if isinstance(value, dict) else (value,)))
            # bools are written true/false, as in JSON
            tail.append(",".join(json.dumps(c) if isinstance(c, bool) else "%.17g" % c
                                 if type(c) is float else str(c) for c in cells) + "\n")
    is_float = [values.dtype == np.float64 for values, _ in columns]
    floats = [values for (values, repeat), f in zip(columns, is_float) if f and repeat is None]
    step = max(1, EMIT_CELLS // len(floats))
    fragments = [np.frombuffer(t.encode(), np.uint8) for t in [*between, end + joint]]
    # each column's cells, made once, and the rows each cell stands in; or
    # None for a plain float column, whose cells are made chunk by chunk
    made = [None if f and repeat is None else (_column_cells(values, json_out), repeat or 1)
            for (values, repeat), f in zip(columns, is_float)]

    def text_of(start, stop):
        """The bytes of rows start to stop, the joint after the last row
        dropped; what it makes is freed before the next chunk's."""
        size, index = stop - start, np.arange(start, stop)
        block = np.stack([values[start:stop] for values in floats], axis=1)
        block = float_cells(block, json_out).reshape(size, len(floats), -1)
        texts = (block[:, j, span] for j, span in enumerate(_spans(block)))
        cells = [next(texts) if m is None else np.take(m[0], index // m[1], axis=0, mode="wrap")
                 for m in made]
        pieces = [p for f, c in zip(fragments, cells) for p in (f, c)] + fragments[-1:]
        # the matrix fills a bytearray, whose NULs are dropped without a copy
        text = bytearray(size * sum(p.shape[-1] for p in pieces))
        chunk = np.frombuffer(text, np.uint8).reshape(size, -1)
        at = 0
        for p in pieces:
            chunk[:, at:at + p.shape[-1]] = p
            at += p.shape[-1]
        text = text.translate(None, b"\0")
        return memoryview(text)[:len(text) - len(joint)] if stop == n else text

    if ns.out == "-":
        sys.stdout.flush()  # text already written to stdout goes first
    with open(ns.out, "wb") if ns.out != "-" else nullcontext(sys.stdout.buffer) as fh:
        fh.write(head.encode())
        for start in range(0, n, step):
            fh.write(text_of(start, min(start + step, n)))
        fh.write("".join(tail).encode())


def _exact_routes(d, ks):
    """S_k and F_k of T_k(X), the bounded factor and the cdf, for each k of ks.

    Both come from the same one of two routes. The angle sum
    (bounded_factor, pushforward_cdf) costs O(k) per point; the series
    route (series_bounded_factor, series_cdf) aliases the density's
    Chebyshev expansion at a cost independent of k, and is the cheaper on
    wide inputs from k = SERIES_MIN_K. A k takes the series route when it
    is at least SERIES_MIN_K and decayed_expansion gives one. A
    density with jumps, such as uniform01, is expanded piece by piece
    between them, and its jumps are edges of the route's one model, as -1
    and 1 are. A ladder of small k expands nothing; otherwise the density
    is expanded at most once for the whole ladder. Where the
    series route runs, the two routes agree in S_k to within 5.3e-15 on the
    smooth catalog densities at eleven k from 8 to 32768, to within 1.2e-13
    over 378 cases of a sweep of gaussians (mu in [-0.6, 0.6], sigma in
    [0.15, 1], nine k from 8 to 4097), and to within 1.0e-14 on uniform01 at
    131 k from 8 to 8000 away from the jump's image T_k(0), where S_k jumps
    and the series route gives the midpoint. On the series route S_k and
    every call of F_k at one k share one coefficient step, which
    pushforward keeps for the last few k read: dance reads both, and mc's
    KS calls F_k more than once.
    """
    series = decayed_expansion(d) if max(ks) >= SERIES_MIN_K else None
    for k in ks:
        if series is not None and k >= SERIES_MIN_K:
            yield partial(series_bounded_factor, series, k), partial(series_cdf, series, k)
        else:
            yield partial(bounded_factor, d, k), partial(pushforward_cdf, d, k)


def cmd_pdf(ns):
    z = default_grid(ns.grid)
    [(bounded, _)] = _exact_routes(ns.dist, (ns.k,))
    s = bounded(z)
    root = np.sqrt((1.0 - z) * (1.0 + z))
    columns = (z, s / root, s, LIMIT_BOUNDED_FACTOR / root, np.abs(s - LIMIT_BOUNDED_FACTOR))
    del root  # one grid-sized array fewer held while the rows are written
    _emit(ns, ("z", "f_k", "s_k", "limit_pdf", "abs_error"), columns)


def cmd_dance(ns):
    z = default_grid(ns.grid)
    root = np.sqrt((1.0 - z) * (1.0 + z))
    pdfs, masses = np.empty((len(ns.ks), len(z))), np.empty(len(ns.ks))
    for i, (bounded, cdf) in enumerate(_exact_routes(ns.dist, ns.ks)):
        pdfs[i] = bounded(z) / root
        # P(T_k(X) < 0), which oscillates about 1/2 before it settles
        masses[i] = cdf(0.0)
    # k and its mass repeat once per grid point and z once per k: each is
    # formatted once, and every row gathers its text
    columns = ((np.array(ns.ks), len(z)), (z, 1), pdfs.ravel(), (masses, len(z)))
    _emit(ns, ("k", "z", "f_k", "mass_left_of_zero"), columns)


def cmd_converge(ns):
    report = convergence_report(ns.dist, ns.ks, ns.grid)
    columns = (np.array(report.ks), np.array(report.sup_errors),
               np.array(report.asymptotic_errors))
    trailer = ("fitted_order", {"value": report.fitted_order, "label": report.label})
    _emit(ns, ("k", "sup_error", "asymptotic_prediction_error"), columns, (trailer,))


def cmd_expand(ns):
    series = expand_density(ns.dist, order=ns.order)
    columns = (np.arange(len(series.coeffs)), series.coeffs)
    trailers = (
        ("normalization_residual", normalization_residual(series)),
        ("even_moment_sum", even_moment_sum(series)),
    )
    _emit(ns, ("l", "mu_l"), columns, trailers)


def cmd_mc(ns):
    d = ns.dist
    pushed = push_samples(sample(d, ns.n, ns.seed), ns.k)
    edges, density = histogram(pushed)
    columns = (edges[:-1], edges[1:], density)
    [(_, cdf)] = _exact_routes(d, (ns.k,))
    tests = {"ks_exact": ks_statistic(pushed, cdf),
             "ks_limit": ks_statistic(pushed, make_density("arcsine").cdf)}
    trailers = [(name, {"statistic": t.statistic, "threshold": t.threshold, "pass": t.passed})
                for name, t in tests.items()]
    _emit(ns, ("bin_left", "bin_right", "density"), columns, trailers)


def cmd_invariance(ns):
    report = convergence_report(make_density("arcsine"), range(1, ns.k + 1), ns.grid)
    _emit(ns, ("k", "max_abs_deviation"), (np.array(report.ks), np.array(report.sup_errors)))


def _add_io_flags(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format")
    sp.add_argument("--out", default="-", metavar="PATH",
                    help="output path, - for stdout")


def _add_grid_flag(sp):
    sp.add_argument("--grid", type=_flag(_positive_int), default=201, metavar="N",
                    help=f"number of evaluation grid points, at least 2 and at most {MAX_POINTS}")


def _add_dist_flag(sp, default=argparse.SUPPRESS):
    # required without a default selector; SUPPRESS keeps "(default: None)" out of the help.
    # parse_density is looked up at each parse, not bound with the parser that main
    # builds once, so a wrapper put on cli.parse_density later (a spy, a tracer) sees it
    sp.add_argument("--dist", type=_flag(lambda text: parse_density(text)), default=default,
                    required=default is argparse.SUPPRESS,
                    help="density selector: arcsine | uniform | ramp | uniform01 | gauss:MU,SIGMA")


def build_parser():
    """A new parser of the chebpush command line; main parses with one built once."""
    parser = argparse.ArgumentParser(
        prog="chebpush",
        description="Exact and asymptotic distributions of T_k(X) for random "
                    "variables on [-1, 1], and their convergence to the arcsine law.",
        epilog=f"Each command sums at most MAX_WORK = {MAX_WORK} angle terms: k per grid "
               "point (per sample for mc), summed over every k it computes.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("pdf", formatter_class=fmt,
                       help="exact pushforward density on a grid")
    _add_dist_flag(p)
    p.add_argument("--k", type=_flag(_positive_int), required=True, default=argparse.SUPPRESS,
                   help=f"Chebyshev index, at most {MAX_K}")
    _add_grid_flag(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("dance", formatter_class=fmt,
                       help="pushforward across a ladder of k for a centered bump, "
                            "with the mass left of zero per k")
    _add_dist_flag(p, "gauss:0,0.25")
    p.add_argument("--ks", type=_flag(parse_ks), default="2..24",
                   help="k list: comma values and/or inclusive ranges a..b[:step], "
                        f"each at most {MAX_K}")
    _add_grid_flag(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_dance)

    p = sub.add_parser("converge", formatter_class=fmt,
                       help="sup-error trace over k with a fitted log-log order")
    _add_dist_flag(p)
    p.add_argument("--ks", type=_flag(parse_ks), default="8,16,32,64,128",
                   help=f"k list, each at most {MAX_K}")
    _add_grid_flag(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("expand", formatter_class=fmt,
                       help="Chebyshev coefficients of a density, with the "
                            "normalization residual and even-coefficient sum")
    _add_dist_flag(p)
    p.add_argument("--order", type=_flag(_positive_int), default=DEFAULT_ORDER,
                   help=f"truncation order, at most {MAX_ORDER}")
    _add_io_flags(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("mc", formatter_class=fmt,
                       help="seeded Monte Carlo: histogram of pushed samples plus KS "
                            "distances against the exact law and the arcsine limit")
    _add_dist_flag(p)
    p.add_argument("--k", type=_flag(_positive_int), required=True, default=argparse.SUPPRESS,
                   help=f"Chebyshev index, at most {MAX_K}")
    p.add_argument("--n", type=_flag(_positive_int), default=100000,
                   help=f"sample count, at least {KS_MIN_SAMPLES} (the KS needs them) and at most "
                        f"{MAX_POINTS}; k * n at most {MAX_WORK}")
    p.add_argument("--seed", type=int, default=42, help="stream seed")
    _add_io_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("invariance", formatter_class=fmt,
                       help="max deviation of the arcsine pushforward from its own "
                            "law, for every k up to a cap")
    p.add_argument("--k", type=_flag(_positive_int), default=64, metavar="KMAX",
                   help=f"largest Chebyshev index checked, at most {MAX_K}")
    _add_grid_flag(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_invariance)

    return parser


def _check_budget(ns):
    """Refuse a command above one of the caps, before it computes anything."""
    ks = tuple(getattr(ns, "ks", ())) + ((ns.k,) if hasattr(ns, "k") else ())
    if ks and max(ks) > MAX_K:
        raise ValueError(f"k = {max(ks)} is above the cap MAX_K = {MAX_K}: the exact "
                         f"angle sum costs O(k) per grid point")
    sizes = [("--grid", getattr(ns, "grid", 0), MAX_POINTS, "MAX_POINTS"),
             ("--n", getattr(ns, "n", 0), MAX_POINTS, "MAX_POINTS"),
             ("--order", getattr(ns, "order", 0), MAX_ORDER, "MAX_ORDER")]
    if ns.command == "dance":
        # one output row per k and grid point
        sizes.append(("dance's row count", len(ns.ks) * ns.grid, MAX_POINTS, "MAX_POINTS"))
    for what, value, cap, name in sizes:
        if value > cap:
            raise ValueError(f"{what} {value} is above the cap {name} = {cap}")
    if ns.command == "mc" and ns.n < KS_MIN_SAMPLES:
        raise ValueError(f"KS needs at least {KS_MIN_SAMPLES} samples, got {ns.n}")
    work = _WORK[ns.command](ns) if ns.command in _WORK else 0
    if work > MAX_WORK:
        raise ValueError(f"{ns.command} would sum {work} angle terms, above the budget "
                         f"MAX_WORK = {MAX_WORK}: k per grid point (per sample for mc), "
                         f"summed over every k")


@cache
def _parser():
    """The parser main uses, built on the first call of the process.

    Parsing leaves a parser as it was, so one serves every call. The
    command each subparser runs (ns.func) is bound as it is built, so a
    cli.cmd_* patched after the first main does not reach main; no test
    patches one.
    """
    return build_parser()


def main(argv=None):
    ns = _parser().parse_args(argv)
    try:
        _check_budget(ns)
        ns.func(ns)
    except ValueError as exc:
        print(f"chebpush: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"chebpush: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main_entry():
    raise SystemExit(main())
