import inspect
import json
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebpush.chebpoly import cheb_eval
from chebpush.cli import _exact_routes, main
from chebpush.densities import make_density, normal_cdf, normal_ppf, parse_density, sample
from chebpush.montecarlo import push_samples, uniform_stream
from chebpush.pushforward import (
    LIMIT_BOUNDED_FACTOR,
    SERIES_SPAN,
    SUM_BLOCK,
    SUM_CHUNK,
    _SUM_COEFS,
    _aliased_coeffs,
    _clenshaw,
    _edge_model,
    _edges,
    _fejer_rule,
    _panel_breaks,
    asymptotic_bounded_factor,
    bounded_factor,
    convergence_report,
    default_grid,
    mass_left_of_zero,
    pushforward_cdf,
    pushforward_mass,
    pushforward_pdf,
    series_bounded_factor,
    series_cdf,
    sup_error,
)
from chebpush.spectral import ChebSeries, _mass, expand_density

from oracles import (
    CATALOG,
    angle_cdf_reference,
    angle_sum_reference,
    branch_pushforward_pdf,
    endpoint_model_reference,
    mass_left_oracle,
    pushed_density,
    pushforward_cdf_oracle,
    two_piece_density,
)

SMOOTH = ("uniform", "ramp", "gauss:0,0.25")

# k at the edges of the angle sum's blocks of j values: floor(k/2) is one
# short of a block, one block, one past it and one past two blocks, each with
# even and odd k; plus the smallest k
BLOCK_EDGE_KS = (1, 2, 3) + tuple(
    2 * m + odd for m in (SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 * SUM_BLOCK + 1)
    for odd in (0, 1))

# more points than one chunk of the angle sum holds at any of those k
WIDE = SUM_CHUNK // SUM_BLOCK + 3


def _dist(name):
    from chebpush.densities import parse_density

    return parse_density(name)


def test_default_grid_shape():
    z = default_grid(201)
    assert z.shape == (201,)
    assert np.all(np.diff(z) > 0)
    assert np.abs(z).max() < 1.0
    assert z[0] == pytest.approx(-np.cos(1e-3))
    with pytest.raises(ValueError):
        default_grid(1)


RAMP = make_density("ramp")
# the exact Chebyshev series of the ramp (x + 1) / 2
RAMP_SERIES = ChebSeries(np.array([0.5, 0.5]))

# each index argument, with the others held at valid values
INDEX_ARGUMENTS = {
    "cheb_eval": lambda v: cheb_eval(v, 0.3),
    "default_grid": default_grid,
    "bounded_factor": lambda v: bounded_factor(RAMP, v, 0.3),
    "pushforward_pdf": lambda v: pushforward_pdf(RAMP, v, 0.3),
    "pushforward_cdf": lambda v: pushforward_cdf(RAMP, v, 0.3),
    "series_bounded_factor": lambda v: series_bounded_factor(RAMP_SERIES, v, 0.3),
    "series_cdf": lambda v: series_cdf(RAMP_SERIES, v, 0.3),
    "asymptotic_bounded_factor": lambda v: asymptotic_bounded_factor(RAMP_SERIES, v, 0.3),
    "convergence_report": lambda v: convergence_report(RAMP, [v]),
    "pushforward_mass": lambda v: pushforward_mass(RAMP, v),
    "expand_density": lambda v: expand_density(RAMP, v),
    "sample": lambda v: sample(RAMP, v, 1),
    "uniform_stream": lambda v: uniform_stream(1, v),
    "push_samples": lambda v: push_samples(sample(RAMP, 10, 1), v),
}


# not an integer, or an integer out of range: past int64, or below every
# index's lower bound
@pytest.mark.parametrize("value", [
    2.5, float("inf"), float("nan"), float("-inf"), -1,
    pytest.param(np.float64("inf"), id="np.float64-inf"),
    pytest.param(2**63, id="2**63"), pytest.param(10**400, id="10**400"),
    # past Python's 4300-digit limit on int-to-string conversion
    pytest.param(10**5000, id="10**5000")])
@pytest.mark.parametrize("call", INDEX_ARGUMENTS.values(), ids=INDEX_ARGUMENTS.keys())
def test_a_non_integer_index_is_a_value_error(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be an integer >= "):
            call(value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3)], ids=["int", "float", "np.int64"])
@pytest.mark.parametrize("call", INDEX_ARGUMENTS.values(), ids=INDEX_ARGUMENTS.keys())
def test_an_integral_index_of_any_type_is_accepted(call, value):
    call(value)


# each function wrapped by chebpoly._pointwise -> its leading arguments and
# its parameter names, which benchmarks/tracing.py binds arguments by
POINTWISE = {
    cheb_eval: ((3,), ("k", "x")),
    bounded_factor: ((RAMP, 3), ("d", "k", "z")),
    pushforward_pdf: ((RAMP, 3), ("d", "k", "z")),
    pushforward_cdf: ((RAMP, 3), ("d", "k", "z")),
    series_bounded_factor: ((RAMP_SERIES, 3), ("series", "k", "z")),
    series_cdf: ((RAMP_SERIES, 3), ("series", "k", "z")),
    asymptotic_bounded_factor: ((RAMP_SERIES, 3), ("series", "k", "z")),
    normal_cdf: ((), ("t",)),
    normal_ppf: ((), ("p",)),
}


@pytest.mark.parametrize("fn", POINTWISE, ids=lambda fn: fn.__name__)
def test_pointwise_functions_share_one_argument_contract(fn):
    lead, names = POINTWISE[fn]
    ref = fn(*lead, 0.3)
    assert type(ref) is float
    for point in (np.float64(0.3), np.array(0.3)):
        out = fn(*lead, point)
        assert type(out) is float and out == ref
    arr = fn(*lead, [0.3, 0.3])
    assert isinstance(arr, np.ndarray) and np.all(arr == ref)
    assert fn(*lead, **{names[-1]: 0.3}) == ref
    assert fn(**dict(zip(names, (*lead, 0.3)))) == ref
    assert tuple(inspect.signature(fn).parameters) == names
    assert fn.__name__ == fn.__wrapped__.__name__
    assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__


@pytest.mark.parametrize("fn", (bounded_factor, pushforward_pdf, pushforward_cdf, series_cdf),
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("k", [3, 2 * SUM_BLOCK + 1])
@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_no_points_give_an_empty_array(fn, k, shape):
    out = fn(RAMP_SERIES if fn is series_cdf else RAMP, k, np.empty(shape))
    assert isinstance(out, np.ndarray) and out.shape == shape


@pytest.mark.parametrize("name", [d.name for d in CATALOG])
def test_identity_map_returns_the_input_pdf(name):
    d = _dist(name)
    z = default_grid(201)
    assert np.max(np.abs(pushforward_pdf(d, 1, z) - d.pdf(z))) < 1e-12


def test_arcsine_is_invariant_for_every_k():
    arc = make_density("arcsine")
    worst = max(sup_error(arc, k) for k in range(1, 65))
    assert worst < 1e-13


def test_uniform_k2_closed_form():
    # change of variables through T_2 on two branches gives 1/(2 sqrt(2(1+z)))
    d = make_density("uniform")
    z = default_grid(201)
    assert np.max(np.abs(pushforward_pdf(d, 2, z) - 1.0 / (2.0 * np.sqrt(2.0 * (1.0 + z))))) < 1e-13


@pytest.mark.parametrize("name", SMOOTH)
@pytest.mark.parametrize("k", [2, 3])
def test_small_k_against_exact_branch_oracle(name, k):
    d = _dist(name)
    z = np.cos(np.linspace(0.08, np.pi - 0.08, 21))
    vals = pushforward_pdf(d, k, z)
    oracle = np.array([branch_pushforward_pdf(d, k, zz) for zz in z])
    assert np.max(np.abs(vals - oracle)) < 1e-9


def test_pdf_cdf_guards():
    d = make_density("uniform")
    for bad in (1.0, -1.0, 1.2, np.nan):
        with pytest.raises(ValueError):
            pushforward_pdf(d, 3, bad)
    with pytest.raises(ValueError):
        pushforward_cdf(d, 3, 1.01)
    with pytest.raises(ValueError):
        bounded_factor(d, 0, 0.5)
    with pytest.raises(ValueError):
        bounded_factor(d, 2.5, 0.5)


@pytest.mark.parametrize("name", [d.name for d in CATALOG])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 13])
def test_cdf_endpoints_and_monotonicity(name, k):
    d = _dist(name)
    z = np.linspace(-1.0, 1.0, 401)
    vals = pushforward_cdf(d, k, z)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("name", [d.name for d in CATALOG])
@pytest.mark.parametrize("k", [2, 5, 16])
def test_cdf_against_interval_union_oracle(name, k):
    d = _dist(name)
    zs = np.linspace(-0.99, 0.99, 41)
    vals = pushforward_cdf(d, k, zs)
    oracle = np.array([pushforward_cdf_oracle(d, k, z) for z in zs])
    assert np.max(np.abs(vals - oracle)) < 1e-12


@pytest.mark.parametrize("name", SMOOTH)
def test_cdf_derivative_is_the_pdf(name):
    # central difference of F_k against f_k, relative tolerance 1e-5 on the
    # interior window
    d = _dist(name)
    k = 6
    z = np.linspace(-0.95, 0.95, 96)
    h = 1e-5
    deriv = (pushforward_cdf(d, k, z + h) - pushforward_cdf(d, k, z - h)) / (2 * h)
    pdf = pushforward_pdf(d, k, z)
    assert np.max(np.abs(deriv - pdf) / pdf) < 1e-5


@pytest.mark.parametrize("name", [d.name for d in CATALOG])
def test_mass_is_one(name):
    d = _dist(name)
    worst = max(abs(pushforward_mass(d, k) - 1.0) for k in range(1, 13))
    assert worst < 1e-9


@pytest.mark.parametrize("xstar", (0.0, 0.3))
@pytest.mark.parametrize("k", [1, 2, 3, 7, 22, 26, 30, 31, 500, 2**20])
def test_panel_breaks_sit_where_a_preimage_angle_meets_the_jump(xstar, k):
    # the only beta in (0, pi) where a preimage angle crosses x* is the one
    # with cos(beta) = T_k(x*); for even k, T_k(0) = +-1 and there is none
    d = replace(make_density("uniform01"), breakpoints=(xstar,))
    breaks = _panel_breaks(d, k)
    assert breaks[0] == 0.0 and breaks[-1] == np.pi
    inner = breaks[1:-1]
    if xstar == 0.0 and k % 2 == 0:
        assert inner == []
    else:
        assert len(inner) == 1
        assert abs(np.cos(inner[0]) - cheb_eval(k, xstar)) < 1e-12


@pytest.mark.parametrize("name", [d.name for d in CATALOG])
@pytest.mark.parametrize("k", [2, 3, 4, 7, 8])
def test_mass_left_of_zero_against_oracle(name, k):
    d = _dist(name)
    assert mass_left_of_zero(d, k) == pytest.approx(mass_left_oracle(d, k), abs=1e-12)


def test_dance_pattern_of_centered_bump():
    # a bump at 0 lands on T_2(0) = -1, then hops: mass alternates sides
    # with period two in even k before settling at 1/2
    d = make_density("gauss", mu=0.0, sigma=0.25)
    assert mass_left_of_zero(d, 2) > 0.5
    assert mass_left_of_zero(d, 4) < 0.5
    assert mass_left_of_zero(d, 6) > 0.5
    assert mass_left_of_zero(d, 8) < 0.5
    assert abs(mass_left_of_zero(d, 64) - 0.5) < 1e-3


@pytest.mark.parametrize("name", SMOOTH)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 10, 34, 63, 64, 65])
def test_series_route_matches_direct_route(name, k):
    d = _dist(name)
    s = expand_density(d)
    z = default_grid(201)
    gap = np.max(np.abs(series_bounded_factor(s, k, z) - bounded_factor(d, k, z)))
    assert gap < 1e-10
    z = np.r_[-1.0, z, 1.0]
    assert np.max(np.abs(series_cdf(s, k, z) - pushforward_cdf(d, k, z))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=0.3, max_value=1.0),
       st.integers(min_value=1, max_value=256))
def test_series_route_matches_direct_route_on_any_decayed_gaussian(mu, sigma, k):
    d = make_density("gauss", mu=mu, sigma=sigma)
    s = expand_density(d)
    assume(s.decayed)
    z = default_grid(201)
    assert np.max(np.abs(series_bounded_factor(s, k, z) - bounded_factor(d, k, z))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.6, max_value=0.6),
       st.floats(min_value=0.15, max_value=1.0),
       st.integers(min_value=1, max_value=4096))
def test_series_cdf_is_the_angle_sum_cdf_on_any_decayed_gaussian(mu, sigma, k):
    d = make_density("gauss", mu=mu, sigma=sigma)
    s = expand_density(d)
    assume(s.decayed)
    z = np.linspace(-1.0, 1.0, 401)
    vals = series_cdf(s, k, z)
    assert np.max(np.abs(vals - pushforward_cdf(d, k, z))) < 1e-12
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    # the mass is pi c_0, whatever k
    assert np.pi * _aliased_coeffs(s, k)[0][0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ("gauss:0,0.25", "uniform01", "ramp"))
@pytest.mark.parametrize("k", (8, 9, 64, 4097))
def test_coefficients_aliased_once_give_the_series_values_bit_for_bit(name, k):
    # S_k and F_k read from the coefficients kept for (series, k) are those
    # of a fresh coefficient step, bit for bit, and the kept ones are read-only
    s = expand_density(parse_density(name))

    def fresh(fn, z):
        _aliased_coeffs.cache_clear()
        return fn(s, k, z)

    def kept(fn, z):
        hits = _aliased_coeffs.cache_info().hits
        out = fn(s, k, z)
        assert _aliased_coeffs.cache_info().hits == hits + 1
        return out

    z = default_grid(257)
    want = fresh(series_bounded_factor, z)
    assert kept(series_bounded_factor, z).tobytes() == want.tobytes()
    z = np.concatenate(([-1.0], z, [1.0]))
    want = fresh(series_cdf, z)
    assert kept(series_cdf, z).tobytes() == want.tobytes()
    assert kept(series_cdf, 0.25) == fresh(series_cdf, 0.25)
    assert not any(array.flags.writeable for array in _aliased_coeffs(s, k))


@pytest.mark.parametrize("length", (1, 2, 3, 4, 65, 600))
@pytest.mark.parametrize("points", (1, 100_000))
def test_clenshaw_is_chebval_bit_for_bit(length, points):
    rng = np.random.default_rng(length * 7 + points)
    x = rng.uniform(-1.0, 1.0, points)
    for scale in (1.0, 1e-300, 1e300):
        c = rng.normal(size=length) * scale
        want = np.polynomial.chebyshev.chebval(x, c)
        assert _clenshaw(x, c).tobytes() == want.tobytes()


def test_each_row_of_the_trig_sum_table_sums_its_series():
    # row p holds sum_{n>=1} sin(n x) / n^p for odd p and cos(n x) / n^p for
    # even p on (0, 2 pi), in y = x - pi; for p = 5 and 6, 4000 terms leave
    # under 1e-14
    x = np.linspace(0.1, 2.0 * np.pi - 0.1, 7)
    n = np.arange(1.0, 4001.0)[:, None]
    for p in (5, 6):
        trig = np.sin if p % 2 else np.cos
        want = np.sum(trig(n * x) / n**p, axis=0)
        got = np.polynomial.polynomial.polyval(x - np.pi, _SUM_COEFS[p - 1])
        assert np.max(np.abs(got - want)) < 5e-14
    # and each row is the one before it integrated: sin sums from 0 at y = 0,
    # cos sums from -eta(p), with the sign of d cos(n x) / dx = -n sin(n x);
    # with row 6 above, that pins every coefficient of every row
    for p in range(2, 7):
        slope = np.polynomial.polynomial.polyder(_SUM_COEFS[p - 1])
        assert np.allclose(slope, (1.0 if p % 2 else -1.0) * _SUM_COEFS[p - 2][:6], atol=1e-15)


@pytest.mark.parametrize("name", ("uniform", "ramp", "gauss:0.3,0.4"))
def test_the_end_edges_give_the_closed_form_endpoint_model(name):
    # -1 and 1 are edges like a jump, with f = 0 outside [-1, 1]. There
    # sin t = 0, so h, h'' and h'''' are exactly 0, and the cos terms give
    # the earlier -(2 P_r / m^2 + Q_r / m^4) / pi at every m up to
    # SERIES_SPAN (L + 1), so at every m = nk the route models
    mu = expand_density(_dist(name)).coeffs
    t, jumps = _edges(((-1.0, 1.0, mu),))
    assert t.tolist() == [np.pi, 0.0]
    assert np.all(jumps[:, 0::2] == 0.0)
    m = np.arange(1.0, SERIES_SPAN * len(mu) + 1)
    want, size = endpoint_model_reference(mu, m)
    assert np.max(np.abs(_edge_model(t, jumps, m) - want) / size) < 1e-15


def test_fejer_rule_integrates_each_chebyshev_polynomial_below_its_size():
    n = 585
    u, w = _fejer_rule(n)
    # _mass of a unit coefficient vector is T_j's integral over [-1, 1]
    for j in (0, 1, 2, 63, 64, 520, 583, 584):
        assert np.dot(w, cheb_eval(j, u)) == pytest.approx(_mass(np.eye(n)[j]), abs=1e-14)


@pytest.mark.parametrize("k", [8, 9, 33, 64, 1000, 1025, 4097, 8000])
def test_the_series_route_of_a_jump_matches_the_angle_sum(k):
    # uniform01 away from the image T_k(0) of its jump, which for odd k is
    # the middle point of the grid; the cdf gap grows like k with the angle
    # sum's running-sum rounding
    d = make_density("uniform01")
    s = expand_density(d)
    z = default_grid(201)
    keep = np.arange(201) != 100 if k % 2 else slice(None)
    gap = np.abs(series_bounded_factor(s, k, z) - bounded_factor(d, k, z))
    assert np.max(gap[keep]) < 1e-13
    assert abs(series_cdf(s, k, 0.0) - pushforward_cdf(d, k, 0.0)) < 2e-13
    c = np.linspace(-1.0, 1.0, 401)
    assert np.max(np.abs(series_cdf(s, k, c) - pushforward_cdf(d, k, c))) < 1e-12


@pytest.mark.parametrize("k", [3, 9])
def test_the_series_route_takes_the_midpoint_at_a_jump_image(k, capsys):
    # for odd k, T_k(0) = 0, and the middle point of the 201-point grid,
    # cos(pi/2) = 6.1e-17, sits on that image of uniform01's jump. The
    # preimage angles of 0 are the odd multiples of pi / 2k; the pdf is 1
    # on those below pi/2 and jumps to 0 at pi/2, so S_k jumps by 1/k there
    d = make_density("uniform01")
    z = default_grid(201)
    got = series_bounded_factor(expand_density(d), k, z)
    theta = (2 * np.arange(k) + 1) * np.pi / (2 * k)
    below = np.sum(np.sin(theta[: k // 2])) / k
    assert got[100] == pytest.approx(below + 0.5 / k, abs=1e-14)
    # the angle sum gives a one-sided value, and elsewhere the routes agree
    angle = bounded_factor(d, k, z)
    assert min(abs(angle[100] - below), abs(angle[100] - below - 1.0 / k)) < 1e-14
    rest = np.arange(201) != 100
    assert np.max(np.abs(got - angle)[rest]) < 1e-13
    if k >= 8:
        # the CLI's route writes the midpoint too
        assert main(["pdf", "--dist", "uniform01", "--k", str(k)]) == 0
        row = capsys.readouterr().out.splitlines()[1 + 100].split(",")
        assert float(row[2]) == got[100]


@pytest.mark.parametrize("name", ("uniform", "ramp", "gauss:0.3,0.4"))
def test_series_route_meets_the_expansion_like_k4(name):
    # both routes hold S_k, and the expansion leaves an O(1/k^4) remainder:
    # each doubling of k should shrink their gap about 16x
    s = expand_density(_dist(name))
    z = default_grid(201)
    gaps = [np.max(np.abs(series_bounded_factor(s, k, z) - asymptotic_bounded_factor(s, k, z)))
            for k in (64, 128, 256, 512)]
    assert all(b < a / 10 for a, b in zip(gaps, gaps[1:])), gaps


def test_series_route_at_k_two_to_the_twenty_takes_milliseconds():
    # the angle sum needs about 10 s at this k; the series route's cost does
    # not grow with k
    s = expand_density(make_density("gauss", mu=0.0, sigma=0.25))
    z = default_grid(201)
    series_bounded_factor(s, 2, z)
    t0 = time.perf_counter()
    vals = series_bounded_factor(s, 2**20, z)
    assert time.perf_counter() - t0 < 0.05
    assert np.max(np.abs(vals - asymptotic_bounded_factor(s, 2**20, z))) < 1e-14


def test_asymptotic_expansion_tightens_like_k4():
    d = make_density("uniform")
    s = expand_density(d)
    z = default_grid(201)

    def gap(k):
        return np.max(np.abs(bounded_factor(d, k, z) - asymptotic_bounded_factor(s, k, z)))

    # fourth-order remainder: doubling k should shrink the gap ~16x
    assert gap(32) < gap(16) / 10
    assert gap(64) < gap(32) / 10
    with pytest.raises(ValueError):
        asymptotic_bounded_factor(s, 1, 0.0)


def test_the_asymptotic_of_every_series_reads_its_end_values():
    # the 1/k^2 term's constant is (f(1) + f(-1)) / 2, read from the end
    # pieces of a series with jumps and from the one piece of a series
    # without. A density with jumps has a whole-interval series that has not
    # decayed at the ends: its even coefficient sum reads 0.44221317186100995
    # for the two-piece density, where the pdf's ends give 0.44077134986225885
    z = default_grid(33)
    profile = np.pi / 3.0 - (np.pi - np.arccos(z)) ** 2 / np.pi
    names = ("uniform01", "uniform", "ramp", "gauss:0,0.25", "gauss:0.3,0.4")
    for d in (two_piece_density((0.3,), (1.0, 1.2, 0.5, 0.6)), *map(parse_density, names)):
        ends = 0.5 * (d.pdf(1.0) + d.pdf(-1.0))
        series = expand_density(d)
        for k in (2, 9, 64):
            got = (asymptotic_bounded_factor(series, k, z) - LIMIT_BOUNDED_FACTOR) * k * k
            assert np.max(np.abs(got - profile * ends)) < 1e-12, (d.name, k)


def test_sup_error_decays_quadratically_for_uniform():
    d = make_density("uniform")
    e16 = sup_error(d, 16)
    e32 = sup_error(d, 32)
    assert 3.5 < e16 / e32 < 4.5


def test_convergence_report_fit_label():
    rep = convergence_report(make_density("uniform"), (8, 16, 32, 64, 128))
    assert rep.label == "fit"
    assert rep.ks == (8, 16, 32, 64, 128)
    assert len(rep.sup_errors) == 5
    assert -2.2 < rep.fitted_order < -1.8


def test_convergence_report_invariant_label():
    rep = convergence_report(make_density("arcsine"), (4, 8, 16))
    assert rep.label == "invariant"
    assert np.isnan(rep.fitted_order)
    assert max(rep.sup_errors) < 1e-13


def test_convergence_report_empirical_label():
    rep = convergence_report(make_density("uniform01"), (8, 16, 32, 64))
    assert rep.label == "empirical"
    # decay is observed even though the smooth analysis does not cover jumps
    assert rep.sup_errors[-1] < rep.sup_errors[0]


def test_convergence_report_takes_the_asymptotic_gap_of_each_bounded_factor():
    # each k's gap to the expansion is the one bounded_factor's S_k gives, bit
    # for bit, and its sup error is sup_error's; the gap is nan at k = 1 and
    # where there is no decayed expansion to read: arcsine is unbounded, and
    # gauss:0,0.001's expansion has not decayed
    z = default_grid(33)
    for name, decayed in (("gauss:0,0.25", True), ("ramp", True), ("arcsine", False),
                          ("gauss:0,0.001", False)):
        d = parse_density(name)
        rep = convergence_report(d, (1, 3, 8), grid=33)
        assert rep.sup_errors == tuple(sup_error(d, k, 33) for k in rep.ks)
        assert np.isnan(rep.asymptotic_errors[0])
        if not decayed:
            assert d.expandable is (name != "arcsine")
            assert all(np.isnan(rep.asymptotic_errors))
            continue
        series = expand_density(d)
        assert rep.asymptotic_errors[1:] == tuple(
            float(np.max(np.abs(bounded_factor(d, k, z) - asymptotic_bounded_factor(series, k, z))))
            for k in rep.ks[1:])
    assert not expand_density(parse_density("gauss:0,0.001")).decayed


def test_convergence_report_holds_one_bounded_factor_at_a_time():
    # the grid, its angles and one S_k with the temporaries of its two sups;
    # holding all 16 S_k would take 8 MiB
    d = parse_density("gauss:0,0.25")
    grid = 2**16
    peak = _peak_bytes(lambda: convergence_report(d, range(8, 136, 8), grid))
    assert peak < 3 * 8 * grid + 2**21


def test_convergence_report_guards():
    d = make_density("uniform")
    with pytest.raises(ValueError):
        convergence_report(d, ())
    with pytest.raises(ValueError):
        convergence_report(d, (8, 8))
    with pytest.raises(ValueError):
        convergence_report(d, (16, 8))
    rep = convergence_report(d, (8, 16))
    assert np.isnan(rep.fitted_order)


def test_grid_result_fields_are_consistent(capsys):
    # the columns of `pdf`, whose JSON floats round-trip to the exact binary values
    assert main(["pdf", "--dist", "ramp", "--k", "5", "--grid", "33", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    col = {name: np.array([r[name] for r in records]) for name in records[0]}
    z, bounded = col["z"], col["s_k"]
    root = np.sqrt(1.0 - z**2)
    assert np.allclose(col["f_k"] * root, bounded, atol=1e-14)
    assert np.allclose(col["limit_pdf"] * root, LIMIT_BOUNDED_FACTOR, atol=1e-14)
    assert np.allclose(col["abs_error"], np.abs(bounded - LIMIT_BOUNDED_FACTOR), atol=0)
    # and they are the library's values, bit for bit
    d = make_density("ramp")
    assert np.array_equal(z, default_grid(33))
    assert np.array_equal(bounded, bounded_factor(d, 5, z))
    assert np.array_equal(col["f_k"], pushforward_pdf(d, 5, z))


def _assert_pieces_are_the_whole(fn, x, cuts):
    whole = fn(x)
    for cut in cuts:
        assert np.array_equal(whole, np.concatenate([fn(x[:cut]), fn(x[cut:])]))


def test_chunked_evaluation_is_bit_identical():
    # fixed summation order: evaluating the grid in pieces must reproduce
    # the full evaluation exactly, for k within one block of j values and
    # past it, on a grid the angle sum itself cuts into several chunks,
    # wherever the pieces are cut (a one-point piece included)
    d = make_density("gauss", mu=0.0, sigma=0.25)
    z = default_grid(WIDE)
    for k in (9, 2 * SUM_BLOCK + 3):
        _assert_pieces_are_the_whole(lambda x: bounded_factor(d, k, x), z, (100, 257, WIDE - 1))
    # the angle sum's cdf and the series route on one, two and three chunks
    # of about SUM_CHUNK points, cut across them. The series route adds its
    # edge rows one at a time, so that a one-point piece is the whole call's
    # value too; two jumps give it eight rows, where a matrix product or a
    # pairwise sum would round a point by its place in the call
    two_jumps = two_piece_density((-0.35, 0.4), (1.0, 1.2, 0.5, 0.6, 0.9, 0.3))
    for d in (parse_density("gauss:0,0.25"), parse_density("uniform01"), two_jumps):
        series = expand_density(d)
        for n in (SUM_CHUNK - 1, SUM_CHUNK + 1, 2 * SUM_CHUNK + 3):
            z = default_grid(n)
            cuts = (1, n // 3, SUM_CHUNK, n - 1)
            _assert_pieces_are_the_whole(lambda x: pushforward_cdf(d, 9, x), z, cuts)
            for k in (9, 2 * SUM_BLOCK + 3):
                for route in (series_bounded_factor, series_cdf):
                    _assert_pieces_are_the_whole(lambda x: route(series, k, x), z, cuts)
    assert series.decayed and all(len(_aliased_coeffs(series, k)[1]) == 4
                                  for k in (9, 2 * SUM_BLOCK + 3))


# the catalog, gaussians with mu in [-0.9, 0.9] and sigma in [0.01, 1], and
# densities with one or two jumps between linear pieces, with or without a
# gaussian cut at the first
_DENSITIES = (st.sampled_from(CATALOG)
              | st.builds(lambda mu, log_sigma: make_density("gauss", mu=mu, sigma=10.0**log_sigma),
                          st.floats(-0.9, 0.9), st.floats(-2.0, 0.0))
              | st.builds(lambda xstars, ends, bump: two_piece_density(
                              xstars, ends[:2 * len(xstars) + 2], bump),
                          st.lists(st.floats(-0.8, 0.8), min_size=1, max_size=2, unique=True),
                          st.lists(st.floats(0.05, 2.0), min_size=6, max_size=6),
                          st.one_of(st.just(0.0), st.floats(0.1, 2.0))))


@settings(max_examples=60, deadline=None)
@given(d=_DENSITIES, m=st.integers(1, 64), n=st.integers(1, 64))
def test_pushing_by_t_n_then_t_m_is_pushing_by_t_mn(d, m, n):
    # T_m(T_n(X)) = T_mn(X): S_m and F_m of the law of T_n(X), each term an
    # angle sum at n, are S_mn and F_mn of X. The two stages and the one
    # share no term and no rounding order, and the series route, where it
    # runs, no coefficient. Measured on the 201-point grid, the one-stage
    # sum misses the two-stage one by at most 5 (m + n) eps in S, relative
    # to max(1, max |S|), and 11 (m + n) eps in F; the series route by at
    # most 1.5e-12 in S and 2.6e-14 in F. S jumps where a preimage angle
    # meets a pdf jump x*, at z = T_mn(x*), and is compared away from there
    # (uniform01's x* = 0 at the middle of the grid, for odd mn)
    k, eps = m * n, np.finfo(float).eps
    z = default_grid()
    beta, t = np.arccos(z), np.arccos(np.array(d.breakpoints))[:, None]
    away = np.all([np.abs(np.mod(k * t + side * beta + np.pi, 2.0 * np.pi) - np.pi) > 1e-9
                   for side in (1.0, -1.0)], axis=(0, 1))
    ends = np.concatenate(([-1.0], z, [1.0]))  # F is defined on [-1, 1], ends included
    pushed = pushed_density(d, n)
    s, f = bounded_factor(pushed, m, z), pushforward_cdf(pushed, m, ends)
    scale = max(1.0, float(np.max(np.abs(s))))
    tol_s, tol_f = 16 * (m + n) * eps * scale, 32 * (m + n) * eps
    assert np.max(np.abs(bounded_factor(d, k, z) - s)[away], initial=0.0) <= tol_s
    assert np.max(np.abs(pushforward_cdf(d, k, ends) - f)) <= tol_f
    [(bounded, cdf)] = _exact_routes(d, (k,))
    if bounded.func is series_bounded_factor:
        assert np.max(np.abs(bounded(z) - s)[away], initial=0.0) <= tol_s + 1e-11 * scale
        assert np.max(np.abs(cdf(ends) - f)) <= tol_f + 1e-12


@pytest.mark.parametrize("name", ("gauss:0,0.25", "ramp", "uniform01", "arcsine"))
@pytest.mark.parametrize("k", BLOCK_EDGE_KS)
def test_block_sum_is_the_scalar_loop_bit_for_bit(name, k):
    # the block evaluation adds the preimage terms in the scalar loop's order,
    # on any number of points, a single scalar one included
    d = _dist(name)
    for n in (2, 201, WIDE):
        z = default_grid(n)
        assert np.array_equal(bounded_factor(d, k, z), angle_sum_reference(d, k, z))
        c = np.linspace(-1.0, 1.0, n)
        assert np.array_equal(pushforward_cdf(d, k, c), angle_cdf_reference(d, k, c))
    assert bounded_factor(d, k, 0.3) == angle_sum_reference(d, k, 0.3)
    assert pushforward_cdf(d, k, 0.0) == angle_cdf_reference(d, k, 0.0)


@pytest.mark.parametrize("selector", ("uniform", "ramp", "uniform01", "arcsine", "gauss:0,0.25"))
def test_pushforward_reads_a_density_only_through_its_angle_law(selector):
    def refuse(x):
        raise AssertionError("the pushforward read pdf, cdf or ppf")

    # arcsine is stated by its angle law, the others by their x-space forms
    d = parse_density(selector)
    # not expandable either, as an expansion reads the pdf
    blind = replace(d, pdf=refuse, cdf=refuse, ppf=refuse, expandable=False)
    z = default_grid(33)
    for k in (1, 2, 7, 64):
        assert np.array_equal(bounded_factor(blind, k, z), bounded_factor(d, k, z))
        assert np.array_equal(pushforward_cdf(blind, k, z), pushforward_cdf(d, k, z))
        assert pushforward_mass(blind, k) == pushforward_mass(d, k)
        assert mass_left_of_zero(blind, k) == mass_left_of_zero(d, k)
    got, want = convergence_report(blind, (4, 8, 16)), convergence_report(d, (4, 8, 16))
    assert (got.ks, got.sup_errors) == (want.ks, want.sup_errors)
    # an invariant law's order is nan, which equal_nan counts as equal
    assert np.array_equal(got.fitted_order, want.fitted_order, equal_nan=True)
    # the label also reads whether d has a decayed expansion, and blind has
    # none; the arcsine's sup errors are at rounding level
    assert got.label == ("invariant" if selector == "arcsine" else "empirical")


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_angle_sum_memory_is_flat_in_k_and_points():
    # a few point-sized arrays (angles, output) plus block temporaries of
    # about SUM_CHUNK elements each; a (k/2 x points) array would need
    # 41 MB for the first call, whose k spans 4 blocks of j and many chunks
    # of points, and 26 MB for the second
    d = make_density("gauss", mu=0.0, sigma=0.25)
    z = default_grid(20000)
    peak = _peak_bytes(lambda: bounded_factor(d, 512, z))
    assert peak < 3 * z.nbytes + 2**21
    x = np.linspace(-1.0, 1.0, 200_000)
    peak = _peak_bytes(lambda: pushforward_cdf(d, 32, x))
    assert peak < 3 * x.nbytes + 2**21


def test_series_cdf_memory_is_flat_in_the_points():
    # the input clipped and the output, plus Clenshaw buffers of SUM_CHUNK
    # points; unchunked, its temporaries took about 18 MB here
    s = expand_density(make_density("gauss", mu=0.0, sigma=0.25))
    x = np.linspace(-1.0, 1.0, 200_000)
    peak = _peak_bytes(lambda: series_cdf(s, 32, x))
    assert peak < 3 * x.nbytes + 2**21


def test_series_bounded_factor_memory_is_flat_in_the_points():
    # the output plus temporaries of SUM_CHUNK points; unchunked, its
    # temporaries took about 11 MB here
    s = expand_density(make_density("gauss", mu=0.0, sigma=0.25))
    z = default_grid(200_000)
    peak = _peak_bytes(lambda: series_bounded_factor(s, 32, z))
    assert peak < z.nbytes + 2**22


def test_series_route_memory_is_linear_in_the_order():
    # a dense (SERIES_SPAN (L + 1) / k) x (L + 1) coefficient matrix would
    # take 67 MB here; only the series length matters, so the uniform
    # density's series is padded to order 4096
    s = ChebSeries(coeffs=np.r_[0.5, np.zeros(4096)])
    z = default_grid(201)
    peak = _peak_bytes(lambda: series_bounded_factor(s, 16, z))
    assert peak < 2**22


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=-0.999, max_value=0.999))
def test_bounded_factor_nonnegative(k, z):
    d = make_density("ramp")
    assert bounded_factor(d, k, z) >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_cdf_is_monotone_between_any_two_points(k, a, b):
    d = make_density("gauss", mu=0.2, sigma=0.5)
    lo, hi = sorted((a, b))
    assert pushforward_cdf(d, k, lo) <= pushforward_cdf(d, k, hi) + 1e-12
