import inspect
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from chebpush import densities
from chebpush.densities import make_density, normal_cdf, normal_ppf, parse_density, sample
from chebpush.montecarlo import uniform_stream
from chebpush.pushforward import pushforward_mass

from oracles import (
    CATALOG,
    numeric_cdf_check,
    truncated_gaussian_cdf_oracle,
    truncated_gaussian_ppf_oracle,
)

# interior probability levels; endpoint behavior is tested separately
levels = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)

# where each fixture density puts its mass
SUPPORTS = {
    "arcsine": (-1.0, 1.0),
    "uniform": (-1.0, 1.0),
    "ramp": (-1.0, 1.0),
    "uniform01": (0.0, 1.0),
    "gauss:0,0.25": (-1.0, 1.0),
}


@pytest.fixture(params=["arcsine", "uniform", "ramp", "uniform01", "gauss"])
def density(request):
    if request.param == "gauss":
        return make_density("gauss", mu=0.0, sigma=0.25)
    return make_density(request.param)


def test_pdf_nonnegative_and_zero_outside(density):
    xs = np.linspace(-1, 1, 301)
    assert np.all(np.asarray(density.pdf(xs[1:-1])) >= 0.0)
    assert density.pdf(1.5) == 0.0
    assert density.pdf(-1.5) == 0.0


def test_cdf_monotone_with_correct_ends(density):
    xs = np.linspace(-1, 1, 301)
    vals = np.asarray(density.cdf(xs))
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert vals[-1] == pytest.approx(1.0, abs=1e-14)


def test_cdf_integrates_pdf(density):
    assert numeric_cdf_check(density, SUPPORTS[density.name], grid=48) < 1e-8


def test_ppf_inverts_cdf(density):
    us = np.linspace(0.001, 0.999, 97)
    xs = np.asarray(density.ppf(us))
    lo, hi = SUPPORTS[density.name]
    assert np.all(xs >= lo - 1e-12)
    assert np.all(xs <= hi + 1e-12)
    assert np.all(np.diff(xs) >= -1e-12)
    assert np.max(np.abs(np.asarray(density.cdf(xs)) - us)) < 1e-10


def test_uniform_shapes():
    d = make_density("uniform")
    assert d.pdf(0.123) == 0.5
    assert d.cdf(0.0) == 0.5
    assert d.ppf(0.25) == -0.5


def test_ramp_shapes():
    d = make_density("ramp")
    xs = np.linspace(-1, 1, 11)
    assert np.allclose(d.pdf(xs), (xs + 1) / 2)
    assert d.cdf(1.0) == 1.0
    assert d.ppf(0.25) == pytest.approx(0.0, abs=1e-15)


def test_uniform01_jumps_at_zero():
    d = make_density("uniform01")
    assert d.breakpoints == (0.0,)
    assert d.pdf(-0.2) == 0.0
    assert d.pdf(0.5) == 1.0
    assert d.cdf(-0.5) == 0.0
    assert d.ppf(0.75) == 0.75


def test_arcsine_forms():
    d = make_density("arcsine")
    assert not d.expandable
    assert d.pdf(0.0) == pytest.approx(1 / np.pi, abs=1e-16)
    assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert d.ppf(0.5) == pytest.approx(0.0, abs=1e-16)
    # exact angle-space forms: arccos(X) is uniform on [0, pi]
    theta = np.linspace(0, np.pi, 33)
    assert np.allclose(d.angle_pdf(theta), 1 / np.pi, atol=0)
    assert np.allclose(d.angle_cdf(theta), theta / np.pi, atol=0)
    # the x-space forms the angle rule derives from 1/pi, theta/pi and pi v,
    # against their closed forms: the pdf within 2.4e-16 relative and the
    # ppf cos(pi (1 - u)) within 5.6e-16 of -cos(pi u), measured on this grid
    x = np.linspace(-1.0, 1.0, 200001)
    with np.errstate(divide="ignore"):
        pdf = 1.0 / (np.pi * np.sqrt((1.0 - x) * (1.0 + x)))
    assert np.max(np.abs(d.pdf(x[1:-1]) / pdf[1:-1] - 1.0)) <= 4.5e-16
    assert d.pdf(-1.0) == d.pdf(1.0) == np.inf
    assert np.array_equal(d.cdf(x), 1.0 - np.arccos(x) / np.pi)
    u = np.linspace(0.0, 1.0, 200001)
    assert np.max(np.abs(d.ppf(u) + np.cos(np.pi * u))) <= 6.7e-16


# Bounds on the gaps between a law's x-space forms and the ones the
# angle-space rule derives from its angle forms, about twice the largest
# gaps measured on the grids below: the pdf's relative to the law's largest
# pdf, the cdf's and the ppf's absolute. Away from the ends the gaps are a
# few ulps. Near x = +-1, arccos is ill-conditioned, so
# the pdf's sin(arccos x) / sqrt((1 - x)(1 + x)) drifts like
# eps / sqrt(1 - |x|), up to 9.8e-9 (uniform at 1 - 2^-53); the cdf and the
# ppf stay within an ulp of their small values or of 1 there.
ANGLE_RULE_AWAY = {"pdf": 5e-15, "cdf": 1e-15, "ppf": 8e-15}
ANGLE_RULE_NEAR = {"pdf": 2e-8, "cdf": 1.2e-16, "ppf": 2.3e-16}


@pytest.mark.parametrize("selector", ["uniform", "ramp", "uniform01", "gauss:0,0.25",
                                      "gauss:0.3,0.4"])
def test_a_law_rebuilt_from_its_angle_forms_has_its_x_forms(selector):
    # the angle quantile of Theta = arccos X is arccos(ppf(1 - v)); the pdf
    # is compared on the open interval, as at x = +-1 the rule reads the
    # angle density over sin 0, and these laws' angle densities are 0 there
    d = parse_density(selector)
    rebuilt = densities._angle_density(d.name, d.angle_pdf, d.angle_cdf,
                                       lambda v: np.arccos(d.ppf(1.0 - v)),
                                       breakpoints=d.breakpoints)
    tiny = 2.0 ** -np.arange(10.0, 54.0)
    away = (np.linspace(-0.999, 0.999, 20001), np.linspace(1e-3, 1.0 - 1e-3, 20001))
    near = (np.concatenate([-1.0 + tiny, 1.0 - tiny]),
            np.concatenate([tiny, 1.0 - tiny, [0.0, 1.0]]))
    scale = np.max(d.pdf(away[0]))
    for (x, u), bound in ((away, ANGLE_RULE_AWAY), (near, ANGLE_RULE_NEAR)):
        assert np.max(np.abs(rebuilt.pdf(x) - d.pdf(x))) <= bound["pdf"] * scale
        assert np.max(np.abs(rebuilt.cdf(x) - d.cdf(x))) <= bound["cdf"]
        assert np.max(np.abs(rebuilt.ppf(u) - d.ppf(u))) <= bound["ppf"]
    assert (rebuilt.breakpoints, rebuilt.expandable) == (d.breakpoints, d.expandable)


@pytest.mark.parametrize("sigma", [1e-310, 5e-324])
def test_a_subnormal_gaussian_pdf_is_inf_at_its_mode_without_a_warning(sigma):
    # sigma sqrt(2 pi) mass is subnormal, so its reciprocal overflows
    d = make_density("gauss", mu=0.0, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.pdf(0.0) == np.inf
        assert np.array_equal(d.pdf(np.array([-0.5, 0.0, 0.5])), [0.0, np.inf, 0.0])


@pytest.mark.parametrize("name,params", [("uniform", {}), ("ramp", {}), ("uniform01", {}),
                                         ("gauss", {"sigma": 0.25}),
                                         ("gauss", {"mu": 0.5, "sigma": 0.3})])
def test_angle_law_is_the_pdf_and_cdf_in_angle_space(name, params):
    # for a law stated in x the angle law is pdf(cos t) sin t and 1 - cdf(cos t), bit for bit
    d = make_density(name, **params)
    theta = np.linspace(0.0, np.pi, 1001)
    assert np.array_equal(d.angle_pdf(theta), d.pdf(np.cos(theta)) * np.sin(theta))
    assert np.array_equal(d.angle_cdf(theta), 1.0 - d.cdf(np.cos(theta)))


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from(CATALOG), theta=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=16),
       outside=st.floats(1.0, np.inf, exclude_min=True), sign=st.sampled_from((-1.0, 1.0)))
def test_one_support_mask_leaves_the_angle_law_bit_for_bit(d, theta, outside, sign):
    # _law masks the public pdf to 0 outside [-1, 1]; an x-space law's angle
    # law reads the builder's unmasked pdf, which cos theta never takes
    # outside, so it is pdf(cos theta) sin theta bit for bit. arcsine is
    # stated by its angle law
    assert d.pdf(sign * outside) == 0.0
    assert np.array_equal(d.pdf(np.array([-outside, outside])), [0.0, 0.0])
    if d.name != "arcsine":
        theta = np.array(theta)
        assert np.array_equal(d.angle_pdf(theta), d.pdf(np.cos(theta)) * np.sin(theta))


def test_gaussian_cdf_against_erf_oracle():
    d = make_density("gauss", mu=0.0, sigma=0.25)
    # frozen from the erf route
    assert d.cdf(-0.5) == pytest.approx(0.02271989984123068, abs=1e-14)
    assert d.cdf(0.1) == pytest.approx(0.655431587033087, abs=1e-14)
    assert d.cdf(0.25) == pytest.approx(0.8413663690621994, abs=1e-14)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(d.cdf(xs) - truncated_gaussian_cdf_oracle(0.0, 0.25, xs))) < 1e-14


def test_gaussian_ppf_against_inverse_normal_oracle():
    d = make_density("gauss", mu=0.3, sigma=0.4)
    us = np.linspace(0.01, 0.99, 61)
    oracle = truncated_gaussian_ppf_oracle(0.3, 0.4, us)
    assert np.max(np.abs(d.ppf(us) - oracle)) < 1e-12


def test_gaussian_symmetry_and_guards():
    d = make_density("gauss", mu=0.0, sigma=0.25)
    assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert d.pdf(0.3) == pytest.approx(d.pdf(-0.3), rel=1e-14)
    with pytest.raises(ValueError):
        make_density("gauss", mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        make_density("gauss", mu=0.0, sigma=-1.0)
    with pytest.raises(ValueError):
        make_density("gauss")


@settings(max_examples=60, deadline=None)
@given(levels)
def test_gaussian_ppf_roundtrip(u):
    d = make_density("gauss", mu=-0.2, sigma=0.6)
    assert d.cdf(d.ppf(u)) == pytest.approx(u, abs=1e-12)


def test_normal_cdf_against_stdlib_erfc():
    ts = np.linspace(-40.0, 40.0, 160001)
    ref = np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in ts])
    got = normal_cdf(ts)
    assert np.max(np.abs(got - ref)) <= 1e-15
    lower = (ts >= -37.0) & (ts <= 0.0)
    assert np.max(np.abs(got[lower] / ref[lower] - 1.0)) <= 1e-12
    assert np.max(np.abs(got + normal_cdf(-ts) - 1.0)) <= 2e-16
    assert np.all(np.diff(got) >= 0.0)
    assert type(normal_cdf(0.3)) is float
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(-np.inf) == 0.0 and normal_cdf(np.inf) == 1.0
    assert math.isnan(normal_cdf(np.nan))


def test_normal_ppf_holds_in_the_deep_tails():
    p = 10.0 ** -np.arange(1.0, 301.0)
    x = normal_ppf(p)
    assert np.max(np.abs(x / ndtri(p) - 1.0)) <= 1e-14
    assert np.max(np.abs(normal_cdf(x) / p - 1.0)) <= 1e-12
    upper = 1.0 - p[:15]
    assert np.array_equal(normal_ppf(upper), -normal_ppf(1.0 - upper))
    assert normal_ppf(0.5) == 0.0


def _ulps(x, ref):
    return np.abs(x - ref) / np.spacing(np.abs(ref))


def test_normal_ppf_is_the_stdlib_quantile_to_a_few_ulps():
    # the same AS241 rationals, in the same order; only the logarithm differs:
    # numpy's and the C library's round a few near-ties apart, and one ulp of
    # r = sqrt(-log p) becomes up to 3 ulps of x in the tail rational (the
    # seed-7 stream holds such a draw)
    inv_cdf = statistics.NormalDist().inv_cdf
    for p, bound in ((uniform_stream(7, 200000), 3.0), (10.0 ** -np.arange(1.0, 301.0), 2.0)):
        ref = np.array([inv_cdf(v) for v in p.tolist()])
        assert np.max(_ulps(normal_ppf(p), ref)) <= bound


def test_normal_ppf_at_the_ends_and_at_nan():
    deepest = statistics.NormalDist().inv_cdf(1e-300)
    lo, hi = normal_ppf(0.0), normal_ppf(1.0)
    assert lo == normal_ppf(1e-300) and hi == -lo
    assert math.isfinite(lo) and _ulps(lo, deepest) <= 2.0
    assert math.isnan(normal_ppf(np.nan))
    assert np.isnan(normal_ppf(np.array([0.2, np.nan, 0.99]))).tolist() == [False, True, False]


@pytest.mark.parametrize("seam", [0.075, 0.925, math.exp(-25.0)])
def test_normal_ppf_keeps_its_order_across_each_branch_seam(seam):
    # the central rational meets the tails at |p - 1/2| = 0.425, and the two
    # tail rationals meet at r = 5, p = e^-25
    p = seam + np.arange(-2000, 2001) * np.spacing(seam)
    x = normal_ppf(p)
    assert np.all(np.diff(x) >= -np.spacing(np.abs(x[1:])))


def test_a_gaussian_draw_reads_no_normal_cdf(monkeypatch):
    d = make_density("gauss", mu=0, sigma=0.25)
    calls = []
    monkeypatch.setattr(densities, "normal_cdf", lambda t: calls.append(t))
    values = sample(d, 200000, 3)
    assert not calls
    assert np.all(np.abs(values) <= 1.0)


@pytest.mark.parametrize("mu,sigma", [(0.5, 0.5), (2.0, 0.5), (5.0, 0.5), (8.0, 0.5),
                                      (2.0, 0.1)])
def test_a_gaussian_left_of_zero_mirrors_its_twin(mu, sigma):
    # mu < 0 puts [-1, 1] in the normal's upper tail, where Phi saturates at 1
    left = make_density("gauss", mu=-mu, sigma=sigma)
    right = make_density("gauss", mu=mu, sigma=sigma)
    xs = np.linspace(-1.0, 1.0, 201)
    assert np.max(np.abs(left.cdf(xs) - (1.0 - right.cdf(-xs)))) <= 1e-15
    us = 1.0 - (1.0 - np.linspace(0.005, 0.995, 199))  # 1 - us is exact
    assert np.max(np.abs(left.ppf(us) + right.ppf(1.0 - us))) <= 1e-14
    for d in (left, right):
        assert pushforward_mass(d, 3) == pytest.approx(1.0, abs=5e-14)
        assert math.copysign(1.0, d.cdf(-1.0)) == 1.0  # 0.0, not -0.0


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.1, 2.0),
       us=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2,
                   max_size=16))
def test_gaussian_ppf_over_the_parameter_space(mu, sigma, us):
    d = make_density("gauss", mu=mu, sigma=sigma)
    u = np.sort(us)
    x = d.ppf(u)
    assert np.all((x >= -1.0) & (x <= 1.0))
    # monotone to rounding: each AS241 rational rounds on its own
    assert np.all(np.diff(x) >= -1e-15 * (1.0 + sigma))
    assert np.max(np.abs(d.cdf(x) - u)) <= 1e-12
    twin = make_density("gauss", mu=-mu, sigma=sigma)
    assert np.max(np.abs(twin.cdf(-x) - (1.0 - d.cdf(x)))) <= 1e-15
    # the twin's quantile at 1 - u is -x; 1 - u is rounded, so compare in cdf space
    assert np.max(np.abs(d.cdf(-twin.ppf(1.0 - u)) - u)) <= 1e-12


def test_make_density_names():
    assert make_density("ramp").name == "ramp"
    assert make_density(" Uniform01 ").name == "uniform01"
    assert make_density("gauss", sigma=0.25).name == "gauss:0,0.25"
    for bad in ("cauchy", "linear_ramp", "truncated_gaussian"):
        with pytest.raises(ValueError, match="unknown density"):
            make_density(bad, sigma=0.25)


@pytest.mark.parametrize("name", ["arcsine", "uniform", "ramp", "uniform01"])
@pytest.mark.parametrize("params", [{"sigma": 3.0}, {"mu": 0.2}, {"mu": 0.0, "sigma": 0.5}])
def test_parameters_of_a_parameterless_density_are_refused(name, params):
    with pytest.raises(ValueError, match="takes no parameters"):
        make_density(name, **params)


@pytest.mark.parametrize("d", CATALOG, ids=lambda d: d.name)
def test_scalar_argument_gives_a_python_float(d):
    for fn, arg, name in ((d.pdf, 0.25, "x"), (d.cdf, 0.25, "x"), (d.ppf, 0.75, "u"),
                          (d.angle_pdf, 0.5, "theta"), (d.angle_cdf, 0.5, "theta")):
        assert type(fn(arg)) is float
        assert type(fn(np.float64(arg))) is float
        assert type(fn(np.array(arg))) is float
        arr = fn(np.full((2, 3), arg))
        assert isinstance(arr, np.ndarray) and arr.shape == (2, 3)
        assert np.all(arr == fn(arg))
        assert np.all(fn([arg, arg]) == fn(arg))
        assert tuple(inspect.signature(fn).parameters) == (name,)
        assert fn(**{name: arg}) == fn(arg)
        assert fn.__name__ == fn.__wrapped__.__name__


def test_parse_density_grammar():
    assert parse_density("arcsine").name == "arcsine"
    assert parse_density("uniform").name == "uniform"
    assert parse_density("ramp").name == "ramp"
    assert parse_density("uniform01").name == "uniform01"
    d = parse_density("gauss:0.5,0.3")
    assert d.name == "gauss:0.5,0.3"
    assert d.cdf(1.0) == pytest.approx(1.0)
    for bad in ("gauss", "gauss:1", "gauss:a,b", "gauss:0,0.25,1", "uniform:2", "uniform:",
                "nope", "linear_ramp", "truncated_gaussian:0,0.25"):
        with pytest.raises(ValueError):
            parse_density(bad)
    for unknown in ("nope:", "nope:3"):
        with pytest.raises(ValueError, match="unknown density"):
            parse_density(unknown)


def test_catalog_contents():
    names = [d.name for d in CATALOG]
    assert names == ["arcsine", "uniform", "ramp", "uniform01", "gauss:0,0.25"]


def test_sample_is_deterministic_and_in_support():
    d = make_density("gauss", mu=0.0, sigma=0.25)
    b1 = sample(d, 5000, seed=11)
    b2 = sample(d, 5000, seed=11)
    b3 = sample(d, 5000, seed=12)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(b1, b3)
    assert b1.shape == (5000,)
    assert np.all(np.abs(b1) <= 1.0)
    with pytest.raises(ValueError):
        sample(d, 0, seed=1)


def test_sample_matches_cdf_statistically():
    # crude location check: the empirical cdf at 0 matches cdf(0) to ~4 sigma
    d = make_density("ramp")
    b = sample(d, 100000, seed=3)
    frac = np.mean(b < 0.0)
    assert frac == pytest.approx(d.cdf(0.0), abs=4 * 0.5 / np.sqrt(100000))
