import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpush import cli, montecarlo
from chebpush.chebpoly import cheb_eval
from chebpush.cli import main
from chebpush.densities import make_density, parse_density, sample
from chebpush.montecarlo import (
    SampleBatch,
    histogram,
    ks_statistic,
    push_samples,
    uniform_stream,
)
from chebpush.pushforward import SUM_CHUNK, pushforward_cdf

from oracles import CATALOG, histogram_reference, ks_reference


def test_stream_determinism():
    a = uniform_stream(99, 1000)
    b = uniform_stream(99, 1000)
    c = uniform_stream(100, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a < 1))


def test_stream_guards():
    with pytest.raises(ValueError):
        uniform_stream(1, -5)
    assert uniform_stream(1, 0).shape == (0,)


@pytest.mark.parametrize("seed", [2.5, -0.5, float("inf"), float("-inf"), float("nan")])
def test_a_seed_that_is_not_an_integer_is_a_value_error(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        uniform_stream(seed, 3)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample(make_density("uniform"), 3, seed)


@pytest.mark.parametrize("seed", [-1, 0, 2.0, np.int64(7), 2**64 + 7, 10**400])
def test_any_integer_is_a_seed(seed):
    # the stream is keyed by the seed modulo 2^64
    assert np.array_equal(uniform_stream(seed, 3), uniform_stream(int(seed) % 2**64, 3))
    assert sample(make_density("uniform"), 3, seed).shape == (3,)


def test_push_identity_and_known_point():
    b = sample(make_density("uniform"), 500, seed=5)
    drawn = b.copy()
    assert push_samples(b, 1) is b
    assert np.array_equal(b, drawn)
    zeros = np.zeros(200)
    # the push is written over the array it is handed
    assert push_samples(zeros, 2) is zeros
    # T_2(0) = -1: a point mass at the origin lands on the left endpoint
    assert np.all(zeros == -1.0)


@pytest.mark.parametrize("x", ([0.5, -0.5], np.array([0, 1]), np.zeros(2, np.float32)))
def test_a_push_takes_only_a_float64_array(x):
    # the push is written over x, so an integer array would truncate T_k(x)
    with pytest.raises(TypeError):
        push_samples(x, 3)
    with pytest.raises(TypeError):
        push_samples(x, 1)


RAMP_DRAWS = sample(make_density("ramp"), 4000, seed=21)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
def test_push_composes_multiplicatively(m, n):
    # T_m(T_n(x)) = T_mn(x); each push is in place, so each pushes a copy
    twice = push_samples(push_samples(RAMP_DRAWS.copy(), n), m)
    once = push_samples(RAMP_DRAWS.copy(), m * n)
    assert np.max(np.abs(twice - once)) < 1e-9
    with pytest.raises(ValueError):
        push_samples(RAMP_DRAWS.copy(), 0)


def test_batch_invariants():
    assert SampleBatch(np.zeros(3)).n == 3
    b = sample(make_density("arcsine"), 1000, seed=2)
    assert b.shape == (1000,) and b.dtype == np.float64
    assert np.all(np.abs(b) <= 1.0)
    assert push_samples(b, 5).shape == (1000,)
    # a batch is the array handed in, sorted in place
    drawn = b.copy()
    batch = SampleBatch(b)
    assert batch.n == 1000 and batch.ordered is b
    assert b.tobytes() == np.sort(drawn).tobytes()


# each chunk's boundary, and past three chunks a ragged last one
CHUNKED_COUNTS = (100, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1, 3 * SUM_CHUNK + 7)


@pytest.mark.parametrize("d", (*CATALOG, parse_density("gauss:-0.5,0.3")),
                         ids=lambda d: d.name)
def test_sample_and_push_by_chunks_are_the_whole_array_forms_bit_for_bit(d):
    # gauss:-0.5,0.3 takes the ppf's mirror-image branch
    for n in CHUNKED_COUNTS:
        draws = sample(d, n, seed=11)
        assert draws.tobytes() == d.ppf(uniform_stream(11, n)).tobytes()
        for k in (2, 8, 33):
            pushed = draws.copy()
            assert push_samples(pushed, k) is pushed
            assert pushed.tobytes() == cheb_eval(k, draws).tobytes()
        assert push_samples(draws, 1) is draws


def test_sampling_memory_is_flat_in_the_sample_count():
    # the n draws, written over the stream, then pushed and sorted in place,
    # so one n-sized array is held throughout. Past it, the ppf and T_k hold
    # temporaries of one SUM_CHUNK chunk each: the gaussian's ppf about 8
    # of them (2.2 MB), T_k about 2. Whole-array, both held about 68 B a
    # draw here, 18 MB
    d = make_density("gauss", mu=0.0, sigma=0.25)
    n = 2**18
    draws = 8 * n

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: sample(d, n, 1)) < draws + 2**22
    assert peak(lambda: SampleBatch(push_samples(sample(d, n, 1), 8))) < draws + 2**22


@pytest.mark.parametrize("dist", ("gauss:0,0.25", "uniform", "arcsine"))
def test_an_mc_run_holds_one_array_of_its_draws(tmp_path, dist):
    # mc draws, pushes and sorts one n-sized array in place; past its 8 B a
    # draw it holds the ppf's and T_k's chunk temporaries, the KS tests'
    # few percent of the samples and the output's one chunk. A second
    # array of the draws, as a sorted copy or a pushed copy, is 8 B more
    n = 2**20
    out = tmp_path / "mc.csv"
    argv = ["mc", "--dist", dist, "--k", "8", "--seed", "1", "--out", str(out)]
    # the first run builds the caches of the route and of the output
    assert main([*argv, "--n", "1000"]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, "--n", str(n)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 2**22


def test_ks_self_consistency():
    d = make_density("uniform")
    res = ks_statistic(SampleBatch(sample(d, 100000, seed=17)), d.cdf)
    assert res.passed
    assert res.threshold == pytest.approx(1.95 / np.sqrt(100000))
    assert 0.0 <= res.statistic < res.threshold


def test_ks_needs_enough_samples():
    b = SampleBatch(sample(make_density("uniform"), 99, seed=1))
    with pytest.raises(ValueError):
        ks_statistic(b, make_density("uniform").cdf)


def test_ks_threshold_override(monkeypatch):
    # the threshold is KS_FACTOR / sqrt(n); overriding the module constant
    # moves it, and passed follows the threshold, not a fixed cut
    monkeypatch.setattr(montecarlo, "KS_FACTOR", 1e-9)
    b = SampleBatch(sample(make_density("uniform"), 1000, seed=8))
    res = ks_statistic(b, make_density("uniform").cdf)
    assert res.threshold == pytest.approx(1e-9 / np.sqrt(1000))
    assert not res.passed
    assert res.passed == (res.statistic < res.threshold)


def test_ks_detects_wrong_law():
    # uniform pushed through T_2 is far from the arcsine limit: the exact
    # cdf gap peaks at 0.21051366235301866 (at z = 1 - 8/pi^2, from the
    # closed form sqrt((1+z)/2) against 1 - arccos(z)/pi)
    d = make_density("uniform")
    pushed = SampleBatch(push_samples(sample(d, 1000000, seed=4), 2))
    res = ks_statistic(pushed, make_density("arcsine").cdf)
    assert not res.passed
    assert res.passed == (res.statistic < 1.95 / np.sqrt(1000000))
    assert res.statistic == pytest.approx(0.21051366235301866, abs=5e-3)


def test_arcsine_invariance_statistically():
    arc = make_density("arcsine")
    pushed = SampleBatch(push_samples(sample(arc, 1000000, seed=6), 12))
    assert ks_statistic(pushed, arc.cdf).passed


@pytest.mark.parametrize("name", ["arcsine", "uniform", "ramp", "uniform01", "gauss:0,0.25"])
@pytest.mark.parametrize("k", [8, 16, 32])
def test_pushed_samples_match_exact_law(name, k):
    from chebpush.densities import parse_density

    d = parse_density(name)
    pushed = SampleBatch(push_samples(sample(d, 200000, seed=31), k))
    res = ks_statistic(pushed, lambda x: pushforward_cdf(d, k, x))
    assert res.passed, f"{name}, k={k}: {res.statistic} >= {res.threshold}"


def test_histogram_normalization_and_shape():
    b = SampleBatch(sample(make_density("uniform"), 200000, seed=13))
    edges, density = histogram(b)
    assert len(density) == 50
    assert np.array_equal(edges, np.linspace(-1.0, 1.0, 51))
    widths = np.diff(edges)
    assert np.sum(density * widths) == pytest.approx(1.0, abs=1e-12)
    # flat density of 0.5 per bin, within 4 sigma multinomial bands
    p = widths * 0.5
    sigma = np.sqrt(p * (1 - p) / b.n) / widths
    assert np.all(np.abs(density - 0.5) < 4 * sigma)


def test_histogram_sees_arcsine_u_shape():
    b = SampleBatch(sample(make_density("arcsine"), 200000, seed=14))
    _, density = histogram(b)
    assert density[0] > density[25]
    assert density[-1] > density[25]


# every edge of histogram's bins, -1 and 1 among them, and both zeros
SPECIAL_VALUES = np.concatenate([np.linspace(-1.0, 1.0, 51), [-0.0, 0.0]])
# values histogram drops: outside [-1, 1] by one ulp or more, and nan
STRAY_VALUES = (np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 1.5, -np.inf, np.inf, np.nan)


@st.composite
def _batch_values(draw):
    """100 to 3000 values on [-1, 1], in random order: every special value,
    then uniform draws mixed with repeats of a few values (ties) and more
    special values."""
    n = draw(st.integers(100, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties, special = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    rest = rng.uniform(-1.0, 1.0, n - len(SPECIAL_VALUES))
    pool = rng.uniform(-1.0, 1.0, draw(st.integers(1, 5)))
    kind = rng.random(len(rest))
    rest = np.where(kind < ties, rng.choice(pool, len(rest)), rest)
    rest = np.where(kind > 1.0 - special, rng.choice(SPECIAL_VALUES, len(rest)), rest)
    return rng.permutation(np.concatenate([SPECIAL_VALUES, rest]))


@settings(max_examples=80, deadline=None)
@given(values=_batch_values(), d=st.sampled_from(CATALOG),
       strays=st.lists(st.sampled_from(STRAY_VALUES), max_size=6))
def test_ks_and_histogram_of_one_sorted_copy_are_the_old_forms_bit_for_bit(values, d, strays):
    # the old forms sorted the values afresh each, took integer ranks and
    # binned with np.histogram; the batch sorts once, and both read that
    handed = values.copy()
    batch = SampleBatch(handed)
    result = ks_statistic(batch, d.cdf)
    assert repr(result.statistic) == repr(ks_reference(values, d.cdf))
    for unsorted in (values, np.concatenate([values, strays])):
        edges, density = histogram(SampleBatch(unsorted.copy()))
        ref_edges, ref_density = histogram_reference(unsorted)
        assert edges.tobytes() == ref_edges.tobytes()
        assert density.tobytes() == ref_density.tobytes()
    # the sorted sample is the array handed in, sorted in place
    assert batch.ordered is handed
    assert batch.ordered.tobytes() == np.sort(values).tobytes()


@pytest.mark.parametrize("dist, k", (("uniform", 7), ("gauss:0,0.25", 8), ("uniform01", 32),
                                     ("arcsine", 8)))
def test_one_mc_run_sorts_its_pushed_samples_once(capsys, monkeypatch, dist, k):
    # ks_exact, ks_limit and the histogram all read the one batch, sorted
    # in place once, on the angle sum (k = 7, arcsine) and on the series
    # route alike; no sorted copy is made
    sizes, copies = [], []
    sort, sort_in_place = np.sort, SampleBatch.__post_init__

    def spy(a, *args, **kwargs):
        copies.append(np.size(a))
        return sort(a, *args, **kwargs)

    def spy_in_place(batch):
        sizes.append(batch.n)
        sort_in_place(batch)

    monkeypatch.setattr(np, "sort", spy)
    monkeypatch.setattr(SampleBatch, "__post_init__", spy_in_place)
    assert main(["mc", "--dist", dist, "--k", str(k), "--n", "1000", "--seed", "5"]) == 0
    assert "ks_exact" in capsys.readouterr().out
    assert sizes == [1000] and copies == []


# gaussians from narrow (whose expansion has not decayed, so the angle sum
# runs at every k) to wide, and the other catalog densities
_DISTS = st.one_of(
    st.sampled_from(("uniform", "ramp", "uniform01", "arcsine")),
    st.builds(lambda mu, log_sigma: f"gauss:{mu!r},{10.0 ** log_sigma!r}",
              st.floats(-0.9, 0.9), st.floats(-3.0, 0.3)))


@st.composite
def _mc_batches(draw):
    """(pushed batch, exact cdf) as mc builds them: a density, k = 1, small,
    odd and even, or large, 100 to 5000 samples or a few 1e5 to 2e5, and
    ties made by repeating a few pushed values."""
    d = parse_density(draw(_DISTS))
    n = draw(st.one_of(st.integers(100, 5000), st.integers(100_000, 200_000)))
    k = draw(st.one_of(st.just(1), st.integers(2, 40), st.integers(41, 20_000)))
    [(_, cdf)] = cli._exact_routes(d, (k,))
    if cdf.func is pushforward_cdf:
        # the oracle reads every sample on the angle sum, k terms each
        k = min(k, max(1, 2**23 // n))
        [(_, cdf)] = cli._exact_routes(d, (k,))
    values = push_samples(sample(d, n, draw(st.integers(0, 2**31))), k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = rng.random(n) < draw(st.sampled_from((0.0, 0.01, 0.5)))
    values[tied] = rng.choice(values[:draw(st.integers(1, 5))], tied.sum())
    return SampleBatch(values), cdf


@settings(max_examples=40, deadline=None)
@given(case=_mc_batches())
def test_the_bracketed_ks_is_the_full_scan_bit_for_bit_on_the_mc_routes(case):
    # ks_exact on the angle sum (k below SERIES_MIN_K, arcsine, a narrow
    # gaussian) or on the series route, and ks_limit against arcsine
    batch, cdf = case
    for law in (cdf, make_density("arcsine").cdf):
        assert repr(ks_statistic(batch, law).statistic) == repr(ks_reference(batch.ordered, law))


def _recorded(cdf):
    """cdf, and the list of the arrays it is handed, in call order."""
    seen = []

    def spy(x):
        seen.append(np.array(x))
        return cdf(x)

    return spy, seen


@pytest.mark.parametrize("how, calls", (("falling", 2), ("wiggling", 2), ("nan", 2),
                                        ("one step down", 2), ("wiggling finer", 3)))
def test_a_cdf_seen_not_monotone_gets_the_full_scan(how, calls):
    d = make_density("ramp")
    batch = SampleBatch(push_samples(sample(d, 20000, seed=3), 9))
    x = batch.ordered

    def exact(z):
        return pushforward_cdf(d, 9, z)

    cdf = {"falling": lambda z: 1.0 - exact(z),
           "wiggling": lambda z: exact(z) + 1e-3 * np.sin(1e4 * z),
           "nan": lambda z: np.where(z > x[-2], np.nan, exact(z)),
           "one step down": lambda z: exact(z) - 1e-2 * (z >= x[10000]),
           # a wiggle the coarse pass misses and the second one sees
           "wiggling finer": lambda z: exact(z) + 1e-4 * np.sin(1e4 * z)}[how]
    spy, seen = _recorded(cdf)
    result = ks_statistic(batch, spy)
    assert repr(result.statistic) == repr(ks_reference(batch.ordered, cdf))
    # the pass that sees it is followed by one call on the whole sorted sample
    assert len(seen) == calls
    assert seen[-1].tobytes() == x.tobytes()


def test_a_fall_within_the_slack_keeps_the_bracket():
    # pairs of samples one ulp apart, where the cdf falls by 1e-12, far
    # below KS_MONOTONE_SLACK: the bracket keeps its three passes, and its
    # value is the full scan's
    d = make_density("ramp")
    lower = push_samples(sample(d, 10000, seed=3), 9)
    batch = SampleBatch(np.concatenate([lower, np.nextafter(lower, 2.0)]))

    def cdf(z):
        return pushforward_cdf(d, 9, z) + 1e-12 * np.isin(z, lower)

    falls = np.diff(cdf(batch.ordered))
    assert -1e-11 < np.min(falls) < 0.0
    spy, seen = _recorded(cdf)
    result = ks_statistic(batch, spy)
    assert repr(result.statistic) == repr(ks_reference(batch.ordered, cdf))
    assert len(seen) == 3 and sum(map(len, seen)) < batch.n // 10
