import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from chebpush.densities import make_density
from chebpush.spectral import DECAY_TOL, even_moment_sum, expand_density, normalization_residual

from oracles import moment_oracle, two_piece_density


def test_uniform_series_is_the_constant_term():
    s = expand_density(make_density("uniform"))
    assert s.coeffs[0] == pytest.approx(0.5, abs=1e-14)
    assert np.max(np.abs(s.coeffs[1:])) < 5e-15
    assert s.decayed
    assert len(s.coeffs) == 65


def test_ramp_series_is_two_terms():
    s = expand_density(make_density("ramp"))
    assert s.coeffs[0] == pytest.approx(0.5, abs=1e-14)
    assert s.coeffs[1] == pytest.approx(0.5, abs=1e-14)
    assert np.max(np.abs(s.coeffs[2:])) < 5e-15


def test_gaussian_series_against_quadrature_oracle():
    d = make_density("gauss", mu=0.0, sigma=0.25)
    s = expand_density(d)
    for l in (0, 2, 4, 8, 12):
        assert s.coeffs[l] == pytest.approx(moment_oracle(d, l), abs=1e-12)
    # symmetric density: odd coefficients vanish
    assert np.max(np.abs(s.coeffs[1::2])) < 5e-15
    assert s.decayed


def test_gaussian_series_reconstructs_the_pdf():
    d = make_density("gauss", mu=0.1, sigma=0.3)
    s = expand_density(d)
    xs = np.linspace(-0.999, 0.999, 201)
    assert np.max(np.abs(np.polynomial.chebyshev.chebval(xs, s.coeffs) - d.pdf(xs))) < 1e-12


def test_order_change_does_not_move_coefficients():
    # the roots-grid quadrature is alias-free well past the decay point, so
    # shared coefficients must agree across truncation orders
    d = make_density("gauss", mu=0.0, sigma=0.25)
    a = expand_density(d, order=48)
    b = expand_density(d, order=96)
    assert np.max(np.abs(a.coeffs - b.coeffs[:49])) < 1e-14


def test_block_projection_matches_the_dense_matrix():
    # the FFT projection and the one-piece cosine matrix give the same
    # coefficients to rounding
    d = make_density("gauss", mu=0.1, sigma=0.3)
    order = 300
    n = 4 * (order + 1)
    theta = np.pi * (np.arange(n) + 0.5) / n
    dense = np.cos(np.outer(np.arange(order + 1), theta)) @ d.pdf(np.cos(theta)) / n
    dense[1:] *= 2.0
    assert np.max(np.abs(expand_density(d, order).coeffs - dense)) < 1e-14


def test_expansion_memory_grows_linearly_in_order():
    # order 2000 uses 8004 quadrature points; the one-piece cosine matrix
    # would take 128 MB
    d = make_density("gauss", mu=0.0, sigma=0.25)
    tracemalloc.start()
    try:
        s = expand_density(d, order=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.decayed
    assert peak < 8 * 2**16 + 32 * 8004 * 8


def test_normalization_residual_smooth():
    assert normalization_residual(expand_density(make_density("uniform"))) < 1e-14
    assert normalization_residual(expand_density(make_density("ramp"))) < 1e-14
    d = make_density("gauss", mu=0.0, sigma=0.25)
    assert normalization_residual(expand_density(d)) < 1e-8


def test_even_moment_sum_equals_endpoint_average():
    # sum of even coefficients telescopes to (f(1) + f(-1)) / 2 when the
    # series converges at the endpoints
    for name, mu, sigma in (("uniform", None, None), ("ramp", None, None),
                            ("gauss", 0.0, 0.25), ("gauss", 0.2, 0.5)):
        d = make_density(name) if sigma is None else make_density(name, mu=mu, sigma=sigma)
        s = expand_density(d)
        expected = 0.5 * (float(d.pdf(1.0)) + float(d.pdf(-1.0)))
        assert even_moment_sum(s) == pytest.approx(expected, abs=1e-10)


def test_a_jump_density_is_flagged_by_its_pieces_without_a_warning():
    # a jump density is flagged by its pieces: its global series keeps the
    # slow 1/l tail and is not decayed, nothing is warned, and the series of
    # each piece between the jumps has decayed, which is what decayed reports
    d = make_density("uniform01")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = expand_density(d)
    assert np.max(np.abs(s.coeffs[-4:])) > DECAY_TOL
    assert [(lo, hi) for lo, hi, _ in s.pieces] == [(-1.0, 0.0), (0.0, 1.0)]
    assert s.decayed
    (_, _, left), (_, _, right) = s.pieces
    assert np.max(np.abs(left)) < 1e-15
    assert right[0] == pytest.approx(1.0, abs=1e-15) and np.max(np.abs(right[1:])) < 1e-15
    # the slow 1/l tail still integrates to the right mass at coarse accuracy
    assert normalization_residual(s) < 1e-2
    # a density without jumps has no pieces: its one piece is coeffs
    assert expand_density(make_density("uniform")).pieces == ()


@pytest.mark.parametrize("width, decayed",
                         ((0.1, True), (0.01, False), (1e-6, False), (1e-200, False)))
def test_a_narrow_piece_is_read_without_its_noise_or_not_decayed(width, decayed):
    # the series route reads a piece's fourth derivative at its ends, which
    # scales its coefficients by (2 / width)^4: a piece whose tail is not
    # below DECAY_TOL (width / 2)^4 is not decayed, also where (2 / width)^4
    # would overflow and (width / 2)^4 is 0. A piece's coefficients
    # at its rounding level, eps times the sum of their sizes, are zeroed
    # and every other one is kept: a linear piece keeps its two, and a
    # piece with a gaussian cut at the jump keeps terms below
    # DECAY_TOL (width / 2)^4 too, which its pdf values need
    for bump in (0.0, 1.0):
        d = two_piece_density((0.3, 0.3 + width), (1, 1.2, 0.5, 0.6, 1.5, 0.7), bump=bump)
        s = expand_density(d)
        assert s.decayed is decayed
        for lo, hi, coeffs in s.pieces:
            size = np.abs(coeffs)
            kept = np.flatnonzero(coeffs)
            assert np.all(size[kept] > np.finfo(float).eps * np.sum(size))
            if hi - lo >= 0.1 and not bump:
                assert kept.tolist() == [0, 1]
            if hi - lo >= 0.5 and bump:
                assert np.min(size[kept]) < DECAY_TOL * ((hi - lo) / 2.0) ** 4


@pytest.mark.parametrize("mu, sigma", ((-0.7, 1e-4), (0.0, 6e-4), (0.999, 1e-5)))
def test_an_expansion_that_saw_none_of_the_mass_has_not_decayed(mu, sigma):
    # the bump falls between the quadrature's nodes: every coefficient is
    # about 0, so the tail is small, but the series holds none of the mass,
    # which is also the residual expand writes. With a jump declared beside
    # the bump, the pieces' mass is judged, and it is not 1 either
    d = make_density("gauss", mu=mu, sigma=sigma)
    s = expand_density(d)
    assert np.max(np.abs(s.coeffs)) < DECAY_TOL
    assert normalization_residual(s) == pytest.approx(1.0, abs=1e-9)
    assert not s.decayed
    assert not expand_density(dataclasses.replace(d, breakpoints=(0.3,))).decayed


def test_arcsine_is_not_expandable():
    with pytest.raises(ValueError, match="no convergent Chebyshev expansion"):
        expand_density(make_density("arcsine"))


def test_expand_guards():
    d = make_density("uniform")
    with pytest.raises(ValueError):
        expand_density(d, order=0)
    s = expand_density(d, order=8)
    assert len(s.coeffs) == 9


def test_coefficients_are_read_only():
    s = expand_density(make_density("uniform"))
    with pytest.raises(ValueError):
        s.coeffs[0] = 1.0
