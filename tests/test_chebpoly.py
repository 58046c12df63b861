import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpush.chebpoly import cheb_eval
from chebpush.spectral import _mass

from oracles import cheb_eval_recurrence, quad_integral_t_k

unit_floats = st.floats(min_value=-1.0, max_value=1.0)


def test_low_degree_values():
    assert cheb_eval(0, 0.3) == 1.0
    assert cheb_eval(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    # T_2(x) = 2x^2 - 1
    assert cheb_eval(2, 0.5) == pytest.approx(-0.5, abs=1e-15)
    # T_3(x) = 4x^3 - 3x
    assert cheb_eval(3, -0.25) == pytest.approx(4 * (-0.25) ** 3 + 0.75, abs=1e-15)


def test_endpoint_values():
    for k in range(0, 40):
        assert cheb_eval(k, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert cheb_eval(k, -1.0) == pytest.approx((-1.0) ** k, abs=1e-14)


def test_extrema_alternate():
    for k in (1, 2, 5, 12):
        pts = np.cos(np.pi * np.arange(k, -1, -1) / k)
        vals = cheb_eval(k, pts)
        # ascending x ordering: T_k(cos(pi j / k)) = (-1)^j, j = k..0
        expected = (-1.0) ** np.arange(k, -1, -1)
        assert np.allclose(vals, expected, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=512), unit_floats)
def test_cosine_form_matches_recurrence(k, x):
    assert cheb_eval(k, x) == pytest.approx(cheb_eval_recurrence(k, x), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2000), unit_floats)
def test_bounded_by_one(k, x):
    assert abs(cheb_eval(k, x)) <= 1.0 + 1e-15


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=32),
       unit_floats)
def test_semigroup_composition(m, n, x):
    # T_m(T_n(x)) = T_{mn}(x)
    assert cheb_eval(m, cheb_eval(n, x)) == pytest.approx(
        cheb_eval(m * n, x), abs=1e-9)


def test_vectorized_agrees_with_scalar():
    xs = np.linspace(-1, 1, 17)
    vec = cheb_eval(7, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert cheb_eval(7, float(x)) == v


def test_domain_guard():
    with pytest.raises(ValueError):
        cheb_eval(3, 1.001)
    with pytest.raises(ValueError):
        cheb_eval(3, np.array([0.0, -1.5]))
    with pytest.raises(ValueError):
        cheb_eval(3, np.nan)
    # a few ulp of overshoot must be tolerated
    assert cheb_eval(4, 1.0 + 1e-13) == pytest.approx(1.0, abs=1e-12)


def test_index_guard():
    with pytest.raises(ValueError):
        cheb_eval(-1, 0.5)
    with pytest.raises(ValueError):
        cheb_eval(2.5, 0.5)


def integral_weights(n):
    """The weights spectral._mass gives T_0 to T_{n-1}: the mass of each
    unit coefficient vector."""
    return [_mass(unit) for unit in np.eye(n)]


def test_integral_closed_form_against_quadrature():
    for k, weight in enumerate(integral_weights(13)):
        assert weight == pytest.approx(quad_integral_t_k(k), abs=1e-12)


def test_integral_special_cases():
    weights = integral_weights(20)
    assert weights[0] == 2.0
    assert weights[1::2] == [0.0] * 10
    assert weights[2] == pytest.approx(-2.0 / 3.0, abs=1e-16)
