"""Interval-set geometry: constructors, projection, distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparse_consist import DimensionMismatch, IntervalSet


def finite_vectors(max_len=12, scale=10):
    return arrays(
        np.float64,
        st.integers(1, max_len),
        elements=st.floats(-scale, scale, allow_nan=False),
    )


@st.composite
def interval_sets(draw, max_len=12):
    """Random boxes with a mix of finite, half-open, and degenerate intervals."""
    n = draw(st.integers(1, max_len))
    lo = np.empty(n)
    hi = np.empty(n)
    for i in range(n):
        kind = draw(st.integers(0, 3))
        a = draw(st.floats(-5, 5, allow_nan=False))
        b = draw(st.floats(0, 5, allow_nan=False))
        if kind == 0:
            lo[i], hi[i] = a, a + b
        elif kind == 1:
            lo[i], hi[i] = a, math.inf
        elif kind == 2:
            lo[i], hi[i] = -math.inf, a
        else:
            lo[i], hi[i] = a, a
    return IntervalSet(lo, hi)


# ----------------------------------------------------------------------
# constructors


def test_clipping_preimage_splits_samples():
    y = np.array([0.3, 0.6, -0.6, 0.0])
    s = IntervalSet.from_clipping(y, 0.6, -0.6)
    assert s.lower[0] == s.upper[0] == 0.3
    assert s.lower[1] == 0.6 and s.upper[1] == math.inf
    assert s.lower[2] == -math.inf and s.upper[2] == -0.6
    assert s.lower[3] == s.upper[3] == 0.0


def test_clipping_rejects_out_of_range_observation():
    with pytest.raises(ValueError):
        IntervalSet.from_clipping(np.array([0.7]), 0.6, -0.6)


def test_clipping_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        IntervalSet.from_clipping(np.array([0.0]), -0.1, 0.1)


def test_quantization_preimage_interior_and_saturated_bins():
    # delta = 0.5 at 3 bits; levels are +-0.25, +-0.75 with the outer pair
    # absorbing the saturated tail.
    delta = 0.25
    y = np.array([0.125, -0.375, 0.875, -0.875])
    s = IntervalSet.from_quantization(y, delta, 1.0)
    np.testing.assert_allclose(s.lower[0], 0.0)
    np.testing.assert_allclose(s.upper[0], 0.25)
    np.testing.assert_allclose(s.lower[1], -0.5)
    np.testing.assert_allclose(s.upper[1], -0.25)
    np.testing.assert_allclose(s.lower[2], 0.75)
    assert s.upper[2] == math.inf
    assert s.lower[3] == -math.inf
    np.testing.assert_allclose(s.upper[3], -0.75)


def test_quantization_rejects_non_level_observation():
    with pytest.raises(ValueError, match="representable level"):
        IntervalSet.from_quantization(np.array([0.3]), 0.25, 1.0)


def test_quantization_rejects_bad_delta():
    with pytest.raises(ValueError):
        IntervalSet.from_quantization(np.array([0.125]), 0.0, 1.0)


def test_singleton_is_degenerate():
    x = np.array([1.0, -2.0])
    s = IntervalSet.singleton(x)
    np.testing.assert_array_equal(s.lower, x)
    np.testing.assert_array_equal(s.upper, x)
    assert s.contains(x)


def test_singleton_rejects_infinite_entries():
    with pytest.raises(ValueError):
        IntervalSet.singleton(np.array([1.0, math.inf]))


def test_constructor_validates_bounds():
    with pytest.raises(ValueError):
        IntervalSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        IntervalSet(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        IntervalSet(np.array([0.0, 1.0]), np.array([1.0]))


def test_bounds_are_read_only():
    s = IntervalSet(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        s.lower[0] = 5.0


# ----------------------------------------------------------------------
# geometry


def test_project_clamps_elementwise():
    s = IntervalSet(np.array([0.0, -math.inf, 1.0]), np.array([1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(
        s.project(np.array([2.0, -3.0, 0.5])), np.array([1.0, -3.0, 1.0])
    )


def test_distance_sq_example():
    s = IntervalSet(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    # (2, -1) is offset by (1, -1) from its projection (1, 0)
    assert s.distance_sq(np.array([2.0, -1.0])) == pytest.approx(2.0)


def test_interior_point_has_zero_gradient():
    s = IntervalSet(np.array([0.0]), np.array([1.0]))
    np.testing.assert_array_equal(s.grad_half_distance_sq(np.array([0.5])), [0.0])


def test_length_checks():
    s = IntervalSet(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    for method in (s.project, s.distance_sq, s.grad_half_distance_sq, s.contains):
        with pytest.raises(DimensionMismatch):
            method(np.zeros(3))


def test_contains_tolerance():
    s = IntervalSet(np.array([0.0]), np.array([1.0]))
    assert not s.contains(np.array([1.0 + 1e-6]))
    assert s.contains(np.array([1.0 + 1e-6]), tol=1e-5)
    with pytest.raises(ValueError):
        s.contains(np.array([0.5]), tol=-1.0)


@given(interval_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_projection_is_idempotent_exactly(s, data):
    x = data.draw(
        arrays(np.float64, len(s), elements=st.floats(-20, 20, allow_nan=False))
    )
    p = s.project(x)
    assert np.array_equal(s.project(p), p)
    assert s.contains(p)


@given(interval_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_projection_is_non_expansive(s, data):
    elements = st.floats(-20, 20, allow_nan=False)
    x = data.draw(arrays(np.float64, len(s), elements=elements))
    z = data.draw(arrays(np.float64, len(s), elements=elements))
    assert np.linalg.norm(s.project(x) - s.project(z)) <= np.linalg.norm(x - z) + 1e-12


@given(interval_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_distance_gradient_is_one_lipschitz(s, data):
    elements = st.floats(-20, 20, allow_nan=False)
    x = data.draw(arrays(np.float64, len(s), elements=elements))
    z = data.draw(arrays(np.float64, len(s), elements=elements))
    gx = s.grad_half_distance_sq(x)
    gz = s.grad_half_distance_sq(z)
    assert np.linalg.norm(gx - gz) <= np.linalg.norm(x - z) + 1e-12


@given(interval_sets(), st.data())
@settings(max_examples=150, deadline=None)
def test_distance_sq_is_convex_along_segments(s, data):
    elements = st.floats(-10, 10, allow_nan=False)
    x = data.draw(arrays(np.float64, len(s), elements=elements))
    z = data.draw(arrays(np.float64, len(s), elements=elements))
    t = data.draw(st.floats(0, 1, allow_nan=False))
    mid = t * x + (1 - t) * z
    bound = t * s.distance_sq(x) + (1 - t) * s.distance_sq(z)
    assert s.distance_sq(mid) <= bound + 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(11))
    s = IntervalSet(
        np.array([-1.0, -math.inf, 0.5, 2.0]), np.array([1.0, 0.0, 0.5, math.inf])
    )
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(-3, 3, size=4)
        g = s.grad_half_distance_sq(x)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (0.5 * s.distance_sq(x + e) - 0.5 * s.distance_sq(x - e)) / (2 * h)
            assert fd == pytest.approx(g[j], abs=5e-6)

