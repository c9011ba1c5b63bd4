"""Interval sets: the distortions' pre-images, projection, distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparse_consist import (
    Dictionary,
    DimensionMismatch,
    DistortionSpec,
    IntervalSet,
    certificate,
    operators,
    snr_db,
)


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


def _half_distance_sq(s, x):
    """Half the squared distance from x to s: the certificate's objective
    with D = I and lam = 0."""
    return certificate(Dictionary(np.eye(len(s))), s, x, 0.0)[0]


# ----------------------------------------------------------------------
# pre-images


def test_clipping_preimage_splits_samples():
    y = np.array([0.3, 0.6, -0.6, 0.0])
    s = DistortionSpec.clipping(0.6).preimage(y)
    assert s.lower[0] == s.upper[0] == 0.3
    assert s.lower[1] == 0.6 and s.upper[1] == math.inf
    assert s.lower[2] == -math.inf and s.upper[2] == -0.6
    assert s.lower[3] == s.upper[3] == 0.0


def test_clipping_rejects_out_of_range_observation():
    with pytest.raises(ValueError, match="not an output of clip:0.6"):
        DistortionSpec.clipping(0.6).preimage(np.array([0.7]))


def test_clipping_rejects_bad_thresholds():
    for theta in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="clip level"):
            DistortionSpec.clipping(theta)


def test_quantization_preimage_interior_and_saturated_bins():
    # delta = 0.25 at 3 bits; levels are odd multiples of 0.125 up to
    # +-0.875, and the outer pair absorbs the saturated tail.
    y = np.array([0.125, -0.375, 0.875, -0.875])
    s = DistortionSpec.quantization(3).preimage(y)
    np.testing.assert_array_equal(s.lower[:2], [0.0, -0.5])
    np.testing.assert_array_equal(s.upper[:2], [0.25, -0.25])
    assert s.lower[2] == 0.75 and s.upper[2] == math.inf
    assert s.lower[3] == -math.inf and s.upper[3] == -0.75


def test_quantization_rejects_non_level_observation():
    with pytest.raises(ValueError, match="not an output of quant:3"):
        DistortionSpec.quantization(3).preimage(np.array([0.3]))


def _parent_preimage(spec, y):
    """The two pre-image constructors the package had before one rule read
    every box off the forward map, written plainly. Kept as the reference
    the rule must match bit for bit up to 30 bits."""
    level_tol = 1e-9
    if spec.kind == "clip":
        theta = spec.param
        if (y > theta).any() or (y < -theta).any():
            raise ValueError("observation contains samples outside the clipping range")
        lower, upper = y.copy(), y.copy()
        upper[y == theta] = np.inf
        lower[y == -theta] = -np.inf
        return IntervalSet(lower, upper)
    delta = spec.delta
    top = 1.0 - delta / 2.0
    level = np.clip(delta * (np.floor(y / delta) + 0.5), -top, top)
    if (np.abs(y - level) > level_tol).any():
        raise ValueError("not a representable level")
    lower, upper = y - delta / 2.0, y + delta / 2.0
    upper[y >= top - level_tol] = np.inf
    lower[y <= -top + level_tol] = -np.inf
    return IntervalSet(lower, upper)


def _extreme(spec):
    """The largest output of the clipper or the quantizer."""
    return spec.param if spec.kind == "clip" else 1.0 - spec.delta / 2.0


def _decision(spec, y, build):
    try:
        return build(spec, y)
    except ValueError:
        return None


def _assert_same_box(a, b):
    assert a.lower.tobytes() == b.lower.tobytes()
    assert a.upper.tobytes() == b.upper.tobytes()


def test_preimage_matches_the_parent_constructors_up_to_30_bits():
    rng = np.random.Generator(np.random.PCG64(21))
    specs = [DistortionSpec.quantization(b) for b in range(1, 31)]
    specs += [DistortionSpec.clipping(t) for t in np.linspace(0.05, 1.5, 30)]
    for spec in specs:
        x = rng.uniform(-1.5, 1.5, size=400)
        # the samples next to the extreme outputs are where the parent's
        # tolerance met its saturation test
        top = _extreme(spec)
        x[:4] = [top, -top, top - 1e-3 * top, -top + 1e-3 * top]
        y = spec.apply(x)
        _assert_same_box(spec.preimage(y), _parent_preimage(spec, y))


def test_preimage_refuses_what_the_parent_refused():
    """Off-level observations get the parent's accept-or-refuse decision
    sample by sample, except in one band: from 29 bits a quarter bin is
    narrower than LEVEL_TOL, and the rule refuses an observation more than
    a quarter bin off its level where the parent accepted it."""
    rng = np.random.Generator(np.random.PCG64(22))
    narrowed = 0
    for n_bits in range(1, 31):
        spec = DistortionSpec.quantization(n_bits)
        levels = spec.apply(rng.uniform(-1.2, 1.2, size=6))
        offsets = np.concatenate([
            rng.uniform(-2.0, 2.0, size=40) * spec.delta,  # anywhere in nearby bins
            [spec.delta / 2, -spec.delta / 2, 1e-10, 5e-10, 9.9e-10, 1.1e-9, 1e-8, 0.3],
        ])
        for y in np.add.outer(levels, offsets).ravel()[:, None]:
            new = _decision(spec, y, DistortionSpec.preimage)
            old = _decision(spec, y, _parent_preimage)
            off = abs(float(spec.apply(y)[0] - y[0]))
            if new is None and old is not None:
                assert spec.delta / 4 < off <= operators.LEVEL_TOL
                narrowed += 1
            else:
                assert (new is None) == (old is None)
                if new is not None:
                    _assert_same_box(new, old)
    assert narrowed > 0
    for theta in np.linspace(0.05, 1.5, 30):
        spec = DistortionSpec.clipping(theta)
        for y in rng.uniform(-1.6, 1.6, size=(20, 1)):
            new = _decision(spec, y, DistortionSpec.preimage)
            old = _decision(spec, y, _parent_preimage)
            assert (new is None) == (old is None)


@pytest.mark.parametrize("n_bits", range(31, 53))
def test_fine_quantizer_saturates_only_the_outermost_levels(n_bits):
    # The parent's absolute tolerance of 1e-9 exceeded the distance to the
    # next level down from 31 bits, so it left interior levels unbounded,
    # and from 30 bits it read a bin edge as a level.
    spec = DistortionSpec.quantization(n_bits)
    delta = spec.delta
    top = 1.0 - delta / 2.0
    y = np.array([top, top - delta, top - 2 * delta, delta / 2, -top + delta, -top])
    s = spec.preimage(y)
    np.testing.assert_array_equal(np.isinf(s.upper), [True, False, False, False, False, False])
    np.testing.assert_array_equal(np.isinf(s.lower), [False, False, False, False, False, True])
    for edge in (top - delta / 2, delta, -delta):
        with pytest.raises(ValueError, match="not an output"):
            spec.preimage(np.array([edge]))


@given(
    st.one_of(
        st.floats(0, 2, exclude_min=True).map(DistortionSpec.clipping),
        st.integers(1, 52).map(DistortionSpec.quantization),
        st.just(DistortionSpec.identity()),
    ),
    arrays(np.float64, st.integers(1, 12), elements=st.floats(-3, 3, allow_nan=False)),
)
@settings(max_examples=300, deadline=None)
def test_preimage_rule_holds_at_every_level_and_bit_depth(spec, x):
    y = spec.apply(x)
    assert np.array_equal(spec.apply(y), y)
    s = spec.preimage(y)
    assert (s.lower <= x).all() and (x <= s.upper).all()
    np.testing.assert_array_equal(np.isposinf(s.upper), y == _extreme(spec))
    np.testing.assert_array_equal(np.isneginf(s.lower), y == -_extreme(spec))
    if spec.kind == "quant":
        edges = y + spec.delta / 2
        for edge in edges[np.abs(edges) < 1.0]:
            with pytest.raises(ValueError, match="not an output"):
                spec.preimage(np.array([edge]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["clip:0.6", "quant:3", "clip:inf"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_preimage_names_a_non_finite_sample(text, bad):
    spec = DistortionSpec.parse(text)
    y = spec.apply(np.array([0.1, 0.2, 0.3]))
    y[1] = bad
    with pytest.raises(ValueError, match=rf"^y\[1\] = {bad!r} is not an output of {text}$"):
        spec.preimage(y)


def test_constructor_validates_bounds():
    with pytest.raises(ValueError):
        IntervalSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        IntervalSet(np.array([np.nan]), np.array([1.0]))
    # intervals that hold no real number
    with pytest.raises(ValueError, match="real number"):
        IntervalSet(np.array([np.inf, 0.0]), np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="real number"):
        IntervalSet(np.array([0.0, -np.inf]), np.array([1.0, -np.inf]))
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


def test_interior_point_has_zero_gradient():
    s = IntervalSet(np.array([0.0]), np.array([1.0]))
    np.testing.assert_array_equal(s.grad_half_distance_sq(np.array([0.5])), [0.0])


def test_length_checks():
    # one rule for every vector a caller passes: a short or long one raises
    # DimensionMismatch naming its length and the expected one
    d = Dictionary(np.ones((3, 5)))
    s = IntervalSet(np.zeros(4), np.ones(4))
    for use, expected in (
        (d.synthesize, 5),
        (d.correlate, 3),
        (s.project, 4),
        (s.grad_half_distance_sq, 4),
        (lambda v: IntervalSet(np.zeros(4), v), 4),
        (lambda v: snr_db(np.ones(4), v), 4),
    ):
        for length in (expected - 1, expected + 1):
            with pytest.raises(DimensionMismatch, match=f"length {length}, expected {expected}$"):
                use(np.ones(length))


@given(interval_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_projection_is_idempotent_exactly(s, data):
    x = data.draw(
        arrays(np.float64, len(s), elements=st.floats(-20, 20, allow_nan=False))
    )
    p = s.project(x)
    assert np.array_equal(s.project(p), p)
    assert (s.lower <= p).all() and (p <= s.upper).all()


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
    bound = t * _half_distance_sq(s, x) + (1 - t) * _half_distance_sq(s, z)
    assert _half_distance_sq(s, mid) <= bound + 0.5e-9


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
            fd = (_half_distance_sq(s, x + e) - _half_distance_sq(s, x - e)) / (2 * h)
            assert fd == pytest.approx(g[j], abs=5e-6)

