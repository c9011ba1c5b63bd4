"""Dictionary operator, spectral estimation, and the forward distortions."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from sparse_consist import Dictionary, DimensionMismatch, DistortionSpec
from sparse_consist import operators
from sparse_consist.operators import LIPSCHITZ_SAFETY, power_iteration_gram

from test_robustness import BAD_DICTIONARY_FILES


def _random_dictionary(seed, n=8, m=13):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Dictionary(rng.standard_normal((n, m)))


# ----------------------------------------------------------------------
# clip and quantizer


def test_clip_examples():
    x = np.array([-2.0, -0.6, 0.1, 0.6, 2.0])
    np.testing.assert_array_equal(
        DistortionSpec.clipping(0.6).apply(x), np.array([-0.6, -0.6, 0.1, 0.6, 0.6])
    )


def test_quantizer_bin_width_is_exact():
    assert DistortionSpec.quantization(4).delta == 2.0**-3
    assert DistortionSpec.quantization(2).delta == 0.5


def test_quantizer_examples_at_3_bits():
    # delta = 0.25; outputs are odd multiples of 0.125, clamped to +-0.875
    x = np.array([0.0, 0.1, 0.24, 0.26, -0.1, 5.0, -5.0])
    q = DistortionSpec.quantization(3).apply(x)
    np.testing.assert_allclose(
        q, np.array([0.125, 0.125, 0.125, 0.375, -0.125, 0.875, -0.875])
    )


def test_quantizer_never_emits_zero():
    rng = np.random.Generator(np.random.PCG64(5))
    for n_bits in (1, 2, 3, 6):
        q = DistortionSpec.quantization(n_bits).apply(rng.uniform(-2, 2, size=500))
        assert not (q == 0.0).any()


def test_quantizer_outputs_are_odd_multiples_of_half_delta():
    rng = np.random.Generator(np.random.PCG64(6))
    for n_bits in (2, 3, 5):
        delta = 2.0 ** (1 - n_bits)
        q = DistortionSpec.quantization(n_bits).apply(rng.uniform(-1.5, 1.5, size=300))
        ratio = q / (delta / 2.0)
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-12)
        assert (np.abs(np.round(ratio)) % 2 == 1).all()
        assert np.max(np.abs(q)) <= 1.0 - delta / 2.0


def test_quantizer_rejects_bad_bit_depth():
    for n_bits in (0, -3, 2.5, 53, 1100):
        with pytest.raises(ValueError, match="bit depth"):
            DistortionSpec.quantization(n_bits)


@given(st.integers(1, 8), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_quantizer_output_is_nearest_level_or_clamp(n_bits, value):
    delta = 2.0 ** (1 - n_bits)
    (q,) = DistortionSpec.quantization(n_bits).apply(np.array([value]))
    if abs(value) < 1.0 - delta / 2.0:
        # interior: the bin centre is within delta/2 of the input
        assert abs(q - value) <= delta / 2.0 + 1e-12


# ----------------------------------------------------------------------
# the Lipschitz constant: power_iteration_gram


def test_power_iteration_matches_dense_eigensolver():
    for seed in range(6):
        d = _random_dictionary(seed).matrix
        lam = power_iteration_gram(d)
        exact = float(np.linalg.eigvalsh(d.T @ d)[-1])
        assert lam == pytest.approx(exact, rel=1e-12)


def test_power_iteration_is_deterministic():
    d = _random_dictionary(4).matrix
    assert power_iteration_gram(d) == power_iteration_gram(d)


def test_power_iteration_survives_start_orthogonal_to_top_space():
    # Inputs on which an all-ones start misses the top eigenvector. In every
    # matrix but the 8 x 6 one each row sums to zero, so the Gram action
    # kills that start; in the two block matrices the column of largest norm
    # spans only the first block, whose eigenvalue is not the top one. The
    # 8 x 6 second-difference dictionary is symmetric under reversing its
    # atoms, so the all-ones start is orthogonal to the antisymmetric top
    # eigenvector without being killed.
    atom = np.array([1.0, -2.0, 1.0, 0.0, 0.0, 0.0])
    shifted = np.array([(i + 1) * np.roll(atom, i % 2) for i in range(8)])
    blocks = np.zeros((2, 18))
    blocks[0, :2] = [1.0, -1.0]
    blocks[1, 2:] = np.tile([0.5, -0.5], 8)
    second_difference = np.zeros((8, 6))
    for j in range(6):
        second_difference[j : j + 3, j] = [1.0, -2.0, 1.0]
    for d in (
        np.array([[1.0, -1.0]]),
        np.array([[1.0, -2.0, 1.0]]),
        np.array([[1.0, -2.0, 1.0], [2.0, -4.0, 2.0]]),
        shifted,
        blocks,
        second_difference,
        np.array([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.9, -0.9, 0.9, -0.9]]),
    ):
        lam = power_iteration_gram(d)
        assert lam == pytest.approx(float(np.linalg.eigvalsh(d.T @ d)[-1]), rel=1e-12)


def test_power_iteration_rejects_zero_matrix():
    with pytest.raises(ValueError, match="zero dictionary"):
        power_iteration_gram(np.zeros((3, 4)))


def test_second_difference_dictionary_gets_the_padded_estimate():
    d = Dictionary([[1.0, -2.0, 1.0]])
    assert d.estimate_lipschitz() == pytest.approx(1.01 * 6.0, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, fault", [(1e160, "overflow"), (1e-160, "underflow")])
def test_power_iteration_names_a_gram_overflow_or_underflow(scale, fault):
    d = _random_dictionary(10, n=8, m=16).matrix * scale
    with pytest.raises(ValueError, match=f"Gram values .* {fault}"):
        power_iteration_gram(d)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e140, 1e150])
def test_power_iteration_estimates_a_large_dictionary(scale):
    # The Gram values of these matrices overflow a norm but not the estimate.
    d = _random_dictionary(10, n=8, m=16).matrix
    lam = power_iteration_gram(d)
    big = power_iteration_gram(d * scale)
    assert np.isfinite(big)
    assert big == pytest.approx(scale**2 * lam, rel=1e-12)


# ----------------------------------------------------------------------
# Dictionary


def test_dictionary_shape_properties():
    d = _random_dictionary(0, n=5, m=9)
    assert d.n == 5
    assert d.m == 9
    assert d.matrix.shape == (5, 9)


def test_dictionary_rejects_bad_input():
    with pytest.raises(ValueError):
        Dictionary(np.zeros(4))
    with pytest.raises(ValueError):
        Dictionary(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Dictionary(np.array([[np.inf, 1.0]]))


def test_dictionary_matrix_is_frozen_copy():
    src = np.eye(3)
    d = Dictionary(src)
    src[0, 0] = 7.0
    assert d.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 2.0


def test_unpickled_dictionary_is_aligned_and_keeps_its_estimate():
    d = _random_dictionary(3, n=37, m=61)
    estimate = d.estimate_lipschitz()
    payload = pickle.dumps(d)
    # held at once, so that no copy reuses the memory another one freed
    copies = [pickle.loads(payload) for _ in range(8)]
    for back in copies:
        assert back.matrix.ctypes.data % 64 == 0
        assert back.matrix.tobytes() == d.matrix.tobytes()
        assert not back.matrix.flags.writeable
        assert back.estimate_lipschitz() == estimate


def test_synthesize_correlate_shapes_and_errors():
    d = _random_dictionary(1, n=4, m=7)
    assert d.synthesize(np.zeros(7)).shape == (4,)
    assert d.correlate(np.zeros(4)).shape == (7,)
    with pytest.raises(DimensionMismatch):
        d.synthesize(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        d.correlate(np.zeros(7))
    with pytest.raises(ValueError, match="1-D vector"):
        d.synthesize(np.zeros((7, 1)))


def test_adjoint_identity():
    rng = np.random.Generator(np.random.PCG64(17))
    for seed in range(10):
        d = _random_dictionary(seed, n=6, m=11)
        alpha = rng.standard_normal(11)
        r = rng.standard_normal(6)
        lhs = float(d.synthesize(alpha) @ r)
        rhs = float(alpha @ d.correlate(r))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_lipschitz_estimate_upper_bounds_true_value_and_caches(monkeypatch):
    calls = []
    original = operators.power_iteration_gram

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(operators, "power_iteration_gram", counting)
    d = _random_dictionary(2)
    exact = float(np.linalg.eigvalsh(d.matrix.T @ d.matrix)[-1])
    est = d.estimate_lipschitz()
    assert exact <= est <= LIPSCHITZ_SAFETY * exact * (1 + 1e-6)
    # a later call returns the cached value without another eigenvalue solve
    assert d.estimate_lipschitz() == est
    assert len(calls) == 1


def test_ridge_factor_solves_the_ridge_system():
    d = _random_dictionary(8, n=5, m=8)
    rho = 0.7
    factor = d.ridge_cho_factor(rho)
    rhs = np.arange(1.0, 9.0)
    x = cho_solve(factor, rhs)
    system = np.eye(8) + rho * (d.matrix.T @ d.matrix)
    np.testing.assert_allclose(system @ x, rhs, atol=1e-10)
    assert d.ridge_cho_factor(rho) is factor  # cached per rho
    for rho in (0.0, np.nan):
        with pytest.raises(ValueError, match="rho must be positive"):
            d.ridge_cho_factor(rho)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scale, fault",
    [
        (1e160, "overflow"),
        (1e150, "swamp the identity"),
        (1e140, "swamp the identity"),
        (1e-150, "negligible next to the identity"),
        (1e-160, "underflow"),
    ],
)
def test_ridge_factor_names_a_gram_overflow_or_underflow(scale, fault):
    d = Dictionary(_random_dictionary(10, n=8, m=16).matrix * scale)
    for _ in range(2):  # nothing is cached, so the second call raises too
        with pytest.raises(ValueError, match=f"Gram values .* {fault}"):
            d.ridge_cho_factor(1.0)


def test_ridge_factor_accepts_a_zero_atom():
    mat = _random_dictionary(11, n=5, m=8).matrix.copy()
    mat[:, 3] = 0.0
    c, lower = Dictionary(mat).ridge_cho_factor(1.0)
    assert lower and np.isfinite(c).all()


def test_binary_round_trip_is_bitwise(tmp_path):
    d = _random_dictionary(9, n=6, m=4)
    path = tmp_path / "dict.npy"
    d.save(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dict.npy"]
    assert Dictionary.load(path).matrix.tobytes() == d.matrix.tobytes()
    # any .npy matrix of reals loads as the dictionary it holds, whatever
    # its memory order or float width
    for array in (np.asfortranarray(d.matrix), d.matrix.astype(np.float32)):
        np.save(path, array)
        back = Dictionary.load(path).matrix
        assert back.tobytes() == Dictionary(array).matrix.tobytes()
        assert np.array_equal(back, array)


def test_load_rejects_corrupt_files(tmp_path):
    for name, raw in BAD_DICTIONARY_FILES.items():
        path = tmp_path / f"{name}.npy"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="real numbers" if name != "vector" else "2-D"):
            Dictionary.load(path)


# ----------------------------------------------------------------------
# DistortionSpec


def test_clipping_spec_symmetric_default():
    spec = DistortionSpec.clipping(0.6)
    np.testing.assert_array_equal(
        spec.apply(np.array([-0.9, -0.6, 0.1, 0.6, 0.9])), [-0.6, -0.6, 0.1, 0.6, 0.6]
    )
    assert spec.task == "declipping"
    assert spec.param == 0.6
    assert spec.label() == "clip:0.6"


def test_quantization_spec_fields():
    spec = DistortionSpec.quantization(4)
    assert spec.task == "dequantization"
    assert spec.param == 4.0
    assert spec.label() == "quant:4"
    assert spec.delta == 0.125


def test_identity_spec_round_trips_signal():
    # no distortion is the clipper at infinity, whose box is the point {x}
    spec = DistortionSpec.identity()
    assert spec == DistortionSpec.clipping(math.inf)
    assert (spec.label(), spec.task) == ("clip:inf", "declipping")
    for x in (np.array([0.1, -0.2]), np.array([1.0, -2.0])):
        np.testing.assert_array_equal(spec.apply(x), x)
        s = spec.preimage(x)
        np.testing.assert_array_equal(s.lower, x)
        np.testing.assert_array_equal(s.upper, x)
    with pytest.raises(ValueError, match=r"y\[1\] = inf is not an output of clip:inf"):
        spec.preimage(np.array([1.0, math.inf]))


def test_delta_undefined_for_clipping():
    with pytest.raises(ValueError):
        DistortionSpec.clipping(0.5).delta


def test_spec_validation():
    with pytest.raises(TypeError):
        DistortionSpec("clip")
    for kind, param in (("none", None), ("none", 1.0), ("clip", None), ("quant", None)):
        with pytest.raises(ValueError):
            DistortionSpec(kind, param)
    with pytest.raises(ValueError):
        DistortionSpec.clipping(-0.5)
    with pytest.raises(ValueError):
        DistortionSpec.quantization(0)
    for kind, param in (("quant", "4"), ("quant", True), ("clip", "0.5"), ("clip", True)):
        with pytest.raises(ValueError):
            DistortionSpec(kind, param)


def test_parse_round_trips():
    for text in ("clip:0.6", "quant:4", "clip:inf"):
        assert DistortionSpec.parse(text).label() == text


def test_parse_rejects_malformed_descriptors():
    for text in ("clip", "quant:2.5", "blur:3", "clip:abc", "quant:inf", "none", "none:1"):
        with pytest.raises(ValueError):
            DistortionSpec.parse(text)


@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_observation_always_lies_in_its_preimage(n_bits, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-1.5, 1.5, size=8)
    for spec in (DistortionSpec.quantization(n_bits), DistortionSpec.clipping(0.5)):
        y = spec.apply(x)
        iset = spec.preimage(y)
        # the clean signal is consistent with its own observation
        assert (x >= iset.lower - 1e-12).all() and (x <= iset.upper + 1e-12).all()
        assert np.array_equal(spec.apply(iset.project(x)), y)
