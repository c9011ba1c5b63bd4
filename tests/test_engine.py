"""Proximal engine: the same iterates as a plain reference loop, the number
of products and projections per iteration, and why a run stops."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_consist import (
    SIGNAL_SEED_OFFSET,
    Dictionary,
    DistortionSpec,
    IntervalSet,
    SolverConfig,
    certificate,
    gen_dictionary,
    gen_sparse_signal,
    solve_fista,
    solve_ista,
)
from sparse_consist.operators import _aligned_empty
from sparse_consist.solvers import _kkt_from_gradient

from reference_loop import box_residual, kkt_residual, reference_loop
from test_robustness import boxes, dictionaries

PROTOCOL = dict(n=256, m=512, k_sparse=16)


def _protocol_case(seed, label):
    dic = gen_dictionary(seed, PROTOCOL["n"], PROTOCOL["m"])
    _, x = gen_sparse_signal(seed + SIGNAL_SEED_OFFSET, dic, PROTOCOL["k_sparse"])
    dspec = DistortionSpec.parse(label)
    return dic, dspec.preimage(dspec.apply(x)), x


def _assert_same_run(got, ref, lam):
    alpha, trace = got
    ref_alpha, ref_objectives, ref_grad = ref
    assert trace.objective_per_iter.tobytes() == ref_objectives.tobytes()
    assert np.array_equal(alpha, ref_alpha)
    assert trace.iterations_run == len(ref_objectives)
    # the final optimality check reuses the last residual, not a fresh one
    assert trace.kkt_residual_final == kkt_residual(ref_grad, ref_alpha, lam)


@pytest.mark.parametrize(
    "grad, alpha",
    [
        ([np.nan], [0.0]),  # off the support, with nothing on it
        ([np.nan, 0.5], [0.0, 1.0]),  # off the support, beside a finite violation
        ([0.5, np.nan], [0.0, 1.0]),  # on the support
        ([0.5, 0.5], [0.0, np.nan]),  # a NaN coefficient
    ],
)
def test_a_nan_entry_makes_the_kkt_residual_nan(grad, alpha):
    grad, alpha = np.array(grad), np.array(alpha)
    assert math.isnan(_kkt_from_gradient(grad, alpha, 0.1))
    assert math.isnan(kkt_residual(grad, alpha, 0.1))


# At tol 1e-6 no run reaches the tolerance by iteration 400, so every screen
# fails; at tol 1e-3 the three FISTA runs stop as converged at iterations
# 500-590 and the ISTA runs spend the budget of 600.
@pytest.mark.parametrize("label", ["clip:0.6", "quant:4", "quant:6"])
@pytest.mark.parametrize("tol", [0.0, 1e-6, 1e-3])
def test_engine_matches_the_reference_loop_bit_for_bit(label, tol):
    dic, iset, x = _protocol_case(0, label)
    step = 1.0 / dic.estimate_lipschitz()
    config = SolverConfig(lam=1e-2, max_iter={0.0: 150, 1e-6: 400, 1e-3: 600}[tol], tol=tol)
    for solver, momentum in ((solve_ista, False), (solve_fista, True)):
        ref = reference_loop(dic.matrix, box_residual(iset), config, step, momentum)
        got = solver(dic, iset, config)
        _assert_same_run(got, ref, config.lam)
        assert got[1].converged == (tol == 1e-3 and momentum)
    # denoising: FISTA on the identity's pre-image, the singleton {x}
    ref = reference_loop(dic.matrix, lambda z: z - x, config, step, True)
    denoise = DistortionSpec.identity().preimage(x)
    _assert_same_run(solve_fista(dic, denoise, config), ref, config.lam)


@given(
    dictionaries().flatmap(lambda d: st.tuples(st.just(d), boxes(d.n))),
    st.floats(0, 1),
    st.sampled_from([0.0, 1e-5, 1e-2]),
)
@settings(max_examples=200, deadline=None)
def test_engine_matches_the_reference_loop_on_generated_inputs(problem, lam, tol):
    dic, iset = problem
    try:
        step = 1.0 / dic.estimate_lipschitz()
    except ValueError:
        return  # no representable default step; the robustness suite covers it
    config = SolverConfig(lam=lam, max_iter=30, tol=tol)
    for solver, momentum in ((solve_ista, False), (solve_fista, True)):
        alpha, trace = solver(dic, iset, config)
        # the reference loop has no non-finite stop
        if trace.stop_reason == "non_finite":
            continue
        ref = reference_loop(dic.matrix, box_residual(iset), config, step, momentum)
        _assert_same_run((alpha, trace), ref, lam)
        # the certificate scores an answer exactly as its trace does
        assert certificate(dic, iset, alpha, lam) == (
            trace.objective_per_iter[-1],
            trace.kkt_residual_final,
        )


def _placed_at(matrix, offset):
    """A copy of ``matrix`` whose first entry sits ``offset`` bytes past a
    64-byte boundary."""
    buf = np.empty(matrix.size + 16)
    skip = (-buf.ctypes.data % 64 + offset) // 8
    copy = buf[skip : skip + matrix.size].reshape(matrix.shape)
    copy[...] = matrix
    assert copy.ctypes.data % 64 == offset
    return copy


@pytest.mark.parametrize("label", ["clip:0.6", "quant:4"])
def test_where_the_dictionary_sits_in_memory_never_changes_a_run(label):
    dic, iset, _ = _protocol_case(0, label)
    step = 1.0 / dic.estimate_lipschitz()
    config = SolverConfig(lam=1e-2, max_iter=150, tol=0.0)
    for solver, momentum in ((solve_ista, False), (solve_fista, True)):
        got = solver(dic, iset, config)
        for offset in range(8, 64, 8):
            placed = _placed_at(dic.matrix, offset)
            ref = reference_loop(placed, box_residual(iset), config, step, momentum)
            _assert_same_run(got, ref, config.lam)


def _aligned(array):
    return array.ctypes.data % 64 == 0


def test_blas_operands_start_on_a_cache_line(monkeypatch, tmp_path):
    dic, iset, _ = _protocol_case(1, "clip:0.6")
    seen = Counter()

    def checking(attr):
        original = getattr(Dictionary, attr)

        def wrapped(self, vec, out=None):
            seen[attr] += 1
            assert _aligned(self.matrix) and _aligned(vec), attr
            assert out is not None and _aligned(out), attr
            return original(self, vec, out=out)

        monkeypatch.setattr(Dictionary, attr, wrapped)

    checking("synthesize")
    checking("correlate")
    for solver in (solve_ista, solve_fista):
        solver(dic, iset, SolverConfig(max_iter=5, tol=0.0))
    # per solve five syntheses, and five correlations plus the final one
    assert seen == {"synthesize": 10, "correlate": 12}
    monkeypatch.undo()

    data = np.random.default_rng(0).standard_normal((9, 13))
    np.savetxt(tmp_path / "d.csv", data, delimiter=",")
    dic.save(tmp_path / "d.bin")
    built = [
        Dictionary(data.tolist()),
        Dictionary(np.asfortranarray(data)),
        Dictionary(data[::2, 1::3]),
        Dictionary(data.astype(np.float32)),
        Dictionary.load(tmp_path / "d.bin"),
        Dictionary.from_csv(tmp_path / "d.csv"),
    ]
    assert all(_aligned(d.matrix) for d in built)
    assert _aligned(dic.ridge_cho_factor(1.0)[0])
    for shape, expected in ((13, (13,)), ((5, 3), (5, 3))):
        buf = _aligned_empty(shape)
        assert _aligned(buf) and buf.shape == expected and buf.flags["C_CONTIGUOUS"]


# ----------------------------------------------------------------------
# work per iteration


def _count_calls(monkeypatch):
    counts = Counter()

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapped)

    counting(Dictionary, "synthesize")
    counting(Dictionary, "correlate")
    counting(IntervalSet, "project")
    return counts


@pytest.mark.parametrize(
    "solver, projections_per_iter",
    [(solve_ista, 1), (solve_fista, 2)],
    ids=["ista", "fista"],
)
def test_two_products_per_iteration(monkeypatch, solver, projections_per_iter):
    dic, iset, _ = _protocol_case(2, "clip:0.6")
    dic.estimate_lipschitz()
    iters = 25
    # at the default tol the screens at iterations 10 and 20 run, fail and
    # reuse the gradient the iteration holds
    for tol in (0.0, SolverConfig.tol):
        counts = _count_calls(monkeypatch)
        _, trace = solver(dic, iset, SolverConfig(max_iter=iters, tol=tol))
        monkeypatch.undo()
        assert trace.iterations_run == iters
        # one final correlation besides the two products; the zero start's
        # image is written, not synthesized
        assert counts["synthesize"] == iters
        assert counts["correlate"] == iters + 1
        # one initial projection besides those of the iterations
        assert counts["project"] == projections_per_iter * iters + 1


# ----------------------------------------------------------------------
# stop reasons


def _small_clip_case():
    dic = gen_dictionary(5, 12, 24)
    _, x = gen_sparse_signal(5 + SIGNAL_SEED_OFFSET, dic, 3)
    dspec = DistortionSpec.clipping(0.5)
    return dic, dspec.preimage(dspec.apply(x))


def _diverging_case(monkeypatch):
    # a Lipschitz estimate of 1.0, far below the true constant on this
    # instance, makes the step 1.0, so every solve blows up
    monkeypatch.setattr(Dictionary, "estimate_lipschitz", lambda self: 1.0)
    return _small_clip_case()


def test_a_screen_passed_at_the_extrapolated_point_must_hold_at_the_iterate(monkeypatch):
    # On this instance FISTA's screen at the extrapolated point passes at
    # least once while the last iterate's KKT residual is still above tol:
    # the confirm costs one correlation and the run goes on. The confirm
    # that passes is the exit's correlation, so no other is made.
    dic, iset = _small_clip_case()
    dic.estimate_lipschitz()
    counts = _count_calls(monkeypatch)
    config = SolverConfig(max_iter=5000)
    alpha, trace = solve_fista(dic, iset, config)
    monkeypatch.undo()
    assert trace.stop_reason == "converged"
    assert trace.iterations_run % 10 == 0
    assert counts["synthesize"] == trace.iterations_run
    # the iterations, the screen's at the stop and the confirm
    failed_confirms = counts["correlate"] - (trace.iterations_run + 2)
    assert failed_confirms >= 1
    assert trace.kkt_residual_final <= config.tol
    assert certificate(dic, iset, alpha, config.lam) == (
        trace.objective_per_iter[-1],
        trace.kkt_residual_final,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "solver, stop_at", [(solve_ista, 88), (solve_fista, 77)], ids=["ista", "fista"]
)
def test_run_stops_at_the_first_non_finite_objective(monkeypatch, solver, stop_at):
    dic, iset = _diverging_case(monkeypatch)
    alpha, trace = solver(dic, iset, SolverConfig(max_iter=400))
    assert trace.stop_reason == "non_finite"
    assert not trace.converged
    assert trace.iterations_run == stop_at
    history = trace.objective_per_iter
    assert np.isfinite(history[:-1]).all()
    assert not math.isfinite(history[-1])
    # the iterate returned is the one whose objective is not finite
    assert not math.isfinite(certificate(dic, iset, alpha, 1e-2)[0])
