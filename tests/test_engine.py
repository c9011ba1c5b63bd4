"""Proximal engine: the same iterates as a plain reference loop, the number
of products and projections per iteration, and why a run stops."""

import math
from collections import Counter

import numpy as np
import pytest

from sparse_consist import (
    SIGNAL_SEED_OFFSET,
    Dictionary,
    DistortionSpec,
    IntervalSet,
    SolverConfig,
    gen_dictionary,
    gen_sparse_signal,
    objective,
    solve_fista,
    solve_fista_bpdn,
    solve_ista,
)
from sparse_consist.solvers import _kkt_from_gradient

PROTOCOL = dict(n=256, m=512, k_sparse=16)


def _reference_loop(matrix, residual, config, step, momentum):
    """The forward-backward loop written plainly: fresh arrays every
    iteration, two projections per iteration, a separate l1 pass. Kept as
    the reference the engine must match bit for bit.

    Returns ``(alpha, objectives, final_gradient)``.
    """
    lam = config.lam
    thresh = step * lam
    alpha = (
        np.zeros(matrix.shape[1])
        if config.alpha0 is None
        else np.array(config.alpha0, dtype=np.float64)
    )
    z_alpha = matrix @ alpha
    u, z_u, t = alpha, z_alpha, 1.0
    r0 = residual(z_alpha)
    obj = 0.5 * float(r0 @ r0) + lam * float(np.abs(alpha).sum())
    objectives = []
    flat_streak = 0
    for _ in range(config.max_iter):
        g = matrix.T @ residual(z_u)
        v = u - step * g
        alpha_next = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        z_next = matrix @ alpha_next
        r = residual(z_next)
        obj_prev = obj
        obj = 0.5 * float(r @ r) + lam * float(np.abs(alpha_next).sum())
        objectives.append(obj)
        if momentum:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            w = (t - 1.0) / t_next
            u = alpha_next + w * (alpha_next - alpha)
            z_u = z_next + w * (z_next - z_alpha)
            t = t_next
        else:
            u, z_u = alpha_next, z_next
        alpha, z_alpha = alpha_next, z_next
        if abs(obj - obj_prev) / max(obj_prev, 1e-12) < config.rel_tol:
            flat_streak += 1
            if flat_streak >= 2:
                break
        else:
            flat_streak = 0
    return alpha, np.asarray(objectives), matrix.T @ residual(z_alpha)


def _box_residual(iset):
    return lambda z: z - np.minimum(iset.upper, np.maximum(iset.lower, z))


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
    assert trace.kkt_residual_final == _kkt_from_gradient(ref_grad, ref_alpha, lam)


@pytest.mark.parametrize("label", ["clip:0.6", "quant:4"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-6])
def test_engine_matches_the_reference_loop_bit_for_bit(label, rel_tol):
    dic, iset, x = _protocol_case(0, label)
    step = 1.0 / dic.estimate_lipschitz()
    cold = SolverConfig(lam=1e-2, max_iter=150 if rel_tol == 0.0 else 400, rel_tol=rel_tol)
    warm_start, _ = solve_fista(dic, iset, SolverConfig(max_iter=30, rel_tol=0.0))
    warm = SolverConfig(lam=1e-2, max_iter=120, rel_tol=rel_tol, alpha0=warm_start)
    for config in (cold, warm):
        for solver, momentum in ((solve_ista, False), (solve_fista, True)):
            ref = _reference_loop(dic.matrix, _box_residual(iset), config, step, momentum)
            _assert_same_run(solver(dic, iset, config), ref, config.lam)
        ref = _reference_loop(dic.matrix, lambda z: z - x, config, step, True)
        _assert_same_run(solve_fista_bpdn(dic, x, config), ref, config.lam)


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
    counts = _count_calls(monkeypatch)
    iters = 25
    _, trace = solver(dic, iset, SolverConfig(max_iter=iters, rel_tol=0.0))
    assert trace.iterations_run == iters
    # one initial synthesis and one final correlation besides the two products
    assert counts["synthesize"] == iters + 1
    assert counts["correlate"] == iters + 1
    # one initial projection besides those of the iterations
    assert counts["project"] == projections_per_iter * iters + 1


# ----------------------------------------------------------------------
# stop reasons


def _diverging_case():
    # step 1.0 is far above 1/L on this instance, so every solve blows up
    dic = gen_dictionary(5, 12, 24)
    _, x = gen_sparse_signal(5 + SIGNAL_SEED_OFFSET, dic, 3)
    dspec = DistortionSpec.clipping(0.5)
    return dic, dspec.preimage(dspec.apply(x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "solver, stop_at", [(solve_ista, 88), (solve_fista, 77)], ids=["ista", "fista"]
)
def test_run_stops_at_the_first_non_finite_objective(solver, stop_at):
    dic, iset = _diverging_case()
    alpha, trace = solver(dic, iset, SolverConfig(step=1.0, max_iter=400))
    assert trace.stop_reason == "non_finite"
    assert not trace.converged
    assert trace.iterations_run == stop_at
    history = trace.objective_per_iter
    assert np.isfinite(history[:-1]).all()
    assert not math.isfinite(history[-1])
    # the iterate returned is the one whose objective is not finite
    assert not math.isfinite(objective(dic, iset, alpha, 1e-2))
