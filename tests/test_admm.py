"""Constrained baseline: nested projection and the outer splitting loop."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog, minimize
from scipy.stats import ortho_group

from sparse_consist import (
    SIGNAL_SEED_OFFSET,
    AdmmConfig,
    DimensionMismatch,
    Dictionary,
    DistortionSpec,
    IntervalSet,
    gen_dictionary,
    gen_sparse_signal,
    solve_admm_constrained,
)
from sparse_consist import operators, solvers
from sparse_consist.cli import result_to_json_obj
from sparse_consist.solvers import inner_projection

PROTOCOL = dict(n=256, m=512, k_sparse=16)


def _clip_instance(seed, n=6, m=12, k=2, theta=0.5):
    dic = gen_dictionary(seed, n, m)
    _, x = gen_sparse_signal(seed + SIGNAL_SEED_OFFSET, dic, k)
    dspec = DistortionSpec.clipping(theta)
    return dic, dspec.preimage(dspec.apply(x))


def _inner_budget(monkeypatch, iters, tol):
    """Give the nested projection another round budget and tolerance."""
    monkeypatch.setattr(solvers, "_INNER_ITERS", iters)
    monkeypatch.setattr(solvers, "_INNER_TOL", tol)


def _outer_tolerance(monkeypatch, tol):
    """Give the outer loop's stopping test another tolerance."""
    monkeypatch.setattr(solvers, "_OUTER_TOL", tol)


def _assert_in_box(iset, x, tol):
    """x lies in the box, loosened by tol on each side."""
    assert (x >= iset.lower - tol).all() and (x <= iset.upper + tol).all()


def min_l1_via_lp(dic, iset):
    """Reference optimum of min ||alpha||_1 over D alpha in C.

    Standard positive-part split alpha = p - q turns the objective into a
    linear program; only the finite box faces become constraint rows.
    """
    D = dic.matrix
    rows, rhs = [], []
    for i in range(dic.n):
        if np.isfinite(iset.upper[i]):
            rows.append(np.concatenate([D[i], -D[i]]))
            rhs.append(iset.upper[i])
        if np.isfinite(iset.lower[i]):
            rows.append(np.concatenate([-D[i], D[i]]))
            rhs.append(-iset.lower[i])
    res = linprog(
        np.ones(2 * dic.m),
        A_ub=np.asarray(rows),
        b_ub=np.asarray(rhs),
        bounds=[(0, None)] * (2 * dic.m),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


# ----------------------------------------------------------------------
# nested projection


def test_projection_of_feasible_point_is_identity(monkeypatch):
    dic = gen_dictionary(60, 6, 12)
    rng = np.random.Generator(np.random.PCG64(160))
    u = rng.standard_normal(12)
    img = dic.synthesize(u)
    iset = IntervalSet(img - 1.0, img + 1.0)  # u is strictly interior
    _inner_budget(monkeypatch, 50, 1e-12)
    out, _ = inner_projection(dic, iset, u)
    np.testing.assert_allclose(out, u, atol=1e-12)


def test_projection_with_orthogonal_dictionary_matches_closed_form(monkeypatch):
    # for orthogonal D the projection is u + D^T (clamp(Du) - Du)
    _inner_budget(monkeypatch, 4000, 1e-13)
    rng = np.random.Generator(np.random.PCG64(61))
    Q = ortho_group.rvs(6, random_state=np.random.RandomState(7))
    dic = Dictionary(Q)
    iset = IntervalSet(-0.3 * np.ones(6), 0.3 * np.ones(6))
    for _ in range(5):
        u = rng.standard_normal(6) * 2
        img = dic.synthesize(u)
        expected = u + dic.correlate(iset.project(img) - img)
        out, _ = inner_projection(dic, iset, u)
        np.testing.assert_allclose(out, expected, atol=1e-8)


@pytest.mark.filterwarnings("error")
def test_projection_matches_quadratic_program_oracle(monkeypatch):
    _inner_budget(monkeypatch, 5000, 1e-13)
    for seed in range(5):
        dic = gen_dictionary(200 + seed, 4, 6)
        rng = np.random.Generator(np.random.PCG64(300 + seed))
        x = rng.standard_normal(4)
        x /= max(1e-9, float(np.max(np.abs(x))))
        dspec = DistortionSpec.clipping(0.5)
        iset = dspec.preimage(dspec.apply(x))
        u = rng.standard_normal(6)

        beta, _ = inner_projection(dic, iset, u)

        # min ||b - u||^2 over D b in the box: the point rows are equalities
        # and the finite faces of the others inequalities
        D, lo, hi = dic.matrix, iset.lower, iset.upper
        point = lo == hi
        has_lo, has_hi = np.isfinite(lo) & ~point, np.isfinite(hi) & ~point
        rows = [("eq", point, D, lo), ("ineq", has_lo, D, lo), ("ineq", has_hi, -D, -hi)]
        constraints = [
            {"type": kind, "fun": lambda b, A=A[mask], c=c[mask]: A @ b - c,
             "jac": lambda b, A=A[mask]: A}
            for kind, mask, A, c in rows
            if mask.any()
        ]
        res = minimize(lambda b: float((b - u) @ (b - u)), u, jac=lambda b: 2.0 * (b - u),
                       method="SLSQP", constraints=constraints, options={"ftol": 1e-14})
        assert res.success, res.message
        np.testing.assert_allclose(beta, res.x, atol=1e-6)


def test_projection_result_is_feasible(monkeypatch):
    _inner_budget(monkeypatch, 3000, 1e-10)
    for seed in (62, 63, 64):
        dic, iset = _clip_instance(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        u = rng.standard_normal(dic.m) * 3
        beta, _ = inner_projection(dic, iset, u)
        _assert_in_box(iset, dic.synthesize(beta), tol=1e-8)


def test_projection_residual_misses_the_stall_bound_when_budget_cannot_reach_the_set(
    monkeypatch,
):
    dic = gen_dictionary(60, 6, 10)
    far = IntervalSet(np.full(6, 50.0), np.full(6, 50.0))
    _inner_budget(monkeypatch, 1, 1e-14)
    _, res = inner_projection(dic, far, np.zeros(10))
    assert res > 1e-3


def test_projection_of_a_non_finite_point_returns_a_nan_residual(monkeypatch):
    dic, iset = _clip_instance(68)
    _inner_budget(monkeypatch, 5, 1e-8)
    _, res = inner_projection(dic, iset, np.full(dic.m, np.nan))
    assert math.isnan(res)


# ----------------------------------------------------------------------
# the inner round against a plain reference


def _reference_inner_projection(dictionary, iset, u, iters, tol):
    """The inner round written plainly, with its penalty of 1: fresh arrays
    every round and scipy's ``cho_solve`` (LAPACK ``potrs``) for the ridge
    solve. Kept as the reference the lean round must match to rounding.

    Returns ``(beta, res, rounds, stalled)``, with the stall decided by the
    reference's own bound of 1e-3.
    """
    factor = dictionary.ridge_cho_factor(1.0)
    matrix = dictionary.matrix
    z = iset.project(matrix @ u)
    w = np.zeros(dictionary.n)
    beta, res, rounds = u, math.inf, 0
    for _ in range(iters):
        rhs = u + matrix.T @ (z - w)
        beta = cho_solve(factor, rhs, check_finite=False)
        image = matrix @ beta
        z = iset.project(image + w)
        w += image - z
        res = float(np.linalg.norm(image - z))
        rounds += 1
        if res <= tol:
            break
    return beta, res, rounds, not res <= 1e-3


def _protocol_case(seed, label):
    dic = gen_dictionary(seed, PROTOCOL["n"], PROTOCOL["m"])
    _, x = gen_sparse_signal(seed + SIGNAL_SEED_OFFSET, dic, PROTOCOL["k_sparse"])
    dspec = DistortionSpec.parse(label)
    return dic, dspec.preimage(dspec.apply(x))


def _counting_solves(monkeypatch):
    rounds = []
    original = solvers.cho_solve

    def counting(*args):
        rounds.append(1)
        return original(*args)

    monkeypatch.setattr(solvers, "cho_solve", counting)
    return rounds


@pytest.mark.parametrize("label", ["clip:0.6", "quant:4"])
@pytest.mark.parametrize("seed", [0, 1])
def test_inner_projection_matches_the_reference_round(monkeypatch, seed, label):
    dic, iset = _protocol_case(seed, label)
    iters, tol = 50, 1e-8
    _inner_budget(monkeypatch, iters, tol)
    rng = np.random.Generator(np.random.PCG64(seed))
    rounds = _counting_solves(monkeypatch)
    for u in (np.zeros(dic.m), 0.1 * rng.standard_normal(dic.m)):
        ref_beta, _, ref_rounds, ref_stalled = _reference_inner_projection(
            dic, iset, u, iters, tol
        )
        rounds.clear()
        beta, res = inner_projection(dic, iset, u)
        stalled = not res <= solvers._STALL_RES
        assert len(rounds) == ref_rounds
        assert stalled == ref_stalled
        if not stalled:
            np.testing.assert_allclose(
                beta, ref_beta, rtol=0, atol=1e-12 * float(np.abs(ref_beta).max())
            )


@pytest.mark.parametrize("label", ["clip:0.6", "quant:4"])
@pytest.mark.parametrize("seed", [0, 1])
def test_admm_matches_the_reference_round_in_stops(monkeypatch, seed, label):
    dic, iset = _protocol_case(seed, label)
    config = AdmmConfig(max_iter=20)
    beta, trace = solve_admm_constrained(dic, iset, config)

    def reference(*args):
        budget = (solvers._INNER_ITERS, solvers._INNER_TOL)
        ref_beta, res, _, _ = _reference_inner_projection(*args, *budget)
        return ref_beta, res

    monkeypatch.setattr(solvers, "inner_projection", reference)
    ref_beta, ref_trace = solve_admm_constrained(dic, iset, config)
    assert trace.stop_reason == ref_trace.stop_reason
    assert trace.iterations_run == ref_trace.iterations_run
    np.testing.assert_allclose(trace.objective_per_iter, ref_trace.objective_per_iter, rtol=1e-9)
    np.testing.assert_allclose(beta, ref_beta, rtol=0, atol=1e-9 * float(np.abs(ref_beta).max()))


def test_cho_solve_matches_scipy_in_place():
    rng = np.random.Generator(np.random.PCG64(70))
    a = rng.standard_normal((9, 9))
    spd = np.asfortranarray(a @ a.T + 9.0 * np.eye(9))
    factor = cho_factor(spd, lower=True)
    rhs = rng.standard_normal(9)
    x = rhs.copy()
    got = solvers.cho_solve(factor, x)
    assert got is x
    np.testing.assert_allclose(x, cho_solve(factor, rhs), rtol=1e-12)


def test_cho_solve_results_start_on_a_cache_line(monkeypatch):
    # each round synthesizes from the ridge solution, and BLAS reads a
    # vector that starts on a 64-byte boundary at full speed
    seen = []
    original = solvers.cho_solve

    def recording(*args):
        out = original(*args)
        seen.append((out.ctypes.data % 64, out is args[1]))
        return out

    monkeypatch.setattr(solvers, "cho_solve", recording)
    dic, iset = _clip_instance(71, n=16, m=32, k=3)
    solve_admm_constrained(dic, iset, AdmmConfig(max_iter=3))
    assert seen
    # the solution is the aligned right-hand side it was given
    assert set(seen) == {(0, True)}


def test_ridge_factor_is_fortran_ordered():
    # trsv reads a Fortran-ordered factor in place; any other layout would
    # be copied, M x M doubles, on every solve
    c, lower = gen_dictionary(69, 16, 32).ridge_cho_factor(1.0)
    assert lower
    assert c.flags["F_CONTIGUOUS"]


# ----------------------------------------------------------------------
# outer loop


def test_zero_target_returns_zero_coefficients():
    dic = gen_dictionary(65, 6, 10)
    iset = IntervalSet(np.zeros(6), np.zeros(6))
    beta, trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=200))
    assert float(np.linalg.norm(beta)) == 0.0
    assert trace.converged


def test_matches_linear_program_oracle(monkeypatch):
    _inner_budget(monkeypatch, 100, 1e-10)
    _outer_tolerance(monkeypatch, 1e-7)
    config = AdmmConfig(max_iter=4000)
    for seed in (100, 101, 102):
        dic, iset = _clip_instance(seed)
        beta, _ = solve_admm_constrained(dic, iset, config)
        reference = min_l1_via_lp(dic, iset)
        assert float(np.abs(beta).sum()) == pytest.approx(reference, abs=1e-5)
        _assert_in_box(iset, dic.synthesize(beta), tol=1e-6)


def test_trace_records_l1_history(monkeypatch):
    dic, iset = _clip_instance(66)
    _outer_tolerance(monkeypatch, 0.0)
    _, trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=30))
    assert trace.iterations_run == 30
    assert len(trace.objective_per_iter) == 30
    assert (trace.objective_per_iter >= 0.0).all()
    assert not trace.converged
    assert trace.stop_reason == "max_iter"


@pytest.mark.parametrize(
    "label, max_iter, stop_reason",
    [("quant:4", 400, "inner_stall"), ("clip:0.6", 5, "max_iter")],
)
def test_trace_objective_is_the_l1_norm_of_the_returned_point(label, max_iter, stop_reason):
    # quant:4 stalls after 3 outer iterations, whose last soft-thresholded
    # iterate is all zeros while the returned point is not
    dic, iset = _protocol_case(0, label)
    beta, trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=max_iter))
    assert trace.stop_reason == stop_reason
    assert trace.iterations_run > 0
    l1 = np.abs(beta).sum()
    assert trace.objective_per_iter[-1] == l1
    assert result_to_json_obj(beta, trace)["objective"] == l1


def test_wall_time_excludes_the_ridge_factorization(monkeypatch):
    # The factor is setup, like the relaxed solvers' Lipschitz estimate, so
    # a slow factorization must not show in the solve's wall time.
    factor = operators.cho_factor

    def slow_factor(a):
        time.sleep(0.2)
        return factor(a)

    monkeypatch.setattr(operators, "cho_factor", slow_factor)
    dic, iset = _clip_instance(61)
    _, trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=1))
    assert trace.iterations_run == 1
    assert trace.wall_time_seconds < 0.2


def test_unreachable_inner_budget_reports_failure_not_exception(monkeypatch):
    dic, iset = _clip_instance(60, n=6, m=10)
    _inner_budget(monkeypatch, 1, 1e-14)
    beta, trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=50))
    assert not trace.converged
    assert trace.stop_reason == "inner_stall"
    assert trace.iterations_run == len(trace.objective_per_iter)
    assert beta.shape == (dic.m,)


@pytest.mark.parametrize("stall_res", [math.nan, 2e-3])
def test_a_stalled_projection_ends_the_solve_at_the_best_point_before_it(monkeypatch, stall_res):
    # the k-th projection returns its point with a residual that misses the
    # stall bound: the solve stops there, records the k - 1 iterations
    # before it, and returns the best of their points, as a solve given a
    # budget of k - 1 does
    dic, iset = _clip_instance(66)
    _outer_tolerance(monkeypatch, 0.0)
    k = 4
    ref_beta, ref_trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=k - 1))
    assert ref_trace.stop_reason == "max_iter"

    calls = []
    original = solvers.inner_projection

    def stalling(*args):
        calls.append(1)
        beta, res = original(*args)
        return beta, stall_res if len(calls) == k else res

    monkeypatch.setattr(solvers, "inner_projection", stalling)
    beta, trace = solve_admm_constrained(dic, iset, AdmmConfig(max_iter=50))
    assert trace.stop_reason == "inner_stall"
    assert len(calls) == k
    assert len(trace.objective_per_iter) == k - 1
    assert trace.objective_per_iter.tobytes() == ref_trace.objective_per_iter.tobytes()
    assert beta.tobytes() == ref_beta.tobytes()


def test_rejects_mismatched_set_length():
    dic = gen_dictionary(67, 5, 8)
    wrong = IntervalSet(np.zeros(4), np.ones(4))
    with pytest.raises(DimensionMismatch):
        solve_admm_constrained(dic, wrong)


def test_admm_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(max_iter=0)
    for value in (2.5, 50.0, np.nan, True):
        with pytest.raises(ValueError, match="max_iter"):
            AdmmConfig(max_iter=value)
    assert AdmmConfig(max_iter=np.int32(9)).max_iter == 9
