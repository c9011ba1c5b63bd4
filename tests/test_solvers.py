"""Proximal solvers: proximal map, engine mechanics, the certificate."""

import json
import math

import numpy as np
import pytest

from sparse_consist import (
    SIGNAL_SEED_OFFSET,
    DimensionMismatch,
    Dictionary,
    DistortionSpec,
    ExperimentSpec,
    IntervalSet,
    SolverConfig,
    SolverTrace,
    certificate,
    gen_dictionary,
    gen_sparse_signal,
    soft_threshold,
    solve_fista,
    solve_ista,
)
from sparse_consist.cli import result_to_json_obj


def _clip_instance(seed, n=12, m=24, k=3, theta=0.5):
    dic = gen_dictionary(seed, n, m)
    _, x = gen_sparse_signal(seed + SIGNAL_SEED_OFFSET, dic, k)
    dspec = DistortionSpec.clipping(theta)
    return dic, dspec.preimage(dspec.apply(x)), x


def _one_ista_step(dic, iset, lam):
    """A single forward-backward update from the zero vector."""
    cfg = SolverConfig(lam=lam, max_iter=1, rel_tol=0.0)
    out, _ = solve_ista(dic, iset, cfg)
    return out


# ----------------------------------------------------------------------
# proximal map


def test_soft_threshold_examples():
    v = np.array([2.0, -0.5, 0.0])
    np.testing.assert_array_equal(soft_threshold(1.0, v), [1.0, 0.0, 0.0])


def test_soft_threshold_zero_rho_is_identity():
    v = np.array([0.3, -1.7, 0.0])
    np.testing.assert_array_equal(soft_threshold(0.0, v), v)


def test_soft_threshold_kills_entries_at_the_boundary():
    np.testing.assert_array_equal(soft_threshold(0.3, np.array([-0.3, 0.3])), [0.0, 0.0])


def test_soft_threshold_is_shrinkage():
    rng = np.random.Generator(np.random.PCG64(2))
    v = rng.standard_normal(50)
    out = soft_threshold(0.2, v)
    assert (np.abs(out) <= np.abs(v)).all()
    assert (np.sign(out) * np.sign(v) >= 0).all()


# ----------------------------------------------------------------------
# certificate objective and single step


def test_objective_is_zero_for_feasible_zero():
    dic = Dictionary(np.eye(3))
    iset = IntervalSet(-np.ones(3), np.ones(3))
    assert certificate(dic, iset, np.zeros(3), lam=0.5)[0] == 0.0


def test_objective_singleton_matches_least_squares_form():
    dic, _, x = _clip_instance(21, n=6, m=10)
    iset = IntervalSet(x, x)
    rng = np.random.Generator(np.random.PCG64(3))
    alpha = rng.standard_normal(10)
    lam = 0.05
    direct = 0.5 * float(np.sum((dic.synthesize(alpha) - x) ** 2)) + lam * float(
        np.abs(alpha).sum()
    )
    assert certificate(dic, iset, alpha, lam)[0] == pytest.approx(direct, rel=1e-14)


def test_objective_counts_unit_distances():
    # every sample constrained to [1, inf) while the synthesized signal is 0
    n = 4
    dic = Dictionary(np.eye(n))
    iset = IntervalSet(np.ones(n), np.full(n, np.inf))
    assert certificate(dic, iset, np.zeros(n), lam=0.0)[0] == pytest.approx(n / 2)


def test_ista_step_fixes_the_solution():
    # zero is feasible and the l1 term keeps the iterate at zero
    dic = Dictionary(np.eye(3))
    iset = IntervalSet(-np.ones(3), np.ones(3))
    out = _one_ista_step(dic, iset, lam=0.1)
    np.testing.assert_array_equal(out, np.zeros(3))


# ----------------------------------------------------------------------
# full solves


def test_ista_objective_is_monotone():
    # every step descends, the first one from the zero start included
    for seed in (22, 23, 27, 31):
        dic, iset, _ = _clip_instance(seed)
        start = np.zeros(dic.m)
        for lam in (1e-1, 1e-2, 1e-3):
            cfg = SolverConfig(lam=lam, max_iter=300, rel_tol=0.0)
            _, trace = solve_ista(dic, iset, cfg)
            objectives = trace.objective_per_iter
            assert objectives[0] <= certificate(dic, iset, start, lam)[0] + 1e-12
            assert (np.diff(objectives) <= 1e-12).all()


def test_first_accelerated_iterate_is_a_plain_step():
    # momentum only kicks in from the second iteration
    dic, iset, _ = _clip_instance(24)
    cfg = SolverConfig(lam=1e-2, max_iter=1, rel_tol=0.0)
    alpha_fista, _ = solve_fista(dic, iset, cfg)
    expected = _one_ista_step(dic, iset, 1e-2)
    np.testing.assert_array_equal(alpha_fista, expected)


def test_trace_shape_matches_iterations_run():
    dic, iset, _ = _clip_instance(25)
    for solver in (solve_ista, solve_fista):
        _, trace = solver(dic, iset, SolverConfig(max_iter=7, rel_tol=0.0))
        assert trace.iterations_run == 7
        assert len(trace.objective_per_iter) == 7
        assert not trace.converged
        assert trace.stop_reason == "max_iter"
        assert trace.wall_time_seconds >= 0.0


def test_converged_run_reports_convergence():
    dic, iset, _ = _clip_instance(46)
    _, trace = solve_fista(dic, iset, SolverConfig(max_iter=100000, rel_tol=1e-9))
    assert trace.converged
    assert trace.stop_reason == "converged"
    assert trace.iterations_run < 100000


def test_all_solvers_reject_mismatched_set_length():
    dic, _, _ = _clip_instance(29)
    wrong = IntervalSet(np.zeros(dic.n + 1), np.ones(dic.n + 1))
    with pytest.raises(DimensionMismatch):
        solve_ista(dic, wrong)
    with pytest.raises(DimensionMismatch):
        solve_fista(dic, wrong)


def test_unconstrained_box_gives_zero_solution():
    dic, _, _ = _clip_instance(30)
    free = IntervalSet(np.full(dic.n, -np.inf), np.full(dic.n, np.inf))
    alpha, trace = solve_fista(dic, free, SolverConfig(lam=1e-2))
    np.testing.assert_array_equal(alpha, np.zeros(dic.m))
    assert trace.converged


# ----------------------------------------------------------------------
# certificate KKT residual


def test_kkt_residual_at_zero_reports_excess_correlation():
    dic = Dictionary(np.eye(2))
    x = np.array([3.0, -0.5])
    iset = IntervalSet(x, x)
    # gradient at zero is -x, so the violation is max(|x_i| - lam, 0)
    lam = 1.0
    assert certificate(dic, iset, np.zeros(2), lam)[1] == pytest.approx(2.0)
    assert certificate(dic, iset, np.zeros(2), 4.0)[1] == 0.0


def test_kkt_residual_vanishes_at_hand_built_minimizer():
    # D = I, point target x: minimizer is soft_threshold(lam, x)
    x = np.array([2.0, -0.2, 0.7])
    lam = 0.5
    dic = Dictionary(np.eye(3))
    iset = IntervalSet(x, x)
    alpha_star = soft_threshold(lam, x)
    assert certificate(dic, iset, alpha_star, lam)[1] < 1e-14


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kkt_residual_of_a_nan_gradient_off_the_support_is_nan():
    # D alpha overflows to inf, and the zero entry of D's second column
    # turns it into a NaN gradient entry where alpha is zero
    dic = Dictionary(np.array([[1e308, 0.0]]))
    iset = IntervalSet(np.array([-1.0]), np.array([1.0]))
    obj, kkt = certificate(dic, iset, np.array([10.0, 0.0]), 0.1)
    assert obj == math.inf
    assert math.isnan(kkt)


def test_tighter_tolerance_never_worsens_kkt_residual():
    for seed in (8000, 8001, 8002, 8003, 8004):
        dic, iset, _ = _clip_instance(seed)
        kkts = []
        for rel_tol in (1e-4, 1e-6, 1e-8):
            cfg = SolverConfig(lam=1e-2, max_iter=200000, rel_tol=rel_tol)
            _, trace = solve_fista(dic, iset, cfg)
            kkts.append(trace.kkt_residual_final)
        assert kkts[0] + 1e-12 >= kkts[1] >= kkts[2] - 1e-12


def test_vanishing_penalty_drives_iterates_toward_the_set():
    for seed in (8100, 8101, 8102, 8103, 8104):
        dic, iset, _ = _clip_instance(seed)
        dists = []
        for lam in (1e-1, 1e-2, 1e-3, 1e-4):
            cfg = SolverConfig(lam=lam, max_iter=200000, rel_tol=1e-12)
            alpha, _ = solve_fista(dic, iset, cfg)
            # with lam = 0 the objective is half the squared distance
            dists.append(2.0 * certificate(dic, iset, alpha, 0.0)[0])
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-10


# ----------------------------------------------------------------------
# configuration and serialization


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=-1e-3)
    for bad in (
        dict(lam=math.nan),
        dict(lam=math.inf),
        dict(rel_tol=math.nan),
        dict(max_iter=2.5),
        dict(max_iter=400.0),
        dict(lam="0.1"),
        dict(lam=None),
        dict(rel_tol="0"),
        dict(rel_tol=None),
        dict(max_iter=True),
        dict(lam=True),
        dict(rel_tol=False),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(max_iter=np.int64(7)).max_iter == 7
    assert SolverConfig(lam=np.float32(0.5)).lam == 0.5
    assert type(SolverConfig(lam=np.float32(0.5)).lam) is float
    assert SolverConfig() == SolverConfig()
    assert hash(SolverConfig()) == hash(SolverConfig())
    assert SolverConfig() != SolverConfig(lam=0.5)
    grid = (DistortionSpec.clipping(0.5),)
    assert len({ExperimentSpec(distortion_grid=grid), ExperimentSpec(distortion_grid=grid)}) == 1


def test_result_json_round_trip():
    dic, iset, _ = _clip_instance(46)
    alpha, trace = solve_fista(dic, iset, SolverConfig(max_iter=20, rel_tol=0.0))
    fields = json.loads(json.dumps(result_to_json_obj(alpha, trace)))
    np.testing.assert_array_equal(fields["alpha"], alpha)
    assert fields["iterations"] == trace.iterations_run
    assert fields["converged"] == trace.converged
    assert fields["objective"] == trace.objective_per_iter[-1]
    assert fields["kkt_residual"] == trace.kkt_residual_final
    assert fields["wall_time_s"] == trace.wall_time_seconds
    assert fields["stop_reason"] == "max_iter"


def test_non_finite_numbers_become_json_null():
    trace = SolverTrace(
        objective_per_iter=np.array([1.0, np.nan]),
        wall_time_seconds=0.5,
        kkt_residual_final=np.inf,
        stop_reason="non_finite",
    )
    alpha = np.array([np.nan, -np.inf, 2.5])
    # allow_nan=False raises on any NaN or infinity left in the object
    fields = json.loads(json.dumps(result_to_json_obj(alpha, trace), allow_nan=False))
    assert fields["alpha"] == [None, None, 2.5]
    assert fields["objective"] is None
    assert fields["kkt_residual"] is None
    assert fields["iterations"] == 2
