"""Benchmark protocol: generators, SNR metric, sweeps, result files."""

import concurrent.futures
import math
import pickle
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import sparse_consist.experiments as exps
import sparse_consist.operators as operators
import sparse_consist.solvers as solvers
from sparse_consist import (
    SIGNAL_SEED_OFFSET,
    AdmmConfig,
    Dictionary,
    DimensionMismatch,
    DistortionSpec,
    ExperimentSpec,
    SolverConfig,
    gen_dictionary,
    gen_sparse_signal,
    run_experiment,
    run_timing_table,
    snr_db,
    write_results_csv,
    write_timing_csv,
)
from sparse_consist.experiments import _ndtri, make_rng, sample_support, standard_normal


def _small_spec(**overrides):
    base = dict(
        n=16,
        m=32,
        k_sparse=3,
        trials=3,
        seed=5,
        distortion_grid=(DistortionSpec.clipping(0.5), DistortionSpec.quantization(3)),
        solvers=("ista", "fista"),
        solver_config=SolverConfig(lam=1e-2, max_iter=50, tol=0.0),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------------
# random draws


def test_normal_draws_are_seed_deterministic():
    a = standard_normal(make_rng(123), 100)
    b = standard_normal(make_rng(123), 100)
    c = standard_normal(make_rng(124), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.isfinite(a).all()
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            make_rng(bad)


def test_normal_draws_match_shape_argument():
    assert standard_normal(make_rng(0), (3, 5)).shape == (3, 5)


class _FixedIntegers:
    """A generator stub whose integer draws all equal ``k``."""

    def __init__(self, k):
        self.k = k

    def integers(self, low, high, size, dtype):
        return np.full(size, self.k, dtype=dtype)


def test_the_largest_integer_draw_stays_finite():
    # 2**53 - 1 + 0.5 rounds to 2**53 in float64, which would make u = 1 and
    # the draw +inf; it is clamped to the largest double below 1
    top = standard_normal(_FixedIntegers(2**53 - 1), 3)
    assert np.array_equal(top, np.full(3, ndtri(1.0 - 2.0**-53)))
    assert np.isfinite(top).all()
    # the next draw down is unchanged
    below = standard_normal(_FixedIntegers(2**53 - 2), 1)
    assert below[0] == ndtri(1.0 - 2.0**-52) < top[0]


def _scipy_normal(rng, size):
    """The draw as standard_normal makes it, with scipy's ndtri as the oracle."""
    k = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    u = (k.astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(u, 1.0 - 2.0**-53))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_normal_draws_match_scipy_ndtri_bit_for_bit_at_protocol_size():
    # ten 256 x 512 dictionaries: 1.3M draws, about 355k of them in the tails
    for seed in range(0, 10_000, 1_000):
        own = standard_normal(make_rng(seed), (256, 512))
        assert _same_bits(own, _scipy_normal(make_rng(seed), (256, 512))), seed


@settings(max_examples=300)
@given(st.integers(0, 2**53 - 1))
def test_normal_draws_match_scipy_ndtri_for_any_integer_draw(k):
    assert _same_bits(standard_normal(_FixedIntegers(k), 2), _scipy_normal(_FixedIntegers(k), 2))


def test_ndtri_matches_scipy_at_its_branch_boundaries():
    # k = 0 gives u = 2**-54, where z = sqrt(-2 log u) >= 8 picks the P2/Q2 table
    assert _same_bits(standard_normal(_FixedIntegers(0), 1), ndtri([2.0**-54]))
    exp_m2 = 0.13533528323661269189
    around = [
        math.exp(-32),
        # the largest y whose z rounds to 8 and the next double up, with z < 8
        1.2664165549094198e-14,
        1.2664165549094199e-14,
        exp_m2,
        1.0 - exp_m2,
        1.0 - math.exp(-32),
    ]
    u = [np.nextafter(v, side) for v in around for side in (0.0, 1.0)]
    u += around + [2.0**-54, 0.5, 1.0 - 2.0**-53]
    u = np.array(u)
    assert _same_bits(_ndtri(u.copy()), ndtri(u))


def test_support_sampling_contract():
    rng = make_rng(7)
    for _ in range(50):
        s = sample_support(rng, 20, 6)
        assert s.shape == (6,)
        assert len(set(s.tolist())) == 6
        assert (np.diff(s) > 0).all()
        assert s.min() >= 0 and s.max() < 20
    assert np.array_equal(sample_support(make_rng(1), 5, 5), np.arange(5))


def test_support_sampling_covers_all_indices():
    rng = make_rng(8)
    seen = np.zeros(10, dtype=int)
    for _ in range(400):
        seen[sample_support(rng, 10, 2)] += 1
    assert (seen > 0).all()


# ----------------------------------------------------------------------
# instance generators


def test_dictionary_moments_at_protocol_scale():
    d = gen_dictionary(0, 256, 512).matrix
    assert -0.02 < float(d.mean()) < 0.02
    assert 0.98 < float(d.var()) < 1.02


def test_dictionary_is_seed_deterministic():
    a = gen_dictionary(9, 8, 16).matrix
    b = gen_dictionary(9, 8, 16).matrix
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_dictionary(10, 8, 16).matrix)


def test_dictionary_rejects_empty_shapes():
    for n in (0, 2.5, True):
        with pytest.raises(ValueError):
            gen_dictionary(0, n, 4)


def test_sparse_signal_contract():
    dic = gen_dictionary(11, 24, 48)
    alpha, x = gen_sparse_signal(11 + SIGNAL_SEED_OFFSET, dic, 5)
    assert int(np.count_nonzero(alpha)) == 5
    assert abs(float(np.max(np.abs(x))) - 1.0) <= 1e-15
    np.testing.assert_allclose(dic.synthesize(alpha), x, rtol=1e-12, atol=1e-14)
    again, _ = gen_sparse_signal(11 + SIGNAL_SEED_OFFSET, dic, 5)
    assert np.array_equal(alpha, again)
    # every signal of an all-zero dictionary is zero, so no draw can be scaled
    with pytest.raises(ValueError, match="all zeros"):
        gen_sparse_signal(0, Dictionary(np.zeros((4, 8))), 2)
    # the refusals name the caller's argument, not sample_support's
    for k_sparse, match in (
        (True, "k_sparse must be an integer, got True"),
        (0, "k_sparse must be at least 1, got 0"),
        (49, "k_sparse must be at most m = 48, got 49"),
    ):
        with pytest.raises(ValueError, match=match):
            gen_sparse_signal(0, dic, k_sparse)


# ----------------------------------------------------------------------
# SNR metric


def test_snr_examples():
    ref = np.array([3.0, 4.0])
    assert snr_db(ref, ref) == 300.0
    # error with the same norm as the reference: 0 dB
    assert snr_db(ref, ref + np.array([5.0, 0.0])) == pytest.approx(0.0)
    # error a tenth of the reference norm: 20 dB
    assert snr_db(ref, ref * 0.9) == pytest.approx(20.0)


def test_snr_caps_near_perfect_recovery():
    ref = np.ones(4)
    assert snr_db(ref, ref + 1e-300) == 300.0


def test_snr_validates_inputs():
    with pytest.raises(DimensionMismatch):
        snr_db(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        snr_db(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        snr_db(np.ones(3), np.array([1.0, np.nan, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="reference"):
            snr_db(np.array([bad, 1.0]), np.ones(2))


# ----------------------------------------------------------------------
# sweeps


def test_spec_validation():
    with pytest.raises(ValueError):
        _small_spec(distortion_grid=())
    with pytest.raises(ValueError):
        _small_spec(solvers=("ista", "newton"))
    with pytest.raises(ValueError):
        _small_spec(trials=0)
    with pytest.raises(ValueError):
        _small_spec(k_sparse=33)
    with pytest.raises(ValueError, match="repeat"):
        _small_spec(solvers=("fista", "fista"))
    with pytest.raises(ValueError, match="seed"):
        _small_spec(seed=-1)
    with pytest.raises(ValueError, match="distortion_grid"):
        _small_spec(distortion_grid=("clip:0.5",))
    with pytest.raises(ValueError, match="repeat"):
        _small_spec(distortion_grid=(DistortionSpec.clipping(0.5), DistortionSpec.parse("clip:.50")))
    for field in ("n", "m", "k_sparse", "trials", "seed"):
        for bad in (1.5, 3.0, True):
            with pytest.raises(ValueError, match=field):
                _small_spec(**{field: bad})
        assert getattr(_small_spec(**{field: np.int64(3)}), field) == 3
        assert type(getattr(_small_spec(**{field: np.int32(3)}), field)) is int
    # a config of the wrong type would fail every solve, leaving a CSV of nan
    with pytest.raises(ValueError, match="solver_config"):
        _small_spec(solvers=("ista", "admm"), solver_config=None)
    with pytest.raises(ValueError, match="admm_config"):
        _small_spec(solvers=("ista", "admm"), admm_config={"max_iter": 5})
    # a truthy non-bool such as "no" would silently draw a shared dictionary
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="shared_dictionary"):
            _small_spec(shared_dictionary=bad)
    assert _small_spec(shared_dictionary=np.bool_(True)).shared_dictionary
    spec = _small_spec(solvers=["ista"])  # lists are coerced
    assert spec.solvers == ("ista",)
    # run_solver refuses an unknown name too, and lists the known ones
    iset = DistortionSpec.identity().preimage(np.zeros(4))
    with pytest.raises(ValueError, match=re.escape(str(exps.SOLVER_NAMES))):
        exps.run_solver("nope", gen_dictionary(0, 4, 8), iset, SolverConfig(), AdmmConfig())


def test_sweep_is_deterministic_and_ordered():
    spec = _small_spec()
    a = run_experiment(spec)
    b = run_experiment(spec)
    # wall times are measurements; everything else must repeat exactly
    assert a.input_snr_db == b.input_snr_db
    for pa, pb in zip(a.per_point, b.per_point):
        assert (pa.mean_snr_db, pa.std_snr_db, pa.mean_iterations, pa.failures) == (
            pb.mean_snr_db, pb.std_snr_db, pb.mean_iterations, pb.failures
        )
    assert [s.solver for s in a.per_point] == ["ista", "fista", "ista", "fista"]
    assert [s.distortion.label() for s in a.per_point] == [
        "clip:0.5", "clip:0.5", "quant:3", "quant:3",
    ]
    assert a.trials == 3
    assert len(a.input_snr_db) == 2
    assert sum(s.failures for s in a.per_point) == 0
    for s in a.per_point:
        assert math.isfinite(s.mean_snr_db)
        assert s.std_snr_db >= 0.0
        assert s.mean_iterations == 50.0  # tol=0 runs the full budget here


def test_a_numpy_integer_seed_sweeps_like_its_python_twin(tmp_path):
    # in int32 arithmetic, seed + trial + SIGNAL_SEED_OFFSET overflows
    for seed, name in ((7, "int.csv"), (np.int32(7), "int32.csv")):
        write_results_csv(tmp_path / name, run_experiment(_small_spec(seed=seed, trials=2)))
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "int32.csv").read_bytes()


def test_worker_pool_reduces_identically():
    spec = _small_spec()
    serial = run_experiment(spec, jobs=1)
    pooled = run_experiment(spec, jobs=2)
    for a, b in zip(serial.per_point, pooled.per_point):
        assert a.mean_snr_db == b.mean_snr_db
        assert a.std_snr_db == b.std_snr_db
        assert a.mean_iterations == b.mean_iterations
    assert serial.input_snr_db == pooled.input_snr_db
    shared = _small_spec(shared_dictionary=True)
    assert [s.mean_snr_db for s in run_experiment(shared, jobs=2).per_point] == [
        s.mean_snr_db for s in run_experiment(shared, jobs=1).per_point
    ]
    for jobs in (0, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(spec, jobs=jobs)


def test_shared_dictionary_reuses_the_base_draw():
    spec = _small_spec(shared_dictionary=True, trials=2)
    result = run_experiment(spec)
    # trial signals still differ, so the aggregate has nonzero spread
    assert result.per_point[0].std_snr_db > 0.0


def _count_calls(monkeypatch, calls, module, name):
    """Patch ``module.name`` to count its calls in the Counter ``calls``."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def test_shared_dictionary_is_built_and_estimated_once_per_sweep(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, exps, "gen_dictionary")
    _count_calls(monkeypatch, calls, operators, "power_iteration_gram")
    run_experiment(_small_spec(shared_dictionary=True, trials=3))
    assert calls == {"gen_dictionary": 1, "power_iteration_gram": 1}
    calls.clear()
    run_experiment(_small_spec(trials=3))
    assert calls == {"gen_dictionary": 3, "power_iteration_gram": 3}


class _PicklingPool:
    """In-process stand-in for the process pool. Its ``max_workers`` workers
    run in turn, each on every ``max_workers``-th work item; a worker first
    runs the initializer on its own unpickled copy of ``initargs``, and every
    work item makes the same pickle round trip it makes on its way to a
    worker process."""

    def __init__(self, max_workers, initializer, initargs):
        self.workers = max_workers
        self.initializer = initializer
        self.initargs = initargs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        results = [None] * len(items)
        for worker in range(self.workers):
            self.initializer(*pickle.loads(pickle.dumps(self.initargs)))
            for i in range(worker, len(items), self.workers):
                results[i] = fn(pickle.loads(pickle.dumps(items[i])))
        return results


def test_pool_workers_build_the_shared_state_once_each(monkeypatch):
    spec = _small_spec(
        shared_dictionary=True,
        trials=4,
        solvers=("ista", "admm"),
        admm_config=AdmmConfig(max_iter=20),
    )
    serial = run_experiment(spec, jobs=1)
    calls = Counter()
    _count_calls(monkeypatch, calls, operators, "power_iteration_gram")
    _count_calls(monkeypatch, calls, operators, "cho_factor")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PicklingPool)
    monkeypatch.setattr(exps, "_worker_dictionary", None)
    pooled = run_experiment(spec, jobs=2)
    # one Lipschitz estimate and one ridge factor per worker, not per trial
    assert calls == {"power_iteration_gram": 2, "cho_factor": 2}
    assert [s.mean_snr_db for s in pooled.per_point] == [
        s.mean_snr_db for s in serial.per_point
    ]


def test_inner_stall_counts_as_a_success(monkeypatch):
    monkeypatch.setattr(solvers, "_INNER_ITERS", 1)
    monkeypatch.setattr(solvers, "_INNER_TOL", 1e-14)
    reasons = []
    original = exps.solve_admm_constrained

    def recording(*args, **kwargs):
        coeffs, trace = original(*args, **kwargs)
        reasons.append(trace.stop_reason)
        return coeffs, trace

    monkeypatch.setattr(exps, "solve_admm_constrained", recording)
    spec = _small_spec(
        trials=1,
        distortion_grid=(DistortionSpec.clipping(0.5),),
        solvers=("admm",),
        admm_config=AdmmConfig(max_iter=50),
    )
    result = run_experiment(spec)
    assert reasons == ["inner_stall"]
    assert sum(s.failures for s in result.per_point) == 0
    assert result.per_point[0].failure_reasons == ()


def test_failed_solver_runs_are_counted_not_raised(monkeypatch):
    def explode(name, dictionary, iset, solver_config, admm_config):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(exps, "run_solver", explode)
    result = run_experiment(_small_spec(), jobs=1)
    assert sum(s.failures for s in result.per_point) == 3 * 2 * 2  # trials x points x solvers
    for s in result.per_point:
        assert s.failures == 3
        assert s.failure_reasons == (("RuntimeError", 3),)
        assert math.isnan(s.mean_snr_db)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_solves_are_counted_as_failures(monkeypatch):
    # a Lipschitz estimate of 1.0, far below the true constant here, makes
    # the step 1.0, so every relaxed solve blows up
    monkeypatch.setattr(Dictionary, "estimate_lipschitz", lambda self: 1.0)
    spec = _small_spec(
        n=12,
        m=24,
        distortion_grid=(DistortionSpec.clipping(0.5),),
        solver_config=SolverConfig(max_iter=400),
    )
    result = run_experiment(spec, jobs=1)
    assert sum(s.failures for s in result.per_point) == spec.trials * len(spec.solvers)
    for s in result.per_point:
        assert s.failures == spec.trials
        assert s.failure_reasons == (("non_finite", spec.trials),)
        assert math.isnan(s.mean_snr_db)


def _without_times(result):
    """The sweep result with its wall times, which are measurements, zeroed."""
    return (result.input_snr_db, [replace(s, mean_wall_time_s=0.0) for s in result.per_point])


def test_timing_table_layout(monkeypatch):
    sweeps = []

    def capture(spec, jobs=1):
        sweeps.append(run_experiment(spec, jobs=jobs))
        return sweeps[-1]

    monkeypatch.setattr(exps, "run_experiment", capture)
    for shared in (False, True):
        spec = _small_spec(
            trials=2,
            solvers=("ista", "fista", "admm"),
            admm_config=AdmmConfig(max_iter=20),
            shared_dictionary=shared,
        )
        sweeps.clear()
        rows = run_timing_table(spec, clip_thetas=(0.5,), quant_bits=(3,))
        assert [(r.task, r.solver) for r in rows] == [
            (task, name)
            for task in ("declipping", "dequantization")
            for name in ("ista", "fista", "admm")
        ]
        for r in rows:
            assert r.mean_wall_time_s > 0.0
            assert r.total_wall_time_s == pytest.approx(r.mean_wall_time_s * 2, rel=1e-9)
        # one sweep over both grids gives the per-task sweeps' numbers bit for bit
        (sweep,) = sweeps
        clip, quant = (
            _without_times(run_experiment(replace(spec, distortion_grid=(d,))))
            for d in (DistortionSpec.clipping(0.5), DistortionSpec.quantization(3))
        )
        assert _without_times(sweep) == (clip[0] + quant[0], clip[1] + quant[1])


def test_timing_table_builds_each_trial_instance_once(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, exps, "run_experiment")
    _count_calls(monkeypatch, calls, exps, "gen_dictionary")
    _count_calls(monkeypatch, calls, operators, "power_iteration_gram")
    _count_calls(monkeypatch, calls, operators, "cho_factor")
    spec = _small_spec(
        trials=2, solvers=("ista", "fista", "admm"), admm_config=AdmmConfig(max_iter=20)
    )
    run_timing_table(spec, clip_thetas=(0.5,), quant_bits=(3,))
    assert calls == {
        "run_experiment": 1,
        "gen_dictionary": 2,
        "power_iteration_gram": 2,
        "cho_factor": 2,
    }


def test_timing_rows_sum_the_failure_reasons_of_their_cells(monkeypatch):
    calls = Counter()

    def fista_fails(*args):
        calls["fista"] += 1
        raise (RuntimeError if calls["fista"] % 2 else FloatingPointError)("forced failure")

    monkeypatch.setattr(exps, "solve_fista", fista_fails)
    # per trial the fista calls run clip 0.4, clip 0.6, quant 3
    rows = run_timing_table(_small_spec(trials=2), clip_thetas=(0.4, 0.6), quant_bits=(3,))
    assert [(r.task, r.solver, r.failure_reasons) for r in rows] == [
        ("declipping", "ista", ()),
        ("declipping", "fista", (("FloatingPointError", 2), ("RuntimeError", 2))),
        ("dequantization", "ista", ()),
        ("dequantization", "fista", (("FloatingPointError", 1), ("RuntimeError", 1))),
    ]
    assert math.isnan(rows[1].mean_wall_time_s)


def test_timing_table_with_one_task_grid_empty():
    spec = _small_spec(trials=1)
    rows = run_timing_table(spec, clip_thetas=(), quant_bits=(3,))
    assert [(r.task, r.solver) for r in rows] == [
        ("dequantization", "ista"),
        ("dequantization", "fista"),
    ]


# ----------------------------------------------------------------------
# result files


def test_results_csv_layout(tmp_path):
    result = run_experiment(_small_spec())
    path = tmp_path / "bench.csv"
    write_results_csv(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == exps.CSV_HEADER
    assert len(lines) == 1 + 4  # two grid points x two solvers
    first = lines[1].split(",")
    assert first[0] == "declipping"
    assert first[1] == "ista"
    assert float(first[2]) == 0.5
    assert first[6] == "NA"  # wall times are suppressed by default
    # rewriting produces identical bytes
    blob = path.read_bytes()
    write_results_csv(path, result)
    assert path.read_bytes() == blob


def test_fmt_writes_a_float_for_every_real():
    # a float64 prints the same digits under str and repr; an int and a
    # float32 do not
    assert exps._fmt(3) == "3.0"
    assert exps._fmt(np.float32(0.1)) == repr(float(np.float32(0.1)))


def test_results_csv_can_include_times(tmp_path):
    result = run_experiment(_small_spec())
    path = tmp_path / "bench.csv"
    write_results_csv(path, result, include_times=True)
    for line in path.read_text().splitlines()[1:]:
        assert float(line.split(",")[6]) > 0.0


def test_timing_csv_layout(tmp_path):
    rows = run_timing_table(_small_spec(trials=1), clip_thetas=(0.5,), quant_bits=(3,))
    path = tmp_path / "timing.csv"
    write_timing_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,solver,mean_wall_time_s,total_wall_time_s"
    assert len(lines) == 1 + len(rows)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    exps._atomic_write_text(target, "one\n")
    exps._atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    # a failed replace removes its temporary file and re-raises
    (tmp_path / "sub").mkdir()
    with pytest.raises(IsADirectoryError):
        exps._atomic_write_text(tmp_path / "sub", "three\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sub"]


def test_atomic_write_reraises_its_own_error_when_cleanup_fails(tmp_path, monkeypatch):
    # the caller learns why the write failed, not why its cleanup did
    (tmp_path / "sub").mkdir()

    def refuse(path):
        raise PermissionError(path)

    monkeypatch.setattr(exps.os, "unlink", refuse)
    with pytest.raises(IsADirectoryError):
        exps._atomic_write_text(tmp_path / "sub", "text\n")
