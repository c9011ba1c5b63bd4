"""Synthetic benchmark protocol: data generation, sweeps, aggregation.

Reproducibility contract
------------------------
All randomness flows through PCG64 (numpy's documented, versioned bit
generator) seeded explicitly. Normal variates are produced by inverse-CDF
sampling of a 53-bit uniform rather than numpy's ziggurat so the draw
sequence is pinned by this module, not by numpy internals: the ziggurat
tables are an implementation detail numpy is free to change. The inverse
CDF is this module's port of Cephes' ndtri, which returns the bits that
scipy.special.ndtri returns, so data generation loads no scipy module.
Support sets come from a partial Fisher-Yates shuffle driven by the same
generator. Trial t uses seed + t for its dictionary and
seed + t + SIGNAL_SEED_OFFSET for its signal, so the two streams never
overlap and the shared-dictionary mode can reuse the base seed without
touching the signal sequence.

Aggregation is an ordered reduction over trial indices, so running the
trials in a process pool cannot change any reported number.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import WorkerDied
from .feasibility import _as_vector, _count
from .operators import Dictionary, DistortionSpec
from .solvers import (
    AdmmConfig,
    SolverConfig,
    solve_admm_constrained,
    solve_fista,
    solve_ista,
)

SIGNAL_SEED_OFFSET = 1 << 32

SOLVER_NAMES = ("ista", "fista", "admm")

SNR_CAP_DB = 300.0

CSV_HEADER = "task,solver,distortion_param,mean_snr_db,std_snr_db,mean_iters,mean_time_s"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_count(seed, "seed")))


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws via inverse CDF of u = (k + 1/2) / 2^53.

    For k >= 2^52 the added half rounds to the even neighbour, so k = 2^53 - 1
    gives u = 1; u is clamped below 1, which changes no other draw. The
    inverse CDF is ``_ndtri``, bit for bit scipy.special.ndtri.
    """
    k = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    u = k.astype(np.float64)
    del k
    u += 0.5
    u *= 2.0**-53
    return _ndtri(np.minimum(u, 1.0 - 2.0**-53, out=u))


# Cephes ndtri (Moshier), as scipy.special.ndtri runs it. P0/Q0 cover
# |y - 1/2| <= 3/8, P1/Q1 the tail x = sqrt(-2 log y) in [2, 8) and P2/Q2
# x in [8, 64), both in z = 1/x. Each Q carries the leading 1 that Cephes'
# p1evl implies, so one Horner loop evaluates every table: 1 * z + q is
# exactly z + q.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
# Elements per block of _ndtri: its temporaries stay near 1 MiB in all.
_NDTRI_BLOCK = 1 << 15


def _horner(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] in Cephes' polevl order."""
    ans = x * coef[0]
    for c in coef[1:-1]:
        ans += c
        ans *= x
    ans += coef[-1]
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    """log through the C library, as compiled Cephes calls it; np.log uses
    its own SIMD routine, which rounds some values differently."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """The inverse of the standard normal CDF, written over y and returned.

    y is a C-contiguous float64 array with 0 < y < 1. Each result has the
    bits of scipy.special.ndtri: the same tables, operation order and
    branch tests, with the tail logarithms from the C library. Blocks keep
    the temporaries small, and index arrays, faster than boolean masks,
    pick each branch's values; the central 73% of values need no logarithm.
    """
    flat = y.reshape(-1)
    for start in range(0, flat.size, _NDTRI_BLOCK):
        b = flat[start : start + _NDTRI_BLOCK]
        upper = b > 1.0 - _EXP_M2
        np.subtract(1.0, b, out=b, where=upper)
        central = b > _EXP_M2
        mid, tail = np.flatnonzero(central), np.flatnonzero(~central)
        w = b[mid]
        w -= 0.5
        w2 = w * w
        b[mid] = (w + w * (w2 * _horner(w2, _P0) / _horner(w2, _Q0))) * _S2PI
        x = np.sqrt(-2.0 * _libm_log(b[tail]))
        x0 = x - _libm_log(x) / x
        x1 = 1.0 / x
        near = x < 8.0
        for sel, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
            z = x1[sel]
            x1[sel] = z * _horner(z, p) / _horner(z, q)
        x = x0 - x1
        b[tail] = np.negative(x, out=x, where=~upper[tail])
    return y


def sample_support(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """k distinct indices from range(m), uniform, by partial Fisher-Yates.
    The caller checks that k is an int from 1 to m."""
    idx = np.arange(m)
    for i in range(k):
        j = i + int(rng.integers(0, m - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:k])


def gen_dictionary(seed: int, n: int, m: int) -> Dictionary:
    """Dictionary with i.i.d. standard normal entries, no column scaling."""
    n, m = _count(n, "n", 1), _count(m, "m", 1)
    rng = make_rng(seed)
    return Dictionary(standard_normal(rng, (n, m)))


def gen_sparse_signal(seed: int, dictionary: Dictionary, k_sparse: int):
    """A k-sparse coefficient vector and its synthesized signal.

    The support is uniform without replacement, the nonzeros are standard
    normal, and both alpha and x = D alpha are divided by the peak magnitude
    of x so that the signal has unit infinity norm. A draw whose signal is
    zero would poison the scaling, so it is resampled; with any nonzero
    column that loop ends with probability one. An all-zero dictionary,
    whose every signal is zero, raises ValueError instead.
    """
    k_sparse = _count(k_sparse, "k_sparse", 1)
    if k_sparse > dictionary.m:
        raise ValueError(f"k_sparse must be at most m = {dictionary.m}, got {k_sparse}")
    if not dictionary.matrix.any():
        raise ValueError("dictionary is all zeros, so every signal it synthesizes is zero")
    rng = make_rng(seed)
    m = dictionary.m
    while True:
        support = sample_support(rng, m, k_sparse)
        values = standard_normal(rng, k_sparse)
        alpha = np.zeros(m)
        alpha[support] = values
        x = dictionary.synthesize(alpha)
        peak = float(np.max(np.abs(x)))
        if peak > 0.0:
            return alpha / peak, x / peak


def snr_db(reference, estimate) -> float:
    """Reconstruction quality 20 log10(||ref|| / ||ref - est||), capped at 300.

    A non-finite reference or estimate raises ValueError rather than scoring
    NaN, so a diverged solve is counted as a failed run instead of poisoning
    a mean.
    """
    reference = _as_vector(reference, "reference")
    estimate = _as_vector(estimate, "estimate", reference.shape[0])
    for name, vec in (("reference", reference), ("estimate", estimate)):
        if not np.isfinite(vec).all():
            raise ValueError(f"{name} has non-finite entries")
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise ValueError("reference signal must be nonzero")
    err_norm = float(np.linalg.norm(reference - estimate))
    if err_norm == 0.0:
        return SNR_CAP_DB
    return min(20.0 * math.log10(ref_norm / err_norm), SNR_CAP_DB)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one sweep, including the seed. The
    counts are stored as ``int`` and ``shared_dictionary`` as ``bool``."""

    n: int = 256
    m: int = 512
    k_sparse: int = 16
    trials: int = 100
    seed: int = 0
    distortion_grid: tuple = ()
    solvers: tuple = ("ista", "fista")
    solver_config: SolverConfig = SolverConfig()
    admm_config: AdmmConfig = AdmmConfig()
    shared_dictionary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "distortion_grid", tuple(self.distortion_grid))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        for name, floor in (("n", 1), ("m", 1), ("k_sparse", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, floor))
        if self.k_sparse > self.m:
            raise ValueError("k_sparse must lie in [1, m]")
        if not self.distortion_grid:
            raise ValueError("distortion_grid must be non-empty")
        grid = self.distortion_grid
        if not all(isinstance(d, DistortionSpec) for d in grid):
            raise ValueError(f"distortion_grid must hold DistortionSpecs, got {grid}")
        if len(set(grid)) != len(grid):
            labels = ",".join(d.label() for d in grid)
            raise ValueError(f"distortion_grid must not repeat, got {labels}")
        if not isinstance(self.solver_config, SolverConfig):
            raise ValueError(f"solver_config must be a SolverConfig, got {self.solver_config!r}")
        if not isinstance(self.admm_config, AdmmConfig):
            raise ValueError(f"admm_config must be an AdmmConfig, got {self.admm_config!r}")
        if not isinstance(self.shared_dictionary, (bool, np.bool_)):
            raise ValueError(f"shared_dictionary must be a bool, got {self.shared_dictionary!r}")
        object.__setattr__(self, "shared_dictionary", bool(self.shared_dictionary))
        if not self.solvers:
            raise ValueError("solvers must be non-empty")
        for name in self.solvers:
            if name not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {name!r}, expected one of {SOLVER_NAMES}")
        if len(set(self.solvers)) != len(self.solvers):
            raise ValueError(f"solvers must not repeat, got {self.solvers}")


@dataclass(frozen=True)
class PointSummary:
    """Aggregate of one (distortion point, solver) cell across trials.

    ``failure_reasons`` holds ``(reason, count)`` pairs sorted by reason,
    and ``failures`` is the sum of their counts. A reason is ``non_finite``
    for a solve whose trace stopped on that reason, otherwise the type name
    of the exception the solve (or the SNR of its estimate) raised.
    """

    distortion: DistortionSpec
    solver: str
    mean_snr_db: float
    std_snr_db: float
    mean_iterations: float
    mean_wall_time_s: float
    failure_reasons: tuple

    @property
    def failures(self) -> int:
        return sum(count for _, count in self.failure_reasons)


@dataclass(frozen=True)
class AggregateResult:
    input_snr_db: tuple
    per_point: tuple
    trials: int


def run_solver(name, dictionary, iset, solver_config, admm_config):
    """Run the solver called ``name`` (one of ``SOLVER_NAMES``): ``ista``
    and ``fista`` with ``solver_config``, ``admm`` with ``admm_config``."""
    if name == "ista":
        return solve_ista(dictionary, iset, solver_config)
    if name == "fista":
        return solve_fista(dictionary, iset, solver_config)
    if name == "admm":
        return solve_admm_constrained(dictionary, iset, admm_config)
    raise ValueError(f"unknown solver {name!r}, expected one of {SOLVER_NAMES}")


# The shared dictionary of the sweep a pool worker process serves, set once
# per worker by _init_worker, so that work items need not carry it and the
# values it caches carry over from trial to trial within the worker.
_worker_dictionary: Dictionary | None = None


def _init_worker(dictionary: Dictionary | None) -> None:
    global _worker_dictionary
    _worker_dictionary = dictionary


def _trial_worker(args):
    """One full trial: generate data, sweep the grid, run every solver.

    Top level so it pickles into worker processes. ``args`` is
    ``(spec, trial, dictionary)``. With ``spec.shared_dictionary`` the
    dictionary is the sweep's shared one, or None in a pool worker, which
    then uses the one its initializer received; otherwise it is None and
    the trial draws its own. Returns, per grid point, the input SNR and
    per-solver (snr, iterations, wall_time, failure) tuples, with failure
    None for a good run. A solve whose trace stopped on ``non_finite`` is
    recorded as failed with that reason, one that raises with its
    exception's type name, and the sweep continues.
    """
    spec, trial, dictionary = args
    if dictionary is None:
        if spec.shared_dictionary:
            dictionary = _worker_dictionary
        else:
            dictionary = gen_dictionary(spec.seed + trial, spec.n, spec.m)
    _, x = gen_sparse_signal(spec.seed + trial + SIGNAL_SEED_OFFSET, dictionary, spec.k_sparse)

    points = []
    for dspec in spec.distortion_grid:
        y = dspec.apply(x)
        iset = dspec.preimage(y)
        input_snr = snr_db(x, y)
        cells = {}
        for name in spec.solvers:
            try:
                coeffs, trace = run_solver(
                    name, dictionary, iset, spec.solver_config, spec.admm_config
                )
                if trace.stop_reason == "non_finite":
                    cells[name] = (0.0, 0.0, 0.0, "non_finite")
                    continue
                x_hat = dictionary.synthesize(coeffs)
                cells[name] = (
                    snr_db(x, x_hat),
                    float(trace.iterations_run),
                    float(trace.wall_time_seconds),
                    None,
                )
            except Exception as exc:
                cells[name] = (0.0, 0.0, 0.0, type(exc).__name__)
        points.append((input_snr, cells))
    return points


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> AggregateResult:
    """Run the sweep and reduce across trials in index order.

    ``jobs`` sizes the process pool; 1 runs everything in this process. The
    reduction is identical either way. With ``spec.shared_dictionary`` the
    dictionary is drawn once here and handed to every trial, so the values
    it caches (the Lipschitz estimate, the ridge factors) carry over from
    trial to trial within a process. A pool hands it to each worker once,
    through the pool's initializer, so each worker computes those values at
    most once and the work items stay small. A pool worker that dies raises
    :class:`WorkerDied`.
    """
    jobs = _count(jobs, "jobs", 1)
    shared = gen_dictionary(spec.seed, spec.n, spec.m) if spec.shared_dictionary else None
    if jobs == 1 or spec.trials == 1:
        trial_results = [_trial_worker((spec, t, shared)) for t in range(spec.trials)]
    else:
        # imported here, so that a process that runs no pool never loads
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, spec.trials),
                initializer=_init_worker,
                initargs=(shared,),
            ) as pool:
                work = [(spec, t, None) for t in range(spec.trials)]
                trial_results = list(pool.map(_trial_worker, work))
        except BrokenProcessPool as exc:
            raise WorkerDied(f"a worker process of the sweep died: {exc}") from exc

    input_means = []
    summaries = []
    for p, dspec in enumerate(spec.distortion_grid):
        input_means.append(float(np.mean([trial_results[t][p][0] for t in range(spec.trials)])))
        for name in spec.solvers:
            cells = [trial_results[t][p][1][name] for t in range(spec.trials)]
            good = [c for c in cells if c[3] is None]
            reasons = Counter(c[3] for c in cells if c[3] is not None)
            if good:
                snrs = np.asarray([c[0] for c in good])
                mean_snr = float(np.mean(snrs))
                std_snr = float(np.std(snrs))
                mean_iters = float(np.mean([c[1] for c in good]))
                mean_time = float(np.mean([c[2] for c in good]))
            else:
                mean_snr = std_snr = mean_iters = mean_time = float("nan")
            summaries.append(
                PointSummary(
                    distortion=dspec,
                    solver=name,
                    mean_snr_db=mean_snr,
                    std_snr_db=std_snr,
                    mean_iterations=mean_iters,
                    mean_wall_time_s=mean_time,
                    failure_reasons=tuple(sorted(reasons.items())),
                )
            )
    return AggregateResult(
        input_snr_db=tuple(input_means),
        per_point=tuple(summaries),
        trials=spec.trials,
    )


@dataclass(frozen=True)
class TimingRow:
    """One solver's wall times on one task, and its cells' failure reasons
    summed in ``PointSummary.failure_reasons``'s form."""

    task: str
    solver: str
    mean_wall_time_s: float
    total_wall_time_s: float
    failure_reasons: tuple


def run_timing_table(
    base: ExperimentSpec,
    clip_thetas=(0.6,),
    quant_bits=(4,),
    jobs: int = 1,
):
    """Mean solver wall time per task, in the two-task three-solver layout.

    Runs one sweep of ``base``'s solvers over the clip levels ``clip_thetas``
    then the bit depths ``quant_bits``, so each trial's instance serves both
    tasks. Each row averages over every (grid point, trial) run of one solver
    on one task; a task with an empty grid gets no rows.
    """
    grid = tuple(DistortionSpec.clipping(t) for t in clip_thetas) + tuple(
        DistortionSpec.quantization(b) for b in quant_bits
    )
    result = run_experiment(replace(base, distortion_grid=grid), jobs=jobs)
    rows = []
    for task in dict.fromkeys(d.task for d in grid):
        for name in base.solvers:
            cells = [s for s in result.per_point if (s.distortion.task, s.solver) == (task, name)]
            runs = [base.trials - s.failures for s in cells]
            total = sum(s.mean_wall_time_s * r for s, r in zip(cells, runs) if r)
            mean = total / sum(runs) if any(runs) else float("nan")
            reasons = sum((Counter(dict(s.failure_reasons)) for s in cells), Counter())
            rows.append(TimingRow(task, name, mean, total, tuple(sorted(reasons.items()))))
    return rows


# ----------------------------------------------------------------------
# result files


def _atomic_write_text(path, text: str) -> None:
    """Write whole-file-or-nothing via a temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(value: float) -> str:
    # repr of a python float is the shortest round-trip form, which is both
    # exact and stable across runs; never let numpy scalars reach here, their
    # repr carries the dtype.
    return repr(float(value))


def _write_csv(path, header: str, rows) -> None:
    """Write a table atomically: the header line, then each row's fields
    joined by commas, one line per row."""
    _atomic_write_text(path, "\n".join([header, *(",".join(row) for row in rows)]) + "\n")


def write_results_csv(path, result: AggregateResult, include_times: bool = False) -> None:
    """Emit the sweep CSV. Wall times are measurements, so by default the
    time column holds NA to keep repeated runs byte-identical; pass
    ``include_times=True`` to record them."""
    rows = []
    for s in result.per_point:
        numbers = (s.distortion.param, s.mean_snr_db, s.std_snr_db, s.mean_iterations)
        time = _fmt(s.mean_wall_time_s) if include_times else "NA"
        rows.append([s.distortion.task, s.solver, *map(_fmt, numbers), time])
    _write_csv(path, CSV_HEADER, rows)


def write_timing_csv(path, rows) -> None:
    fields = ([r.task, r.solver, _fmt(r.mean_wall_time_s), _fmt(r.total_wall_time_s)] for r in rows)
    _write_csv(path, "task,solver,mean_wall_time_s,total_wall_time_s", fields)
