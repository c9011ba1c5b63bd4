"""Isolated timings of single public calls at the protocol size, and the
facts about the machine that every result is recorded with.

Kernel timings let a later change tell a faster kernel apart from fewer
calls: the traced run counts calls, these time one call on its own.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from time import perf_counter

import numpy as np
import scipy
from scipy.linalg import cho_solve

from sparse_consist import (
    SIGNAL_SEED_OFFSET,
    Dictionary,
    DistortionSpec,
    gen_dictionary,
    gen_sparse_signal,
    soft_threshold,
)


def _per_call(fn, calls: int, batches: int) -> float:
    """Median over batches of the mean seconds per call."""
    fn()
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def kernel_metrics(seed: int, n: int, m: int, k_sparse: int) -> dict:
    """``kernel.*`` metrics: median per-call time of one public call."""
    d = gen_dictionary(seed, n, m)
    _, x = gen_sparse_signal(seed + SIGNAL_SEED_OFFSET, d, k_sparse)
    clip = DistortionSpec.clipping(0.6)
    iset = clip.preimage(clip.apply(x))
    alpha = np.random.default_rng(seed).standard_normal(m)
    r = d.synthesize(alpha)
    lam_step = 1e-2 / d.estimate_lipschitz()

    def gemv_pair():
        d.synthesize(alpha)
        d.correlate(r)

    out = {
        "kernel.gemv_us": _per_call(gemv_pair, 100, 15) / 2 * 1e6,
        "kernel.project_us": _per_call(lambda: iset.project(r), 500, 15) * 1e6,
        "kernel.soft_threshold_us": _per_call(
            lambda: soft_threshold(lam_step, alpha), 500, 15
        ) * 1e6,
    }

    def fresh(method, *args):
        def run():
            fresh_dict = Dictionary(d.matrix)
            t0 = perf_counter()
            getattr(fresh_dict, method)(*args)
            return perf_counter() - t0

        return run

    lipschitz = fresh("estimate_lipschitz")
    out["kernel.lipschitz_ms"] = statistics.median(lipschitz() for _ in range(7)) * 1e3
    factorize = fresh("ridge_cho_factor", 1.0)
    out["kernel.ridge_factor_ms"] = statistics.median(factorize() for _ in range(3)) * 1e3

    # One round of the nested projection, as solvers.inner_projection runs it.
    rho = 1.0
    factor = d.ridge_cho_factor(rho)
    z = iset.project(d.synthesize(alpha))
    w = np.zeros(n)

    def inner_round():
        rhs = alpha + rho * d.correlate(z - w)
        beta = cho_solve(factor, rhs, check_finite=False)
        image = d.synthesize(beta)
        zz = iset.project(image + w)
        float(np.linalg.norm(image - zz))

    out["kernel.admm_inner_round_us"] = _per_call(inner_round, 50, 15) * 1e6
    return out


class Calibration:
    """A fixed numpy kernel, independent of the package, timed between the
    calls of a loop to follow the machine's speed.

    One run is ten proximal-gradient iterations on a clip box (two dense
    products with an N x M matrix, a clamp and a soft threshold, the mix of
    BLAS calls and small array operations of the package's engine) and a
    pure-Python loop: the engine spends about half of each iteration
    outside the dense products, and a kernel of products alone
    over-corrected. Its inputs never change and it calls nothing in the
    package, so a change to the package cannot change its time; only the
    machine can.
    """

    def __init__(self, n: int, m: int):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((n, m))
        y = np.clip(self.a @ rng.standard_normal(m) / np.sqrt(m), -0.6, 0.6)
        self.lo = np.where(y <= -0.6, -np.inf, y)
        self.hi = np.where(y >= 0.6, np.inf, y)
        self.step = 1.0 / np.linalg.norm(self.a, 2) ** 2
        self.measure()

    def _unit(self) -> float:
        # A fresh copy each run: the package allocates a new dictionary per
        # trial, and a buffer kept for the whole process would carry its
        # own placement in memory into every measurement.
        a = self.a.copy()
        t0 = perf_counter()
        alpha = np.zeros(a.shape[1])
        for _ in range(10):
            z = a @ alpha
            g = a.T @ (z - np.minimum(self.hi, np.maximum(self.lo, z)))
            v = alpha - self.step * g
            alpha = np.sign(v) * np.maximum(np.abs(v) - self.step * 1e-2, 0.0)
        acc = 0
        for i in range(4000):
            acc += i * i
        return perf_counter() - t0

    def measure(self, budget_s: float = 0.0) -> float:
        """Median seconds of one run of the kernel, over at least three
        runs and for at least ``budget_s``."""
        times = []
        t0 = perf_counter()
        while len(times) < 3 or perf_counter() - t0 < budget_s:
            times.append(self._unit())
        return statistics.median(times)


def _blas_threads():
    """Default thread count of the loaded OpenBLAS, read through its own
    getter; None when the library or the symbol is not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    """Read-only facts that decide what a timing means on this machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
