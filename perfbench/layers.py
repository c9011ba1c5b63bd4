"""Per-layer metrics derived from a recorder's spans, outcomes and counters.

A metric whose spans were never reached is left out of the returned dict,
so a caller can report it as absent rather than as zero.
"""

from __future__ import annotations

import numpy as np

RELAXED = ("solvers.ista", "solvers.fista")
SOLVERS = RELAXED + ("solvers.admm",)
DATA_GEN = ("experiments.gen_dictionary", "experiments.gen_sparse_signal")


class SpanTable:
    """Numpy view of spans ``[lo, hi)`` of a recorder, re-based to 0."""

    def __init__(self, rec, lo: int = 0, hi: int | None = None):
        hi = len(rec) if hi is None else hi
        # Copies, so the recorder's arrays do not stay locked by a buffer view.
        self.name = np.frombuffer(rec.name, dtype=np.int32)[lo:hi].copy()
        parent = np.frombuffer(rec.parent, dtype=np.int64)[lo:hi].copy()
        self.parent = np.where(parent >= lo, parent - lo, -1)
        self.start = np.frombuffer(rec.start, dtype=np.float64)[lo:hi].copy()
        self.end = np.frombuffer(rec.end, dtype=np.float64)[lo:hi].copy()
        self.dur = self.end - self.start
        self._ids = {n: i for i, n in enumerate(rec.names)}

    def __len__(self):
        return len(self.name)

    def mask(self, *names) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.name, ids)

    def nearest(self, mask: np.ndarray) -> np.ndarray:
        """Id of each span's nearest proper ancestor in ``mask``, or -1."""
        has_parent = self.parent >= 0
        safe = np.where(has_parent, self.parent, 0)
        # up[i]: nearest ancestor-or-self in mask; one tree level per pass.
        up = np.where(mask, np.arange(len(self)), -1)
        while True:
            nxt = np.where((up < 0) & has_parent, up[safe], up)
            if np.array_equal(nxt, up):
                break
            up = nxt
        return np.where(has_parent, up[safe], -1)

    def covered(self, owners: np.ndarray, members: np.ndarray) -> float:
        """Total time of the member spans that run under an owner span.
        Members never nest in each other, so their times add up."""
        return float(self.dur[members & (self.nearest(owners) >= 0)].sum())


def layer_metrics(t: SpanTable, outcomes, counters, n: int, m: int) -> dict:
    """Every per-layer metric whose spans appear in ``t``."""
    out: dict[str, float] = {}
    trials = int(t.mask("experiments.trial").sum())
    relaxed = t.mask(*RELAXED)
    n_relaxed = int(relaxed.sum())
    in_relaxed = t.nearest(relaxed) >= 0

    def per_call(name, key, scale):
        sel = t.mask(name)
        if sel.any():
            out[key] = float(t.dur[sel].mean() * scale)

    per_call("operators.synthesize", "operators.synthesize.us_per_call", 1e6)
    per_call("operators.correlate", "operators.correlate.us_per_call", 1e6)
    products = t.mask("operators.synthesize", "operators.correlate")
    if n_relaxed:
        for op in ("operators.synthesize", "operators.correlate", "feasibility.project"):
            sel = t.mask(op) & in_relaxed
            if sel.any():
                out[f"{op}.calls_per_solve"] = float(sel.sum() / n_relaxed)
        if (products & in_relaxed).any():
            per_solve = (products & in_relaxed).sum() / n_relaxed
            out["operators.dict_mib_per_solve"] = float(per_solve * n * m * 8 / 2**20)
    if products.any():
        out["operators.gemv.gflops"] = float(
            products.sum() * 2.0 * n * m / t.dur[products].sum() / 1e9
        )

    # Cached calls return at once; only the calls that computed are timed.
    for method, work, key in (
        ("operators.estimate_lipschitz", "operators.power_iteration_gram",
         "operators.estimate_lipschitz"),
        ("operators.ridge_cho_factor", "operators.cho_factor",
         "operators.ridge_cho_factor"),
    ):
        computing = np.zeros(len(t), dtype=bool)
        parents = t.parent[t.mask(work)]
        computing[parents[parents >= 0]] = True
        computing &= t.mask(method)
        if computing.any():
            out[f"{key}.ms_per_call"] = float(t.dur[computing].mean() * 1e3)
            if trials:
                out[f"{key}.calls_per_trial"] = float(computing.sum() / trials)

    per_call("experiments.gen_dictionary", "experiments.gen_dictionary.ms_per_call", 1e3)
    per_call("experiments.gen_sparse_signal", "experiments.gen_sparse_signal.ms_per_call", 1e3)
    distortion = t.mask("operators.distortion")
    if distortion.any() and trials:
        out["operators.distortion.us_per_trial"] = float(
            t.dur[distortion].sum() / trials * 1e6
        )
    per_call("feasibility.project", "feasibility.project.us_per_call", 1e6)
    if counters.get("samples"):
        out["feasibility.boxed_frac"] = counters["boxed"] / counters["samples"]

    child_time = np.bincount(
        t.parent[t.parent >= 0], weights=t.dur[t.parent >= 0], minlength=len(t)
    )
    for solver in ("ista", "fista"):
        sel = t.mask(f"solvers.{solver}")
        runs = [o for o in outcomes if o[0] == solver]
        if not sel.any() or not runs:
            continue
        iters = sum(o[2] for o in runs)
        busy = t.dur[sel].sum()
        out[f"solvers.{solver}.iters_per_solve"] = iters / len(runs)
        if iters:
            out[f"solvers.{solver}.us_per_iter"] = float(busy / iters * 1e6)
        out[f"solvers.{solver}.converged_frac"] = (
            sum(o[1] == "converged" for o in runs) / len(runs)
        )
        out[f"solvers.{solver}.self_frac"] = float(
            (busy - child_time[sel].sum()) / busy
        )
    per_call("solvers.soft_threshold", "solvers.soft_threshold.us_per_call", 1e6)

    admm = t.mask("solvers.admm")
    inner = t.mask("solvers.inner_projection")
    if admm.any():
        out["solvers.admm.outer_per_solve"] = float(
            (inner & (t.nearest(admm) >= 0)).sum() / admm.sum()
        )
        runs = [o for o in outcomes if o[0] == "admm"]
        if runs:
            out["solvers.admm.early_stop_frac"] = (
                sum(o[1] == "inner_stall" for o in runs) / len(runs)
            )
    if inner.any():
        out["solvers.admm.inner_rounds_per_outer"] = float(
            t.mask("solvers.cho_solve").sum() / inner.sum()
        )
    per_call("solvers.inner_projection", "solvers.inner_projection.ms_per_call", 1e3)
    per_call("solvers.cho_solve", "solvers.cho_solve.us_per_call", 1e6)

    sweeps = t.mask("experiments.run_experiment")
    if sweeps.any() and trials:
        wall = t.dur[sweeps].sum()
        solving = t.covered(sweeps, t.mask(*SOLVERS))
        out["experiments.solve_share"] = solving / float(wall)
        out["experiments.self_s_per_trial"] = (
            float(wall) - t.covered(sweeps, t.mask(*SOLVERS, *DATA_GEN))
        ) / trials
    return out
