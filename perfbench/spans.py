"""Outcome records and in-memory spans around the package's public calls.

Everything here patches names from outside the package: a span is recorded
around each call the benchmark intercepts, and no file of the package is
changed. ``Recorder.install`` swaps the wrappers in and restores the
originals on exit.

Solver outcomes and sweep results are always recorded, because
``failed_frac`` and the correctness checks need them on untraced runs; that
costs one function call per solve. Span wrappers are installed only for a
traced run.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sparse_consist import experiments, feasibility, operators, solvers

SOLVER_FUNCS = {
    "ista": "solve_ista",
    "fista": "solve_fista",
    "admm": "solve_admm_constrained",
}

# (owner, attribute, span name). Methods are patched on the class, module
# functions in the namespace of the module that calls them.
TRACED = (
    (operators.Dictionary, "synthesize", "operators.synthesize"),
    (operators.Dictionary, "correlate", "operators.correlate"),
    (operators.Dictionary, "estimate_lipschitz", "operators.estimate_lipschitz"),
    (operators, "power_iteration_gram", "operators.power_iteration_gram"),
    (operators.Dictionary, "ridge_cho_factor", "operators.ridge_cho_factor"),
    (operators, "cho_factor", "operators.cho_factor"),
    (operators.DistortionSpec, "apply", "operators.distortion"),
    (operators.DistortionSpec, "preimage", "operators.distortion"),
    (feasibility.IntervalSet, "project", "feasibility.project"),
    (solvers, "soft_threshold", "solvers.soft_threshold"),
    (solvers, "inner_projection", "solvers.inner_projection"),
    (solvers, "cho_solve", "solvers.cho_solve"),
    (experiments, "solve_ista", "solvers.ista"),
    (experiments, "solve_fista", "solvers.fista"),
    (experiments, "solve_admm_constrained", "solvers.admm"),
    (experiments, "gen_dictionary", "experiments.gen_dictionary"),
    (experiments, "gen_sparse_signal", "experiments.gen_sparse_signal"),
    (experiments, "_trial_worker", "experiments.trial"),
    (experiments, "snr_db", "experiments.snr_db"),
    (experiments, "run_experiment", "experiments.run_experiment"),
    (experiments, "run_timing_table", "experiments.run_timing_table"),
)

FAILED_OUTCOMES = ("raised", "non_finite", "inner_stall")


def classify(name, config, coeffs, trace) -> str:
    """Why one solve stopped, from its returned estimate and trace."""
    if not np.all(np.isfinite(coeffs)):
        return "non_finite"
    if trace.converged:
        return "converged"
    if name == "admm" and trace.iterations_run < config.max_iter:
        return "inner_stall"
    return "max_iter"


class Recorder:
    """Outcomes, captured sweep results and (when tracing) spans.

    Spans live in four flat arrays indexed by span id: name index, parent id
    (-1 for a root), start and end in ``perf_counter`` seconds. A parent is
    always opened before its children, so a parent id is smaller than the
    ids of its children.
    """

    def __init__(self):
        self.outcomes: list[tuple[str, str, int]] = []
        self.results: list[tuple] = []  # (spec, result) of each sweep
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name, fn):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack,
        )

        def wrapped(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return wrapped

    def _solver(self, name, fn):
        def wrapped(dictionary, iset, config, *args, **kwargs):
            try:
                coeffs, trace = fn(dictionary, iset, config, *args, **kwargs)
            except Exception:
                self.outcomes.append((name, "raised", 0))
                raise
            outcome = classify(name, config, coeffs, trace)
            self.outcomes.append((name, outcome, trace.iterations_run))
            return coeffs, trace

        return wrapped

    def _preimage(self, fn):
        def wrapped(spec, y):
            iset = fn(spec, y)
            self.count("samples", len(iset))
            self.count("boxed", int(np.count_nonzero(iset.lower < iset.upper)))
            return iset

        return wrapped

    def _capture(self, fn):
        def wrapped(spec, jobs=1):
            result = fn(spec, jobs)
            self.results.append((spec, result))
            return result

        return wrapped

    @contextmanager
    def install(self, trace: bool):
        """Patch the package for the duration of the block; spans only
        when ``trace`` is set."""
        saved = []

        def patch(owner, attr, fn):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, fn)

        for name, func in SOLVER_FUNCS.items():
            patch(experiments, func, self._solver(name, getattr(experiments, func)))
        patch(experiments, "run_experiment", self._capture(experiments.run_experiment))
        if trace:
            patch(operators.DistortionSpec, "preimage",
                  self._preimage(operators.DistortionSpec.preimage))
            for owner, attr, name in TRACED:
                patch(owner, attr, self._span(name, getattr(owner, attr)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
