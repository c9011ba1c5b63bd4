"""The names the package exports at its top level.

Everything else stays reachable from the module that defines it, such as
``sparse_consist.solvers.inner_projection``. A new export is added here on
purpose, not by accident.
"""

import dataclasses
import types

import sparse_consist
from sparse_consist import AdmmConfig, ExperimentSpec, SolverConfig

EXPORTED = {
    # operators, feasibility, errors
    "Dictionary",
    "DistortionSpec",
    "IntervalSet",
    "DimensionMismatch",
    # solvers
    "AdmmConfig",
    "SolverConfig",
    "SolverTrace",
    "certificate",
    "soft_threshold",
    "solve_admm_constrained",
    "solve_fista",
    "solve_ista",
    # experiments
    "SIGNAL_SEED_OFFSET",
    "AggregateResult",
    "ExperimentSpec",
    "PointSummary",
    "TimingRow",
    "gen_dictionary",
    "gen_sparse_signal",
    "run_experiment",
    "run_solver",
    "run_timing_table",
    "snr_db",
    "write_results_csv",
    "write_timing_csv",
}


def test_the_package_exports_exactly_its_public_names():
    public = {
        name
        for name, value in vars(sparse_consist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTED


def test_each_config_has_exactly_its_settable_fields():
    # a new knob is a setting every test and benchmark has to cover, so it
    # is added here on purpose too
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(SolverConfig) == ("lam", "max_iter", "tol")
    assert names(AdmmConfig) == ("max_iter",)
    assert names(ExperimentSpec) == (
        "n",
        "m",
        "k_sparse",
        "trials",
        "seed",
        "distortion_grid",
        "solvers",
        "solver_config",
        "admm_config",
        "shared_dictionary",
    )
