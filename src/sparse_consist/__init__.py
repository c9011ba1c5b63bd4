"""Sparse recovery from clipped or quantized observations.

The measurement is modeled by its pre-image: the set of all signals the
distortion could have mapped to what was observed. Recovery minimizes half
the squared distance of the synthesized signal to that set plus an l1
penalty on the coefficients, by plain or accelerated proximal gradient
iteration, with an operator-splitting baseline that enforces the set as a
hard constraint.
"""

from .errors import DimensionMismatch
from .feasibility import IntervalSet
from .operators import Dictionary, DistortionSpec
from .solvers import (
    AdmmConfig,
    SolverConfig,
    SolverTrace,
    certificate,
    soft_threshold,
    solve_admm_constrained,
    solve_fista,
    solve_ista,
)
from .experiments import (
    SIGNAL_SEED_OFFSET,
    AggregateResult,
    ExperimentSpec,
    PointSummary,
    TimingRow,
    gen_dictionary,
    gen_sparse_signal,
    run_experiment,
    run_solver,
    run_timing_table,
    snr_db,
    write_plot_data,
    write_results_csv,
    write_timing_csv,
)

__version__ = "0.1.0"
