"""Sparse recovery from clipped or quantized observations.

The measurement is modeled by its pre-image: the set of all signals the
distortion could have mapped to what was observed. Recovery minimizes half
the squared distance of the synthesized signal to that set plus an l1
penalty on the coefficients, by plain or accelerated proximal gradient
iteration, with an operator-splitting baseline that enforces the set as a
hard constraint.
"""

from .errors import DimensionMismatch, InnerProjectionError
from .feasibility import IntervalSet
from .operators import Dictionary, DistortionSpec, power_iteration_gram
from .solvers import (
    AdmmConfig,
    SolverConfig,
    SolverTrace,
    inner_projection,
    kkt_residual,
    objective,
    result_to_json_obj,
    soft_threshold,
    solve_admm_constrained,
    solve_fista,
    solve_fista_bpdn,
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
    make_rng,
    run_experiment,
    run_solver,
    run_timing_table,
    sample_support,
    snr_db,
    standard_normal,
    write_plot_data,
    write_results_csv,
    write_timing_csv,
)

__version__ = "0.1.0"
