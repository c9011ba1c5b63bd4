"""Mutants of the package that the tier-1 tests must kill.

Run from any directory, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 7        # the mutants numbered 3 and 7

Each mutant replaces one exact piece of text in one file. The script copies
the repository into a temporary directory, applies one mutant there, runs
the tests the mutant names on the copy, and prints ``killed`` when one of
them fails or ``survived`` when all pass (``error`` when pytest could not
run them). A survivor is a test that does not check what it claims. The
working tree is never changed.

pytest does not collect this file. ``tests/test_mutant_list.py`` checks that
every old text still occurs exactly once in its file and that every test a
mutant names still exists, so a refactor that moves mutated code or renames
a test must update the list here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    what: str
    path: str
    old: str
    new: str
    tests: tuple


SOLVERS = "src/sparse_consist/solvers.py"
OPERATORS = "src/sparse_consist/operators.py"
EXPERIMENTS = "src/sparse_consist/experiments.py"
FEASIBILITY = "src/sparse_consist/feasibility.py"

MUTANTS = (
    Mutant(
        "FISTA's momentum weight scaled by (1 + 2**-50)",
        SOLVERS,
        "w = (t - 1.0) / t_next",
        "w = (t - 1.0) / t_next * (1.0 + 2.0**-50)",
        (
            "tests/test_acceptance.py::test_05_singleton_set_degenerates_to_denoiser_bitwise",
            "tests/test_engine.py::test_engine_matches_the_reference_loop_bit_for_bit",
        ),
    ),
    Mutant(
        "solve_fista routed through momentum=False",
        SOLVERS,
        "return _fista_engine(dictionary, iset, config, momentum=True)",
        "return _fista_engine(dictionary, iset, config, momentum=False)",
        (
            "tests/test_acceptance.py::test_08_accelerated_solver_near_optimal_by_iteration_150",
            "tests/test_engine.py::test_engine_matches_the_reference_loop_bit_for_bit",
        ),
    ),
    Mutant(
        "LIPSCHITZ_SAFETY moved by 1e-7",
        OPERATORS,
        "LIPSCHITZ_SAFETY = 1.01\n",
        "LIPSCHITZ_SAFETY = 1.0100001\n",
        ("tests/test_cli.py::test_bench_csv_matches_committed_golden_file",),
    ),
    Mutant(
        "certificate summing r * r with np.sum",
        SOLVERS,
        "obj = 0.5 * float(r @ r) + lam * float(np.abs(alpha).sum())",
        "obj = 0.5 * float(np.sum(r * r)) + lam * float(np.abs(alpha).sum())",
        ("tests/test_engine.py::test_engine_matches_the_reference_loop_on_generated_inputs",),
    ),
    Mutant(
        "ExperimentSpec refusing seeds of 1e6 and above",
        EXPERIMENTS,
        "        if self.k_sparse > self.m:\n",
        "        if self.seed >= 10**6:\n"
        '            raise ValueError("seed must be below 1e6")\n'
        "        if self.k_sparse > self.m:\n",
        ("tests/test_bench_contract.py",),
    ),
    Mutant(
        "the zero start's image written as 2**-40, not D 0",
        SOLVERS,
        "cur[:] = nxt[m:m_pad] = 0.0\n",
        "cur[:] = nxt[m:m_pad] = 0.0\n    cur[m_pad:] = 2.0**-40\n",
        ("tests/test_engine.py::test_engine_matches_the_reference_loop_bit_for_bit",),
    ),
    Mutant(
        "FISTA stopping as converged on the screen alone, without the confirm",
        SOLVERS,
        "            if kkt <= tol and momentum:\n"
        "                kkt = _kkt_from_gradient(dictionary.correlate(r, out=mag), alpha, lam)\n",
        "",
        (
            "tests/test_engine.py::test_a_screen_passed_at_the_extrapolated_point_must_hold_at_the_iterate",
        ),
    ),
    Mutant(
        "the KKT test run against 10 * tol",
        SOLVERS,
        "lam, tol = config.lam, config.tol\n",
        "lam, tol = config.lam, 10 * config.tol\n",
        (
            "tests/test_robustness.py::test_a_relaxed_solve_reads_converged_exactly_when_its_answer_is_within_tol",
            "tests/test_engine.py::test_engine_matches_the_reference_loop_bit_for_bit",
        ),
    ),
    Mutant(
        "the non_finite stop dropped",
        SOLVERS,
        "        if not math.isfinite(obj):\n"
        '            stop_reason = "non_finite"\n'
        "            break\n",
        "",
        (
            "tests/test_engine.py::test_run_stops_at_the_first_non_finite_objective",
            "tests/test_experiments.py::test_diverged_solves_are_counted_as_failures",
        ),
    ),
    Mutant(
        "LIPSCHITZ_SAFETY = 1.0",
        OPERATORS,
        "LIPSCHITZ_SAFETY = 1.01\n",
        "LIPSCHITZ_SAFETY = 1.0\n",
        (
            "tests/test_operators.py::test_second_difference_dictionary_gets_the_padded_estimate",
            "tests/test_operators.py::test_lipschitz_estimate_upper_bounds_true_value_and_caches",
        ),
    ),
    Mutant(
        "IntervalSet.project's bounds swapped",
        FEASIBILITY,
        "return np.minimum(self.upper, np.maximum(self.lower, x, out=out), out=out)",
        "return np.minimum(self.lower, np.maximum(self.upper, x, out=out), out=out)",
        ("tests/test_feasibility.py::test_project_clamps_elementwise",),
    ),
    Mutant(
        "_count accepting a bool",
        FEASIBILITY,
        "if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
        "if not isinstance(value, numbers.Integral):",
        ("tests/test_experiments.py::test_spec_validation",),
    ),
    Mutant(
        "_fmt writing str(value)",
        EXPERIMENTS,
        "return repr(float(value))",
        "return str(value)",
        (
            "tests/test_cli.py::test_bench_csv_matches_committed_golden_file",
            "tests/test_experiments.py::test_results_csv_layout",
            "tests/test_experiments.py::test_timing_csv_layout",
            "tests/test_experiments.py::test_fmt_writes_a_float_for_every_real",
        ),
    ),
    Mutant(
        "the sweep's reduction dropping the first trial's failure reason",
        EXPERIMENTS,
        "reasons = Counter(c[3] for c in cells if c[3] is not None)",
        "reasons = Counter(c[3] for c in cells[1:] if c[3] is not None)",
        (
            "tests/test_experiments.py::test_failed_solver_runs_are_counted_not_raised",
            "tests/test_experiments.py::test_diverged_solves_are_counted_as_failures",
        ),
    ),
    Mutant(
        "the Gram's smallest eigenvalue taken for its largest",
        OPERATORS,
        "eigvalsh(gram)[-1]",
        "eigvalsh(gram)[0]",
        (
            "tests/test_operators.py::test_power_iteration_matches_dense_eigensolver",
            "tests/test_operators.py::test_power_iteration_survives_start_orthogonal_to_top_space",
        ),
    ),
    Mutant(
        "the eigenvalue scaled back by 2**exponent, not 2**(2 * exponent)",
        OPERATORS,
        "np.ldexp(lam, 2 * exponent)",
        "np.ldexp(lam, exponent)",
        (
            "tests/test_operators.py::test_power_iteration_matches_dense_eigensolver",
            "tests/test_operators.py::test_power_iteration_estimates_a_large_dictionary",
        ),
    ),
    Mutant(
        "the pre-image's saturated upper side moved one level down",
        OPERATORS,
        "upper[out == top] = np.inf",
        "upper[out == top - 2.0 * half] = np.inf",
        (
            "tests/test_feasibility.py::test_quantization_preimage_interior_and_saturated_bins",
            "tests/test_feasibility.py::test_fine_quantizer_saturates_only_the_outermost_levels",
        ),
    ),
    Mutant(
        "cho_solve solving into a copy of x",
        SOLVERS,
        "    c, lower = factor\n",
        "    c, lower = factor\n    x = x.copy()\n",
        (
            "tests/test_admm.py::test_cho_solve_matches_scipy_in_place",
            "tests/test_admm.py::test_cho_solve_results_start_on_a_cache_line",
        ),
    ),
    Mutant(
        "Q0's last coefficient moved by one in its 16th digit, about one ulp",
        EXPERIMENTS,
        "-1.18331621121330003142e0,",
        "-1.18331621121330013142e0,",
        (
            "tests/test_experiments.py::test_normal_draws_match_scipy_ndtri_bit_for_bit_at_protocol_size",
            "tests/test_experiments.py::test_normal_draws_match_scipy_ndtri_for_any_integer_draw",
        ),
    ),
    Mutant(
        "the tail logarithms taken with np.log, not the C library's log",
        EXPERIMENTS,
        "np.fromiter(map(math.log, x.tolist()), np.float64, x.size)",
        "np.log(x)",
        (
            "tests/test_experiments.py::test_normal_draws_match_scipy_ndtri_bit_for_bit_at_protocol_size",
            "tests/test_experiments.py::test_ndtri_matches_scipy_at_its_branch_boundaries",
        ),
    ),
    Mutant(
        "ndtri's flip to the upper tail taken at y >= 1 - exp(-2)",
        EXPERIMENTS,
        "upper = b > 1.0 - _EXP_M2",
        "upper = b >= 1.0 - _EXP_M2",
        ("tests/test_experiments.py::test_ndtri_matches_scipy_at_its_branch_boundaries",),
    ),
    Mutant(
        "the stall test written as res > _STALL_RES, which lets a NaN residual through",
        SOLVERS,
        "        if not res <= _STALL_RES:\n",
        "        if res > _STALL_RES:\n",
        (
            "tests/test_admm.py::test_a_stalled_projection_ends_the_solve_at_the_best_point_before_it",
        ),
    ),
)


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``error``: the verdict of the mutant's
    tests on a mutated copy of the repository."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        code = subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv: list) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    verdicts = []
    for number in chosen:
        mutant = MUTANTS[number - 1]
        verdicts.append(run(mutant))
        print(f"{number}. {verdicts[-1]:<8}  {mutant.what}", flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
