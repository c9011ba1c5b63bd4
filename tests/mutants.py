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

pytest does not collect this file. ``tests/test_mutant_list.py`` checks only
that every old text still occurs exactly once in its file, so a refactor
that moves mutated code must update the list here.
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
        "src/sparse_consist/operators.py",
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
        "src/sparse_consist/experiments.py",
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
        "a flat stop labelled converged whatever its KKT residual",
        SOLVERS,
        'if stop_reason == "stalled" and kkt <= _CONVERGED_KKT:',
        'if stop_reason == "stalled":',
        (
            "tests/test_cli.py::test_strict_solve_refuses_a_flat_stop_far_from_the_minimizer",
            "tests/test_robustness.py::test_a_flat_stop_reads_converged_only_at_a_small_kkt_residual",
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
