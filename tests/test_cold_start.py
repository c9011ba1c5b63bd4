"""A process loads only the scipy modules and libraries its code path
calls, and the process-pool machinery only when it runs a pool."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Each stage runs after the ones before it in a single fresh interpreter,
# which prints after every stage the watched modules loaded so far, scipy's
# and the process pool's, and the scipy shared libraries mapped so far: a
# library loaded by ctypes or dlopen shows in the memory map, not in
# sys.modules.
STAGES = {
    "fista": """
import numpy as np
import sparse_consist as sc
d = sc.Dictionary(np.eye(4, 8) + 0.1)
target = sc.IntervalSet(np.full(4, 0.3), np.full(4, 0.3))
sc.solve_fista(d, target, sc.SolverConfig(max_iter=20))
""",
    "gen": """
d = sc.gen_dictionary(0, 4, 8)
""",
    "sweep": """
sc.run_experiment(sc.ExperimentSpec(
    n=8, m=16, k_sparse=2, trials=1, distortion_grid=(sc.DistortionSpec.clipping(0.5),),
    solvers=("ista", "fista"), solver_config=sc.SolverConfig(max_iter=20),
), jobs=1)
""",
    "admm": """
sc.solve_admm_constrained(d, target, sc.AdmmConfig(max_iter=3))
""",
}


POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}

# the directories whose mapped files are scipy's: its package and the
# libraries its wheel bundles, its OpenBLAS among them (numpy's wheel maps
# its own OpenBLAS, numpy.libs/libscipy_openblas64_*, at import numpy)
SCIPY_DIRS = {"scipy", "scipy.libs"}

MAPS = Path("/proc/self/maps")


@functools.cache
def _loaded_per_stage() -> dict:
    """Per stage, the watched modules and the scipy libraries loaded so far."""
    watched = f"m.split('.')[0] == 'scipy' or m in {sorted(POOL_MODULES)}"
    modules = f"sorted(m for m in sys.modules if {watched})"
    mapped = (
        f"sorted({{path for path in (line.split()[-1] for line in open({str(MAPS)!r}))"
        f" if {SCIPY_DIRS} & set(path.split('/'))}})"
        if MAPS.exists()
        else "[]"
    )
    report = f"print(json.dumps([{modules}, {mapped}]))"
    script = "import json, sys\n" + "".join(
        f"{code}\n{report}\n" for code in STAGES.values()
    )
    proc = _run(script)
    return {
        stage: (set(mods), set(libs))
        for stage, (mods, libs) in zip(STAGES, map(json.loads, proc.stdout.splitlines()))
    }


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )


def test_scipy_modules_load_on_first_use_only():
    loaded = {stage: mods - POOL_MODULES for stage, (mods, _) in _loaded_per_stage().items()}
    # importing the package and a proximal solve need numpy only
    assert loaded["fista"] == set()
    # data generation draws normals through the package's own ndtri
    assert loaded["gen"] == set()
    # so a proximal sweep that generates its data loads no scipy either
    assert loaded["sweep"] == set()
    # the ADMM baseline factors and solves its ridge system with scipy's
    # compiled LAPACK and BLAS, loaded without the scipy.linalg package
    assert loaded["admm"] == {"scipy.linalg._flapack", "scipy.linalg._fblas"}


@pytest.mark.skipif(not MAPS.exists(), reason="needs a /proc memory map")
def test_no_scipy_library_is_mapped_before_the_first_ridge_factor():
    mapped = {stage: libs for stage, (_, libs) in _loaded_per_stage().items()}
    assert mapped["fista"] == set()
    assert mapped["gen"] == set()
    assert mapped["sweep"] == set()
    # the check sees a load: the ridge factor maps scipy's OpenBLAS
    assert any("/scipy.libs/libscipy_openblas" in lib for lib in mapped["admm"])


def test_scipy_linalg_imported_after_a_solve_reuses_the_loaded_modules():
    script = """
import numpy as np
import sparse_consist as sc
from sparse_consist import operators
d = sc.Dictionary(np.eye(4, 8) + 0.1)
sc.solve_admm_constrained(d, sc.IntervalSet(np.zeros(4), np.ones(4)), sc.AdmmConfig(max_iter=3))
flapack, fblas = operators._scipy_compiled("_flapack"), operators._scipy_compiled("_fblas")
import scipy.linalg
print(scipy.linalg.lapack.dpotrf is flapack.dpotrf)
print(scipy.linalg.blas.dtrsv is fblas.dtrsv)
"""
    assert _run(script).stdout.split() == ["True", "True"]


def test_no_process_pool_machinery_loads_without_a_pool():
    loaded = {stage: mods for stage, (mods, _) in _loaded_per_stage().items()}
    assert not loaded["fista"] & POOL_MODULES
    assert not loaded["gen"] & POOL_MODULES
    assert not loaded["sweep"] & POOL_MODULES
