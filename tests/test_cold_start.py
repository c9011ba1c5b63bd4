"""A process loads only the scipy modules its code path calls, and the
process-pool machinery only when it runs a pool."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each stage runs after the ones before it in a single fresh interpreter,
# which prints the watched modules loaded so far after every stage: scipy's
# and the process pool's.
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


@functools.cache
def _modules_per_stage() -> dict:
    watched = f"m.split('.')[0] == 'scipy' or m in {sorted(POOL_MODULES)}"
    report = f"print(json.dumps(sorted(m for m in sys.modules if {watched})))"
    script = "import json, sys\n" + "".join(
        f"{code}\n{report}\n" for code in STAGES.values()
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return dict(zip(STAGES, (set(json.loads(line)) for line in proc.stdout.splitlines())))


def test_scipy_modules_load_on_first_use_only():
    loaded = {stage: mods - POOL_MODULES for stage, mods in _modules_per_stage().items()}
    # importing the package and a proximal solve need numpy only
    assert loaded["fista"] == set()
    # data generation draws normals through the package's own ndtri
    assert loaded["gen"] == set()
    # so a proximal sweep that generates its data loads no scipy either
    assert loaded["sweep"] == set()
    # the ADMM baseline factors and solves its ridge system with scipy.linalg
    assert "scipy.linalg" in loaded["admm"]


def test_no_process_pool_machinery_loads_without_a_pool():
    loaded = _modules_per_stage()
    assert not loaded["fista"] & POOL_MODULES
    assert not loaded["gen"] & POOL_MODULES
    assert not loaded["sweep"] & POOL_MODULES
