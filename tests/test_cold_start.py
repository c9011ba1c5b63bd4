"""A process loads only the scipy modules its code path calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each stage runs after the ones before it in a single fresh interpreter,
# which prints the scipy modules loaded so far after every stage.
STAGES = {
    "fista": """
import numpy as np
import sparse_consist as sc
d = sc.Dictionary(np.eye(4, 8) + 0.1)
sc.solve_fista(d, sc.IntervalSet.singleton(np.full(4, 0.3)), sc.SolverConfig(max_iter=20))
""",
    "gen": """
d = sc.gen_dictionary(0, 4, 8)
""",
    "admm": """
sc.solve_admm_constrained(
    d, sc.IntervalSet.singleton(np.full(4, 0.3)), sc.AdmmConfig(max_iter=3)
)
""",
}


def _scipy_modules_per_stage() -> dict:
    report = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
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
    loaded = _scipy_modules_per_stage()
    # importing the package and a proximal solve need numpy only
    assert loaded["fista"] == set()
    # data generation draws normals through scipy.special.ndtri
    assert "scipy.special" in loaded["gen"]
    assert "scipy.linalg" not in loaded["gen"]
    # the ADMM baseline factors and solves its ridge system with scipy.linalg
    assert "scipy.linalg" in loaded["admm"]
