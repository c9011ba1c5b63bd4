"""The benchmark's instrumentation still finds every package name it uses.

``perfbench/`` reads the package from outside: ``spans.py`` patches methods
and module functions by name, and ``kernels.py`` imports public names. A
refactor that renames or moves one of them would otherwise show only when a
traced benchmark run fails. These tests import ``perfbench/`` from its own
directory and write nothing there.
"""

import math
import sys
from pathlib import Path

import pytest

from sparse_consist import AdmmConfig, DistortionSpec, ExperimentSpec, SolverConfig, experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("kernels", "layers", "spans")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import kernels
    import layers
    import spans

    yield kernels, layers, spans
    for name in MODULES:
        sys.modules.pop(name, None)


def test_traced_install_patches_and_restores_every_name(perfbench):
    _, layers, spans = perfbench
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in spans.TRACED}
    spec = ExperimentSpec(
        n=8, m=16, k_sparse=2, trials=1, seed=0,
        distortion_grid=(DistortionSpec.clipping(0.5),),
        solvers=("ista", "fista", "admm"),
        solver_config=SolverConfig(max_iter=20),
        admm_config=AdmmConfig(max_iter=5),
    )
    rec = spans.Recorder()
    with rec.install(trace=True):
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, attr
        experiments.run_timing_table(spec, clip_thetas=(0.5,), quant_bits=(3,))
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr

    assert {name for name, _, _ in rec.outcomes} == {"ista", "fista", "admm"}
    table = layers.SpanTable(rec)
    metrics = layers.layer_metrics(table, rec.outcomes, rec.counters, spec.n, spec.m)
    for key in ("operators.distortion.us_per_trial", "feasibility.boxed_frac",
                "solvers.fista.us_per_iter", "solvers.admm.outer_per_solve"):
        assert key in metrics, key
    # apply and preimage share one span name, so neither may run inside the
    # other, or the distortion time per trial would count some work twice
    distortion = table.mask("operators.distortion")
    assert distortion.sum() == 4  # apply and preimage per grid point
    assert not (distortion & (table.nearest(distortion) >= 0)).any()


def test_kernel_timings_run_on_the_public_names(perfbench):
    kernels, _, _ = perfbench
    out = kernels.kernel_metrics(0, 8, 16, 2)
    assert set(out) == {
        "kernel.gemv_us", "kernel.project_us", "kernel.soft_threshold_us",
        "kernel.lipschitz_ms", "kernel.ridge_factor_ms", "kernel.admm_inner_round_us",
    }
    assert all(math.isfinite(v) and v > 0.0 for v in out.values())
