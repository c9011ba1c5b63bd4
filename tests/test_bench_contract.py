"""The benchmark's instrumentation still finds every package name it uses.

``perfbench/`` reads the package from outside: ``spans.py`` patches methods
and module functions by name, ``kernels.py`` imports public names, and
``run.py`` builds the specs of every call. A refactor that renames or moves
one of them, or a new check that refuses one of those specs, would otherwise
show only when a benchmark run fails. These tests import ``perfbench/`` from
its own directory and write nothing there. The last one runs a short traced
benchmark in a copy of the checkout and reads its result line as the
benchmark's reader does: the last line of standard output.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sparse_consist
from sparse_consist import (
    AdmmConfig,
    AggregateResult,
    DistortionSpec,
    ExperimentSpec,
    SolverConfig,
    experiments,
)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = ("kernels", "layers", "spans", "run")


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


@pytest.mark.parametrize("seed", [0, 1])
def test_every_spec_the_benchmark_builds_passes_the_spec_checks(perfbench, monkeypatch, seed):
    import run

    built = []

    def record(spec, jobs=1):
        built.append(spec)
        return AggregateResult(input_snr_db=(), per_point=(), trials=spec.trials)

    # run_timing_table builds its grid and calls run_experiment by this name
    monkeypatch.setattr(experiments, "run_experiment", record)
    rec = SimpleNamespace(results=[], outcomes=[])
    for workload in run.WORKLOADS.values():
        bench = run.Bench(sparse_consist, workload, seed)
        built.clear()
        # the quality calls and a few seeded ones after them
        calls = workload.quality_calls + 3
        for index in range(calls):
            assert not bench.run_call(rec, index).raised, (workload.name, index)
        if workload.probe_trials:
            bench.probe(rec)
            assert built[-1].solvers == ("admm",)
        assert len(built) == calls + (1 if workload.probe_trials else 0)
        if workload.timing_table:
            labels = [d.label() for d in built[0].distortion_grid]
            assert labels == ["clip:0.6", "quant:4"]


def test_a_traced_run_ends_with_its_result_line(tmp_path):
    # A copy of the checkout, so the run's state files land in tmp_path.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "declip-fresh",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # every per-layer metric BENCHMARK.json declares was measured
    assert [json.loads(line[len("absent "):]) for line in lines
            if line.startswith("absent ")] == [[]]
    result = json.loads(lines[-1])
    assert isinstance(result, dict)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert all(m["value"] is not None for m in result["metrics"].values())
