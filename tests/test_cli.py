"""Command-line behavior: exit codes, file outputs, reproducibility."""

import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparse_consist import Dictionary, DistortionSpec
from sparse_consist import experiments as exps
from sparse_consist.cli import main

SMALL = ["--n", "16", "--m", "32", "--k-sparse", "3"]

DATA = Path(__file__).parent / "data"


def _gen(tmp_path, *extra):
    out = tmp_path / "instance"
    rc = main(["gen", *SMALL, "--seed", "3", "--out", str(out), *extra])
    assert rc == 0
    return out


# ----------------------------------------------------------------------
# gen and solve


def test_gen_writes_instance_directory(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    for name in ("dictionary.npy", "alpha_true.txt", "x_clean.txt", "y.txt", "instance.json"):
        assert (out / name).exists()
    meta = json.loads((out / "instance.json").read_text())
    assert meta["n"] == 16
    assert meta["m"] == 32
    assert meta["distortion"] == "clip:0.6"
    # the dictionary is a plain .npy file: numpy reads it back bit for bit
    assert meta["files"]["dictionary"] == "dictionary.npy"
    stored = np.load(out / "dictionary.npy", allow_pickle=False)
    assert stored.shape == (16, 32)
    assert stored.tobytes() == exps.gen_dictionary(3, 16, 32).matrix.tobytes()
    y = np.loadtxt(out / "y.txt")
    assert y.shape == (16,)
    assert float(np.max(np.abs(y))) <= 0.6


@pytest.mark.parametrize("descriptor", ["clip:0.123456789", "quant:4", "clip:0.6"])
def test_gen_records_a_distortion_label_that_reads_back_exactly(tmp_path, descriptor):
    out = _gen(tmp_path, "--distortion", descriptor)
    label = json.loads((out / "instance.json").read_text())["distortion"]
    assert label == descriptor
    assert DistortionSpec.parse(label) == DistortionSpec.parse(descriptor)


def test_solve_happy_path(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    result = tmp_path / "result.json"
    rc = main([
        "solve",
        "--dict", str(out / "dictionary.npy"),
        "--observation", str(out / "y.txt"),
        "--distortion", "clip:0.6",
        "--solver", "fista",
        "--max-iter", "200",
        "--out", str(result),
    ])
    assert rc == 0
    blob = json.loads(result.read_text())
    assert len(blob["alpha"]) == 32
    assert len(blob["x_hat"]) == 16
    assert blob["iterations"] >= 1
    assert isinstance(blob["converged"], bool)


def test_strict_solve_flags_non_convergence(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    result = tmp_path / "r.json"
    rc = main([
        "solve",
        "--dict", str(out / "dictionary.npy"),
        "--observation", str(out / "y.txt"),
        "--distortion", "clip:0.6",
        "--max-iter", "2",
        "--tol", "0",
        "--strict",
        "--out", str(result),
    ])
    assert rc == 1
    blob = json.loads(result.read_text())
    assert blob["stop_reason"] == "max_iter"
    assert blob["converged"] is False
    assert blob["iterations"] == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_writes_valid_json_for_a_diverged_run(tmp_path, monkeypatch):
    out = tmp_path / "instance"
    rc = main(["gen", "--n", "12", "--m", "24", "--k-sparse", "3", "--seed", "5",
               "--distortion", "clip:0.5", "--out", str(out)])
    assert rc == 0
    # a Lipschitz estimate of 1.0, far below the true constant, makes the
    # step 1.0, so the solve diverges
    monkeypatch.setattr(Dictionary, "estimate_lipschitz", lambda self: 1.0)
    result = tmp_path / "result.json"
    rc = main([
        "solve",
        "--dict", str(out / "dictionary.npy"),
        "--observation", str(out / "y.txt"),
        "--distortion", "clip:0.5",
        "--out", str(result),
    ])
    assert rc == 0

    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    blob = json.loads(result.read_text(), parse_constant=reject)
    assert blob["stop_reason"] == "non_finite"
    assert blob["converged"] is False
    assert blob["objective"] is None
    assert len(blob["x_hat"]) == 12


def test_admm_solve_reports_the_l1_norm_of_its_answer(tmp_path):
    # at the protocol size (N=256, M=512) this instance stalls after three
    # outer iterations, whose last soft-thresholded iterate is all zeros
    out = tmp_path / "instance"
    assert main(["gen", "--seed", "0", "--distortion", "quant:4", "--out", str(out)]) == 0
    result = tmp_path / "result.json"
    rc = main([
        "solve",
        "--dict", str(out / "dictionary.npy"),
        "--observation", str(out / "y.txt"),
        "--distortion", "quant:4",
        "--solver", "admm",
        "--out", str(result),
    ])
    assert rc == 0
    blob = json.loads(result.read_text())
    assert blob["stop_reason"] == "inner_stall"
    assert blob["iterations"] == 3
    assert blob["objective"] == np.abs(np.array(blob["alpha"])).sum() > 0.0


# ----------------------------------------------------------------------
# error exit codes


def test_dimension_mismatch_exits_3(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    short = tmp_path / "short.txt"
    np.savetxt(short, np.zeros(8))
    rc = main([
        "solve", "--dict", str(out / "dictionary.npy"),
        "--observation", str(short), "--distortion", "clip:inf",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 3


def test_inconsistent_observation_exits_2(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    rc = main([
        "solve", "--dict", str(out / "dictionary.npy"),
        "--observation", str(out / "y.txt"),
        "--distortion", "clip:0.3",  # y has samples beyond 0.3
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2


def test_missing_file_exits_2(tmp_path):
    rc = main([
        "solve", "--dict", str(tmp_path / "nope.npy"),
        "--observation", str(tmp_path / "nope.txt"),
        "--distortion", "clip:inf",
    ])
    assert rc == 2


def test_malformed_distortion_exits_2(tmp_path):
    out = _gen(tmp_path)
    rc = main([
        "solve", "--dict", str(out / "dictionary.npy"),
        "--observation", str(out / "y.txt"),
        "--distortion", "blur:9",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2


def test_negative_seed_exits_2_before_gen_writes_anything(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gen", *SMALL, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be non-negative, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("where", ["empty", "file", "under_file", "two_under_file"])
def test_gen_refuses_an_output_path_that_is_not_a_directory_before_it_draws(
    tmp_path, monkeypatch, capsys, where
):
    def never(*args, **kwargs):
        raise AssertionError("gen drew an instance")

    monkeypatch.setattr("sparse_consist.cli.gen_dictionary", never)
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    path = {
        "empty": "",
        "file": str(existing),
        "under_file": str(existing / "sub"),
        "two_under_file": str(existing / "a" / "b"),
    }[where]
    assert main(["gen", *SMALL, "--out", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(path) in err[0]
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert existing.read_text() == "kept\n"


# ----------------------------------------------------------------------
# benchmark subcommands


def test_declip_bench_csv_layout(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "declip-bench", *SMALL,
        "--trials", "2", "--seed", "4", "--grid", "0.4,0.6",
        "--max-iter", "30", "--jobs", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # grid points x default solvers
    assert all(line.split(",")[0] == "declipping" for line in lines[1:])
    assert {line.split(",")[1] for line in lines[1:]} == {"ista", "fista"}


def test_dequant_bench_with_solver_subset(tmp_path):
    out = tmp_path / "bench.csv"
    argv = [
        "dequant-bench", *SMALL,
        "--trials", "2", "--grid", "3,4", "--solvers", "fista",
        "--max-iter", "30", "--jobs", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.split(",")[0] == "dequantization" for line in lines[1:])
    assert [p.name for p in tmp_path.iterdir()] == ["bench.csv"]
    # the CSV is a sweep's one results file: there is no --plot-data
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--plot-data", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_bench_times_flag_records_floats(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "declip-bench", *SMALL,
        "--trials", "1", "--grid", "0.5", "--max-iter", "20",
        "--jobs", "1", "--times", "--out", str(out),
    ])
    assert rc == 0
    last = out.read_text().splitlines()[-1].split(",")[6]
    assert last != "NA"
    assert float(last) > 0.0


def test_bench_prints_the_failure_reasons_of_each_failing_cell(tmp_path, monkeypatch, capsys):
    original = exps.run_solver

    def fista_raises(name, *args):
        if name == "fista":
            raise RuntimeError("forced failure")
        return original(name, *args)

    monkeypatch.setattr(exps, "run_solver", fista_raises)
    argv = ["declip-bench", *SMALL, "--trials", "2", "--grid", "0.4,0.6",
            "--max-iter", "30", "--jobs", "1", "--out", str(tmp_path / "b.csv")]
    for extra, rc in (([], 0), (["--strict"], 1)):
        assert main([*argv, *extra]) == rc
        assert capsys.readouterr().err.splitlines() == [
            "warning: 4 solver runs failed",
            "  clip:0.4 fista: RuntimeError x2",
            "  clip:0.6 fista: RuntimeError x2",
        ]


def _die(*args, **kwargs):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched module reaches pool workers only when they are forked",
)
def test_a_dead_pool_worker_exits_4(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(exps, "gen_sparse_signal", _die)
    out = tmp_path / "b.csv"
    argv = ["declip-bench", *SMALL, "--trials", "3", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 4
    captured = capfd.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


def test_bench_rejects_bad_grids(tmp_path, capsys):
    assert main(["declip-bench", *SMALL, "--grid", "0.0",
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["dequant-bench", *SMALL, "--grid", "2.5",
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["declip-bench", *SMALL, "--grid", "abc",
                 "--out", str(tmp_path / "b.csv")]) == 2
    for argv in (
        ["dequant-bench", "--grid", "inf"],
        ["dequant-bench", "--grid", "nan"],
        ["declip-bench", "--grid", "nan"],
        ["timing", "--quant-grid", "inf"],
        ["declip-bench", "--solvers", "fista,fista"],
        ["declip-bench", "--grid", "0.5,0.5"],
        ["timing", "--clip-grid", "0.5,0.50"],
        ["dequant-bench", "--grid", "53"],
        ["declip-bench", "--solvers", ","],
    ):
        assert main([*argv, *SMALL, "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["gen", "--distortion", "quant:inf", "--out", str(tmp_path / "g")]) == 2
    assert main(["gen", "--distortion", "quant:53", "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 14 and all(line.startswith("error: ") for line in err)
    assert list(tmp_path.iterdir()) == []


_OUT_FLAGS = {
    "bench-out": ["declip-bench", *SMALL, "--trials", "2", "--jobs", "1", "--out"],
    "timing-out": ["timing", *SMALL, "--trials", "2", "--jobs", "1", "--out"],
    "solve-out": ["solve", "--distortion", "clip:inf", "--out"],
}


_OUT_CASES = [(flag, where) for where in ("missing", "directory", "empty") for flag in _OUT_FLAGS]


@pytest.mark.parametrize(
    "flag, where",
    _OUT_CASES,
    ids=[flag if where == "missing" else f"{flag}-{where}" for flag, where in _OUT_CASES],
)
def test_sweep_refuses_a_missing_output_directory_before_it_runs(
    tmp_path, monkeypatch, capsys, flag, where
):
    # an output path in a missing directory, an existing directory, or an
    # empty path is refused before any solve runs
    def never(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr("sparse_consist.cli.run_experiment", never)
    monkeypatch.setattr(exps, "run_experiment", never)  # what timing runs
    monkeypatch.setattr("sparse_consist.cli.run_solver", never)
    inst = _gen(tmp_path)
    # solve gets a real instance, so that a missed check would reach the solve
    inputs = ["--dict", str(inst / "dictionary.npy"), "--observation", str(inst / "y.txt")]
    path = {
        "missing": str(tmp_path / "nodir" / "x.csv"),
        "directory": str(inst),
        "empty": "",
    }[where]
    before = sorted(inst.iterdir())
    assert main([*_OUT_FLAGS[flag], path, *(inputs if flag == "solve-out" else [])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]
    assert [q.name for q in tmp_path.iterdir()] == ["instance"]
    assert sorted(inst.iterdir()) == before


def test_nan_lambda_exits_2(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["declip-bench", *SMALL, "--lambda", "nan", "--out", str(out)]) == 2
    assert not out.exists()


def test_timing_table_csv(tmp_path):
    out = tmp_path / "timing.csv"
    rc = main([
        "timing", *SMALL,
        "--trials", "1", "--solvers", "ista,fista",
        "--clip-grid", "0.5", "--quant-grid", "3",
        "--max-iter", "20", "--jobs", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "task,solver,mean_wall_time_s,total_wall_time_s"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "declipping", "declipping", "dequantization", "dequantization",
    ]


def test_timing_prints_the_failure_reasons_of_each_failing_row(tmp_path, monkeypatch, capsys):
    original = exps.solve_fista
    calls = itertools.count(1)

    def fista_fails_on_odd_calls(*args):
        if next(calls) % 2:
            raise RuntimeError("forced failure")
        return original(*args)

    # per trial fista runs on clip 0.6, then on quant 4: every clip solve fails
    monkeypatch.setattr(exps, "solve_fista", fista_fails_on_odd_calls)
    out = tmp_path / "timing.csv"
    assert main(["timing", *SMALL, "--trials", "4", "--jobs", "1", "--solvers", "ista,fista",
                 "--max-iter", "30", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 4 solver runs failed",
        "  declipping fista: RuntimeError x4",
    ]
    assert out.read_text().splitlines()[2] == "declipping,fista,nan,0.0"


# ----------------------------------------------------------------------
# reproducibility


def test_bench_reruns_are_byte_identical(tmp_path):
    args = [
        "declip-bench", *SMALL,
        "--trials", "2", "--seed", "7", "--grid", "0.3,0.5",
        "--max-iter", "30", "--jobs", "1",
    ]
    for name in ("one.csv", "two.csv"):
        rc = main(args + ["--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


@pytest.mark.parametrize(
    "command, extra, golden",
    [
        ("declip-bench", [], "declip_bench_small.csv"),
        ("dequant-bench", ["--shared-dictionary"], "dequant_bench_small.csv"),
        (
            "declip-bench",
            ["--solvers", "ista,fista,admm", "--grid", "0.4,0.8", "--admm-max-iter", "60"],
            "declip_admm_small.csv",
        ),
    ],
    ids=["declip", "dequant", "declip-admm"],
)
def test_bench_csv_matches_committed_golden_file(tmp_path, command, extra, golden):
    """Pins the sweep CSVs byte for byte across refactors.

    The golden files were written by ``sparse-consist <command> --n 16 --m 32
    --k-sparse 3 --trials 3 --seed 7 --jobs 1`` plus the case's extra flags:
    ``--shared-dictionary`` for dequant-bench, and ``--solvers
    ista,fista,admm --grid 0.4,0.8 --admm-max-iter 60`` for the constrained
    baseline's file. Regenerate them only together with a CHANGES.md entry
    that states a deliberate change in floating-point rounding, such as
    replacing the matrix-vector products with matrix-matrix ones, or a
    deliberate change of a stop rule or of the baseline; any other
    difference is a behaviour change.
    """
    out = tmp_path / golden
    rc = main([
        command, *SMALL, "--trials", "3", "--seed", "7", "--jobs", "1",
        *extra, "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_module_entry_point_runs_as_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_consist", "gen", *SMALL,
         "--out", str(tmp_path / "inst")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "inst" / "dictionary.npy").exists()
