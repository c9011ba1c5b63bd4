"""Command-line behavior: exit codes, file outputs, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparse_consist import AdmmConfig, DistortionSpec, SolverConfig, cli
from sparse_consist.cli import ENV_SEED, main


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


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
    for name in ("dictionary.bin", "alpha_true.txt", "x_clean.txt", "y.txt", "instance.json"):
        assert (out / name).exists()
    meta = json.loads((out / "instance.json").read_text())
    assert meta["n"] == 16
    assert meta["m"] == 32
    assert meta["distortion"] == "clip:0.6"
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
        "--dict", str(out / "dictionary.bin"),
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


def test_solve_reads_csv_dictionaries(tmp_path):
    path = tmp_path / "dict.csv"
    rng = np.random.Generator(np.random.PCG64(1))
    mat = rng.standard_normal((4, 6))
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in mat) + "\n")
    obs = tmp_path / "y.txt"
    np.savetxt(obs, rng.standard_normal(4))
    rc = main([
        "solve", "--dict", str(path), "--observation", str(obs),
        "--distortion", "none", "--max-iter", "50",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 0


def test_strict_solve_flags_non_convergence(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    rc = main([
        "solve",
        "--dict", str(out / "dictionary.bin"),
        "--observation", str(out / "y.txt"),
        "--distortion", "clip:0.6",
        "--max-iter", "2",
        "--rel-tol", "0",
        "--strict",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_writes_valid_json_for_a_diverged_run(tmp_path, monkeypatch):
    out = tmp_path / "instance"
    rc = main(["gen", "--n", "12", "--m", "24", "--k-sparse", "3", "--seed", "5",
               "--distortion", "clip:0.5", "--out", str(out)])
    assert rc == 0
    # the CLI has no step flag; a step far above 1/L makes the solve diverge
    monkeypatch.setattr(
        cli, "_solver_configs",
        lambda args: (SolverConfig(step=1.0, max_iter=400), AdmmConfig()),
    )
    result = tmp_path / "result.json"
    rc = main([
        "solve",
        "--dict", str(out / "dictionary.bin"),
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


# ----------------------------------------------------------------------
# error exit codes


def test_dimension_mismatch_exits_3(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    short = tmp_path / "short.txt"
    np.savetxt(short, np.zeros(8))
    rc = main([
        "solve", "--dict", str(out / "dictionary.bin"),
        "--observation", str(short), "--distortion", "none",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 3


def test_inconsistent_observation_exits_2(tmp_path):
    out = _gen(tmp_path, "--distortion", "clip:0.6")
    rc = main([
        "solve", "--dict", str(out / "dictionary.bin"),
        "--observation", str(out / "y.txt"),
        "--distortion", "clip:0.3",  # y has samples beyond 0.3
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2


def test_missing_file_exits_2(tmp_path):
    rc = main([
        "solve", "--dict", str(tmp_path / "nope.bin"),
        "--observation", str(tmp_path / "nope.txt"),
        "--distortion", "none",
    ])
    assert rc == 2


def test_malformed_distortion_exits_2(tmp_path):
    out = _gen(tmp_path)
    rc = main([
        "solve", "--dict", str(out / "dictionary.bin"),
        "--observation", str(out / "y.txt"),
        "--distortion", "blur:9",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2


def test_bad_seed_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    rc = main(["gen", *SMALL, "--out", str(tmp_path / "g")])
    assert rc == 2


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


def test_dequant_bench_with_solver_subset_and_plot_data(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "dequant-bench", *SMALL,
        "--trials", "2", "--grid", "3,4", "--solvers", "fista",
        "--max-iter", "30", "--jobs", "1",
        "--plot-data", str(tmp_path / "sweep.dat"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.split(",")[0] == "dequantization" for line in lines[1:])
    assert (tmp_path / "sweep_fista.dat").exists()


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
    ):
        assert main([*argv, *SMALL, "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["gen", "--distortion", "quant:inf", "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 9 and all(line.startswith("error: ") for line in err)
    assert list(tmp_path.iterdir()) == []


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


# ----------------------------------------------------------------------
# reproducibility


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    a = _gen(tmp_path / "a", "--seed", "9")

    monkeypatch.setenv(ENV_SEED, "9")
    out_b = tmp_path / "b" / "instance"
    # the flag says seed 3 but the environment wins
    rc = main(["gen", *SMALL, "--seed", "3", "--out", str(out_b)])
    assert rc == 0
    assert (out_b / "dictionary.bin").read_bytes() == (
        (tmp_path / "a" / "instance" / "dictionary.bin").read_bytes()
    )
    assert a is not None


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
    ],
    ids=["declip", "dequant"],
)
def test_bench_csv_matches_committed_golden_file(tmp_path, command, extra, golden):
    """Pins the sweep CSVs byte for byte across refactors.

    The golden files were written by ``sparse-consist <command> --n 16 --m 32
    --k-sparse 3 --trials 3 --seed 7 --jobs 1`` (plus ``--shared-dictionary``
    for dequant-bench). Regenerate them only together with a CHANGES.md entry
    that states a deliberate change in floating-point rounding, such as
    replacing the matrix-vector products with matrix-matrix ones; any other
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
    assert (tmp_path / "inst" / "dictionary.bin").exists()
