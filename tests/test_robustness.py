"""Every solve on a small hostile instance ends in a typed outcome, and
every malformed command line in one error line."""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparse_consist import (
    AdmmConfig,
    Dictionary,
    DimensionMismatch,
    DistortionSpec,
    IntervalSet,
    SolverConfig,
    certificate,
    cli,
    solve_fista,
)
from sparse_consist.experiments import SOLVER_NAMES, run_solver

STOP_REASONS = {"converged", "max_iter", "non_finite", "inner_stall"}


@st.composite
def dictionaries(draw):
    """Small dense, zero-column or rank-one matrices, scaled by 1 or by
    10**e with 140 <= |e| <= 160, where Gram values overflow, underflow or
    swamp the identity."""
    # sampled_from draws evenly, where integers() favours the low end
    n = draw(st.sampled_from(range(1, 7)))
    m = n + draw(st.sampled_from(range(5)))  # square or overcomplete
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["dense", "zero_columns", "rank_one"]))
    if shape == "rank_one":
        mat = np.outer(rng.standard_normal(n), rng.standard_normal(m))
    else:
        mat = rng.standard_normal((n, m))
    if shape == "zero_columns":
        mat[:, rng.random(m) < 0.5] = 0.0
    exponent = draw(
        st.one_of(st.just(0), st.sampled_from(range(140, 161)), st.sampled_from(range(-160, -139)))
    )
    return Dictionary(mat * 10.0**exponent)


@st.composite
def boxes(draw, n):
    """Boxes whose samples are points, half-lines, bins or whole lines."""
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        kind = draw(st.sampled_from(["point", "above", "below", "bin", "line"]))
        a = draw(st.floats(-2, 2))
        lo[i], hi[i] = {
            "point": (a, a),
            "above": (a, math.inf),
            "below": (-math.inf, a),
            "bin": (a, a + draw(st.floats(0, 1))),
            "line": (-math.inf, math.inf),
        }[kind]
    return IntervalSet(lo, hi)


@st.composite
def problems(draw):
    d = draw(dictionaries())
    # now and then a set of the wrong length, which must raise DimensionMismatch
    length = d.n + draw(st.sampled_from([0, 0, 0, 1]))
    return d, draw(boxes(length))


def _clip_probe(scale):
    """An N=8, M=16 declipping instance at clip level 0.5 whose dictionary
    is scaled by ``scale``."""
    rng = np.random.default_rng(10)
    d = Dictionary(rng.standard_normal((8, 16)) * scale)
    clip = DistortionSpec.clipping(0.5)
    return d, clip.preimage(clip.apply(rng.standard_normal(8)))


@given(st.sampled_from(SOLVER_NAMES), problems(), st.floats(0, 1))
# Fixed cases from a hand probe: ridge Gram values negligible next to the
# identity (1e-150) or swamping it (1e140, 1e150), and a Lipschitz
# constant whose unscaled Gram values would overflow (1e140).
@example("admm", _clip_probe(1e-150), 0.1)
@example("admm", _clip_probe(1e140), 0.1)
@example("admm", _clip_probe(1e150), 0.1)
@example("fista", _clip_probe(1e140), 0.1)
@settings(max_examples=300, deadline=None)
def test_every_solve_stops_for_a_stated_reason_or_raises_value_error(name, problem, lam):
    d, iset = problem
    try:
        alpha, trace = run_solver(
            name, d, iset, SolverConfig(lam=lam, max_iter=30), AdmmConfig(max_iter=10)
        )
    except ValueError as exc:
        # numpy's LinAlgError is a ValueError too, but one that names no cause
        assert type(exc) in (ValueError, DimensionMismatch)
        return
    assert trace.stop_reason in STOP_REASONS
    if trace.stop_reason != "non_finite":
        assert np.isfinite(alpha).all()


@given(
    st.sampled_from(["ista", "fista"]),
    problems(),
    st.floats(0, 1),
    st.sampled_from([0.0, 1e-5, 1e-2]),
)
@settings(max_examples=300, deadline=None)
def test_a_relaxed_solve_reads_converged_exactly_when_its_answer_is_within_tol(
    name, problem, lam, tol
):
    d, iset = problem
    config = SolverConfig(lam=lam, max_iter=30, tol=tol)
    try:
        alpha, trace = run_solver(name, d, iset, config, AdmmConfig())
    except ValueError:
        return
    kkt, history = trace.kkt_residual_final, trace.objective_per_iter
    if trace.stop_reason == "non_finite":
        assert not math.isfinite(history[-1])
    else:
        assert trace.stop_reason in ("converged", "max_iter")
        assert trace.converged == (kkt <= tol)
        if trace.iterations_run < config.max_iter:
            assert trace.converged and trace.iterations_run % 10 == 0
    # the certificate of the returned point is the trace's, bit for bit
    # where it is a number
    np.testing.assert_array_equal(certificate(d, iset, alpha, lam), (history[-1], kkt))


# ----------------------------------------------------------------------
# the command line

# Parameters that are not numbers, or not a float Python reads.
NOT_NUMBERS = st.sampled_from(["", "abc", "1.2.3", "0x1", "1e", "--", "4,", "clip:0.5"])
# Clip levels the clipper refuses: zero, negative or NaN.
BAD_LEVELS = st.one_of(
    st.floats(max_value=0.0, allow_nan=False).map(repr), st.just("nan"), NOT_NUMBERS
)
# Bit depths the quantizer refuses: fractional, below 1, above 52, infinite
# or NaN.
BAD_DEPTHS = st.one_of(
    st.integers(max_value=0).map(str),
    st.integers(min_value=53).map(str),
    st.floats(allow_nan=False).filter(lambda v: not (v.is_integer() and 1 <= v <= 52)).map(repr),
    st.sampled_from(["inf", "-inf", "nan"]),
    NOT_NUMBERS,
)


@st.composite
def bad_descriptors(draw):
    """``--distortion`` text that ``DistortionSpec.parse`` must refuse."""
    case = draw(st.sampled_from(["kind", "missing", "none", "clip", "quant"]))
    if case == "kind":  # letters that spell none of clip, quant, none
        text = draw(st.text("abdfghjkmrsvwxyz", min_size=1, max_size=6))
        tail = draw(st.one_of(st.none(), st.floats(0.1, 8).map(repr)))
        return text if tail is None else f"{text}:{tail}"
    if case == "missing":
        return draw(st.sampled_from(["clip", "quant", " clip ", "quant:"]))
    if case == "none":
        return "none:" + draw(st.one_of(st.floats(allow_nan=False).map(repr), NOT_NUMBERS))
    return f"{case}:" + draw(BAD_LEVELS if case == "clip" else BAD_DEPTHS)


@st.composite
def bad_grids(draw, kind):
    """``--grid`` text with at least one entry the sweep must refuse, or no
    entry at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["", ",", " , ,", "  "]))
    good = st.sampled_from(["0.2", "0.6", " 1.5"] if kind == "clip" else ["2", "4", " 6"])
    entries = draw(st.lists(good, max_size=3))
    # a blank entry is skipped, not refused, and a comma would split one
    bad = draw(
        (BAD_LEVELS if kind == "clip" else BAD_DEPTHS).filter(lambda t: t.strip() and "," not in t)
    )
    entries.insert(draw(st.integers(0, len(entries))), bad)
    return ",".join(entries)


def _saved(save, array) -> bytes:
    """The bytes ``save`` (``np.save`` or ``np.savez``) writes for ``array``."""
    buf = io.BytesIO()
    save(buf, array)
    return buf.getvalue()


# Files that are no dictionary, by name: what ``Dictionary.load`` refuses,
# with a ValueError that names the path. The old binary format (magic
# SPCD, then a uint32 version, N and M) is one.
BAD_DICTIONARY_FILES = {
    "garbage": b"1.0,2.0\n3.0,4.0\n",
    "old_spcd": b"SPCD" + np.array([1, 1, 1], "<u4").tobytes() + np.ones(1).tobytes(),
    "empty": b"",
    "truncated": _saved(np.save, np.eye(3))[:-8],
    "truncated_header": _saved(np.save, np.eye(3))[:20],
    "npz": _saved(np.savez, np.eye(3)),
    "complex": _saved(np.save, np.eye(3) * 1j),
    "object": _saved(np.save, np.array([[1.0, None]], dtype=object)),
    "text": _saved(np.save, np.array([["1.0", "2.0"]])),
    "vector": _saved(np.save, np.ones(3)),
    "nan": _saved(np.save, np.array([[1.0, np.nan]])),
    "trailing": _saved(np.save, np.eye(2)) + np.ones(5).tobytes(),
    "two_arrays": _saved(np.save, np.eye(2)) * 2,
}


@pytest.fixture(scope="module")
def instance():
    """Paths of a small dictionary and observation for ``solve``."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        rng = np.random.default_rng(0)
        Dictionary(rng.standard_normal((4, 8))).save(d / "dictionary.npy")
        np.savetxt(d / "y.txt", rng.uniform(-0.5, 0.5, size=4))
        yield d


def _run_cli(argv):
    """Exit code and standard error of one ``cli.main`` call."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _assert_one_error_line(rc, err):
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n\n", "# a comment and no numbers\n"])
def test_input_files_without_numbers_exit_2_with_one_error_line(instance, tmp_path, text):
    good = {"--dict": instance / "dictionary.npy", "--observation": instance / "y.txt"}
    for flag, name in (("--observation", "y.txt"), ("--dict", "d.npy")):
        path = tmp_path / name
        path.write_text(text)
        argv = ["solve", "--distortion", "clip:inf", "--out", str(tmp_path / "r.json")]
        argv += [str(a) for pair in {**good, flag: path}.items() for a in pair]
        rc, err = _run_cli(argv)
        _assert_one_error_line(rc, err)
        assert str(path) in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.filterwarnings("error")
def test_bad_dictionary_files_exit_2_with_one_error_line(instance, tmp_path):
    for name, raw in BAD_DICTIONARY_FILES.items():
        path = tmp_path / f"{name}.npy"
        path.write_bytes(raw)
        argv = ["solve", "--dict", str(path), "--observation", str(instance / "y.txt"),
                "--distortion", "clip:inf", "--out", str(tmp_path / "r.json")]
        rc, err = _run_cli(argv)
        _assert_one_error_line(rc, err)
        assert err.startswith(f"error: {path}: "), err
    assert not (tmp_path / "r.json").exists()


def test_a_two_column_observation_exits_2_with_one_error_line(instance, tmp_path):
    path = tmp_path / "y2.txt"
    path.write_text("0.1 0.2\n0.3 0.4\n")
    argv = ["solve", "--dict", str(instance / "dictionary.npy"), "--observation", str(path),
            "--distortion", "clip:inf", "--out", str(tmp_path / "r.json")]
    rc, err = _run_cli(argv)
    _assert_one_error_line(rc, err)
    assert "single column" in err
    assert not (tmp_path / "r.json").exists()


def test_fista_solves_on_a_dictionary_whose_rows_sum_to_zero():
    # Every row sums to zero, so the all-ones vector lies in this matrix's
    # null space. The box is [0.5, inf), so the minimizer of
    # 0.5 (0.5 + 2 a)^2 + lam |a| is a = -0.25 + lam / 4 on the middle atom.
    clip = DistortionSpec.clipping(0.5)
    config = SolverConfig(tol=1e-12)
    alpha, trace = solve_fista(
        Dictionary([[1.0, -2.0, 1.0]]), clip.preimage(np.array([0.5])), config
    )
    assert trace.stop_reason == "converged"
    assert trace.kkt_residual_final <= config.tol
    np.testing.assert_allclose(alpha, [0.0, -0.25 + config.lam / 4, 0.0], rtol=0, atol=1e-6)


@given(bad_descriptors())
@example("--")  # argparse stores an empty list for --distortion=--
@settings(max_examples=60, deadline=None)
def test_malformed_distortions_exit_2_with_one_error_line(instance, descriptor):
    for argv in (
        ["gen", "--n", "4", "--m", "8", "--k-sparse", "1", "--out", str(instance / "gen")],
        ["solve", "--dict", str(instance / "dictionary.npy"),
         "--observation", str(instance / "y.txt"), "--out", str(instance / "r.json")],
    ):
        _assert_one_error_line(*_run_cli([*argv, f"--distortion={descriptor}"]))
    assert sorted(p.name for p in instance.iterdir()) == ["dictionary.npy", "y.txt"]


@given(bad_grids("clip"), bad_grids("quant"))
@example("--", "--")
@settings(max_examples=60, deadline=None)
def test_malformed_grids_exit_2_with_one_error_line(instance, clip_grid, quant_grid):
    # a small, fast sweep, should a grid slip through
    small = ["--n", "4", "--m", "8", "--k-sparse", "1", "--trials", "1", "--jobs", "1",
             "--max-iter", "5", "--out", str(instance / "b.csv")]
    for argv in (
        ["declip-bench", f"--grid={clip_grid}"],
        ["dequant-bench", f"--grid={quant_grid}"],
    ):
        _assert_one_error_line(*_run_cli([*argv, *small]))
    assert sorted(p.name for p in instance.iterdir()) == ["dictionary.npy", "y.txt"]
