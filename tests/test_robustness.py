"""Every solve on a small hostile instance ends in a typed outcome."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparse_consist import (
    AdmmConfig,
    Dictionary,
    DimensionMismatch,
    DistortionSpec,
    IntervalSet,
    SolverConfig,
    clip,
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
    y = clip(rng.standard_normal(8), 0.5, -0.5)
    return d, DistortionSpec.clipping(0.5).preimage(y)


@given(st.sampled_from(SOLVER_NAMES), problems(), st.floats(0, 1))
# Fixed cases from a hand probe: ridge Gram values negligible next to the
# identity (1e-150) or swamping it (1e140, 1e150), and a power iteration
# whose norms overflow (1e140).
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
