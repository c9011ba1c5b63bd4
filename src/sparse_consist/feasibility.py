"""Axis-aligned feasibility sets for declipping and dequantization.

Every sample of a clipped or quantized observation constrains the unknown
signal to an interval: exactly-known samples pin it to a point, saturated
samples leave it unbounded on one side, quantized samples confine it to a
bin. The full constraint set is therefore a box (a product of closed
intervals, possibly unbounded), so the Euclidean projection is an
element-wise clamp, and the gradient of half the squared distance to the
set is the projection difference ``x - project(x)``. The solvers' objective
is built on that residual; ``solvers.certificate`` evaluates it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


def _as_vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _count(value, name: str, floor: int = 0) -> int:
    """``value``, an integer that is not a bool and at least ``floor``, as
    an ``int``, so that seed arithmetic neither wraps nor overflows."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < floor:
        bound = "non-negative" if floor == 0 else f"at least {floor}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _real(value, name: str) -> float:
    """``value``, a real number that is not a bool, as a ``float``, so that
    a float32 setting cannot lower the precision of what it scales."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Per-sample interval constraints ``[lower[i], upper[i]]``.

    ``lower`` may contain ``-inf`` and ``upper`` may contain ``+inf``;
    ``lower[i] == upper[i]`` encodes an exactly-known sample. Instances are
    immutable (the stored arrays are read-only copies), so they are safe to
    share between threads.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower").copy()
        hi = _as_vector(self.upper, "upper").copy()
        if lo.shape != hi.shape:
            raise DimensionMismatch(
                f"lower and upper differ in length: {lo.shape[0]} vs {hi.shape[0]}"
            )
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval bounds must not be NaN")
        if (lo > hi).any():
            raise ValueError("each interval must satisfy lower <= upper")
        if (lo == np.inf).any() or (hi == -np.inf).any():
            raise ValueError("an interval must contain a real number: lower < inf, upper > -inf")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __len__(self) -> int:
        return self.lower.shape[0]

    def _check_length(self, x: np.ndarray) -> None:
        if x.shape[0] != len(self):
            raise DimensionMismatch(
                f"vector of length {x.shape[0]} does not match set of length {len(self)}"
            )

    # ------------------------------------------------------------------
    # geometry

    def project(self, x, out=None) -> np.ndarray:
        """Euclidean projection onto the set: an element-wise clamp, written
        into ``out`` when it is given (``out`` may be ``x`` itself)."""
        x = _as_vector(x)
        self._check_length(x)
        return np.minimum(self.upper, np.maximum(self.lower, x, out=out), out=out)

    def grad_half_distance_sq(self, x, out=None) -> np.ndarray:
        """Gradient of half the squared distance to the set at ``x``, i.e.
        ``x - project(x)``, written into ``out`` when it is given (``out``
        must not be ``x``)."""
        return np.subtract(x, self.project(x, out=out), out=out)
