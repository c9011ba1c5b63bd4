"""Dense synthesis dictionary and the forward distortion models.

The dictionary is a plain N x M matrix (overcomplete, N < M, in the regime
of interest) applied by dense matvec; at the problem sizes this package
targets that is the fastest honest option. The distortion models are a hard
clipper and a uniform midriser quantizer, each paired with the feasibility
set of its pre-image in :mod:`sparse_consist.feasibility`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor

from .errors import DimensionMismatch
from .feasibility import IntervalSet, _as_vector

# Power iteration underestimates the top eigenvalue; the gradient step size
# 1 / L is only safe for L at or above the true value, so pad the estimate.
LIPSCHITZ_SAFETY = 1.01

_MAGIC = b"SPCD"
_FORMAT_VERSION = 1


def clip(x, theta_plus: float, theta_minus: float) -> np.ndarray:
    """Hard clipper: element-wise ``min(theta_plus, max(theta_minus, x))``."""
    if not theta_plus > theta_minus:
        raise ValueError(
            f"theta_plus must exceed theta_minus, got {theta_plus} <= {theta_minus}"
        )
    x = _as_vector(x)
    return np.minimum(theta_plus, np.maximum(theta_minus, x))


def quantize_midriser(x, n_bits: int) -> np.ndarray:
    """Uniform midriser quantizer with 2**n_bits levels on [-1, 1].

    Bin width is ``delta = 2**(1 - n_bits)``; outputs are the bin centres
    ``delta * (floor(x / delta) + 1/2)``, clamped to the outermost level when
    the input saturates. The output levels are odd multiples of ``delta / 2``,
    so zero is never emitted.
    """
    n_bits = int(n_bits)
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    x = _as_vector(x)
    delta = 2.0 ** (1 - n_bits)
    top = 1.0 - delta / 2.0
    q = delta * (np.floor(x / delta) + 0.5)
    return np.clip(q, -top, top)


def power_iteration_gram(matrix, tol: float = 1e-6, max_iter: int = 500):
    """Largest eigenvalue of ``matrix.T @ matrix`` by power iteration.

    Starts from the deterministic normalized all-ones vector so repeated runs
    give identical estimates. Returns ``(estimate, history)`` where history
    holds the Rayleigh quotient of every iteration; for a symmetric positive
    semi-definite Gram matrix the history is non-decreasing.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    d = np.asarray(matrix, dtype=np.float64)
    m = d.shape[1]
    starts = [
        np.full(m, 1.0 / math.sqrt(m)),
        np.arange(1.0, m + 1.0) / np.linalg.norm(np.arange(1.0, m + 1.0)),
    ]
    for v in starts:
        lam_prev = -np.inf
        history: list[float] = []
        failed = False
        for _ in range(max_iter):
            w = d.T @ (d @ v)
            lam = float(v @ w)  # Rayleigh quotient; v is unit-norm
            history.append(lam)
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0 or lam <= 0.0:
                failed = True  # start vector killed by the Gram action
                break
            v = w / norm_w
            if abs(lam - lam_prev) <= tol * lam:
                return lam, history
            lam_prev = lam
        if not failed:
            return lam, history
    raise ValueError(
        "power iteration found no positive Gram action; zero dictionary "
        "leaves the gradient step size undefined"
    )


class Dictionary:
    """Dense N x M synthesis operator with cached spectral-norm estimate.

    The matrix is copied and frozen at construction. The Lipschitz estimate
    and the ridge factorizations used by the constrained baseline are cached
    with compute-once semantics, so instances may be shared across threads.
    """

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=np.float64, order="C")
        if mat.ndim != 2:
            raise ValueError(f"dictionary must be a 2-D matrix, got shape {mat.shape}")
        if mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("dictionary must have at least one row and one column")
        if not np.isfinite(mat).all():
            raise ValueError("dictionary entries must be finite")
        mat.setflags(write=False)
        self._matrix = mat
        self._lipschitz: float | None = None
        self._ridge_factors: dict[float, tuple] = {}

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        """Signal dimension (rows)."""
        return self._matrix.shape[0]

    @property
    def m(self) -> int:
        """Number of atoms (columns)."""
        return self._matrix.shape[1]

    def synthesize(self, alpha, out=None) -> np.ndarray:
        """Signal-domain image ``D @ alpha`` of a coefficient vector, written
        into ``out`` when it is given."""
        alpha = _as_vector(alpha, "alpha")
        if alpha.shape[0] != self.m:
            raise DimensionMismatch(
                f"coefficient vector of length {alpha.shape[0]} does not match {self.m} atoms"
            )
        return np.matmul(self._matrix, alpha, out=out)

    def correlate(self, r, out=None) -> np.ndarray:
        """Adjoint application ``D.T @ r``, written into ``out`` when it is
        given."""
        r = _as_vector(r, "r")
        if r.shape[0] != self.n:
            raise DimensionMismatch(
                f"signal vector of length {r.shape[0]} does not match signal dimension {self.n}"
            )
        return np.matmul(self._matrix.T, r, out=out)

    def estimate_lipschitz(self) -> float:
        """Padded estimate of the gradient Lipschitz constant ``||D.T D||_2``.

        Computed once by deterministic power iteration, multiplied by
        ``LIPSCHITZ_SAFETY``, then cached; later calls return the cached value.
        """
        if self._lipschitz is None:
            lam, _ = power_iteration_gram(self._matrix)
            self._lipschitz = LIPSCHITZ_SAFETY * lam
        return self._lipschitz

    def ridge_cho_factor(self, rho: float):
        """Cholesky factorization of ``I + rho * D.T @ D``, cached per rho.

        This is the dominant setup cost of the nested-projection baseline;
        reusing it across all inner and outer iterations is what makes that
        baseline usable at all.
        """
        rho = float(rho)
        if rho <= 0.0:
            raise ValueError("rho must be positive")
        factor = self._ridge_factors.get(rho)
        if factor is None:
            gram = self._matrix.T @ self._matrix
            gram *= rho
            gram[np.diag_indices(self.m)] += 1.0
            factor = cho_factor(gram, lower=True, overwrite_a=True, check_finite=False)
            self._ridge_factors[rho] = factor
        return factor

    # ------------------------------------------------------------------
    # serialization

    def save(self, path) -> None:
        """Write the binary format: magic, version, N, M, row-major float64."""
        header = _MAGIC + struct.pack("<III", _FORMAT_VERSION, self.n, self.m)
        payload = self._matrix.astype("<f8", copy=False).tobytes(order="C")
        Path(path).write_bytes(header + payload)

    @classmethod
    def load(cls, path) -> "Dictionary":
        raw = Path(path).read_bytes()
        if len(raw) < 16 or raw[:4] != _MAGIC:
            raise ValueError(f"{path}: not a dictionary file (bad magic)")
        version, n, m = struct.unpack("<III", raw[4:16])
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        expected = 16 + 8 * n * m
        if len(raw) != expected:
            raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
        mat = np.frombuffer(raw, dtype="<f8", offset=16).reshape(n, m)
        return cls(mat)

    @classmethod
    def from_csv(cls, path) -> "Dictionary":
        """Import a matrix from comma-separated text, one row per line."""
        mat = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(mat)


class DistortionKind(Enum):
    CLIP = "clip"
    QUANTIZE_MIDRISER = "quant"
    NONE = "none"


@dataclass(frozen=True)
class DistortionSpec:
    """Parameters of the forward distortion applied to a clean signal.

    Use the :meth:`clipping`, :meth:`quantization`, or :meth:`identity`
    constructors. ``apply`` runs the distortion and ``preimage`` builds the
    feasibility set of all signals consistent with an observation.
    """

    kind: DistortionKind
    theta_plus: float | None = None
    theta_minus: float | None = None
    n_bits: int | None = None

    def __post_init__(self):
        if self.kind is DistortionKind.CLIP:
            if self.theta_plus is None or self.theta_minus is None:
                raise ValueError("clipping requires both thresholds")
            if not self.theta_plus > self.theta_minus:
                raise ValueError("clipping requires theta_plus > theta_minus")
        elif self.kind is DistortionKind.QUANTIZE_MIDRISER:
            if self.n_bits is None or int(self.n_bits) < 1:
                raise ValueError("quantization requires n_bits >= 1")

    @classmethod
    def clipping(cls, theta_plus: float, theta_minus: float | None = None) -> "DistortionSpec":
        """Clipper at the given thresholds; symmetric (-theta, theta) if only
        one level is given."""
        theta_plus = float(theta_plus)
        if theta_minus is None:
            theta_minus = -theta_plus
        return cls(DistortionKind.CLIP, theta_plus=theta_plus, theta_minus=float(theta_minus))

    @classmethod
    def quantization(cls, n_bits: int) -> "DistortionSpec":
        return cls(DistortionKind.QUANTIZE_MIDRISER, n_bits=int(n_bits))

    @classmethod
    def identity(cls) -> "DistortionSpec":
        return cls(DistortionKind.NONE)

    @property
    def delta(self) -> float:
        """Quantizer bin width ``2**(1 - n_bits)``; exact in binary floating point."""
        if self.kind is not DistortionKind.QUANTIZE_MIDRISER:
            raise ValueError("delta is only defined for the quantizer")
        return 2.0 ** (1 - int(self.n_bits))

    @property
    def task(self) -> str:
        return {
            DistortionKind.CLIP: "declipping",
            DistortionKind.QUANTIZE_MIDRISER: "dequantization",
            DistortionKind.NONE: "none",
        }[self.kind]

    @property
    def param(self) -> float:
        """Scalar sweep parameter: the clip level or the bit depth."""
        if self.kind is DistortionKind.CLIP:
            return float(self.theta_plus)
        if self.kind is DistortionKind.QUANTIZE_MIDRISER:
            return float(self.n_bits)
        return float("nan")

    def apply(self, x) -> np.ndarray:
        if self.kind is DistortionKind.CLIP:
            return clip(x, self.theta_plus, self.theta_minus)
        if self.kind is DistortionKind.QUANTIZE_MIDRISER:
            return quantize_midriser(x, self.n_bits)
        return _as_vector(x).copy()

    def preimage(self, y) -> IntervalSet:
        if self.kind is DistortionKind.CLIP:
            return IntervalSet.from_clipping(y, self.theta_plus, self.theta_minus)
        if self.kind is DistortionKind.QUANTIZE_MIDRISER:
            return IntervalSet.from_quantization(y, self.delta, 1.0)
        return IntervalSet.singleton(y)

    def label(self) -> str:
        if self.kind is DistortionKind.CLIP:
            return f"clip:{self.theta_plus:g}"
        if self.kind is DistortionKind.QUANTIZE_MIDRISER:
            return f"quant:{self.n_bits}"
        return "none"

    @classmethod
    def parse(cls, text: str) -> "DistortionSpec":
        """Parse a CLI-style descriptor: ``clip:0.6``, ``quant:4``, or ``none``."""
        text = text.strip()
        if text == "none":
            return cls.identity()
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"malformed distortion {text!r}, expected kind:param")
        if head == "clip":
            return cls.clipping(float(tail))
        if head == "quant":
            value = float(tail)
            if value != int(value):
                raise ValueError(f"bit depth must be an integer, got {tail!r}")
            return cls.quantization(int(value))
        raise ValueError(f"unknown distortion kind {head!r}")
