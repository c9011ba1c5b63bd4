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


# The task name each distortion kind poses, keyed by the kind's CLI spelling.
_TASKS = {"clip": "declipping", "quant": "dequantization", "none": "none"}


@dataclass(frozen=True)
class DistortionSpec:
    """Parameters of the forward distortion applied to a clean signal.

    ``kind`` is ``clip``, ``quant`` or ``none``; ``param`` is the symmetric
    clip level, the bit depth, or None for ``none``. ``apply`` runs the
    distortion and ``preimage`` builds the feasibility set of all signals
    consistent with an observation. Asymmetric clipping is available
    through :func:`clip` and :meth:`IntervalSet.from_clipping`.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _TASKS:
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        if (self.param is None) != (self.kind == "none"):
            need = "takes no" if self.kind == "none" else "requires a"
            raise ValueError(f"distortion {self.kind!r} {need} parameter")
        if self.param is None:
            return
        param = float(self.param)
        object.__setattr__(self, "param", param)
        if self.kind == "clip" and not param > 0.0:
            raise ValueError(f"clip level must be positive, got {param}")
        if self.kind == "quant" and not (param.is_integer() and param >= 1.0):
            raise ValueError(f"bit depth must be an integer >= 1, got {param}")

    @classmethod
    def clipping(cls, theta: float) -> "DistortionSpec":
        """Symmetric clipper at ``(-theta, theta)``."""
        return cls("clip", theta)

    @classmethod
    def quantization(cls, n_bits: int) -> "DistortionSpec":
        return cls("quant", n_bits)

    @classmethod
    def identity(cls) -> "DistortionSpec":
        return cls("none")

    @property
    def delta(self) -> float:
        """Quantizer bin width ``2**(1 - n_bits)``; exact in binary floating point."""
        if self.kind != "quant":
            raise ValueError("delta is only defined for the quantizer")
        return 2.0 ** (1 - int(self.param))

    @property
    def task(self) -> str:
        return _TASKS[self.kind]

    def apply(self, x) -> np.ndarray:
        if self.kind == "clip":
            return clip(x, self.param, -self.param)
        if self.kind == "quant":
            return quantize_midriser(x, self.param)
        return _as_vector(x).copy()

    def preimage(self, y) -> IntervalSet:
        if self.kind == "clip":
            return IntervalSet.from_clipping(y, self.param, -self.param)
        if self.kind == "quant":
            return IntervalSet.from_quantization(y, self.delta, 1.0)
        return IntervalSet.singleton(y)

    def label(self) -> str:
        """The CLI descriptor of this spec, as :meth:`parse` reads it."""
        return self.kind if self.param is None else f"{self.kind}:{self.param:g}"

    @classmethod
    def parse(cls, text: str) -> "DistortionSpec":
        """Parse a CLI-style descriptor: ``clip:0.6``, ``quant:4``, or ``none``."""
        kind, sep, tail = text.strip().partition(":")
        try:
            param = float(tail) if sep else None
        except ValueError:
            raise ValueError(f"malformed distortion {text!r}, expected kind:param") from None
        return cls(kind, param)
