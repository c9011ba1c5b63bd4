"""Dense synthesis dictionary and the forward distortion models.

The dictionary is a plain N x M matrix (overcomplete, N < M, in the regime
of interest) applied by dense matvec; at the problem sizes this package
targets that is the fastest honest option. The distortion models are a hard
clipper and a uniform midriser quantizer; each one's pre-image is a box, an
:class:`~sparse_consist.feasibility.IntervalSet`, read off its forward map.
No distortion is the clipper at infinity, whose pre-image of ``y`` is the
point ``{y}``.
The dictionary's helpers, :func:`power_iteration_gram` behind its Lipschitz
estimate and :func:`cho_factor` behind its ridge factors, are this
module's own; the package does not export them.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .feasibility import IntervalSet, _as_vector, _real

# Power iteration underestimates the top eigenvalue; the gradient step size
# 1 / L is only safe for L at or above the true value, so pad the estimate.
LIPSCHITZ_SAFETY = 1.01
# The power iteration stops at this relative change, or after this many
# iterations.
_POWER_TOL = 1e-6
_POWER_MAX_ITER = 500

# How far an observation may sit from a quantizer level and still read as
# that level. The pre-image caps it at a quarter bin, so that a bin edge is
# never read as a level however fine the bins.
LEVEL_TOL = 1e-9

# The finest quantizer. Up to 52 bits its levels, bin edges and half bins
# are exact in float64; at 54 bits a pre-image can miss the signal that
# produced it.
MAX_BITS = 52

_MAGIC = b"SPCD"
_FORMAT_VERSION = 1

# Bytes in a cache line. OpenBLAS's AVX-512 matrix-vector kernels read a
# matrix that starts on one a quarter faster than one that does not.
_ALIGN = 64


def _aligned_empty(shape) -> np.ndarray:
    """Uninitialized C-ordered float64 array whose first entry starts on a
    64-byte boundary: the view into a buffer over-allocated by 8 entries
    that skips to the first aligned one. ``shape`` is an int or a tuple."""
    size = shape if isinstance(shape, int) else math.prod(shape)
    buf = np.empty(size + _ALIGN // 8)
    skip = (-buf.ctypes.data % _ALIGN) // 8
    return buf[skip : skip + size].reshape(shape)


# The function reports an overflow by its ValueError, not by numpy's warning.
@np.errstate(over="ignore")
def power_iteration_gram(matrix):
    """Largest eigenvalue of ``matrix.T @ matrix`` by power iteration.

    Starts from the deterministic normalized all-ones vector so repeated runs
    give identical estimates, and returns the Rayleigh quotient of the last
    iteration: the first whose estimate moved by at most ``_POWER_TOL``
    relative, or the ``_POWER_MAX_ITER``-th. Where the Gram action kills
    the all-ones start, which lies in the null space of a matrix whose rows
    sum to zero, no restart is sure to reach the top eigenvector, so the
    estimate is the exact squared spectral norm of the scaled copy
    (``np.linalg.norm(scaled, 2)``, by SVD), at least 1/4. Every nonzero
    matrix gets an estimate.

    It runs on the matrix scaled by the power of two that puts its largest
    entry in [0.5, 1), so no norm overflows, and scales the estimate back
    exactly. The scaled copy and the iterate, image and Gram-action vectors
    live in 64-byte-aligned buffers allocated once. Raises ValueError for a
    zero matrix, and for one whose estimate is not finite (overflow) or
    below the smallest normal double (underflow).
    """
    d = np.asarray(matrix, dtype=np.float64)
    peak = _max_abs(d)
    if peak == 0.0:
        raise ValueError("zero dictionary leaves the gradient step size undefined")
    exponent = math.frexp(peak)[1]
    scaled = np.ldexp(d, -exponent, out=_aligned_empty(d.shape))
    n, m = d.shape
    v, image, w = _aligned_empty(m), _aligned_empty(n), _aligned_empty(m)
    v[:] = 1.0 / math.sqrt(m)
    lam_prev = -np.inf
    for _ in range(_POWER_MAX_ITER):
        np.matmul(scaled, v, out=image)
        np.matmul(scaled.T, image, out=w)
        lam = float(v @ w)  # Rayleigh quotient; v is unit-norm
        if lam <= 0.0:
            # the Gram action killed the all-ones start
            lam = float(np.linalg.norm(scaled, 2)) ** 2
            break
        np.divide(w, np.linalg.norm(w), out=v)
        if abs(lam - lam_prev) <= _POWER_TOL * lam:
            break
        lam_prev = lam
    estimate = float(np.ldexp(lam, 2 * exponent))
    if np.finfo(np.float64).tiny <= estimate < math.inf:
        return estimate
    raise ValueError(
        f"Gram values of the matrix {'underflow' if estimate < 1.0 else 'overflow'}: "
        f"power iteration estimates {estimate:.3e} (largest entry {peak:.3e})"
    )


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix)))


def cho_factor(a: np.ndarray):
    """Lower Cholesky factor ``(c, True)`` of the F-ordered matrix ``a``,
    computed in place by scipy's ``cho_factor``.

    scipy.linalg is imported here, on the first factorization, so that a
    process which never runs the ADMM baseline does not load it.
    """
    from scipy.linalg import cho_factor

    return cho_factor(a, lower=True, overwrite_a=True, check_finite=False)


class Dictionary:
    """Dense N x M synthesis operator with cached spectral-norm estimate.

    The matrix is copied and frozen at construction, C-ordered in a buffer
    that starts on a 64-byte cache-line boundary, where BLAS reads it
    fastest; an unpickled copy is built the same way. The Lipschitz
    estimate and the ridge factorizations used by the constrained baseline
    are cached with compute-once semantics, so instances may be shared
    across threads. A pickle carries the Lipschitz estimate but not the
    ridge factors, which the copy computes again when it needs them.
    """

    def __init__(self, matrix):
        src = np.asarray(matrix, dtype=np.float64)
        mat = _aligned_empty(src.shape)
        mat[...] = src
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

    def __getstate__(self):
        return {"matrix": self._matrix, "lipschitz": self._lipschitz}

    def __setstate__(self, state):
        # numpy unpickles the matrix wherever malloc puts it; realign it.
        self.__init__(state["matrix"])
        self._lipschitz = state["lipschitz"]

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
            self._lipschitz = LIPSCHITZ_SAFETY * power_iteration_gram(self._matrix)
        return self._lipschitz

    def ridge_cho_factor(self, rho: float):
        """Cholesky factorization of ``I + rho * D.T @ D``, cached per rho.

        This is the dominant setup cost of the nested-projection baseline;
        reusing it across all inner and outer iterations is what makes that
        baseline usable at all. The factor is F-contiguous and starts on a
        64-byte boundary, so BLAS reads it without a copy and at full speed.
        Raises ValueError, caching nothing, when the ridge system no longer
        holds the dictionary at this scale: a value of
        ``rho * D.T @ D`` overflows, a nonzero atom's diagonal entry
        underflows, every Gram value is negligible next to the identity (the
        system is exactly I), or the Gram values swamp the identity so that
        the factorization fails; and when rho is not a positive real number.
        """
        rho = _real(rho, "rho")
        if not rho > 0.0:
            raise ValueError("rho must be positive")
        factor = self._ridge_factors.get(rho)
        if factor is None:
            with np.errstate(over="ignore"):
                gram = np.matmul(
                    self._matrix.T, self._matrix, out=_aligned_empty((self.m, self.m))
                )
                gram *= rho
            if not np.isfinite(gram).all():
                raise self._gram_error("overflow", rho)
            diagonal = gram.diagonal()
            tiny = np.finfo(np.float64).tiny
            if np.any((diagonal < tiny) & self._matrix.any(axis=0)):
                raise self._gram_error("underflow", rho)
            if 1.0 + diagonal.max() == 1.0 and self._matrix.any():
                raise self._gram_error("are negligible next to the identity", rho)
            gram[np.diag_indices(self.m)] += 1.0
            # The Gram matrix is exactly symmetric, so its transpose is the
            # same matrix in Fortran order, which LAPACK factors in place.
            try:
                factor = cho_factor(gram.T)
            except np.linalg.LinAlgError:
                # I + rho * D.T @ D is positive definite in exact arithmetic
                raise self._gram_error("swamp the identity", rho) from None
            self._ridge_factors[rho] = factor
        return factor

    def _gram_error(self, fault: str, rho: float) -> ValueError:
        return ValueError(
            f"Gram values rho * D.T @ D {fault} at rho={rho} "
            f"(largest entry of D {_max_abs(self._matrix):.3e})"
        )

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
        return cls(_load_text(path, delimiter=",", ndmin=2))


def _load_text(path, **kwargs) -> np.ndarray:
    """``np.loadtxt(path, **kwargs)``, refusing a file that holds no numbers
    as malformed input instead of warning and returning an empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(path, **kwargs)
    if values.size == 0:
        raise ValueError(f"{path}: holds no numbers")
    return values


# The task name each distortion kind poses, keyed by the kind's CLI spelling.
_TASKS = {"clip": "declipping", "quant": "dequantization"}


@dataclass(frozen=True)
class DistortionSpec:
    """Parameters of the forward distortion applied to a clean signal.

    ``kind`` is ``clip`` or ``quant``; ``param`` is the symmetric clip level
    or the bit depth, a real number stored as ``float``. No distortion is the
    clipper at infinity, :meth:`identity`. ``apply`` runs the
    distortion and ``preimage`` builds the feasibility set of all signals
    consistent with an observation. An asymmetric clip ``np.clip(x, lo,
    hi)`` has no spec; its box is ``IntervalSet(lower, upper)`` with both
    bounds ``y``, except ``upper = inf`` where ``y == hi`` and ``lower = -inf``
    where ``y == lo``.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _TASKS:
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        param = _real(self.param, "clip level" if self.kind == "clip" else "bit depth")
        object.__setattr__(self, "param", param)
        if self.kind == "clip" and not param > 0.0:
            raise ValueError(f"clip level must be positive, got {param}")
        if self.kind == "quant" and not (param.is_integer() and 1.0 <= param <= MAX_BITS):
            raise ValueError(f"bit depth must be an integer from 1 to {MAX_BITS}, got {param}")

    @classmethod
    def clipping(cls, theta: float) -> "DistortionSpec":
        """Symmetric clipper at ``(-theta, theta)``."""
        return cls("clip", theta)

    @classmethod
    def quantization(cls, n_bits: int) -> "DistortionSpec":
        return cls("quant", n_bits)

    @classmethod
    def identity(cls) -> "DistortionSpec":
        """No distortion: the clipper at infinity, ``clip:inf``, which maps
        every finite signal to itself."""
        return cls.clipping(math.inf)

    @property
    def delta(self) -> float:
        """Quantizer bin width ``2**(1 - n_bits)``; exact in binary floating point."""
        if self.kind != "quant":
            raise ValueError("delta is only defined for the quantizer")
        return 2.0 ** (1 - int(self.param))

    @property
    def task(self) -> str:
        return _TASKS[self.kind]

    @property
    def _top(self) -> float:
        """The extreme output: the clip level, or the outermost quantizer
        level ``1 - delta/2``."""
        return self.param if self.kind == "clip" else 1.0 - self.delta / 2.0

    def apply(self, x) -> np.ndarray:
        """The observation of ``x``: ``x`` clipped to ``[-theta, theta]``, or
        the midriser bin centre ``delta * (floor(x / delta) + 1/2)`` clamped
        to the outermost level. Quantizer outputs are odd multiples of
        ``delta / 2``, so zero is never emitted."""
        return self._map(_as_vector(x))

    def _map(self, x: np.ndarray) -> np.ndarray:
        # preimage calls this, not apply, so that a wrapper patched over
        # apply on the class (as the benchmark's span tracer does) does not
        # also run inside preimage.
        if self.kind == "quant":
            x = self.delta * (np.floor(x / self.delta) + 0.5)
        top = self._top
        return np.minimum(top, np.maximum(-top, x))

    # The rule refuses a NaN or infinite sample by its ValueError, not by
    # numpy's warning on the inf - inf of the clipper at infinity.
    @np.errstate(invalid="ignore")
    def preimage(self, y) -> IntervalSet:
        """The box of all signals that ``apply`` maps to ``y``.

        One rule for both distortions. ``y`` must be a fixed point of the
        forward map: exactly for the clipper, and for the quantizer to within
        ``LEVEL_TOL`` capped at a quarter bin; otherwise ``ValueError`` names
        the first sample that is not. No NaN or infinite sample is one.
        Each sample's interval is ``[y - half, y + half]``, where ``half`` is 0
        for the clipper and ``delta / 2`` for the quantizer, and it is
        unbounded on the outer side exactly where the output is an extreme
        level (``+-theta`` or ``+-(1 - delta/2)``), which absorbs the
        saturated tail. Under :meth:`identity`, the clipper at infinity, no
        finite output is extreme, so the box is the point ``IntervalSet(y, y)``.
        """
        y = _as_vector(y, "y")
        out = self._map(y)
        half = self.delta / 2.0 if self.kind == "quant" else 0.0
        off = ~(np.abs(out - y) <= min(LEVEL_TOL, half / 2.0))
        if off.any():
            i = int(np.argmax(off))
            raise ValueError(f"y[{i}] = {float(y[i])!r} is not an output of {self.label()}")
        lower = y - half
        upper = y + half
        top = self._top
        upper[out == top] = np.inf
        lower[out == -top] = -np.inf
        return IntervalSet(lower, upper)

    def label(self) -> str:
        """The CLI descriptor of this spec, as :meth:`parse` reads it back
        exactly: the shortest round-trip form of the parameter, without a
        trailing ``.0`` (``clip:0.6``, ``quant:4``, ``clip:inf``)."""
        return f"{self.kind}:{repr(self.param).removesuffix('.0')}"

    @classmethod
    def parse(cls, text: str) -> "DistortionSpec":
        """Parse a CLI-style descriptor: ``clip:0.6``, ``quant:4``, or
        ``clip:inf`` for no distortion."""
        kind, _, tail = text.strip().partition(":")
        try:
            param = float(tail)
        except ValueError:
            raise ValueError(f"malformed distortion {text!r}, expected kind:param") from None
        return cls(kind, param)
