"""Dense synthesis dictionary and the forward distortion models.

The dictionary is a plain N x M matrix (overcomplete, N < M, in the regime
of interest) applied by dense matvec; at the problem sizes this package
targets that is the fastest honest option. The distortion models are a hard
clipper and a uniform midriser quantizer; each one's pre-image is a box, an
:class:`~sparse_consist.feasibility.IntervalSet`, read off its forward map.
No distortion is the clipper at infinity, whose pre-image of ``y`` is the
point ``{y}``.
The dictionary's helpers, :func:`power_iteration_gram` behind its Lipschitz
constant (one exact eigenvalue solve, whatever the name says) and
:func:`cho_factor` behind its ridge factors, are this module's own; the
package does not export them. The ridge factor and solve call scipy's
compiled LAPACK and BLAS modules, which :func:`_scipy_compiled` loads at
the first of them without importing the scipy.linalg package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feasibility import IntervalSet, _as_vector, _real

# The gradient step size 1 / L is only safe for L at or above ||D^T D||; the
# 1% pad covers the eigenvalue solve's rounding with room to spare.
LIPSCHITZ_SAFETY = 1.01

# How far an observation may sit from a quantizer level and still read as
# that level. The pre-image caps it at a quarter bin, so that a bin edge is
# never read as a level however fine the bins.
LEVEL_TOL = 1e-9

# The finest quantizer. Up to 52 bits its levels, bin edges and half bins
# are exact in float64; at 54 bits a pre-image can miss the signal that
# produced it.
MAX_BITS = 52

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
    """Largest eigenvalue of ``matrix.T @ matrix``, exact to rounding.

    One symmetric eigenvalue solve, ``np.linalg.eigvalsh``, of the smaller
    Gram matrix of the scaled copy: ``S @ S.T`` when the matrix has no more
    rows than columns, else ``S.T @ S``. Both share their nonzero
    eigenvalues, so the result holds for every matrix, whatever its
    symmetries. The copy ``S`` is the matrix scaled by the power of two
    that puts its largest entry in [0.5, 1), so no Gram value overflows,
    and the eigenvalue is scaled back exactly. Raises ValueError for a zero
    matrix, and for one whose eigenvalue is not finite (overflow) or below
    the smallest normal double (underflow).

    The name outlives the power iteration it once ran, because the
    benchmark depends on it: ``perfbench/spans.py`` patches
    ``operators.power_iteration_gram``, and ``perfbench/layers.py`` reads
    its span to tell an ``estimate_lipschitz`` call that computed from one
    that hit the cache.
    """
    d = np.asarray(matrix, dtype=np.float64)
    peak = _max_abs(d)
    if peak == 0.0:
        raise ValueError("zero dictionary leaves the gradient step size undefined")
    exponent = math.frexp(peak)[1]
    scaled = np.ldexp(d, -exponent)
    gram = scaled @ scaled.T if d.shape[0] <= d.shape[1] else scaled.T @ scaled
    lam = float(np.linalg.eigvalsh(gram)[-1])
    estimate = float(np.ldexp(lam, 2 * exponent))
    if np.finfo(np.float64).tiny <= estimate < math.inf:
        return estimate
    raise ValueError(
        f"Gram values of the matrix {'underflow' if estimate < 1.0 else 'overflow'}: "
        f"largest eigenvalue {estimate:.3e} (largest entry {peak:.3e})"
    )


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix)))


def _scipy_compiled(name: str):
    """scipy.linalg's compiled module ``name``, ``_flapack`` or ``_fblas``.

    The module is loaded from scipy's ``linalg`` directory on the first
    call, without running ``scipy/linalg/__init__.py``, whose import costs
    a fresh process many times more than the compiled module alone (README,
    "What a process loads"). It is registered in ``sys.modules`` under its
    own name, which is its cache, so a later ``import scipy.linalg`` reuses
    it, and one that such an import already loaded is taken from there.
    """
    full = "scipy.linalg." + name
    module = sys.modules.get(full)
    if module is None:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(full, [str(Path(scipy_dir) / "linalg")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return module


def cho_factor(a: np.ndarray):
    """Lower Cholesky factor ``(c, True)`` of the F-ordered matrix ``a``,
    computed in place by LAPACK ``dpotrf``.

    It is the call that scipy's ``cho_factor(a, lower=True,
    overwrite_a=True, check_finite=False)`` makes, so the factor is scipy's
    bit for bit, and it refuses what that refuses: ``np.linalg.LinAlgError``
    when a leading minor is not positive definite, ValueError when LAPACK
    rejects an argument.
    """
    c, info = _scipy_compiled("_flapack").dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of POTRF")
    return c, True


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
        alpha = _as_vector(alpha, "alpha", self.m)
        return np.matmul(self._matrix, alpha, out=out)

    def correlate(self, r, out=None) -> np.ndarray:
        """Adjoint application ``D.T @ r``, written into ``out`` when it is
        given."""
        r = _as_vector(r, "r", self.n)
        return np.matmul(self._matrix.T, r, out=out)

    def estimate_lipschitz(self) -> float:
        """Padded estimate of the gradient Lipschitz constant ``||D.T D||_2``.

        Computed once, exactly to rounding, by :func:`power_iteration_gram`,
        multiplied by ``LIPSCHITZ_SAFETY``, then cached; later calls return
        the cached value.
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
        """Write the matrix in numpy's ``.npy`` format to ``path`` as given;
        numpy appends no suffix to an open file."""
        with open(path, "wb") as fh:
            np.save(fh, self._matrix)

    @classmethod
    def load(cls, path) -> "Dictionary":
        """Read a ``.npy`` matrix, as :meth:`save` or ``np.save`` writes it.
        A file that is not one ``.npy`` array of real numbers (an ``.npz``
        archive, a complex or object array, a truncated file, bytes after
        the array), or whose array the constructor refuses, is a ValueError
        that names the path."""
        with open(path, "rb") as fh:
            try:
                mat = np.load(fh, allow_pickle=False)
            except (ValueError, EOFError):
                mat = None
            tail = fh.read(1)
        if not isinstance(mat, np.ndarray) or mat.dtype.kind not in "fiu":
            raise ValueError(f"{path}: not a .npy array of real numbers")
        if tail:
            raise ValueError(f"{path}: bytes follow the .npy array")
        try:
            return cls(mat)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
        return self._map(_as_vector(x, "x"))

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
