"""Proximal-gradient solvers and a constrained splitting baseline.

All solvers minimize over coefficient vectors alpha. The proximal solvers
target

    0.5 * d^2(D alpha, C) + lam * ||alpha||_1

where d is the Euclidean distance to the feasibility box C; the baseline
instead minimizes ||alpha||_1 subject to D alpha in C. ISTA and FISTA share
one engine so that their iterates are comparable operation for operation,
and :func:`certificate` scores any answer by the engine's own objective and
KKT residual. Basis-pursuit denoising is FISTA on the pre-image of ``x``
under no distortion, the clipper at infinity, which is the point ``{x}``:
projecting onto a point returns it exactly, so the residual is
``D alpha - x`` to the last bit.

The baseline's nested projection, :func:`inner_projection`, and its ridge
solve, :func:`cho_solve`, are this module's own; the package does not
export them. The ridge solve calls scipy's compiled BLAS, loaded at its
first call without the scipy.linalg package. The baseline's one setting is
``AdmmConfig.max_iter``; its penalties are 1, and its inner budget and
tolerances are constants. A result's JSON form belongs to
:mod:`sparse_consist.cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import DimensionMismatch
from .feasibility import IntervalSet, _count, _real
from .operators import Dictionary, _aligned_empty, _scipy_compiled

# The proximal solvers screen their KKT residual once in this many
# iterations, which keeps the screens near 1% of a solve's time.
_KKT_EVERY = 10

# The constrained baseline's fixed settings: the nested projection's round
# budget and primal-residual tolerance, the residual above which (or at NaN)
# a projection has stalled, per unit of the box's largest finite bound
# magnitude (at least 1), and the one tolerance of the combined stopping
# test on the outer residuals.
_INNER_ITERS = 50
_INNER_TOL = 1e-8
_STALL_RES = 1e-3
_OUTER_TOL = 1e-6


def soft_threshold(rho: float, v: np.ndarray) -> np.ndarray:
    """Proximal map of ``rho * ||.||_1``: shrink each entry toward zero by rho."""
    return np.copysign(np.maximum(np.abs(v) - rho, 0.0), v)


def certificate(dictionary: Dictionary, iset: IntervalSet, alpha, lam: float):
    """``(objective, kkt_residual)`` of ``alpha``.

    The objective is ``0.5 * d^2(D alpha, C) + lam * ||alpha||_1``; the KKT
    residual is the worst violation of the first-order optimality conditions
    (on the support the smooth gradient must cancel ``lam * sign(alpha)``,
    off it its magnitude must not exceed lam), zero at an exact minimizer.
    A gradient that is not finite gives a residual that is not finite: NaN
    where the gradient or alpha has a NaN entry, infinity otherwise.
    It uses the engine's arithmetic, so on an answer of :func:`solve_ista`
    or :func:`solve_fista` it equals ``(trace.objective_per_iter[-1],
    trace.kkt_residual_final)`` bit for bit.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    r = iset.grad_half_distance_sq(dictionary.synthesize(alpha))
    obj = 0.5 * float(r @ r) + lam * float(np.abs(alpha).sum())
    return obj, _kkt_from_gradient(dictionary.correlate(r), alpha, lam)


def _kkt_from_gradient(grad: np.ndarray, alpha: np.ndarray, lam: float) -> float:
    violation = np.where(
        alpha != 0.0, np.abs(grad + lam * np.sign(alpha)), np.maximum(np.abs(grad) - lam, 0.0)
    )
    return float(np.max(violation))


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by the proximal solvers.

    The step is always ``1 / L``, with L the dictionary's cached padded
    estimate of ``||D^T D||_2``, and every solve starts from the zero
    vector; it is ``converged`` when its answer's KKT residual is at most
    ``tol``. A config holds settings only, so one config serves every trial
    of a sweep, and the dataclass's own equality and hash apply. ``lam``
    and ``tol`` are stored as ``float`` and ``max_iter`` as ``int``.
    """

    lam: float = 1e-2
    max_iter: int = 400
    tol: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "lam", _real(self.lam, "lam"))
        object.__setattr__(self, "max_iter", _count(self.max_iter, "max_iter", 1))
        object.__setattr__(self, "tol", _real(self.tol, "tol"))
        for name in ("lam", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass
class SolverTrace:
    """Per-run diagnostics. ``objective_per_iter[k]`` is the objective after
    iteration k+1, and its length is ``iterations_run``; the initial point's
    objective is not recorded. ``wall_time_seconds`` times the iteration
    loop, not its setup (the Lipschitz estimate or the ridge factor).

    ``stop_reason`` says why the run ended: ``converged`` (a proximal
    solver's ``kkt_residual_final`` is at most ``SolverConfig.tol``),
    ``max_iter`` (budget spent), ``non_finite`` (the proximal solvers'
    objective overflowed or turned NaN; the run stops at that iterate) or
    ``inner_stall`` (the constrained baseline's nested projection missed
    its tolerance; the run returns its best point so far).
    """

    objective_per_iter: np.ndarray
    wall_time_seconds: float
    kkt_residual_final: float
    stop_reason: str

    @property
    def iterations_run(self) -> int:
        return len(self.objective_per_iter)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


@dataclass(frozen=True)
class AdmmConfig:
    """Settings for the constrained splitting baseline: its outer iteration
    budget, the one thing about it that a caller sets. Its penalties, inner
    budget and tolerances are fixed (see :mod:`sparse_consist.solvers`)."""

    max_iter: int = 400

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _count(self.max_iter, "max_iter", 1))


def _check_set_length(dictionary: Dictionary, iset: IntervalSet) -> None:
    if len(iset) != dictionary.n:
        raise DimensionMismatch(
            f"feasibility set of length {len(iset)} does not match "
            f"signal dimension {dictionary.n}"
        )


def _shrink(v: np.ndarray, thresh: float, mag: np.ndarray) -> float:
    """Soft-threshold v in place by thresh and return the l1 norm of the result.

    Computes ``copysign(max(|v| - thresh, 0), v)``, the same values as
    :func:`soft_threshold`, and sums the magnitudes before the sign goes
    back on, so the l1 norm costs no second pass of ``abs``.
    """
    np.abs(v, out=mag)
    mag -= thresh
    np.maximum(mag, 0.0, out=mag)
    l1 = float(mag.sum())
    np.copysign(mag, v, out=v)
    return l1


def _fista_engine(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: SolverConfig,
    momentum: bool = True,
):
    """Forward-backward loop shared by all proximal solvers, stepping by
    ``1 / L`` with L the dictionary's padded Lipschitz estimate.

    The smooth term is ``0.5 * ||r||^2`` with the residual ``r = z - P(z)``
    of the synthesized signal z, and r is also its gradient with respect to
    z. Runs two matvecs per iteration: the extrapolated synthesis point is
    recombined from cached images of the last two iterates rather than
    resynthesized. Without momentum the extrapolated point is the last
    iterate, whose residual was already computed for the objective, so a
    plain run projects once per iteration and an accelerated run twice. All
    vectors live in buffers allocated once and updated in place, each
    starting on a 64-byte boundary so that BLAS reads them at full speed.

    Once in ``_KKT_EVERY`` iterations the run screens the KKT residual at
    the point whose gradient it holds: the last iterate, its answer, or
    with momentum the extrapolated point, whose pass is then confirmed at
    the answer with the correlation the exit would make. A residual at the
    answer of at most ``config.tol`` stops the run as ``converged``, and
    reads so at the cap too. A non-finite objective stops the run at once
    and its iterate is returned.
    """
    _check_set_length(dictionary, iset)
    lam, tol = config.lam, config.tol
    step = 1.0 / dictionary.estimate_lipschitz()
    thresh = step * lam

    t_start = perf_counter()
    m, n = dictionary.m, dictionary.n
    # A state vector holds an iterate and its image, [alpha | 0 | D alpha],
    # so one extrapolation updates both. The zero pad rounds the iterate up
    # to a whole number of cache lines, so the image is aligned too; it
    # stays zero through every extrapolation. The zero start's image and l1
    # norm are zero, so neither is computed. The next state and residual
    # swap with the current ones each iteration; g holds the gradient, mag
    # the magnitudes of the shrunk iterate.
    m_pad = -(-m // 8) * 8
    cur, nxt = _aligned_empty(m_pad + n), _aligned_empty(m_pad + n)
    cur[:] = nxt[m:m_pad] = 0.0
    alpha, z = cur[:m], cur[m_pad:]
    alpha_next, z_next = nxt[:m], nxt[m_pad:]
    r, r_next = _aligned_empty(n), _aligned_empty(n)
    iset.grad_half_distance_sq(z, out=r)
    g, mag = _aligned_empty(m), _aligned_empty(m)
    if momentum:
        ext = _aligned_empty(m_pad + n)
        ext[:] = cur
        u, z_u, r_u = ext[:m], ext[m_pad:], _aligned_empty(n)
    else:
        u, r_u = alpha, r
    t = 1.0
    objectives: list[float] = []
    stop_reason = "max_iter"

    for k in range(config.max_iter):
        if momentum:
            iset.grad_half_distance_sq(z_u, out=r_u)
        dictionary.correlate(r_u, out=g)
        if k % _KKT_EVERY == 0 and k:
            # a lower bound first, at a fifth of the cost: no entry's
            # violation is below |g_i| - lam. mag is free until the shrink.
            kkt = float(np.abs(g, out=mag).max()) - lam
            if kkt <= tol:
                kkt = _kkt_from_gradient(g, u, lam)
            if kkt <= tol and momentum:
                kkt = _kkt_from_gradient(dictionary.correlate(r, out=mag), alpha, lam)
            if kkt <= tol:
                stop_reason = "converged"
                break
        g *= step
        np.subtract(u, g, out=alpha_next)
        l1 = _shrink(alpha_next, thresh, mag)
        dictionary.synthesize(alpha_next, out=z_next)
        iset.grad_half_distance_sq(z_next, out=r_next)

        obj = 0.5 * float(r_next @ r_next) + lam * l1
        objectives.append(obj)

        if momentum:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            w = (t - 1.0) / t_next
            np.subtract(nxt, cur, out=ext)
            ext *= w
            ext += nxt
            t = t_next
        cur, nxt = nxt, cur
        alpha, alpha_next = alpha_next, alpha
        z, z_next = z_next, z
        r, r_next = r_next, r
        if not momentum:
            u, r_u = alpha, r

        if not math.isfinite(obj):
            stop_reason = "non_finite"
            break

    wall = perf_counter() - t_start
    if stop_reason != "converged":
        kkt = _kkt_from_gradient(dictionary.correlate(r, out=g), alpha, lam)
        if kkt <= tol and stop_reason == "max_iter":
            stop_reason = "converged"
    trace = SolverTrace(
        objective_per_iter=np.asarray(objectives),
        wall_time_seconds=wall,
        kkt_residual_final=kkt,
        stop_reason=stop_reason,
    )
    return alpha.copy(), trace


def solve_ista(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: SolverConfig = SolverConfig(),
):
    """Plain forward-backward iteration; monotone in the objective at its
    step 1/L."""
    return _fista_engine(dictionary, iset, config, momentum=False)


def solve_fista(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: SolverConfig = SolverConfig(),
):
    """Accelerated forward-backward iteration with the standard t-sequence."""
    return _fista_engine(dictionary, iset, config, momentum=True)


def cho_solve(factor, x: np.ndarray) -> np.ndarray:
    """Solve ``A y = x`` in place in x given the lower Cholesky factor
    ``(c, True)`` of A that ``operators.cho_factor`` makes, and return x.

    Two triangular matrix-vector solves (BLAS-2 ``trsv``) on the factor.
    scipy's ``cho_solve`` runs LAPACK ``potrs`` instead, whose
    matrix-matrix ``trsm`` is slower on a one-column right-hand side.
    ``trsv`` writes in place only into a contiguous float64 x, and
    otherwise into a copy that it returns; it reads the factor in place
    only when it is F-contiguous. It is scipy's compiled ``dtrsv``, loaded
    on the first call without the scipy.linalg package.
    """
    dtrsv = _scipy_compiled("_fblas").dtrsv
    c, lower = factor
    assert lower, "cho_solve reads only the lower factor"
    x = dtrsv(c, x, lower=1, trans=0, overwrite_x=1)
    return dtrsv(c, x, lower=1, trans=1, overwrite_x=1)


def inner_projection(dictionary: Dictionary, iset: IntervalSet, u: np.ndarray):
    """Euclidean projection of u onto ``{beta : D beta in C}`` by splitting.

    Alternates a ridge solve against the cached factorization of
    ``I + D^T D`` (a penalty of 1) with a box projection of the synthesized
    image, for at most ``_INNER_ITERS`` rounds, and stops early when the
    primal residual ``||D beta - z||`` is at most ``_INNER_TOL``. Returns
    ``(beta, res)``: the point and the primal residual of its last round,
    which the caller judges. The vectors of a round, the returned point
    among them, live in 64-byte-aligned buffers allocated once per call.
    """
    factor = dictionary.ridge_cho_factor(1.0)
    z = iset.project(dictionary.synthesize(u))
    w = np.zeros(dictionary.n)
    # the ridge right-hand side u + D^T (z - w), solved in place into beta
    beta = _aligned_empty(dictionary.m)
    image = _aligned_empty(dictionary.n)
    # z - w at the start of a round, image - z at its end
    diff = _aligned_empty(dictionary.n)
    res = math.inf
    for _ in range(_INNER_ITERS):
        np.subtract(z, w, out=diff)
        dictionary.correlate(diff, out=beta)
        beta += u
        beta = cho_solve(factor, beta)
        dictionary.synthesize(beta, out=image)
        np.add(image, w, out=z)
        iset.project(z, out=z)
        np.subtract(image, z, out=diff)
        w += diff
        res = float(np.linalg.norm(diff))
        if res <= _INNER_TOL:
            break
    return beta, res


def solve_admm_constrained(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: AdmmConfig = AdmmConfig(),
):
    """Constrained baseline: minimize ``||alpha||_1`` over ``D alpha in C``.

    Splits the l1 term from the constraint with a penalty of 1, and
    alternates soft thresholding by 1 with the nested projection, for at most
    ``config.max_iter`` outer iterations. Returns the feasible-side variable
    from the outer iteration with the smallest consensus residual
    ``||alpha - beta||``: on degenerate instances the iteration can orbit
    the solution set with a long period instead of settling, and the
    smallest-gap snapshot is then strictly better than whatever phase the
    budget ran out at. The returned point's synthesized image lies in C up
    to the inner tolerance. The trace objective history is, per outer
    iteration, the l1 norm of the point the run would return if it stopped
    there; the final residual field holds ``max(primal, dual)`` at exit.

    The loop makes every stop decision: ``inner_stall`` when a projection's
    last residual is above ``_STALL_RES`` times the box's largest finite
    bound magnitude (times 1 when that is below 1), or NaN, since a point
    that far from the constraint would poison the iteration silently (the
    outer iteration is then not recorded); ``converged`` on the combined
    primal/dual test; ``max_iter`` otherwise.
    """
    _check_set_length(dictionary, iset)
    m = dictionary.m
    abs_floor = math.sqrt(m) * _OUTER_TOL
    bounds = np.abs(np.concatenate((iset.lower, iset.upper)))
    stall_res = _STALL_RES * max(1.0, float(bounds[np.isfinite(bounds)].max(initial=0.0)))
    dictionary.ridge_cho_factor(1.0)  # setup, off the clock

    t_start = perf_counter()
    beta = np.zeros(m)
    v = np.zeros(m)
    best_beta = beta
    best_r_pri = math.inf
    best_l1 = 0.0
    l1_history: list[float] = []
    stop_reason = "max_iter"
    last_residual = math.inf

    for _ in range(config.max_iter):
        alpha = soft_threshold(1.0, beta - v)
        beta_prev = beta
        beta, res = inner_projection(dictionary, iset, alpha + v)
        if not res <= stall_res:
            stop_reason = "inner_stall"
            break
        v = v + alpha - beta

        r_pri = float(np.linalg.norm(alpha - beta))
        s_dual = float(np.linalg.norm(beta - beta_prev))
        eps_pri = abs_floor + _OUTER_TOL * max(
            float(np.linalg.norm(alpha)), float(np.linalg.norm(beta))
        )
        eps_dual = abs_floor + _OUTER_TOL * float(np.linalg.norm(v))
        last_residual = max(r_pri, s_dual)
        if r_pri < best_r_pri:
            best_r_pri = r_pri
            best_beta = beta
            best_l1 = float(np.abs(beta).sum())

        l1_history.append(best_l1)
        if r_pri <= eps_pri and s_dual <= eps_dual:
            stop_reason = "converged"
            break

    trace = SolverTrace(
        objective_per_iter=np.asarray(l1_history),
        wall_time_seconds=perf_counter() - t_start,
        kkt_residual_final=last_residual,
        stop_reason=stop_reason,
    )
    return best_beta, trace
