"""Proximal-gradient solvers and a constrained splitting baseline.

All solvers minimize over coefficient vectors alpha. The proximal solvers
target

    0.5 * d^2(D alpha, C) + lam * ||alpha||_1

where d is the Euclidean distance to the feasibility box C; the baseline
instead minimizes ||alpha||_1 subject to D alpha in C. ISTA and FISTA share
one engine so that their iterates are comparable operation for operation,
and the classic basis-pursuit denoising solver is the same engine on the
singleton set ``{x}``: projecting onto a point returns that point exactly,
so its residual is ``D alpha - x`` to the last bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import DimensionMismatch, InnerProjectionError
from .feasibility import IntervalSet
from .operators import Dictionary

# Floor for the denominator of the relative objective-change test, so that
# objectives at or near zero do not stall the stopping rule.
_REL_CHANGE_FLOOR = 1e-12


def _require_integers(**fields) -> None:
    """Refuse a count or seed that is not an integer; numpy integers pass.
    A float would pass the range checks and fail later, inside a solve."""
    for name, value in fields.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def soft_threshold(rho: float, v: np.ndarray) -> np.ndarray:
    """Proximal map of ``rho * ||.||_1``: shrink each entry toward zero by rho."""
    return np.copysign(np.maximum(np.abs(v) - rho, 0.0), v)


def momentum_next(t: float) -> float:
    """Next extrapolation weight in the accelerated scheme."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def objective(dictionary: Dictionary, iset: IntervalSet, alpha, lam: float) -> float:
    """Penalized objective ``0.5 * d^2(D alpha, C) + lam * ||alpha||_1``."""
    z = dictionary.synthesize(alpha)
    alpha = np.asarray(alpha, dtype=np.float64)
    return 0.5 * iset.distance_sq(z) + lam * float(np.abs(alpha).sum())


def kkt_residual(dictionary: Dictionary, iset: IntervalSet, alpha, lam: float) -> float:
    """Worst-case violation of the first-order optimality conditions.

    On the support the smooth gradient must cancel ``lam * sign(alpha)``; off
    the support its magnitude must not exceed lam. Returns the largest
    violation across coordinates, zero at an exact minimizer.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    z = dictionary.synthesize(alpha)
    grad = dictionary.correlate(iset.grad_half_distance_sq(z))
    return _kkt_from_gradient(grad, alpha, lam)


def _kkt_from_gradient(grad: np.ndarray, alpha: np.ndarray, lam: float) -> float:
    on = alpha != 0.0
    worst = 0.0
    if on.any():
        worst = float(np.max(np.abs(grad[on] + lam * np.sign(alpha[on]))))
    off = ~on
    if off.any():
        worst = max(worst, float(np.max(np.maximum(np.abs(grad[off]) - lam, 0.0))))
    return worst


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by the proximal solvers.

    ``step=None`` means use ``1 / L`` with L the cached padded estimate of
    ``||D^T D||_2``. ``alpha0=None`` starts from the zero vector.
    """

    lam: float = 1e-2
    step: float | None = None
    max_iter: int = 400
    rel_tol: float = 1e-6
    alpha0: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and positive when given, got {self.step}")
        _require_integers(max_iter=self.max_iter)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.rel_tol >= 0.0:
            raise ValueError(f"rel_tol must be non-negative, got {self.rel_tol}")


@dataclass
class SolverTrace:
    """Per-run diagnostics. ``objective_per_iter[k]`` is the objective after
    iteration k+1, and its length is ``iterations_run``; the initial point's
    objective is not recorded. ``wall_time_seconds`` times the iteration
    loop, not its setup (the Lipschitz estimate or the ridge factor).

    ``stop_reason`` says why the run ended: ``converged``, ``max_iter``
    (budget spent), ``non_finite`` (the proximal solvers' objective
    overflowed or turned NaN; the run stops at that iterate) or
    ``inner_stall`` (the constrained baseline's nested projection missed its
    tolerance; the run returns its best point so far).
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
    """Settings for the constrained splitting baseline.

    ``rho_outer`` is the penalty tying the l1 variable to the feasible-image
    variable; ``rho_inner`` drives the nested projection onto
    ``{beta : D beta in C}``, which runs for at most ``inner_iters`` rounds or
    until its primal residual drops below ``inner_tol``. ``abs_tol`` and
    ``rel_tol`` enter the usual combined stopping test on the outer residuals.
    """

    rho_outer: float = 1.0
    rho_inner: float = 1.0
    inner_iters: int = 50
    inner_tol: float = 1e-8
    max_iter: int = 400
    abs_tol: float = 1e-6
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (self.rho_outer > 0.0 and self.rho_inner > 0.0):
            raise ValueError("penalty parameters must be positive")
        _require_integers(inner_iters=self.inner_iters, max_iter=self.max_iter)
        if self.inner_iters < 1 or self.max_iter < 1:
            raise ValueError("iteration budgets must be at least 1")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0):
            raise ValueError("tolerances must be non-negative")


def _check_set_length(dictionary: Dictionary, iset: IntervalSet) -> None:
    if len(iset) != dictionary.n:
        raise DimensionMismatch(
            f"feasibility set of length {len(iset)} does not match "
            f"signal dimension {dictionary.n}"
        )


def _initial_alpha(dictionary: Dictionary, config: SolverConfig) -> np.ndarray:
    if config.alpha0 is None:
        return np.zeros(dictionary.m)
    alpha = np.array(config.alpha0, dtype=np.float64)
    if alpha.shape != (dictionary.m,):
        raise DimensionMismatch(
            f"alpha0 has shape {alpha.shape}, expected ({dictionary.m},)"
        )
    return alpha


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
    """Forward-backward loop shared by all proximal solvers.

    The smooth term is ``0.5 * ||r||^2`` with the residual ``r = z - P(z)``
    of the synthesized signal z, and r is also its gradient with respect to
    z. Runs two matvecs per iteration: the extrapolated synthesis point is
    recombined from cached images of the last two iterates rather than
    resynthesized. Without momentum the extrapolated point is the last
    iterate, whose residual was already computed for the objective, so a
    plain run projects once per iteration and an accelerated run twice. All
    vectors live in buffers allocated once and updated in place.

    The relative objective-change test must pass on two consecutive
    iterations before the run is declared converged. With momentum the
    objective ripples, and a single near-flat step is routinely just the
    crest of a ripple far from stationarity; two in a row is a stall. A
    non-finite objective stops the run at once and its iterate is returned.
    """
    lam = config.lam
    step = config.step if config.step is not None else 1.0 / dictionary.estimate_lipschitz()
    thresh = step * lam

    t_start = perf_counter()
    m = dictionary.m
    # A state vector holds an iterate and its image, [alpha | D alpha], so
    # one extrapolation updates both. The next state and residual swap with
    # the current ones each iteration; g holds the gradient, mag the
    # magnitudes of the shrunk iterate.
    cur, nxt = np.empty(m + dictionary.n), np.empty(m + dictionary.n)
    alpha, z = cur[:m], cur[m:]
    alpha_next, z_next = nxt[:m], nxt[m:]
    alpha[:] = _initial_alpha(dictionary, config)
    dictionary.synthesize(alpha, out=z)
    r, r_next = np.empty_like(z), np.empty_like(z)
    iset.grad_half_distance_sq(z, out=r)
    g, mag = np.empty_like(alpha), np.empty_like(alpha)
    obj = 0.5 * float(r @ r) + lam * float(np.abs(alpha).sum())
    if momentum:
        ext = cur.copy()
        u, z_u, r_u = ext[:m], ext[m:], np.empty_like(r)
    else:
        u, r_u = alpha, r
    t = 1.0
    objectives: list[float] = []
    stop_reason = "max_iter"
    flat_streak = 0

    for _ in range(config.max_iter):
        if momentum:
            iset.grad_half_distance_sq(z_u, out=r_u)
        dictionary.correlate(r_u, out=g)
        g *= step
        np.subtract(u, g, out=alpha_next)
        l1 = _shrink(alpha_next, thresh, mag)
        dictionary.synthesize(alpha_next, out=z_next)
        iset.grad_half_distance_sq(z_next, out=r_next)

        obj_prev = obj
        obj = 0.5 * float(r_next @ r_next) + lam * l1
        objectives.append(obj)

        if momentum:
            t_next = momentum_next(t)
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
        if abs(obj - obj_prev) / max(obj_prev, _REL_CHANGE_FLOOR) < config.rel_tol:
            flat_streak += 1
            if flat_streak >= 2:
                stop_reason = "converged"
                break
        else:
            flat_streak = 0

    wall = perf_counter() - t_start
    final_grad = dictionary.correlate(r, out=g)
    trace = SolverTrace(
        objective_per_iter=np.asarray(objectives),
        wall_time_seconds=wall,
        kkt_residual_final=_kkt_from_gradient(final_grad, alpha, lam),
        stop_reason=stop_reason,
    )
    return alpha.copy(), trace


def solve_ista(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: SolverConfig = SolverConfig(),
):
    """Plain forward-backward iteration; monotone in the objective for the
    default step size."""
    _check_set_length(dictionary, iset)
    return _fista_engine(dictionary, iset, config, momentum=False)


def solve_fista(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: SolverConfig = SolverConfig(),
):
    """Accelerated forward-backward iteration with the standard t-sequence."""
    _check_set_length(dictionary, iset)
    return _fista_engine(dictionary, iset, config, momentum=True)


def solve_fista_bpdn(
    dictionary: Dictionary,
    target,
    config: SolverConfig = SolverConfig(),
):
    """Accelerated solver for ``0.5 * ||D alpha - x||^2 + lam * ||alpha||_1``.

    This is :func:`solve_fista` on the singleton set ``{x}``: projecting
    onto a point gives ``min(x, max(x, z)) = x`` exactly, so the residual is
    ``D alpha - x`` to the last bit. The target must be finite.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (dictionary.n,):
        raise DimensionMismatch(
            f"target has shape {target.shape}, expected ({dictionary.n},)"
        )
    return _fista_engine(dictionary, IntervalSet.singleton(target), config, momentum=True)


def cho_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` given scipy's Cholesky factor ``(c, lower)`` of A.

    Two triangular matrix-vector solves (BLAS-2 ``trsv``) on the factor.
    scipy's ``cho_solve`` runs LAPACK ``potrs`` instead, whose
    matrix-matrix ``trsm`` is slower on a one-column right-hand side. rhs
    is left unchanged. The factor must be F-contiguous, or each call
    copies it. scipy.linalg is imported on the first call, not with
    this module.
    """
    from scipy.linalg.blas import dtrsv

    c, lower = factor
    y = dtrsv(c, rhs, lower=lower, trans=0 if lower else 1)
    return dtrsv(c, y, lower=lower, trans=1 if lower else 0, overwrite_x=1)


def inner_projection(
    dictionary: Dictionary,
    iset: IntervalSet,
    u: np.ndarray,
    rho: float,
    iters: int,
    tol: float,
) -> np.ndarray:
    """Euclidean projection of u onto ``{beta : D beta in C}`` by splitting.

    Alternates a ridge solve against the cached factorization of
    ``I + rho * D^T D`` with a box projection of the synthesized image. Stops
    early when the primal residual ``||D beta - z||`` falls below tol; raises
    :class:`InnerProjectionError` if after the full budget the residual is
    still above 1e-3 or not a number, since a point that far from the
    constraint would poison the outer iteration silently. The vectors of a
    round live in buffers allocated once per call.
    """
    factor = dictionary.ridge_cho_factor(rho)
    z = iset.project(dictionary.synthesize(u))
    w = np.zeros(dictionary.n)
    rhs = np.empty(dictionary.m)
    image = np.empty(dictionary.n)
    # z - w at the start of a round, image - z at its end
    diff = np.empty(dictionary.n)
    beta = u
    res = math.inf
    for _ in range(iters):
        np.subtract(z, w, out=diff)
        dictionary.correlate(diff, out=rhs)
        rhs *= rho
        rhs += u
        beta = cho_solve(factor, rhs)
        dictionary.synthesize(beta, out=image)
        np.add(image, w, out=z)
        iset.project(z, out=z)
        np.subtract(image, z, out=diff)
        w += diff
        res = float(np.linalg.norm(diff))
        if res <= tol:
            break
    if not res <= 1e-3:
        raise InnerProjectionError(
            f"projection stalled with primal residual {res:.3e} after {iters} rounds"
        )
    return beta


def solve_admm_constrained(
    dictionary: Dictionary,
    iset: IntervalSet,
    config: AdmmConfig = AdmmConfig(),
):
    """Constrained baseline: minimize ``||alpha||_1`` over ``D alpha in C``.

    Splits the l1 term from the constraint and alternates soft thresholding
    with the nested projection. Returns the feasible-side variable from the
    outer iteration with the smallest consensus residual ``||alpha - beta||``:
    on degenerate instances the iteration can orbit the solution set with a
    long period instead of settling, and the smallest-gap snapshot is then
    strictly better than whatever phase the budget ran out at. The returned
    point's synthesized image lies in C up to the inner tolerance. The trace
    objective history is the l1 norm per outer iteration and the final
    residual field holds ``max(primal, dual)`` at exit.
    """
    _check_set_length(dictionary, iset)
    m = dictionary.m
    rho = config.rho_outer
    sqrt_m = math.sqrt(m)
    dictionary.ridge_cho_factor(config.rho_inner)  # setup, off the clock

    t_start = perf_counter()
    beta = np.zeros(m)
    v = np.zeros(m)
    best_beta = beta
    best_r_pri = math.inf
    l1_history: list[float] = []
    stop_reason = "max_iter"
    last_residual = math.inf

    for _ in range(config.max_iter):
        alpha = soft_threshold(1.0 / rho, beta - v)
        beta_prev = beta
        try:
            beta = inner_projection(
                dictionary,
                iset,
                alpha + v,
                config.rho_inner,
                config.inner_iters,
                config.inner_tol,
            )
        except InnerProjectionError:
            beta = beta_prev
            stop_reason = "inner_stall"
            break
        v = v + alpha - beta

        r_pri = float(np.linalg.norm(alpha - beta))
        s_dual = float(rho * np.linalg.norm(beta - beta_prev))
        eps_pri = sqrt_m * config.abs_tol + config.rel_tol * max(
            float(np.linalg.norm(alpha)), float(np.linalg.norm(beta))
        )
        eps_dual = sqrt_m * config.abs_tol + config.rel_tol * rho * float(
            np.linalg.norm(v)
        )
        last_residual = max(r_pri, s_dual)
        if r_pri < best_r_pri:
            best_r_pri = r_pri
            best_beta = beta

        l1_history.append(float(np.abs(alpha).sum()))
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


def json_float(value) -> float | None:
    """A float for a JSON document: ``None`` (null) when it is not finite,
    since JSON has no NaN or infinity."""
    value = float(value)
    return value if math.isfinite(value) else None


def result_to_json_obj(alpha: np.ndarray, trace: SolverTrace) -> dict:
    """JSON-friendly summary of a solver run; non-finite numbers become
    null, so the result of a diverged run is still valid JSON."""
    history = trace.objective_per_iter
    return {
        "alpha": [json_float(a) for a in alpha],
        "objective": json_float(history[-1]) if len(history) else None,
        "iterations": int(trace.iterations_run),
        "converged": bool(trace.converged),
        "stop_reason": trace.stop_reason,
        "wall_time_s": float(trace.wall_time_seconds),
        "kkt_residual": json_float(trace.kkt_residual_final),
    }
