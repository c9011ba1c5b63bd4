"""The forward-backward loop written plainly, as the reference the proximal
engine must match bit for bit.

It shares no code with the package: fresh arrays every iteration, two
residuals per iteration, a separate l1 pass and its own t-sequence. A change
to the bits of any solve, including the denoiser's, shows as a mismatch.
:func:`kkt_residual` scores the final gradient entry by entry, apart from
the package's optimality check.
"""

import math

import numpy as np


def reference_loop(matrix, residual, config, step, momentum):
    """Run ``config.max_iter`` forward-backward steps (or until the relative
    objective change stays below ``config.rel_tol`` twice in a row) on the
    smooth term ``0.5 * ||residual(D alpha)||^2``.

    Returns ``(alpha, objectives, final_gradient)``.
    """
    lam = config.lam
    thresh = step * lam
    alpha = np.zeros(matrix.shape[1])
    z_alpha = matrix @ alpha
    u, z_u, t = alpha, z_alpha, 1.0
    r0 = residual(z_alpha)
    obj = 0.5 * float(r0 @ r0) + lam * float(np.abs(alpha).sum())
    objectives = []
    flat_streak = 0
    for _ in range(config.max_iter):
        g = matrix.T @ residual(z_u)
        v = u - step * g
        alpha_next = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        z_next = matrix @ alpha_next
        r = residual(z_next)
        obj_prev = obj
        obj = 0.5 * float(r @ r) + lam * float(np.abs(alpha_next).sum())
        objectives.append(obj)
        if momentum:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            w = (t - 1.0) / t_next
            u = alpha_next + w * (alpha_next - alpha)
            z_u = z_next + w * (z_next - z_alpha)
            t = t_next
        else:
            u, z_u = alpha_next, z_next
        alpha, z_alpha = alpha_next, z_next
        if abs(obj - obj_prev) / max(obj_prev, 1e-12) < config.rel_tol:
            flat_streak += 1
            if flat_streak >= 2:
                break
        else:
            flat_streak = 0
    return alpha, np.asarray(objectives), matrix.T @ residual(z_alpha)


def kkt_residual(grad, alpha, lam):
    """The worst violation of the first-order optimality conditions, one
    entry at a time in Python floats: ``|g + lam sign(a)|`` on the support,
    ``max(|g| - lam, 0)`` off it. A NaN entry of either makes it NaN."""
    worst = 0.0
    for g, a in zip(grad.tolist(), alpha.tolist()):
        if math.isnan(g) or math.isnan(a):
            return math.nan
        worst = max(worst, abs(g + math.copysign(lam, a)) if a != 0.0 else max(abs(g) - lam, 0.0))
    return worst


def box_residual(iset):
    """``z - P(z)`` for the box ``iset``, the clamp written out."""
    return lambda z: z - np.minimum(iset.upper, np.maximum(iset.lower, z))

