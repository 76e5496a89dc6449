"""Unbounded limited-memory BFGS with a Moré–Thuente line search, on numpy alone.

The iteration is L-BFGS-B's without bounds (Byrd, Lu, Nocedal & Zhu, SIAM J.
Sci. Comput. 16, 1190 (1995)), as ``scipy.optimize.minimize`` runs it: the
direction is -g times the limited-memory inverse BFGS matrix of the last 10
(s, y) pairs, scipy's default ``maxcor``, scaled by s.y / y.y of the newest;
the first step is 1/|g| and later ones start at 1; and the line search is
MINPACK-2's ``dcsrch`` (Moré & Thuente, ACM TOMS 20, 286 (1994)) for the
strong Wolfe conditions with c1 = 1e-3 and c2 = 0.9.  A line search that
fails clears the stored pairs and is retried once from steepest descent;
failing from steepest descent ends the search unconverged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_EPS = np.finfo(float).eps
_PAIRS = 10
# dcsrch's sufficient-decrease and curvature constants, its relative width of
# the bracket that ends a search, the largest step, and L-BFGS-B's limit of
# cost evaluations per line search.
_C1, _C2, _XTOL, _STPMAX, _MAX_TRIALS = 1e-3, 0.9, 0.1, 1e10, 20


class Minimum(NamedTuple):
    x: np.ndarray
    fun: float
    success: bool
    message: str


def minimize(fun, x0, maxiter: int, ftol: float, gtol: float) -> Minimum:
    """Minimize ``fun(x) -> (f, gradient)`` from x0.

    Converged when max |g| <= gtol, or when an iteration lowers f by at most
    ftol * max(|f_old|, |f|, 1); unconverged after maxiter iterations or when
    the line search fails from steepest descent.  An infinite cost shortens
    the step.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    if np.abs(g).max() <= gtol:
        return Minimum(x, f, True, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s.y), oldest first
    iterations = 0
    while True:
        d = -_inverse_hessian_times(g, pairs)
        found = _line_search(fun, x, f, g, d, 1.0 / np.linalg.norm(d) if iterations == 0 else 1.0)
        if found is None:
            if not pairs:
                return Minimum(x, f, False, "ABNORMAL: LINE SEARCH FAILED FROM STEEPEST DESCENT")
            pairs.clear()
            continue
        trial, f_trial, g_trial, step = found
        s, y = step * d, g_trial - g
        sy = float(s @ y)
        if sy > _EPS * -float(g @ s):
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-_PAIRS]
        x, f_old, f, g = trial, f, f_trial, g_trial
        iterations += 1
        if iterations >= maxiter:
            return Minimum(x, f, False, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
        if np.abs(g).max() <= gtol:
            return Minimum(x, f, True, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return Minimum(x, f, True, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH")


def _inverse_hessian_times(g: np.ndarray, pairs) -> np.ndarray:
    """H g by the two-loop recursion, with H0 = (s.y / y.y) I from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * float(y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def _line_search(fun, x, f0: float, g0: np.ndarray, d: np.ndarray, step: float):
    """A step along d that meets the strong Wolfe conditions, by dcsrch.

    Returns (x + step d, f, g, step), or None when d is no descent direction
    or _MAX_TRIALS costs pass without an acceptable step.  As in dcsrch, a
    bracket narrowed below _XTOL of its size, rounding that stalls the
    bracket, or a descending step at the largest step ends the search at the
    best step found.  An infinite cost halves the step towards that best
    step and caps later steps there.  Degenerate interpolations give
    non-finite steps, which end in a failed search rather than an error.
    """
    ginit = g0 @ d
    if not ginit < 0:
        return None
    gtest = _C1 * ginit
    stpmax = _STPMAX
    bracketed, stage1 = False, True
    width, width1 = stpmax, 2.0 * stpmax
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = ginit
    stmin, stmax = 0.0, 5.0 * step
    for _ in range(_MAX_TRIALS):
        trial = x + step * d
        f, g = fun(trial)
        if not np.isfinite(f):
            stpmax = step = stx + 0.5 * (step - stx)
            continue
        gd = g @ d
        ftest = f0 + step * gtest
        if stage1 and f <= ftest and gd >= 0:
            stage1 = False
        if (f <= ftest and abs(gd) <= -_C2 * ginit
                or bracketed and (step <= stmin or step >= stmax or stmax - stmin <= _XTOL * stmax)
                or step == stpmax and f <= ftest and gd <= gtest):
            return trial, f, g, step
        with np.errstate(all="ignore"):
            if stage1 and fx >= f > ftest:
                # Stage 1 brackets the modified cost f - step * gtest, so that a
                # lower cost without sufficient decrease stays in the bracket.
                stx, fx, gx, sty, fy, gy, step, bracketed = _dcstep(
                    stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                    step, f - step * gtest, gd - gtest, bracketed, stmin, stmax)
                fx, fy, gx, gy = fx + stx * gtest, fy + sty * gtest, gx + gtest, gy + gtest
            else:
                stx, fx, gx, sty, fy, gy, step, bracketed = _dcstep(
                    stx, fx, gx, sty, fy, gy, step, f, gd, bracketed, stmin, stmax)
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                step = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = step + 1.1 * (step - stx), step + 4.0 * (step - stx)
        step = min(max(step, 0.0), stpmax)
        if bracketed and (step <= stmin or step >= stmax or stmax - stmin <= _XTOL * stmax):
            step = stx
    return None


def _cubic_gamma(theta, da, db):
    """The square root in the minimizer of the cubic with end slopes da and db."""
    scale = max(abs(theta), abs(da), abs(db))
    return scale * np.sqrt(max(0.0, (theta / scale) ** 2 - (da / scale) * (db / scale)))


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stpmin, stpmax):
    """dcsrch's safeguarded step: the next trial and the updated bracket.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of the
    bracket, and (stp, fp, dp) the trial just made; the derivatives are along
    the search direction.  The four cases of Moré & Thuente pick a cubic,
    quadratic (secant) or extrapolated step.
    """
    sgnd = dp * np.sign(dx)
    # the cubic through (stx, fx, dx) and (stp, fp, dp), for the first three cases
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    gamma = _cubic_gamma(theta, dx, dp)
    if fp > fx:
        # A higher cost: the minimum is bracketed.
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0:
        # The derivatives change sign: the minimum is bracketed.
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # A lower cost, same-sign derivative of smaller magnitude.
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif bracketed:
        # A lower cost, same-sign derivative that does not shrink: cubic
        # step towards the other end of the bracket.
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp)
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed
