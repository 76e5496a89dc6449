"""The seeded multi-start schedule of both variable-projection fitters."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class MultiStart(NamedTuple):
    x: np.ndarray
    converged: bool  # the best start's own flag, whatever the other starts did
    message: str
    start_costs: tuple[float, ...]
    start_converged: tuple[bool, ...]
    n_evaluations: int  # objective calls over all starts


def multi_start(fun: Callable, solve: Callable, x0: np.ndarray, perturb: Callable,
                n_starts: int, seed: int) -> MultiStart:
    """Solve from x0 and from n_starts - 1 perturbations of it; keep the lowest.

    ``perturb(rng)`` draws every perturbed start from one
    ``np.random.default_rng(seed)`` before the first solve.  ``solve(f, x)``
    minimizes ``f``, which is ``fun`` with each call counted, from x and
    returns (x, final cost, converged, message).  The start with the lowest
    final cost wins, the earlier start on a tie.
    """
    rng = np.random.default_rng(seed)
    starts = [x0] + [perturb(rng) for _ in range(n_starts - 1)]
    n_evaluations = 0

    def counted(x: np.ndarray):
        nonlocal n_evaluations
        n_evaluations += 1
        return fun(x)

    runs = [solve(counted, x) for x in starts]
    x, _, converged, message = min(runs, key=lambda run: run[1])
    costs = tuple(run[1] for run in runs)
    flags = tuple(run[2] for run in runs)
    return MultiStart(x, converged, message, costs, flags, n_evaluations)
