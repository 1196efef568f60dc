"""Generalized forward characteristics (R curves) over the variational solver.

R_plus(t, a) is the largest x whose extreme right foot stays left of a;
R_minus the smallest x whose left foot stays right of a.  Both maps
x -> y_pm(x, t) are nondecreasing, so each sample is a bisection; the
samples of one curve are bisected in lockstep, one candidate matrix per step
for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .flux import Flux
# value_function and legendre_dual are not called here; perfbench/tracer.py patches them
from .laxoleinik import _check_finite, _check_time, _Objective, value_function  # noqa: F401
from .legendre import legendre_dual  # noqa: F401
from .step import StepFunction


@dataclass(frozen=True)
class CharCurve:
    alpha: float
    side: str                      # "plus" | "minus"
    times: tuple[float, ...]
    positions: tuple[float, ...]

    def __iter__(self):
        return iter(zip(self.times, self.positions))


def r_curve(
    fl: Flux,
    u0: StepFunction,
    alpha: float,
    side: str,
    t_grid: Sequence[float],
) -> CharCurve:
    """Sample R_plus or R_minus at the given positive times, bisecting every
    sample in lockstep: each step evaluates the predicate of all samples not
    yet within their tolerance in one candidate matrix."""
    if side not in ("plus", "minus"):
        raise ValidationError("side", f"need 'plus' or 'minus', got {side!r}")
    _check_finite("alpha", alpha)
    times = tuple(float(t) for t in t_grid)
    for t in times:
        _check_time(t)
    t = np.array(times)
    objective = _Objective(fl, u0)
    p0 = objective.dual.slope_bound
    # every queried window lies between those of the widest bracket's ends, the last time's
    t_end = max(times, default=0.0)
    for x in (alpha - p0 * t_end - 1.0, alpha + p0 * t_end + 1.0):
        objective.window(x, t_end)
    tol_a = 1e-12 * (1.0 + abs(alpha))
    if side == "plus":
        # predicate: y_plus(x, t) <= alpha, true near lo, false near hi
        def pred(x, t):
            return objective.feet(x, t)[1] <= alpha + tol_a
    else:
        # R_minus = inf {x : y_minus >= alpha}; flip so pred is true-left
        def pred(x, t):
            return ~(objective.feet(x, t)[0] >= alpha - tol_a)
    lo = alpha - p0 * t - 1.0
    hi = alpha + p0 * t + 1.0
    outside = ~pred(lo, t) | pred(hi, t)
    if outside.any():
        k = int(outside.argmax())
        raise ValidationError("t", f"bracket [{lo[k]}, {hi[k]}] does not straddle the curve")
    eps_x = 1e-10 * (1.0 + abs(alpha) + p0 * t)
    active = np.flatnonzero(hi - lo > eps_x)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        left = pred(mid, t[active])
        lo[active[left]] = mid[left]
        hi[active[~left]] = mid[~left]
        active = active[hi[active] - lo[active] > eps_x[active]]
    return CharCurve(alpha, side, times, tuple(float(x) for x in 0.5 * (lo + hi)))


def is_characteristic_line(
    fl: Flux,
    u0: StepFunction,
    a: float,
    p_slope: float,
    horizon: float,
) -> bool:
    """Finite-horizon test that the ray from (a, 0) with speed p_slope stays
    inside the minimizer set of every point it passes through, checked at
    eight equispaced times up to the horizon, as the rows of one candidate
    matrix whose last column is the ray's foot a."""
    _check_time(horizon)
    _check_finite("a", a)
    _check_finite("p_slope", p_slope)
    objective = _Objective(fl, u0)
    t = horizon * np.arange(1, 9) / 8
    x = a + p_slope * t
    objective.window(x[-1], t[-1])
    if any(objective.dual.outside(p) for p in (x - a) / t):
        return False
    ys, valid = objective.candidates(x, t)
    ys = np.concatenate([ys, np.full((len(t), 1), a)], axis=1)
    valid = np.concatenate([valid, np.ones((len(t), 1), dtype=bool)], axis=1)
    return bool(objective.ties(x, t, ys, valid)[1][:, -1].all())
