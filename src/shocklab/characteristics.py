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

from .errors import ValidationError, WindowExceeded
from .flux import Flux
from .laxoleinik import _check_finite, _check_time, _Objective, _Primitive, value_function
from .legendre import legendre_dual
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
        raise WindowExceeded(f"bracket [{lo[k]}, {hi[k]}] does not straddle the curve")
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
    eight equispaced times up to the horizon."""
    _check_time(horizon)
    dual = legendre_dual(fl)
    v0 = _Primitive(u0)
    for k in range(1, 9):
        t = horizon * k / 8
        cd = value_function(fl, u0, a + p_slope * t, t)
        p = (cd.x - a) / t
        if p < dual.lo - 1e-12 or p > dual.hi + 1e-12:
            return False
        phi = v0(a) + t * dual(min(max(p, dual.lo), dual.hi))
        if phi > cd.value + 1e-9 * (1.0 + abs(cd.value)):
            return False
    return True
