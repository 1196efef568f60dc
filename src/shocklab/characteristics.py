"""Generalized forward characteristics (R curves) over the variational solver.

R_plus(t, a) is the largest x whose extreme right foot stays left of a;
R_minus the smallest x whose left foot stays right of a.  Both maps
x -> y_pm(x, t) are nondecreasing, so each sample reduces to a bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import WindowExceeded
from .flux import Flux
from .laxoleinik import _Primitive, value_function
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


def _y_side(fl: Flux, u0: StepFunction, x: float, t: float, side: str) -> float:
    cd = value_function(fl, u0, x, t)
    return cd.y_plus if side == "plus" else cd.y_minus


def r_curve(
    fl: Flux,
    u0: StepFunction,
    alpha: float,
    side: str,
    t_grid: Sequence[float],
) -> CharCurve:
    """Sample R_plus or R_minus at the given positive times by bisection."""
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    p0 = legendre_dual(fl).slope_bound
    out = []
    for t in t_grid:
        if t <= 0:
            raise ValueError("t grid must be positive")
        lo = alpha - p0 * t - 1.0
        hi = alpha + p0 * t + 1.0
        tol_a = 1e-12 * (1.0 + abs(alpha))
        if side == "plus":
            # predicate: y_plus(x, t) <= alpha, true near lo, false near hi
            def pred(x):
                return _y_side(fl, u0, x, t, "plus") <= alpha + tol_a
        else:
            # R_minus = inf {x : y_minus >= alpha}; flip so pred is true-left
            def pred(x):
                return not (_y_side(fl, u0, x, t, "minus") >= alpha - tol_a)
        if not pred(lo):
            raise WindowExceeded(f"bracket [{lo}, {hi}] does not straddle the curve")
        if pred(hi):
            raise WindowExceeded(f"bracket [{lo}, {hi}] does not straddle the curve")
        eps_x = 1e-10 * (1.0 + abs(alpha) + p0 * t)
        while hi - lo > eps_x:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return CharCurve(alpha, side, tuple(float(t) for t in t_grid), tuple(out))


def is_characteristic_line(
    fl: Flux,
    u0: StepFunction,
    a: float,
    p_slope: float,
    horizon: float,
    n_checks: int = 8,
) -> bool:
    """Finite-horizon test that the ray from (a, 0) with speed p_slope stays
    inside the minimizer set of every point it passes through."""
    if horizon <= 0 or n_checks < 2:
        raise ValueError("need horizon > 0 and n_checks >= 2")
    dual = legendre_dual(fl)
    v0 = _Primitive(u0)
    for k in range(1, n_checks + 1):
        t = horizon * k / n_checks
        cd = value_function(fl, u0, a + p_slope * t, t)
        p = (cd.x - a) / t
        if p < dual.lo - 1e-12 or p > dual.hi + 1e-12:
            return False
        phi = v0(a) + t * dual(min(max(p, dual.lo), dual.hi))
        if phi > cd.value + 1e-9 * (1.0 + abs(cd.value)):
            return False
    return True
