"""Variational solver for convex flux: value function, extreme minimizers,
and pointwise solution recovery.

For piecewise-affine convex flux and step data the objective
v0(y) + t f*((x-y)/t) is piecewise linear in y, so its global minimum over
the search window is attained at one of finitely many candidates: the data
jump positions and the points where (x-y)/t crosses a dual breakpoint.  The
solver enumerates exactly those candidates; no iteration, no discretization.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonPositiveTime, NotConvex
from .flux import Flux
from .legendre import DualFlux, legendre_dual
from .step import StepFunction


@dataclass(frozen=True)
class CharData:
    """Value and characteristic feet of the variational problem at (x, t)."""

    x: float
    t: float
    value: float
    y_minus: float
    y_plus: float
    minimizers: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "t": self.t,
            "value": self.value,
            "y_minus": self.y_minus,
            "y_plus": self.y_plus,
            "minimizers": list(self.minimizers),
        }


@dataclass(frozen=True)
class PointValue:
    """One-sided solution values at a point; equal unless x sits on a shock."""

    left: float
    right: float
    at_shock: bool

    @property
    def value(self) -> float:
        return self.left


@lru_cache(maxsize=256)
class _Primitive:
    """Exact primitive v0(x) = int_0^x u0, piecewise affine."""

    def __init__(self, u0: StepFunction):
        self.u0 = u0
        self.knots = u0.positions
        acc = [0.0]
        # cumulative integral from the first jump position
        for i in range(len(u0.positions) - 1):
            acc.append(acc[-1] + u0.values[i + 1] * (u0.positions[i + 1] - u0.positions[i]))
        self._acc = tuple(acc)
        # shift so that v0(0) = 0
        self._offset = 0.0
        self._offset = self(0.0)

    def __call__(self, y: float) -> float:
        u0 = self.u0
        if not u0.positions:
            return u0.values[0] * y - self._offset
        if y <= u0.positions[0]:
            return u0.values[0] * (y - u0.positions[0]) - self._offset
        i = bisect_right(u0.positions, y) - 1
        return self._acc[i] + u0.values[i + 1] * (y - u0.positions[i]) - self._offset


def _candidates(dual: DualFlux, u0: StepFunction, x: float, t: float) -> list[float]:
    y_lo = x - t * dual.hi
    y_hi = x - t * dual.lo
    ys = [y_lo, y_hi]
    ys += [y for y in u0.positions if y_lo < y < y_hi]
    ys += [x - t * p for p in dual.breakpoints[1:-1]]
    return sorted(set(ys))


def value_function(fl: Flux, u0: StepFunction, x: float, t: float) -> CharData:
    """Exact global minimum of v0(y) + t f*((x-y)/t) with its minimizer set."""
    if t <= 0.0:
        raise NonPositiveTime("value function needs t > 0")
    if not fl.is_convex():
        raise NotConvex("the variational formula needs a convex flux")
    dual = legendre_dual(fl)
    v0 = _Primitive(u0)
    best = None
    vals = []
    cands = _candidates(dual, u0, x, t)
    for y in cands:
        p = min(max((x - y) / t, dual.lo), dual.hi)
        phi = v0(y) + t * dual(p)
        vals.append(phi)
        if best is None or phi < best:
            best = phi
    eps = 1e-9 * (1.0 + abs(best))
    arg = tuple(y for y, phi in zip(cands, vals) if phi <= best + eps)
    return CharData(x, t, best, arg[0], arg[-1], arg)


def _side_value(
    dual: DualFlux, u0: StepFunction, x: float, t: float, y: float, side: str
) -> float:
    """Solution value carried by the characteristic with foot y."""
    jump_tol = 1e-12 * (1.0 + abs(y))
    on_jump = any(abs(y - xj) <= jump_tol for xj in u0.positions)
    if not on_jump:
        return u0(y)
    p = min(max((x - y) / t, dual.lo), dual.hi)
    return dual.left_state(p) if side == "left" else dual.right_state(p)


def solve_pointwise(fl: Flux, u0: StepFunction, x: float, t: float) -> PointValue:
    """Recover u(x, t) from the extreme characteristic feet.

    Away from discontinuities the two one-sided values agree: either plain
    transport u0(y) when the foot y is interior to a data piece, or the fan
    state whose characteristic slope matches (x - y)/t when y is a data
    jump.  On a shock (distinct feet) or a contact line both limits are
    reported and the point is flagged.
    """
    cd = value_function(fl, u0, x, t)
    dual = legendre_dual(fl)
    left = _side_value(dual, u0, x, t, cd.y_minus, "left")
    right = _side_value(dual, u0, x, t, cd.y_plus, "right")
    return PointValue(left, right, left != right)
