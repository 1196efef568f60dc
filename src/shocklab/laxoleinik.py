"""Variational solver for convex flux: value function, extreme minimizers,
and pointwise solution recovery.

For piecewise-affine convex flux and step data the objective
v0(y) + t f*((x-y)/t) is piecewise linear in y, so its global minimum over
the search window is attained at one of finitely many candidates: the data
jump positions and the points where (x-y)/t crosses a dual breakpoint.  The
solver enumerates exactly those candidates; no iteration, no discretization.

One matrix kernel evaluates them: ``_Objective`` holds the dual and the
primitive of one (flux, data) pair as arrays and builds a rows-by-candidates
matrix, one row per query (x, t).  Each cell clamps the slope, looks the dual
up by ``searchsorted`` and adds the primitive; each row reduces to its
minimum, the tie mask and the extreme tied feet.  A row whose minimum is not
finite overflowed and is refused, with no numpy warning.  Every float
operation keeps the order of a candidate-by-candidate loop, so results are
bit-identical to it.  ``value_function`` is a one-row call; ``characteristics.r_curve`` passes
all samples of a curve at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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


class _Primitive:
    """Exact primitive v0(y) = int_0^y u0, piecewise affine, at a scalar or
    an array of points."""

    def __init__(self, u0: StepFunction):
        acc = [0.0]
        # cumulative integral from the first jump position
        for i in range(len(u0.positions) - 1):
            acc.append(acc[-1] + u0.values[i + 1] * (u0.positions[i + 1] - u0.positions[i]))
        self._acc = np.asarray(acc)
        self._pos = np.asarray(u0.positions, dtype=float)
        self._vals = np.asarray(u0.values, dtype=float)
        # shift so that v0(0) = 0
        self._offset = 0.0
        self._offset = float(self(0.0))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        pos, vals = self._pos, self._vals
        if not len(pos):
            return (vals[0] * y - self._offset)[()]
        i = np.maximum(np.searchsorted(pos, y, side="right") - 1, 0)
        left = vals[0] * (y - pos[0]) - self._offset
        right = self._acc[i] + vals[i + 1] * (y - pos[i]) - self._offset
        return np.where(y <= pos[0], left, right)[()]


class _Objective:
    """The objective v0(y) + t f*((x-y)/t) of one flux and one data, built
    once and evaluated on a matrix: one row per query (x, t), one column per
    candidate foot y.  Data values outside the flux's working interval are
    refused here, as ``init_state`` refuses them."""

    def __init__(self, fl: Flux, u0: StepFunction):
        for v in u0.values:
            if not fl.contains(v):
                raise ValidationError(
                    "u0", f"data value {v} outside working interval [{fl.lo}, {fl.hi}]"
                )
        self.dual = dual = legendre_dual(fl)
        self.lo, self.hi = dual.lo, dual.hi
        self._bp = np.asarray(dual.breakpoints)
        self._dv = np.asarray(dual.values)
        self._st = np.asarray(dual.states)
        self._jumps = np.asarray(u0.positions, dtype=float)
        self._v0 = _Primitive(u0)

    def window(self, x: float, t: float) -> None:
        """Refuse the query (x, t) when its candidate window [x - t hi,
        x - t lo] is not finite, before any matrix arithmetic overflows."""
        y_lo, y_hi = x - t * self.hi, x - t * self.lo
        if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
            raise ValidationError("t", f"candidate window [{y_lo}, {y_hi}] at t={t} overflows")

    def candidates(self, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Columns y_lo, y_hi, the data jumps, then x - t p for the interior
        dual breakpoints; the mask drops the jumps outside (y_lo, y_hi)."""
        x, t = x[:, None], t[:, None]
        y_lo = x - t * self.hi
        y_hi = x - t * self.lo
        jumps = np.broadcast_to(self._jumps, (len(x), len(self._jumps)))
        ys = np.concatenate([y_lo, y_hi, jumps, x - t * self._bp[1:-1]], axis=1)
        valid = np.ones(ys.shape, dtype=bool)
        valid[:, 2 : 2 + len(self._jumps)] = (y_lo < jumps) & (jumps < y_hi)
        return ys, valid

    def _dual(self, p: np.ndarray) -> np.ndarray:
        """f*(p) for slopes p already inside [lo, hi], as DualFlux.__call__."""
        if len(self._bp) == 1:
            return np.full(p.shape, self._dv[0])
        i = np.clip(np.searchsorted(self._bp, p, side="right") - 1, 0, len(self._st) - 1)
        b, v = self._bp[i], self._dv[i]
        return np.where(p == b, v, v + self._st[i] * (p - b))

    def __call__(self, x: np.ndarray, t: np.ndarray, ys: np.ndarray) -> np.ndarray:
        x, t = x[:, None], t[:, None]
        p = np.minimum(np.maximum((x - ys) / t, self.lo), self.hi)
        return self._v0(ys) + t * self._dual(p)

    def ties(
        self, x: np.ndarray, t: np.ndarray, ys: np.ndarray, valid: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row: the first minimum of the objective over the candidates ys
        (those in valid, when given) and the mask of the candidates within the
        tie tolerance 1e-9 (1 + |min|) of it.  A row whose minimum, or its
        tolerance, is not finite overflowed and is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self(x, t, ys)
            if valid is not None:
                phi = np.where(valid, phi, np.inf)
            best = np.take_along_axis(phi, phi.argmin(axis=1)[:, None], axis=1)
            limit = best + 1e-9 * (1.0 + np.abs(best))
        bad = ~np.isfinite(limit[:, 0])
        if bad.any():
            k = int(bad.argmax())
            raise ValidationError("t", f"objective overflows at x={x[k]}, t={t[k]}")
        return best[:, 0], phi <= limit

    def feet(self, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extreme minimizers (y_minus, y_plus) of each query row."""
        ys, valid = self.candidates(x, t)
        _, tie = self.ties(x, t, ys, valid)
        return np.where(tie, ys, np.inf).min(axis=1), np.where(tie, ys, -np.inf).max(axis=1)


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise ValidationError("t", f"need a finite time t > 0, got {t}")


def _check_finite(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise ValidationError(name, f"need a finite number, got {v}")


def value_function(fl: Flux, u0: StepFunction, x: float, t: float) -> CharData:
    """Exact global minimum of v0(y) + t f*((x-y)/t) with its minimizer set."""
    _check_time(t)
    _check_finite("x", x)
    objective = _Objective(fl, u0)
    objective.window(x, t)
    xs, ts = np.array([x], dtype=float), np.array([t], dtype=float)
    ys, valid = objective.candidates(xs, ts)
    # distinct candidates in increasing order; of +0.0 and -0.0 the first listed
    ys = ys[valid]
    ys = ys[np.unique(ys, return_index=True)[1]][None, :]
    best, tie = objective.ties(xs, ts, ys)
    arg = tuple(float(y) for y in ys[tie])
    return CharData(x, t, float(best[0]), arg[0], arg[-1], arg)


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
