"""Piecewise-affine flux functions: construction, chords, tangents, hulls
and triplet classification.

Every flux is stored exactly as breakpoints plus nodal values; evaluation is
linear interpolation, so all downstream solvers work over a finite state
lattice.  The working interval [b0, bn] must contain every state a run will
ever see (the maximum principle keeps solutions inside the initial data hull,
so a modest margin around the data suffices).
"""

from __future__ import annotations

import inspect
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .errors import ValidationError

SLOPE_TOL = 1e-12  # absolute tolerance on slope comparisons
MAX_FLUX_NODES = 10**6   # grid nodes of one sampled analytic flux


@dataclass(frozen=True)
class Flux:
    """Continuous piecewise-affine function on a finite working interval,
    from float breakpoints already known to increase strictly; ``make_flux``
    is the checked constructor."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def lo(self) -> float:
        return self.breakpoints[0]

    @property
    def hi(self) -> float:
        return self.breakpoints[-1]

    def contains(self, x: float) -> bool:
        """x inside the working interval, up to a 1e-12 margin relative to its scale."""
        tol = 1e-12 * self._scale
        return self.lo - tol <= x <= self.hi + tol

    def _segment(self, x: float) -> int:
        """Index i of a segment [b_i, b_{i+1}] containing x."""
        if not self.contains(x):
            raise ValidationError("state", f"{x} outside working interval [{self.lo}, {self.hi}]")
        i = bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.breakpoints) - 2)

    @cached_property
    def slopes(self) -> tuple[float, ...]:
        """Segment slopes, made on first use: a hull that the Riemann solver
        reads only for its nodes never builds them."""
        bp, vals = self.breakpoints, self.values
        return tuple((vals[i + 1] - vals[i]) / (bp[i + 1] - bp[i]) for i in range(len(bp) - 1))

    @cached_property
    def _scale(self) -> float:
        return 1.0 + max(abs(self.lo), abs(self.hi))

    @cached_property
    def _runs(self) -> tuple[list[int], list[float], float]:
        """Maximal strictly convex and strictly concave runs of segments, for hull.

        Segments k - 1 and k share a convex run when the cross product at node
        k, in hull's operand order, exceeds tmax, and a concave run when it is
        below -tmax.  shape[j] is 1.0, -1.0 or 0.0 as node j is convex, concave
        or neither, and start[j] is the first segment of the longest run of
        that shape ending at segment j, so segments i..j (i < j) lie in one run
        iff start[j] <= i.  tmax is twice hull's tolerance with max|f| taken
        over the whole flux: a call's tolerance also counts f at the interval
        ends, which rounding can lift past max|f|.
        """
        bp, vals = self.breakpoints, self.values
        tmax = 2e-12 * self._scale * (1.0 + max(map(abs, vals)))
        start, shape = [0], [0.0]
        for k in range(1, len(bp) - 1):
            c = _cross((bp[k - 1], vals[k - 1]), (bp[k], vals[k]), (bp[k + 1], vals[k + 1]))
            s = 1.0 if c > tmax else -1.0 if c < -tmax else 0.0
            start.append(start[-1] if s and s == shape[-1] else k - 1 if s else k)
            shape.append(s)
        return start, shape, tmax

    def __call__(self, x: float) -> float:
        i = self._segment(x)
        if x == self.breakpoints[i]:
            return self.values[i]
        if x == self.breakpoints[i + 1]:
            return self.values[i + 1]
        return self.values[i] + self.slopes[i] * (x - self.breakpoints[i])

    def left_slope(self, x: float) -> float:
        """Slope of the segment ending at x (the left derivative)."""
        if x <= self.lo:
            raise ValidationError("state", f"no left slope at {x}")
        i = self._segment(x)
        if x == self.breakpoints[i] and i > 0:
            return self.slopes[i - 1]
        return self.slopes[i]

    def nodes_in(self, a: float, b: float, closed: bool = True) -> list[float]:
        """Breakpoints inside [a, b] (or (a, b) when closed=False)."""
        bp = self.breakpoints
        if closed:
            return list(bp[bisect_left(bp, a):bisect_right(bp, b)])
        return list(bp[bisect_right(bp, a):bisect_left(bp, b)])

    def is_convex(self) -> bool:
        return _monotone(self.slopes)[0]

    def to_json(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}


def make_flux(breakpoints: Sequence[float], values: Sequence[float]) -> Flux:
    """Validated constructor."""
    bp = tuple(float(x) for x in breakpoints)
    vals = tuple(float(v) for v in values)
    if len(bp) != len(vals):
        raise ValidationError("flux.values", f"{len(bp)} breakpoints vs {len(vals)} values")
    if len(bp) < 2:
        raise ValidationError("flux.breakpoints", "need at least two breakpoints")
    if any(b >= c for b, c in zip(bp, bp[1:])):
        raise ValidationError("flux.breakpoints", "breakpoints must be strictly increasing")
    out = Flux(bp, vals)
    if any(not math.isfinite(s) for s in out.slopes):
        raise ValidationError("flux.breakpoints", "segment slopes must be finite")
    # hull's cross products reach (hi - lo) * 2 max|f| <= 4 _scale max|f|; keep them finite
    if not math.isfinite(4.0 * out._scale * (1.0 + max(map(abs, vals)))):
        raise ValidationError("flux.values", "values too large for finite hull arithmetic "
                              f"on [{bp[0]}, {bp[-1]}]")
    return out


class TripletClass(Enum):
    CONVEX_CONVEX = "convex_convex"
    CONVEX_CONCAVE = "convex_concave"
    NEITHER = "neither"


# ---------------------------------------------------------------------------
# analytic flux families
# ---------------------------------------------------------------------------

def _buckley_leverett(r: float = 1.0) -> Callable[[float], float]:
    # r > 0 keeps the denominator positive: u and 1 - u are never both zero
    if not r > 0:
        raise ValidationError("flux.params", f"buckley_leverett needs r > 0, got r={r}")

    def f(u: float) -> float:
        den = u * u + r * (1.0 - u) * (1.0 - u)
        return u * u / den

    return f


# kind -> builder of the flux; the builder's keyword parameters are the
# kind's params
ANALYTIC_FLUXES: dict[str, Callable[..., Callable[[float], float]]] = {
    "burgers": lambda: lambda u: 0.5 * u * u,
    "neg_cubic": lambda: lambda u: -u ** 3,
    "double_well": lambda: lambda u: 0.25 * u ** 4 - u ** 2,
    "buckley_leverett": _buckley_leverett,
}


@dataclass(frozen=True)
class AnalyticFluxSpec:
    """Recipe for sampling a classical flux onto a piecewise-affine mesh."""

    kind: str
    lo: float
    hi: float
    mesh: float
    corners: tuple[float, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def evaluator(self) -> Callable[[float], float]:
        build = ANALYTIC_FLUXES.get(self.kind)
        if build is None:
            raise ValidationError(
                "flux.kind",
                f"unknown analytic flux kind {self.kind!r} (have {sorted(ANALYTIC_FLUXES)})",
            )
        params = dict(self.params)
        known = inspect.signature(build).parameters
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ValidationError(
                "flux.params", f"{self.kind} takes params {sorted(known)}, got {unknown}"
            )
        return build(**params)


def approximate_pw_affine(spec: AnalyticFluxSpec) -> Flux:
    """Interpolate the analytic flux at a mesh-h grid plus the requested corners."""
    f = spec.evaluator()
    if spec.mesh <= 0:
        raise ValidationError("flux.mesh", "mesh width must be positive")
    if spec.hi <= spec.lo:
        raise ValidationError("flux.hi", "empty working interval")
    for c in spec.corners:
        if not spec.lo <= c <= spec.hi:
            raise ValidationError("flux.corners", f"corner {c} outside [{spec.lo}, {spec.hi}]")
    # also rejects a width that overflows to inf, before any node is built
    nodes_wanted = (spec.hi - spec.lo) / spec.mesh
    if not nodes_wanted <= MAX_FLUX_NODES:
        raise ValidationError(
            "flux.mesh",
            f"mesh {spec.mesh} on [{spec.lo}, {spec.hi}] asks for {nodes_wanted:.3g} nodes, "
            f"more than {MAX_FLUX_NODES}",
        )
    n = int(round(nodes_wanted))
    grid = [spec.lo + k * spec.mesh for k in range(max(n, 1))] + [spec.hi]
    nodes = sorted(set(grid) | set(spec.corners))
    # drop grid nodes that collide with a corner up to rounding noise
    merged: list[float] = []
    keep_tol = 1e-9 * spec.mesh
    for x in nodes:
        if merged and x - merged[-1] <= keep_tol:
            continue
        merged.append(x)
    values = []
    for x in merged:
        try:
            y = f(x)
        except OverflowError:   # float ** raises where * gives inf
            y = math.inf
        if not math.isfinite(y):
            # lo <= x <= hi, so a huge negative x means a huge lo and vice versa
            end = "flux.lo" if x < 0 else "flux.hi"
            raise ValidationError(end, f"{spec.kind} flux is not finite at u={x}")
        values.append(y)
    return make_flux(merged, values)


# ---------------------------------------------------------------------------
# chords, tangents, classification
# ---------------------------------------------------------------------------

def eval_chord(fl: Flux, a: float, b: float, theta: float) -> float:
    """Value at theta of the line through (a, f(a)) and (b, f(b))."""
    if a == b:
        raise ValidationError("b", "chord endpoints coincide")
    fa, fb = fl(a), fl(b)
    return fa + (fb - fa) / (b - a) * (theta - a)


def eval_tangent(fl: Flux, a: float, theta: float) -> float:
    """Tangent-line value using the left slope at a."""
    if not fl.lo < a <= fl.hi:
        raise ValidationError("a", f"tangent base {a} has no left slope")
    return fl(a) + fl.left_slope(a) * (theta - a)


def _monotone(slopes: Sequence[float]) -> tuple[bool, bool]:
    nondec = all(s2 >= s1 - SLOPE_TOL for s1, s2 in zip(slopes, slopes[1:]))
    noninc = all(s2 <= s1 + SLOPE_TOL for s1, s2 in zip(slopes, slopes[1:]))
    return nondec, noninc


def classify_triplet(fl: Flux, C: float, D: float) -> TripletClass:
    """Convexity pattern of fl left of C and right of D, read off segment slopes."""
    if not (fl.lo <= C <= D <= fl.hi):
        raise ValidationError("C, D", f"[{C}, {D}] not inside working interval")
    left = [s for i, s in enumerate(fl.slopes) if fl.breakpoints[i] < C]
    right = [s for i, s in enumerate(fl.slopes) if fl.breakpoints[i + 1] > D]
    left_cvx, _ = _monotone(left)
    right_cvx, right_ccv = _monotone(right)
    if left_cvx and right_cvx:
        return TripletClass.CONVEX_CONVEX
    if left_cvx and right_ccv:
        return TripletClass.CONVEX_CONCAVE
    return TripletClass.NEITHER


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(fl: Flux, a: float, b: float, side: str = "lower") -> Flux:
    """Lower convex / upper concave hull of fl restricted to [a, b].

    Hull breakpoints are a subset of the flux breakpoints in [a, b] plus the
    endpoints; collinear nodes are collapsed so hull slopes are strictly
    monotone.  Andrew's monotone chain over those nodes is the general path.
    When [a, b] lies in one strictly convex or strictly concave run of fl
    (``Flux._runs``), the hull is read off in closed form instead, equal to
    the chain's bit for bit: the chord when the run curves away from the hull
    (the upper hull of a convex run, the lower hull of a concave one), and
    every node of [a, b] when it curves toward it, once the two end triples,
    which involve the off-lattice states a and b, are checked as well.
    """
    if a >= b:
        raise ValidationError("b", f"need a < b, got [{a}, {b}]")
    if side not in ("lower", "upper"):
        raise ValidationError("side", f"need 'lower' or 'upper', got {side!r}")
    a, b = float(a), float(b)
    bp, vals = fl.breakpoints, fl.values
    lo, hi = bisect_right(bp, a), bisect_left(bp, b)
    sgn = 1.0 if side == "lower" else -1.0
    # a lies in segment lo - 1 and b in segment hi - 1; states in the contains
    # margin outside [bp[0], bp[-1]] take the chain
    if 0 < lo and hi < len(bp):
        start, shape, tmax = fl._runs
        if hi == lo:
            return Flux((a, b), (fl(a), fl(b)))
        if start[hi - 1] < lo:
            fa, fb = fl(a), fl(b)
            if shape[hi - 1] != sgn:
                # On the exact run every cross (a, node, next) the chain takes
                # is <= 0.  Rounding f(a) and f(b) adds up to about 1e-15 (b - a)
                # times the far nodal values of their segments, which must stay
                # below tol = 1e-12 _scale (1 + max|f| over [a, b]); a steep end
                # segment can lift f(a) above its next node and keep that node.
                if abs(vals[lo - 1]) + abs(vals[hi]) <= 128.0 * (1.0 + max(abs(fa), abs(fb))):
                    return Flux((a, b), (fa, fb))
            else:
                pa, pb = (a, fa), (b, fb)
                after = (bp[lo + 1], vals[lo + 1]) if hi > lo + 1 else pb
                before = (bp[hi - 2], vals[hi - 2]) if hi > lo + 1 else pa
                if (sgn * _cross(pa, (bp[lo], vals[lo]), after) > tmax
                        and sgn * _cross(before, (bp[hi - 1], vals[hi - 1]), pb) > tmax):
                    return Flux((a, *bp[lo:hi], b), (fa, *vals[lo:hi], fb))
    # f at a breakpoint is its nodal value, so the interior nodes need no evaluation
    pts = [(a, fl(a)), *zip(bp[lo:hi], vals[lo:hi]), (b, fl(b))]
    tol = 1e-12 * fl._scale * (1.0 + max(abs(p[1]) for p in pts))
    chain: list[tuple[float, float]] = []
    for p in pts:
        while len(chain) >= 2 and sgn * _cross(chain[-2], chain[-1], p) <= tol:
            chain.pop()
        chain.append(p)
    xs, ys = zip(*chain)
    return Flux(xs, ys)
