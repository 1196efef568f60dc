"""Piecewise-affine flux functions: construction, chords, tangents, hulls,
triplet classification and convex modification.

Every flux is stored exactly as breakpoints plus nodal values; evaluation is
linear interpolation, so all downstream solvers work over a finite state
lattice.  The working interval [b0, bn] must contain every state a run will
ever see (the maximum principle keeps solutions inside the initial data hull,
so a modest margin around the data suffices).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .errors import (
    BoundaryPoint,
    ChordSlopeViolated,
    COutOfRange,
    DegenerateChord,
    EmptyInterval,
    EmptyMesh,
    LengthMismatch,
    NonMonotoneBreakpoints,
    NotConvex,
    StateOutOfRange,
    ValidationError,
    WrongTriplet,
)

SLOPE_TOL = 1e-12  # absolute tolerance on slope comparisons
MAX_FLUX_NODES = 10**6   # grid nodes of one sampled analytic flux


@dataclass(frozen=True)
class Flux:
    """Continuous piecewise-affine function on a finite working interval."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...] = field(default=(), compare=False)

    @property
    def lo(self) -> float:
        return self.breakpoints[0]

    @property
    def hi(self) -> float:
        return self.breakpoints[-1]

    def contains(self, x: float) -> bool:
        """x inside the working interval, up to a 1e-12 margin relative to its scale."""
        tol = 1e-12 * self._scale()
        return self.lo - tol <= x <= self.hi + tol

    def _segment(self, x: float) -> int:
        """Index i of a segment [b_i, b_{i+1}] containing x."""
        if not self.contains(x):
            raise StateOutOfRange(f"{x} outside working interval [{self.lo}, {self.hi}]")
        i = bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.slopes) - 1)

    def _scale(self) -> float:
        return 1.0 + max(abs(self.lo), abs(self.hi))

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
            raise BoundaryPoint(f"no left slope at {x}")
        i = self._segment(x)
        if x == self.breakpoints[i] and i > 0:
            return self.slopes[i - 1]
        return self.slopes[i]

    def right_slope(self, x: float) -> float:
        if x >= self.hi:
            raise BoundaryPoint(f"no right slope at {x}")
        return self.slopes[self._segment(x)]

    def lipschitz(self, lo: float, hi: float) -> float:
        """Max |slope| over segments meeting [lo, hi]."""
        if lo > hi:
            lo, hi = hi, lo
        out = 0.0
        for i, s in enumerate(self.slopes):
            if self.breakpoints[i + 1] > lo and self.breakpoints[i] < hi:
                out = max(out, abs(s))
        return out

    def nodes_in(self, a: float, b: float, closed: bool = True) -> list[float]:
        """Breakpoints inside [a, b] (or (a, b) when closed=False)."""
        if closed:
            return [x for x in self.breakpoints if a <= x <= b]
        return [x for x in self.breakpoints if a < x < b]

    def is_convex(self, tol: float = SLOPE_TOL) -> bool:
        return all(s2 >= s1 - tol for s1, s2 in zip(self.slopes, self.slopes[1:]))

    def to_json(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}


def make_flux(breakpoints: Sequence[float], values: Sequence[float]) -> Flux:
    """Validated constructor; caches segment slopes."""
    bp = tuple(float(x) for x in breakpoints)
    vals = tuple(float(v) for v in values)
    if len(bp) != len(vals):
        raise LengthMismatch(f"{len(bp)} breakpoints vs {len(vals)} values")
    if len(bp) < 2:
        raise LengthMismatch("need at least two breakpoints")
    if any(b >= c for b, c in zip(bp, bp[1:])):
        raise NonMonotoneBreakpoints("breakpoints must be strictly increasing")
    out = _flux_unchecked(bp, vals)
    if any(not math.isfinite(s) for s in out.slopes):
        raise NonMonotoneBreakpoints("segment slopes must be finite")
    return out


def _flux_unchecked(bp: tuple[float, ...], vals: tuple[float, ...]) -> Flux:
    """Flux from float breakpoints already known to increase strictly."""
    slopes = tuple(
        (vals[i + 1] - vals[i]) / (bp[i + 1] - bp[i]) for i in range(len(bp) - 1)
    )
    return Flux(bp, vals, slopes)


class TripletClass(Enum):
    CONVEX_CONVEX = "convex_convex"
    CONVEX_CONCAVE = "convex_concave"
    NEITHER = "neither"


@dataclass(frozen=True)
class TripletKind:
    kind: TripletClass
    C: float
    D: float

    @property
    def is_convex_convex(self) -> bool:
        return self.kind is TripletClass.CONVEX_CONVEX

    @property
    def is_convex_concave(self) -> bool:
        return self.kind is TripletClass.CONVEX_CONCAVE


# ---------------------------------------------------------------------------
# analytic flux families
# ---------------------------------------------------------------------------

def _buckley_leverett(r: float) -> Callable[[float], float]:
    # r > 0 keeps the denominator positive: u and 1 - u are never both zero
    if not r > 0:
        raise ValidationError("flux.params", f"buckley_leverett needs r > 0, got r={r}")

    def f(u: float) -> float:
        den = u * u + r * (1.0 - u) * (1.0 - u)
        return u * u / den

    return f


ANALYTIC_FLUXES: dict[str, Callable[..., Callable[[float], float]]] = {
    "burgers": lambda **kw: lambda u: 0.5 * u * u,
    "neg_cubic": lambda **kw: lambda u: -u ** 3,
    "double_well": lambda **kw: lambda u: 0.25 * u ** 4 - u ** 2,
    "buckley_leverett": lambda **kw: _buckley_leverett(kw.get("r", 1.0)),
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
    table: tuple[tuple[float, float], ...] = ()

    def evaluator(self) -> Callable[[float], float]:
        if self.kind == "table":
            if len(self.table) < 2:
                raise EmptyMesh("table specs need at least two samples")
            base = make_flux([p[0] for p in self.table], [p[1] for p in self.table])
            return base
        if self.kind not in ANALYTIC_FLUXES:
            raise EmptyMesh(f"unknown analytic flux kind {self.kind!r}")
        return ANALYTIC_FLUXES[self.kind](**dict(self.params))


def approximate_pw_affine(spec: AnalyticFluxSpec) -> Flux:
    """Interpolate the analytic flux at a mesh-h grid plus the requested corners."""
    if spec.mesh <= 0:
        raise EmptyMesh("mesh width must be positive")
    if spec.hi <= spec.lo:
        raise EmptyMesh("empty working interval")
    for c in spec.corners:
        if not spec.lo <= c <= spec.hi:
            raise StateOutOfRange(f"corner {c} outside [{spec.lo}, {spec.hi}]")
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
    f = spec.evaluator()
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
        raise DegenerateChord("chord endpoints coincide")
    fa, fb = fl(a), fl(b)
    return fa + (fb - fa) / (b - a) * (theta - a)


def chord_slope(fl: Flux, a: float, b: float) -> float:
    if a == b:
        raise DegenerateChord("chord endpoints coincide")
    return (fl(a) - fl(b)) / (a - b)


def eval_tangent(fl: Flux, a: float, theta: float) -> float:
    """Tangent-line value using the left slope at a."""
    if not fl.lo < a <= fl.hi:
        raise BoundaryPoint(f"tangent base {a} has no left slope")
    return fl(a) + fl.left_slope(a) * (theta - a)


def _monotone(slopes: list[float], tol: float = SLOPE_TOL) -> tuple[bool, bool]:
    nondec = all(s2 >= s1 - tol for s1, s2 in zip(slopes, slopes[1:]))
    noninc = all(s2 <= s1 + tol for s1, s2 in zip(slopes, slopes[1:]))
    return nondec, noninc


def classify_triplet(fl: Flux, C: float, D: float) -> TripletKind:
    """Convexity pattern of fl left of C and right of D, read off segment slopes."""
    if not (fl.lo <= C <= D <= fl.hi):
        raise COutOfRange(f"[{C}, {D}] not inside working interval")
    left = [s for i, s in enumerate(fl.slopes) if fl.breakpoints[i] < C]
    right = [s for i, s in enumerate(fl.slopes) if fl.breakpoints[i + 1] > D]
    left_cvx, _ = _monotone(left)
    right_cvx, right_ccv = _monotone(right)
    if left_cvx and right_cvx:
        return TripletKind(TripletClass.CONVEX_CONVEX, C, D)
    if left_cvx and right_ccv:
        return TripletKind(TripletClass.CONVEX_CONCAVE, C, D)
    return TripletKind(TripletClass.NEITHER, C, D)


def chord_slope_check(fl: Flux, alpha: float, beta: float, C: float, D: float) -> bool:
    """True iff f(C), f(D) lie strictly below the alpha-beta chord.

    When the premise holds, f'(alpha-) < chord slope < f'(beta-) must follow
    for a convex-convex triplet; a violation raises ChordSlopeViolated.
    """
    kind = classify_triplet(fl, C, D)
    if not kind.is_convex_convex:
        raise WrongTriplet("chord-slope comparison needs a convex-convex triplet")
    if not (fl.lo <= alpha < C and D < beta <= fl.hi):
        return False
    line_c = eval_chord(fl, alpha, beta, C)
    line_d = eval_chord(fl, alpha, beta, D)
    ok = fl(C) < line_c and fl(D) < line_d
    if ok:
        m = chord_slope(fl, alpha, beta)
        if not fl.left_slope(alpha) < m < fl.left_slope(beta):
            raise ChordSlopeViolated("chord-slope consequence violated on the lattice")
    return ok


# ---------------------------------------------------------------------------
# convex modification
# ---------------------------------------------------------------------------

Q_SUBDIVISIONS = 16


def _convex_or_raise(out: Flux) -> Flux:
    if not out.is_convex(tol=1e-9):
        raise NotConvex("convex modification produced a non-convex result")
    return out


def convex_modify(fl: Flux, alpha: float, beta: float) -> Flux:
    """Replace fl on (alpha, beta) by tangent / quadratic blend / tangent.

    The blend Q is pinned by value and slope to both tangent lines; those four
    conditions force x1 + x2 = 2d where d is the tangent intersection, so a
    single symmetric choice of (x1, x2) covers every sign case.  Q is stored
    as its piecewise-affine interpolant on a 16-piece grid, keeping the Flux
    type closed under modification.
    """
    C = D = None
    # recover a triplet certificate from the caller's interval
    for i in range(len(fl.slopes) - 1):
        if fl.slopes[i + 1] < fl.slopes[i] - SLOPE_TOL:
            x = fl.breakpoints[i + 1]
            C = x if C is None else C
            D = x
    if C is None:
        C = D = 0.5 * (alpha + beta)  # already convex: any interior point works
    if not (alpha < C and D < beta):
        C, D = alpha + 0.25 * (beta - alpha), beta - 0.25 * (beta - alpha)
    if not chord_slope_check(fl, alpha, beta, C, D):
        raise ChordSlopeViolated(
            f"f(C), f(D) not strictly below the chord over [{alpha}, {beta}]"
        )

    b1, b2 = fl.left_slope(alpha), fl.left_slope(beta)
    fa, fb = fl(alpha), fl(beta)
    d = (fa - alpha * b1 - fb + beta * b2) / (b2 - b1)
    w = 0.5 * min(d - alpha, beta - d)
    x1, x2 = d - w, d + w
    a1 = fa + b1 * (x1 - alpha)

    def q(x: float) -> float:
        return (b2 - b1) / (2.0 * (x2 - x1)) * (x - x1) ** 2 + b1 * (x - x1) + a1

    nodes = [x for x in fl.breakpoints if x <= alpha]
    vals = [fl.values[i] for i, x in enumerate(fl.breakpoints) if x <= alpha]
    if not nodes or nodes[-1] < alpha:
        nodes.append(alpha)
        vals.append(fa)
    nodes.append(x1)
    vals.append(a1)
    hq = (x2 - x1) / Q_SUBDIVISIONS
    for k in range(1, Q_SUBDIVISIONS + 1):
        x = x1 + k * hq
        nodes.append(x)
        vals.append(q(x))
    if beta not in fl.breakpoints:
        nodes.append(beta)
        vals.append(fb)
    for i, x in enumerate(fl.breakpoints):
        if x >= beta:
            nodes.append(x)
            vals.append(fl.values[i])
    return _convex_or_raise(make_flux(nodes, vals))


def convex_modify_onesided(fl: Flux, C: float) -> Flux:
    """Replace fl right of C with the quadratic (p-C)^2 + f'(C-) (p-C) + f(C)."""
    if not fl.lo < C < fl.hi:
        raise COutOfRange(f"{C} not interior to working interval")
    sC, fC = fl.left_slope(C), fl(C)

    def q(p: float) -> float:
        return (p - C) ** 2 + sC * (p - C) + fC

    nodes = [x for x in fl.breakpoints if x < C] + [C]
    vals = [fl(x) for x in nodes]
    for x in fl.breakpoints:
        if x > C:
            nodes.append(x)
            vals.append(q(x))
    return _convex_or_raise(make_flux(nodes, vals))


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(fl: Flux, a: float, b: float, side: str = "lower") -> Flux:
    """Lower convex / upper concave hull of fl restricted to [a, b].

    Hull breakpoints are a subset of the flux breakpoints in [a, b] plus the
    endpoints; collinear nodes are collapsed so hull slopes are strictly
    monotone.
    """
    if a >= b:
        raise EmptyInterval(f"need a < b, got [{a}, {b}]")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    a, b = float(a), float(b)
    lo, hi = bisect_right(fl.breakpoints, a), bisect_left(fl.breakpoints, b)
    # f at a breakpoint is its nodal value, so the interior nodes need no evaluation
    pts = [(a, fl(a)), *zip(fl.breakpoints[lo:hi], fl.values[lo:hi]), (b, fl(b))]
    sgn = 1.0 if side == "lower" else -1.0
    tol = 1e-12 * fl._scale() * (1.0 + max(abs(p[1]) for p in pts))
    chain: list[tuple[float, float]] = []
    for p in pts:
        while len(chain) >= 2 and sgn * _cross(chain[-2], chain[-1], p) <= tol:
            chain.pop()
        chain.append(p)
    bp, vals = zip(*chain)
    return _flux_unchecked(bp, vals)
