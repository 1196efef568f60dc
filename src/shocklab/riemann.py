"""Exact Riemann solver for piecewise-affine flux of any shape.

The entropy solution of a single jump is read off a hull: the lower convex
hull of the flux between the states for an upward jump, the upper concave
hull for a downward jump.  Every front connects adjacent hull breakpoints and
moves with the exact Rankine-Hugoniot speed, so the whole fan lives on the
finite lattice {flux breakpoints} plus the two data states.

Every solve takes its hull from ``flux.hull`` through this module's ``hull``
attribute, the one entry point.  When both states lie in one strictly convex
or strictly concave run of the flux, the hull has a closed form: a single
shock (the chord) where the run curves away from the hull, a rarefaction
through every node between the states where it curves toward it.  Other
pairs, such as those spanning an inflection, take the monotone chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .flux import Flux, hull


@dataclass(frozen=True)
class Front:
    """Moving discontinuity with constant states on both sides."""

    speed: float
    left: float
    right: float

    def to_json(self) -> dict:
        return {"speed": self.speed, "left": self.left, "right": self.right}


def solve_riemann(fl: Flux, u_l: float, u_r: float) -> tuple[Front, ...]:
    """Entropy fan of the jump from u_l to u_r: its fronts left to right, each
    front's right state the next one's left state; empty when u_l == u_r."""
    if u_l == u_r:
        if not fl.contains(u_l):
            raise ValidationError("state", f"state {u_l} outside working interval")
        return ()
    # hull checks both states' range and holds f exactly at its nodes, so each
    # quotient (f(l) - f(r)) / (l - r) is read off it in the same operand order
    if u_l < u_r:
        h = hull(fl, u_l, u_r, "lower")
        nodes, vals = h.breakpoints, h.values
        fronts = [
            Front((vals[i] - vals[i + 1]) / (nodes[i] - nodes[i + 1]), nodes[i], nodes[i + 1])
            for i in range(len(nodes) - 1)
        ]
    else:
        h = hull(fl, u_r, u_l, "upper")
        nodes, vals = h.breakpoints, h.values
        fronts = [
            Front((vals[i + 1] - vals[i]) / (nodes[i + 1] - nodes[i]), nodes[i + 1], nodes[i])
            for i in reversed(range(len(nodes) - 1))
        ]
    return tuple(fronts)


def oleinik_condition_e(fl: Flux, front: Front) -> bool:
    """Entropy admissibility against every flux breakpoint between the states.

    For any v strictly between l and r the chord from the left state must run
    at least as steep as the front, the chord into the right state at most:
    (f(l)-f(v))/(l-v) >= s >= (f(v)-f(r))/(v-r), each up to an absolute 1e-9.
    """
    l, r, s = front.left, front.right, front.speed
    fl_l, fl_r = fl(l), fl(r)
    for v in fl.nodes_in(min(l, r), max(l, r), closed=False):
        fv = fl(v)
        if (fl_l - fv) / (l - v) < s - 1e-9:
            return False
        if (fv - fl_r) / (v - r) > s + 1e-9:
            return False
    return True
