"""Piecewise-constant profiles on the whole line."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class StepFunction:
    """Step function: value ``values[i]`` on (positions[i-1], positions[i]).

    ``values`` has one more entry than ``positions``; the first and last
    values extend to -inf / +inf.  Normalized form: positions strictly
    increasing, adjacent values distinct.
    """

    positions: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.positions) + 1:
            raise ValidationError("values", "need exactly one more value than positions")
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise ValidationError("positions", "must be strictly increasing")

    def __call__(self, x: float) -> float:
        """Value at x; right-continuous at jumps."""
        return self.values[bisect_right(self.positions, x)]

    def pieces(self) -> Iterator[tuple[float, float, float]]:
        """Yield (left edge, right edge, value) with +-inf outer edges."""
        edges = (float("-inf"),) + self.positions + (float("inf"),)
        for i, v in enumerate(self.values):
            yield edges[i], edges[i + 1], v

    @property
    def lo(self) -> float:
        return min(self.values)

    @property
    def hi(self) -> float:
        return max(self.values)

    def tv(self) -> float:
        return sum(abs(b - a) for a, b in zip(self.values, self.values[1:]))

    def tv_exact(self) -> Fraction:
        """Total variation as an exact rational (floats are exact rationals)."""
        out = Fraction(0)
        for a, b in zip(self.values, self.values[1:]):
            out += abs(Fraction(b) - Fraction(a))
        return out

    def translate(self, dx: float) -> "StepFunction":
        return StepFunction(tuple(x + dx for x in self.positions), self.values)

    def to_json(self) -> dict:
        return {"positions": list(self.positions), "values": list(self.values)}


def step(values: Sequence[float], positions: Sequence[float]) -> StepFunction:
    """Normalizing constructor: merges equal adjacent values."""
    if len(values) != len(positions) + 1:
        raise ValidationError("values", "need exactly one more value than positions")
    pos: list[float] = []
    vals: list[float] = [float(values[0])]
    for x, v in zip(positions, values[1:]):
        v = float(v)
        if v == vals[-1]:
            continue
        pos.append(float(x))
        vals.append(v)
    return StepFunction(tuple(pos), tuple(vals))


def constant(c: float) -> StepFunction:
    return StepFunction((), (float(c),))


def merged_edges(u: StepFunction, v: StepFunction, a: float, b: float) -> list[float]:
    xs = sorted({a, b, *(x for x in u.positions if a < x < b), *(x for x in v.positions if a < x < b)})
    return xs


def l1_distance(u: StepFunction, v: StepFunction, a: float, b: float) -> float:
    """Exact integral of |u - v| over [a, b]."""
    xs = merged_edges(u, v, a, b)
    out = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        mid = 0.5 * (x0 + x1)
        out += (x1 - x0) * abs(u(mid) - v(mid))
    return out


def everywhere_leq(u: StepFunction, v: StepFunction) -> bool:
    """Pointwise u <= v on the merged partition; states compare exactly.

    Cells narrower than position roundoff are skipped: a front computed along
    two arithmetic paths may land a few ulps apart, opening a measure-zero
    sliver where the profiles disagree spuriously.
    """
    xs = sorted(set(u.positions) | set(v.positions))
    if not xs:
        return u.values[0] <= v.values[0]
    probes = [xs[0] - 1.0, xs[-1] + 1.0]
    probes += [
        0.5 * (a + b)
        for a, b in zip(xs, xs[1:])
        if b - a > 1e-11 * (1.0 + abs(a))
    ]
    return all(u(x) <= v(x) for x in probes)


def assemble_initial_data(
    A: float, B: float, u_minus: StepFunction, ubar: StepFunction, u_plus: StepFunction
) -> StepFunction:
    """Glue u_- (x < A), ubar (A < x < B), u_+ (x > B) into one profile."""
    if A > B:
        raise ValidationError("A", "need A <= B")
    pos: list[float] = []
    vals: list[float] = [u_minus.values[0]]
    for x, v in zip(u_minus.positions, u_minus.values[1:]):
        if x < A:
            pos.append(x)
            vals.append(v)
    if A < B:
        pos.append(A)
        vals.append(ubar(A))  # right-continuous: the piece just right of A
        for x, v in zip(ubar.positions, ubar.values[1:]):
            if A < x < B:
                pos.append(x)
                vals.append(v)
    pos.append(B)
    vals.append(u_plus(B))
    for x, v in zip(u_plus.positions, u_plus.values[1:]):
        if x > B:
            pos.append(x)
            vals.append(v)
    return step(vals, pos)
