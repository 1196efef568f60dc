"""Fenchel duals of convex piecewise-affine fluxes.

For a convex piecewise-affine g the dual g*(p) = sup_q {pq - g(q)} is again
piecewise affine: breakpoints and slopes swap roles.  The dual is kept on the
finite slope range [m_min, m_max] of the primal; queries outside are errors
rather than +inf extensions, because the variational solver's search window
never leaves that range.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError
from .flux import Flux, make_flux


@dataclass(frozen=True)
class DualFlux:
    """Piecewise-affine convex conjugate on the primal slope range.

    ``states`` holds, per dual segment, the primal breakpoint that maximizes
    pq - g(q) for p inside that segment; the dual's own slopes are exactly
    those states.
    """

    breakpoints: tuple[float, ...]   # primal slopes m_0 < ... < m_K
    values: tuple[float, ...]
    states: tuple[float, ...]        # primal breakpoints, len K (may be 0)

    @property
    def lo(self) -> float:
        return self.breakpoints[0]

    @property
    def hi(self) -> float:
        return self.breakpoints[-1]

    @property
    def slope_bound(self) -> float:
        """p0 such that no minimizer y of the variational problem at (x, t)
        has |x - y| > p0 t: past the dual domain the conjugate is +inf."""
        return max(1.0, abs(self.lo), abs(self.hi))

    def outside(self, p: float) -> bool:
        """p beyond the dual domain by more than a margin relative to its ends."""
        tol = 1e-12 * (1.0 + max(abs(self.lo), abs(self.hi)))
        return p < self.lo - tol or p > self.hi + tol

    def _clamp(self, p: float) -> float:
        if self.outside(p):
            raise ValidationError("p", f"slope {p} outside dual domain [{self.lo}, {self.hi}]")
        return min(max(p, self.lo), self.hi)

    def __call__(self, p: float) -> float:
        p = self._clamp(p)
        if len(self.breakpoints) == 1:
            return self.values[0]
        i = min(bisect_right(self.breakpoints, p) - 1, len(self.states) - 1)
        i = max(i, 0)
        if p == self.breakpoints[i]:
            return self.values[i]
        return self.values[i] + self.states[i] * (p - self.breakpoints[i])

    def as_flux(self) -> Flux:
        if len(self.breakpoints) < 2:
            raise ValidationError("breakpoints", "single-point dual has no flux representation")
        return make_flux(self.breakpoints, self.values)

    def to_json(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}


@lru_cache(maxsize=256)
def legendre_dual(fl: Flux) -> DualFlux:
    """Exact conjugate: g*(p) = a_i p - g(a_i) on each slope band [m_{i-1}, m_i].

    Degenerate (affine) runs collapse to a single dual breakpoint whose
    maximizer set is the whole run; the run's right endpoint is stored as the
    canonical state.
    """
    if not fl.is_convex():
        raise ValidationError("flux", "dual is defined for convex fluxes only")
    # collapse runs of equal slopes, remembering each run's right end; a slope
    # not above its run's, a drop is_convex tolerates, joins the run
    run_slope: list[float] = []
    run_right: list[float] = []   # right endpoint of the run (canonical maximizer)
    for i, s in enumerate(fl.slopes):
        if run_slope and s <= run_slope[-1]:
            run_right[-1] = fl.breakpoints[i + 1]
            continue
        run_slope.append(s)
        run_right.append(fl.breakpoints[i + 1])
    duals = [run_right[i] * run_slope[i] - fl(run_right[i]) for i in range(len(run_slope))]
    # inner states: the breakpoint consecutive runs share, since runs are contiguous
    states = tuple(run_right[:-1])
    return DualFlux(tuple(run_slope), tuple(duals), states)


def bidual(fl: Flux) -> Flux:
    """Conjugate twice and re-express on the primal working interval."""
    d = legendre_dual(fl)
    if len(d.breakpoints) == 1:
        # affine flux: the dual is a point, the bidual the original line
        return make_flux([fl.lo, fl.hi], [fl(fl.lo), fl(fl.hi)])
    dd = legendre_dual(d.as_flux())
    xs = list(dd.breakpoints)
    ys = list(dd.values)
    # the double dual lives between the extreme primal kinks; extend to the
    # working interval with the outermost slopes
    m_lo, m_hi = d.lo, d.hi
    if xs[0] > fl.lo:
        y0 = ys[0] + m_lo * (fl.lo - xs[0])
        xs.insert(0, fl.lo)
        ys.insert(0, y0)
    if xs[-1] < fl.hi:
        y1 = ys[-1] + m_hi * (fl.hi - xs[-1])
        xs.append(fl.hi)
        ys.append(y1)
    return make_flux(xs, ys)

