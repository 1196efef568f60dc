"""Event-driven exact evolution of piecewise-constant data (front tracking).

States live on a finite lattice ({flux breakpoints} plus the data values) and
are compared exactly; only positions and times are floating point.  Each
initial jump is replaced by its Riemann fan; fronts travel at constant speed
until two or more meet, where the outermost states pose a fresh Riemann
problem whose fan replaces the incoming fronts.  For piecewise-affine flux
and finitely many jumps the event count is finite; a hard guard fences
adversarial float drift.

Live fronts form a doubly linked chain, left to right.  Collisions of
neighbours wait in a heap keyed by (time, position, sequence); an entry (a, b)
is valid while ``a.next is b``, since a dead front is unlinked and a live one
links only to live ones, so an event costs O(log n) in the number n of live
fronts: pop, then one splice links the fan into the chain and queues every
new neighbour pair, as it links the initial fans.  Each event's record holds
the fronts that died there and those born there, so the log and the live
chain are the one record of every front's life.  Fans are memoized per
(left, right) state pair for the life of a SimState, since a fan is a pure
function of its two lattice states.

``events`` is the one loop that pops and processes collisions, and it takes
requested snapshot profiles on the way.  ``advance`` and the emergence
detector of ``singleshock`` consume the records it yields, so one walk of a
state serves all of them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import ValidationError
from .flux import Flux
from .riemann import solve_riemann
from .step import StepFunction, step

PARALLEL_TOL = 1e-14      # speed differences below this never collide
MAX_EVENTS = 10 ** 6


@dataclass(slots=True, eq=False)
class _LiveFront:
    x0: float
    t0: float
    speed: float
    left: float
    right: float
    prev: _LiveFront | None = field(default=None, repr=False)
    next: _LiveFront | None = field(default=None, repr=False)

    def pos(self, t: float) -> float:
        return self.x0 + self.speed * (t - self.t0)


class EventRecord(NamedTuple):
    """A collision at (t, x): ``incoming`` holds the tracked fronts that died
    there, unlinked, and ``outgoing`` the tracked fronts of the fan that
    replaced them, born there."""
    t: float
    x: float
    incoming: tuple[_LiveFront, ...]
    outgoing: tuple[_LiveFront, ...]

    def to_json(self) -> dict:
        pack = lambda f: {"l": f.left, "r": f.right, "s": f.speed}
        return {
            "t": self.t,
            "x": self.x,
            "in": [pack(f) for f in self.incoming],
            "out": [pack(f) for f in self.outgoing],
        }


class SimState:
    """Single-owner mutable simulation state."""

    head: _LiveFront | None = None   # read by __del__, also after a failed check

    def __init__(self, flux: Flux, u0: StepFunction):
        """Replace each jump of u0 by its Riemann fan and prime the event queue."""
        for v in u0.values:
            if not flux.contains(v):
                raise ValidationError("u0", f"data value {v} outside working interval")
        self.flux = flux
        self.t = 0.0
        self.event_log: list[EventRecord] = []
        self.eps_x = 1e-9 * (flux.hi - flux.lo)
        self._heap: list[tuple[float, float, int, _LiveFront, _LiveFront]] = []
        self._seq = itertools.count()
        self._fans: dict = {}
        # the left tail: no event changes it, and every profile starts from it
        self._constant_value = u0.values[0]
        # requested snapshot time -> profile there, filled in by events()
        self.snapshots: dict[float, StepFunction | None] = {}
        # the starting chain, left to right; each front of it is live or in a record
        self.initial = [f for i, x in enumerate(u0.positions)
                        for f in self._born(u0.values[i], u0.values[i + 1], x, 0.0)]
        self._splice(None, self.initial, None)

    def __del__(self):
        # break the live chain's back links, so its fronts are freed with the
        # state instead of waiting for the cycle collector
        f = self.head
        while f is not None:
            f.prev, f = None, f.next

    @property
    def events_processed(self) -> int:
        """Events processed so far, one record each in ``event_log``."""
        return len(self.event_log)

    @property
    def fronts(self) -> list[_LiveFront]:
        """Live fronts, left to right."""
        out = []
        f = self.head
        while f is not None:
            out.append(f)
            f = f.next
        return out

    def _born(self, l: float, r: float, x: float, t: float) -> tuple[_LiveFront, ...]:
        """Tracked fronts of the Riemann fan of (l, r), born at (x, t).

        Fans are pure functions of the two lattice states, so they are
        memoized per pair: one solve serves every later jump or collision
        with the same outer states.
        """
        # 0.0 == -0.0, but a fan echoes the sign of its outer states
        key = (l, r) if l and r else (l, r, math.copysign(1.0, l), math.copysign(1.0, r))
        fan = self._fans.get(key)
        if fan is None:
            fan = self._fans[key] = solve_riemann(self.flux, l, r)
        return tuple([_LiveFront(x, t, *w) for w in fan])

    # -- scheduling --------------------------------------------------------

    def _splice(
        self, before: _LiveFront | None, born: Iterable[_LiveFront], after: _LiveFront | None
    ) -> None:
        """Link ``born`` between ``before`` and ``after``, None standing for an
        end of the chain, and queue each new pair of neighbours, left to right.

        Pairs inside one fan never meet, since its speeds strictly increase,
        so ``_schedule`` drops them before pushing.
        """
        left = before
        for f in born:
            f.prev = left
            if left is None:
                self.head = f
            else:
                left.next = f
                self._schedule(left, f)
            left = f
        if left is None:
            self.head = after
        else:
            left.next = after
        if after is not None:
            after.prev = left
            if left is not None:
                self._schedule(left, after)

    def _schedule(self, a: _LiveFront, b: _LiveFront) -> None:
        """Queue the collision of neighbours a, b, unless they never meet."""
        ds = a.speed - b.speed
        if ds <= PARALLEL_TOL:
            return
        t_hit = self.t + max(b.pos(self.t) - a.pos(self.t), 0.0) / ds
        heapq.heappush(self._heap, (t_hit, a.pos(t_hit), next(self._seq), a, b))

    def _peek(self) -> tuple[float, float, _LiveFront, _LiveFront] | None:
        """Earliest valid heap entry as (t, x, a, b); drops stale ones.

        An entry is valid while its fronts are still neighbours: a dead front
        is unlinked, and a live front links only to live ones.
        """
        heap = self._heap
        while heap:
            t_hit, x_hit, _, a, b = heap[0]
            if a.next is b:
                return t_hit, x_hit, a, b
            heapq.heappop(heap)
        return None

    def _group(
        self, t_hit: float, x_hit: float, a: _LiveFront, b: _LiveFront
    ) -> list[_LiveFront]:
        """Maximal run of neighbours around a, b sitting within eps_x of the hit."""
        eps = self.eps_x
        while a.prev is not None and abs(a.prev.pos(t_hit) - x_hit) <= eps:
            a = a.prev
        while b.next is not None and abs(b.next.pos(t_hit) - x_hit) <= eps:
            b = b.next
        block = [a]
        while a is not b:
            a = a.next
            block.append(a)
        return block

    def _process(self, t_hit: float, x_hit: float, a: _LiveFront, b: _LiveFront) -> EventRecord:
        if len(self.event_log) >= MAX_EVENTS:
            raise ValidationError("t_until", f"more than {MAX_EVENTS} events")
        self.t = t_hit
        block = self._group(t_hit, x_hit, a, b)
        before, after = block[0].prev, block[-1].next
        born = self._born(block[0].left, block[-1].right, x_hit, t_hit)
        for f in block:
            # unlinked, a dead front holds no reference cycle, so a finished
            # state is freed by reference counting, not the cycle collector
            f.prev = f.next = None
        self._splice(before, born, after)
        rec = EventRecord(t_hit, x_hit, tuple(block), born)
        self.event_log.append(rec)
        return rec

    # -- queries -----------------------------------------------------------

    def _time(self, t: float | None) -> float:
        """t, or the state's time for None.  The live chain holds between
        the last event and the next pending one, so t must lie there."""
        if t is None:
            return self.t
        if not math.isfinite(t):   # a speed-0 front would sit at 0 * inf = NaN
            raise ValidationError("t", f"need a finite time, got {t}")
        lo = self.event_log[-1].t if self.event_log else 0.0
        nxt = self._peek()
        hi = math.inf if nxt is None else nxt[0]
        if not lo <= t <= hi:
            raise ValidationError("t", f"need a time in the event-free window [{lo}, {hi}], got {t}")
        return t

    def profile(self, t: float | None = None) -> StepFunction:
        """Piecewise-constant snapshot, zero-width pieces merged."""
        t = self._time(t)
        pos: list[float] = []
        vals: list[float] = [self._constant_value]
        merged = False
        f = self.head
        while f is not None:
            x = f.pos(t)
            if pos and x <= pos[-1]:
                vals[-1] = f.right
                merged = True
            else:
                pos.append(x)
                vals.append(f.right)
            f = f.next
        # neighbours share their middle state, so only a merge can leave two
        # equal values side by side for step() to fuse
        return step(vals, pos) if merged else StepFunction(tuple(pos), tuple(vals))

    def front_snapshot(self, t: float | None = None) -> list[tuple[float, float, float, float]]:
        t = self._time(t)
        return [(f.pos(t), f.speed, f.left, f.right) for f in self.fronts]


def init_state(fl: Flux, u0: StepFunction) -> SimState:
    """Replace each initial jump by its Riemann fan and prime the event queue."""
    return SimState(fl, u0)


def events(s: SimState, t_until: float) -> Iterator[EventRecord]:
    """Process the collisions with time <= t_until in order, yielding each record.

    Every requested snapshot time t in [s.t, t_until] still without a profile
    gets ``s.profile(t)``, taken after each event at or before t and before
    any later one.  Run to the end, the walk leaves ``s.t = t_until``; an endless
    walk stops at its last collision, after which the chain holds for every t.
    """
    if not t_until >= s.t:   # also rejects NaN
        raise ValidationError("t_until", f"cannot walk from t={s.t} to {t_until}")
    due = sorted(t for t, p in s.snapshots.items() if p is None and s.t <= t <= t_until)
    for k, stop in enumerate(due + [t_until]):
        while True:
            head = s._peek()
            if head is None or head[0] > stop:
                break
            yield s._process(*head)
        if k < len(due):
            s.snapshots[stop] = s.profile(stop)
    if t_until < math.inf:
        s.t = t_until


def advance(s: SimState, t_target: float) -> StepFunction:
    """Process events chronologically up to t_target; return the profile there."""
    if not math.isfinite(t_target):   # a speed-0 front would sit at 0 * inf = NaN
        raise ValidationError("t_target", f"need a finite time, got {t_target}")
    for _ in events(s, t_target):
        pass
    return s.profile(t_target)
