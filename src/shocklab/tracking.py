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
fronts: pop, splice the fan into the chain, schedule the two new neighbour
pairs.  The event log keeps the dead fronts, so it and the live chain are the
one record of every front's life.  Fans are memoized per (left, right) state
pair for the life of a SimState, since a fan is a pure function of its two
lattice states.

``events`` is the one loop that pops and processes collisions.  ``advance``
and the emergence detector consume it, and it takes requested snapshot
profiles on the way, so one walk of a state serves all of them.

The emergence detector asks after every event whether one front separates
the left-range pieces from the right-range pieces.  When the two ranges are
disjoint, which certification always has, a ``_Separation`` attached to the
state keeps that answer up to date inside the splice, at O(block + fan) per
event; for overlapping ranges it scans the whole chain, O(n) per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import EventOverflow, StateOutOfRange, ValidationError
from .flux import Flux
from .riemann import Front, solve_riemann
from .step import StepFunction, step

PARALLEL_TOL = 1e-14      # speed differences below this never collide
MAX_EVENTS = 10 ** 6


@dataclass(slots=True, eq=False)
class _LiveFront:
    fid: int
    x0: float
    t0: float
    speed: float
    left: float
    right: float
    prev: _LiveFront | None = field(default=None, repr=False)
    next: _LiveFront | None = field(default=None, repr=False)

    def pos(self, t: float) -> float:
        return self.x0 + self.speed * (t - self.t0)


@dataclass(frozen=True)
class EventRecord:
    """A collision at (t, x): ``incoming`` holds the tracked fronts that died
    there, unlinked, and ``outgoing`` the fan that replaced them."""
    t: float
    x: float
    incoming: tuple[_LiveFront, ...]
    outgoing: tuple[Front, ...]

    def to_json(self) -> dict:
        pack = lambda f: {"l": f.left, "r": f.right, "s": f.speed}
        return {
            "t": self.t,
            "x": self.x,
            "in": [pack(f) for f in self.incoming],
            "out": [pack(f) for f in self.outgoing],
        }


@dataclass(frozen=True)
class EmergenceReport:
    emerged: bool
    left_range: tuple[float, float]
    right_range: tuple[float, float]
    horizon: float
    t0: float | None = None
    x0: float | None = None
    r_samples: tuple[tuple[float, float], ...] = ()
    final_speed: float | None = None
    gamma: float | None = None
    t_tilde: float | None = None
    events: int = 0

    def to_json(self) -> dict:
        return {
            "emerged": self.emerged,
            "T0": self.t0,
            "x0": self.x0,
            "gamma": self.gamma,
            "T_tilde": self.t_tilde,
            "horizon": self.horizon,
            "left_range": list(self.left_range),
            "right_range": list(self.right_range),
            "final_speed": self.final_speed,
            "events": self.events,
            "r_samples": [{"t": t, "x": x} for t, x in self.r_samples],
        }


class SimState:
    """Single-owner mutable simulation state."""

    def __init__(self, flux: Flux, fronts: list[_LiveFront], constant_value: float, fans: dict):
        self.flux = flux
        self.t = 0.0
        self.head: _LiveFront | None = fronts[0] if fronts else None
        self.event_log: list[EventRecord] = []
        self.eps_x = 1e-9 * (flux.hi - flux.lo)
        self.max_events = MAX_EVENTS
        self._heap: list[tuple[float, float, int, _LiveFront, _LiveFront]] = []
        self._seq = itertools.count()
        self._fans = fans
        self._fid = itertools.count(len(fronts))
        self._constant_value = constant_value
        # requested snapshot time -> profile there, filled in by events()
        self.snapshots: dict[float, StepFunction | None] = {}
        # kept up to date by _process while run_until_single_front walks
        self._detector: _Separation | None = None
        for a, b in zip(fronts, fronts[1:]):
            a.next, b.prev = b, a
            self._schedule(a, b)

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

    # -- scheduling --------------------------------------------------------

    def _collision(self, a: _LiveFront, b: _LiveFront) -> tuple[float, float] | None:
        ds = a.speed - b.speed
        if ds <= PARALLEL_TOL:
            return None
        gap = b.pos(self.t) - a.pos(self.t)
        t_hit = self.t + max(gap, 0.0) / ds
        return t_hit, a.pos(t_hit)

    def _schedule(self, a: _LiveFront, b: _LiveFront) -> None:
        hit = self._collision(a, b)
        if hit is not None:
            heapq.heappush(self._heap, (hit[0], hit[1], next(self._seq), a, b))

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
        if len(self.event_log) >= self.max_events:
            raise EventOverflow(f"more than {self.max_events} events")
        self.t = t_hit
        block = self._group(t_hit, x_hit, a, b)
        before, after = block[0].prev, block[-1].next
        fan = _fan(self._fans, self.flux, block[0].left, block[-1].right)
        for f in block:
            # unlinked, a dead front holds no reference cycle, so a finished
            # state is freed by reference counting, not the cycle collector
            f.prev = f.next = None
        # splice the fan's fronts between before and after
        left = before
        for w in fan:
            f = _LiveFront(next(self._fid), x_hit, t_hit, w.speed, w.left, w.right, prev=left)
            if left is None:
                self.head = f
            else:
                left.next = f
            left = f
        if left is None:
            self.head = after
        else:
            left.next = after
        if after is not None:
            after.prev = left
        if self.head is None:
            self._constant_value = block[0].left
        if self._detector is not None:
            self._detector.splice(block, self.head if before is None else before.next, after)
        rec = EventRecord(t_hit, x_hit, tuple(block), fan)
        self.event_log.append(rec)
        # new adjacencies: block edges only (fan speeds increase, so no inner events)
        if fan:
            if before is not None:
                self._schedule(before, before.next)
            if after is not None:
                self._schedule(after.prev, after)
        elif before is not None and after is not None:
            self._schedule(before, after)
        return rec

    # -- queries -----------------------------------------------------------

    def _time(self, t: float | None) -> float:
        """t, or the state's time for None; positions need a finite t."""
        if t is None:
            return self.t
        if not math.isfinite(t):   # a speed-0 front would sit at 0 * inf = NaN
            raise ValidationError("t", f"need a finite time, got {t}")
        return t

    def profile(self, t: float | None = None) -> StepFunction:
        """Piecewise-constant snapshot, zero-width pieces merged."""
        t = self._time(t)
        if self.head is None:
            return StepFunction((), (self._constant_value,))
        pos: list[float] = []
        vals: list[float] = [self.head.left]
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


def _fan(fans: dict, fl: Flux, l: float, r: float) -> tuple[Front, ...]:
    """Fronts of the Riemann fan of (l, r) from the memo ``fans``, solved on a miss.

    Fans are pure functions of the two lattice states, so one solve per pair
    serves every later collision with the same outer states.
    """
    # 0.0 == -0.0, but a fan echoes the sign of its outer states
    key = (l, r) if l and r else (l, r, math.copysign(1.0, l), math.copysign(1.0, r))
    fan = fans.get(key)
    if fan is None:
        fan = fans[key] = solve_riemann(fl, l, r)
    return fan


def init_state(fl: Flux, u0: StepFunction) -> SimState:
    """Replace each initial jump by its Riemann fan and prime the event queue."""
    for v in u0.values:
        if not fl.contains(v):
            raise StateOutOfRange(f"data value {v} outside working interval")
    fans: dict = {}
    fronts: list[_LiveFront] = []
    fid = itertools.count()
    for i, x in enumerate(u0.positions):
        for f in _fan(fans, fl, u0.values[i], u0.values[i + 1]):
            fronts.append(_LiveFront(next(fid), x, 0.0, f.speed, f.left, f.right))
    return SimState(fl, fronts, u0.values[0], fans)


def events(s: SimState, t_until: float) -> Iterator[EventRecord]:
    """Process the collisions with time <= t_until in order, yielding each record.

    Every requested snapshot time t in [s.t, t_until] still without a profile
    gets ``s.profile(t)``, taken after each event at or before t and before
    any later one.  Run to the end, the walk leaves ``s.t = t_until``.
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
    s.t = t_until


def advance(s: SimState, t_target: float) -> StepFunction:
    """Process events chronologically up to t_target; return the profile there."""
    if not math.isfinite(t_target):   # a speed-0 front would sit at 0 * inf = NaN
        raise ValidationError("t_target", f"need a finite time, got {t_target}")
    for _ in events(s, t_target):
        pass
    return s.profile(t_target)


def _widened(rng: tuple[float, float]) -> tuple[float, float]:
    """The ends of rng moved out by a 1e-12 margin relative to each end."""
    return rng[0] - 1e-12 * (1.0 + abs(rng[0])), rng[1] + 1e-12 * (1.0 + abs(rng[1]))


def in_range(v: float, rng: tuple[float, float]) -> bool:
    """v inside the closed range rng, up to a 1e-12 relative margin at each end."""
    lo, hi = _widened(rng)
    return lo <= v <= hi


def _separating_front(s: SimState, left_range, right_range) -> _LiveFront | None:
    """Leftmost front splitting left-range pieces from right-range pieces.

    Scans the whole chain; the detector for ranges that may overlap, and the
    oracle of ``_Separation``.
    """
    fronts = s.fronts
    if not fronts:
        return None
    vals = [fronts[0].left] + [f.right for f in fronts]
    n = len(fronts)
    left_ok = [False] * (n + 2)
    right_ok = [False] * (n + 2)
    acc = True
    for i in range(n + 1):
        acc = acc and in_range(vals[i], left_range)
        left_ok[i] = acc
    acc = True
    for i in range(n, -1, -1):
        acc = acc and in_range(vals[i], right_range)
        right_ok[i] = acc
    for k in range(n):
        if left_ok[k] and right_ok[k + 1]:
            return fronts[k]
    return None


def _disjoint(left_range, right_range) -> bool:
    """No value is in_range of both ranges, margins included."""
    l_lo, l_hi = _widened(left_range)
    r_lo, r_hi = _widened(right_range)
    return l_hi < r_lo or r_hi < l_lo


_LEFT, _RIGHT, _NEITHER = 0, 1, 2


class _Separation:
    """``_separating_front`` for disjoint ranges, kept up to date by the splice.

    Every piece value is left, right or neither.  With disjoint ranges the
    chain separates exactly when no piece is neither, no front steps from a
    right piece to a left one, and exactly one front steps from left to
    right; that front is the separating one.  ``bad`` counts the neither
    pieces (each front's right piece, plus the head's left piece, which the
    constant outer tail fixes for the life of the state) and the right-to-left
    fronts; ``crossing`` holds the live left-to-right fronts.
    """

    def __init__(self, s: SimState, left_range, right_range):
        self._ranges = left_range, right_range
        self._classes: dict[float, int] = {}   # piece value -> class
        self.bad = 0 if s.head is None else int(self._class(s.head.left) == _NEITHER)
        self.crossing: set[_LiveFront] = set()
        self.splice((), s.head, None)

    def _class(self, v: float) -> int:
        c = self._classes.get(v)
        if c is None:
            left_range, right_range = self._ranges
            c = self._classes[v] = (
                _LEFT if in_range(v, left_range)
                else _RIGHT if in_range(v, right_range)
                else _NEITHER
            )
        return c

    def _count(self, f: _LiveFront, sign: int) -> None:
        cl, cr = self._class(f.left), self._class(f.right)
        if cl == _LEFT and cr == _RIGHT:
            if sign > 0:
                self.crossing.add(f)
            else:
                self.crossing.discard(f)
        else:
            self.bad += sign * ((cr == _NEITHER) + (cl == _RIGHT and cr == _LEFT))

    def splice(self, gone, first, stop) -> None:
        """The fronts ``gone`` left the chain; those from ``first`` up to,
        not including, ``stop`` arrived."""
        for f in gone:
            self._count(f, -1)
        while first is not stop:
            self._count(first, 1)
            first = first.next

    def front(self) -> _LiveFront | None:
        if self.bad == 0 and len(self.crossing) == 1:
            return next(iter(self.crossing))
        return None


def run_until_single_front(
    s: SimState,
    left_range: tuple[float, float],
    right_range: tuple[float, float],
    t_max: float,
) -> EmergenceReport:
    """Simulate to t_max and locate the earliest persistent range separation.

    Reports the first event time T0 after which one front index splits every
    piece left of it (values inside left_range) from every piece right of it
    (values inside right_range) at each later event up to t_max.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValidationError("t_max", f"need a finite positive horizon, got {t_max}")
    if _disjoint(left_range, right_range):
        s._detector = _Separation(s, left_range, right_range)
        find = s._detector.front
    else:
        find = lambda: _separating_front(s, left_range, right_range)

    # (t, x) of the separated checks since the last break, and of those taken
    # at the break's own time, since T0 may equal it
    run: list[tuple[float, float]] = []
    t0 = speed = None
    try:
        for _ in itertools.chain((None,), events(s, t_max)):
            f = find()
            if f is None:
                t0 = None
                run = [p for p in run if p[0] >= s.t]
            else:
                if t0 is None:
                    t0 = s.t
                run.append((s.t, f.pos(s.t)))
                speed = f.speed
    finally:
        s._detector = None
    if t0 is None:
        return EmergenceReport(
            emerged=False,
            left_range=left_range,
            right_range=right_range,
            horizon=t_max,
            events=s.events_processed,
        )
    samples = [p for p in run if p[0] >= t0]
    last_t, last_x = samples[-1]
    samples.append((t_max, last_x + speed * (t_max - last_t)))
    return EmergenceReport(
        emerged=True,
        left_range=left_range,
        right_range=right_range,
        horizon=t_max,
        t0=t0,
        x0=samples[0][1],
        r_samples=tuple(samples),
        final_speed=speed,
        events=s.events_processed,
    )
