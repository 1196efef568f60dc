"""Decide the single-shock emergence conditions for a flux/data configuration,
compute analytic collision-time bounds, and certify emergence empirically.

The decision layer checks, on the breakpoint lattice:
  * the standing hypothesis: slope-band preimages on both convex branches
    collapse onto [a1, a2] and [b2, b1], plus the width ordering
    a2 + (b1 - b2) < C <= D < b2 - (a2 - a1);
  * the strict chord conditions over [C, D] (three secant lines, including
    the width-shifted pair) and, for convex-concave triplets, the tangent
    clearance at the far branch.

Certification then runs front tracking with the orientation implied by the
verdict and reports the earliest persistent range separation, the empirical
gamma = T0 / |A - B|, and the chord-speed-gap bound when it is finite.

The emergence detector reads the event records of ``tracking.events`` and
asks after every event whether one front separates the left-range pieces
from the right-range pieces.  When the two ranges are disjoint, which
certification always has, a ``_Separation`` keeps that answer up to date
from the fronts each record says died and were born, at O(block + fan) per
event; for overlapping ranges it scans the whole chain, O(n) per event.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .errors import BoundViolated, ValidationError
from .flux import Flux, TripletClass, classify_triplet, eval_chord, eval_tangent
from .step import StepFunction, assemble_initial_data
from .tracking import SimState, _LiveFront, events, init_state

STRICT_TOL = 1e-10  # relative margin below which an inequality counts as boundary


@dataclass(frozen=True)
class HypothesisParams:
    """Band parameters a1 <= a2 < C <= D < b2 <= b1.

    The constructor only enforces the weak ordering; the strict gaps are part
    of the width conditions, so violations (e.g. a2 == C) surface as check
    failures rather than construction errors.
    """

    a1: float
    a2: float
    C: float
    D: float
    b2: float
    b1: float

    def __post_init__(self):
        if not (self.a1 <= self.a2 <= self.C <= self.D <= self.b2 <= self.b1):
            raise ValidationError(
                "hypothesis", "need a1 <= a2 <= C <= D <= b2 <= b1"
            )

    @property
    def shifted_pair(self) -> tuple[float, float]:
        return self.a2 + (self.b1 - self.b2), self.b2 - (self.a2 - self.a1)


@dataclass(frozen=True)
class Witness:
    condition: str
    theta: float | None
    lhs: float
    rhs: float
    at_boundary: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    triplet: TripletClass
    failures: tuple[Witness, ...]


class VerdictKind(Enum):
    SATISFIED_I = "I"
    SATISFIED_II1 = "II.1"
    SATISFIED_II2 = "II.2"
    VIOLATED = "violated"


@dataclass(frozen=True)
class ConditionVerdict:
    kind: VerdictKind
    witnesses: tuple[Witness, ...]

    @property
    def satisfied(self) -> bool:
        return self.kind is not VerdictKind.VIOLATED

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def _strict_less(lhs: float, rhs: float) -> tuple[bool, bool]:
    """(strictly less, within boundary tolerance)."""
    tol = STRICT_TOL * (1.0 + max(abs(lhs), abs(rhs)))
    return lhs < rhs - tol, abs(lhs - rhs) <= tol


def check_hypothesis_H(fl: Flux, hp: HypothesisParams) -> HypothesisReport:
    """Verify the slope-preimage identities and width ordering on the lattice."""
    # band slopes are left slopes, which exist on (lo, hi]
    if not fl.lo < hp.a1:
        raise ValidationError("hypothesis.a1", f"need flux.lo = {fl.lo} < a1, got {hp.a1}")
    if not hp.b1 <= fl.hi:
        raise ValidationError("hypothesis.b1", f"need b1 <= flux.hi = {fl.hi}, got {hp.b1}")
    triplet = classify_triplet(fl, hp.C, hp.D)
    if triplet is TripletClass.NEITHER:
        raise ValidationError(
            "hypothesis", "flux is not convex-convex or convex-concave at (C, D)"
        )
    failures: list[Witness] = []

    def band(x1: float, x2: float) -> tuple[float, float]:
        s1, s2 = fl.left_slope(x1), fl.left_slope(x2)
        return min(s1, s2), max(s1, s2)

    pos_tol = 1e-12 * fl._scale

    def preimage_check(lo_band, x_lo, x_hi, region, label):
        for x in region:
            s = fl.left_slope(x)
            in_band = lo_band[0] - 1e-12 <= s <= lo_band[1] + 1e-12
            in_interval = x_lo - pos_tol <= x <= x_hi + pos_tol
            if in_band != in_interval:
                failures.append(Witness(label, x, s, lo_band[0], False))

    left_region = [x for x in fl.breakpoints if fl.lo < x < hp.C]
    preimage_check(band(hp.a1, hp.a2), hp.a1, hp.a2, left_region, "slope-preimage-left")
    right_region = [x for x in fl.breakpoints if hp.D < x <= fl.hi]
    preimage_check(band(hp.b1, hp.b2), hp.b2, hp.b1, right_region, "slope-preimage-right")

    lo_shift, hi_shift = hp.shifted_pair
    ok, boundary = _strict_less(lo_shift, hp.C)
    if not ok:
        failures.append(Witness("width-left", None, lo_shift, hp.C, boundary))
    ok, boundary = _strict_less(hp.D, hi_shift)
    if not ok:
        failures.append(Witness("width-right", None, hp.D, hi_shift, boundary))
    return HypothesisReport(not failures, triplet, tuple(failures))


def _chord_conditions(
    fl: Flux, hp: HypothesisParams, want_below: bool
) -> list[Witness]:
    """Strict comparison of f against the three secant lines on [C, D]."""
    lo_shift, hi_shift = hp.shifted_pair
    pairs = [("a1-b1", hp.a1, hp.b1), ("a2-b2", hp.a2, hp.b2), ("shifted", lo_shift, hi_shift)]
    failures = []
    for theta in _lattice(fl, hp.C, hp.D):
        f_theta = fl(theta)
        for name, a, b in pairs:
            line = eval_chord(fl, a, b, theta)
            lhs, rhs = (f_theta, line) if want_below else (line, f_theta)
            ok, boundary = _strict_less(lhs, rhs)
            if not ok:
                failures.append(Witness(f"chord-{name}", theta, f_theta, line, boundary))
    return failures


def check_main_conditions(fl: Flux, hp: HypothesisParams) -> ConditionVerdict:
    """Decide which emergence condition the configuration satisfies.

    Convex-convex triplets are tested against the below-chords condition;
    convex-concave triplets against above-chords plus tangent clearance
    (condition 1), then below-chords plus the mirrored tangent clearance
    (condition 2).  Failures carry the offending theta and both sides.
    """
    hrep = check_hypothesis_H(fl, hp)
    if not hrep.passed:
        return ConditionVerdict(VerdictKind.VIOLATED, hrep.failures)
    if hrep.triplet is TripletClass.CONVEX_CONVEX:
        failures = _chord_conditions(fl, hp, want_below=True)
        if not failures:
            return ConditionVerdict(VerdictKind.SATISFIED_I, ())
        return ConditionVerdict(VerdictKind.VIOLATED, tuple(failures))

    # convex-concave: condition 1, then condition 2
    fail1 = _chord_conditions(fl, hp, want_below=False)
    tang1 = eval_tangent(fl, hp.a1, hp.b2)
    ok, boundary = _strict_less(fl(hp.b2), tang1)
    if not ok:
        fail1.append(Witness("tangent-a1-at-b2", hp.b2, tang1, fl(hp.b2), boundary))
    if not fail1:
        return ConditionVerdict(VerdictKind.SATISFIED_II1, ())

    fail2 = _chord_conditions(fl, hp, want_below=True)
    tang2 = eval_tangent(fl, hp.b1, hp.a2)
    ok, boundary = _strict_less(tang2, fl(hp.a2))
    if not ok:
        fail2.append(Witness("tangent-b1-at-a2", hp.a2, tang2, fl(hp.a2), boundary))
    if not fail2:
        return ConditionVerdict(VerdictKind.SATISFIED_II2, ())
    return ConditionVerdict(VerdictKind.VIOLATED, tuple(fail1 + fail2))


def compute_alpha0(fl: Flux, beta2: float, hi: float | None = None) -> float:
    """Base point whose tangent line passes through (beta2, f(beta2)).

    The tangent-line value at beta2 is constant on each flux segment, so the
    gap function is a nondecreasing step over segments: return a point of an
    exactly-tangent segment when one exists, otherwise the breakpoint where
    the gap changes sign.  The base point lies in [fl.lo, hi], hi defaulting
    to beta2.
    """
    hi = beta2 if hi is None else hi
    target = fl(beta2)
    scale = 1.0 + abs(target)
    gaps: list[tuple[float, float, float]] = []   # (segment left, segment right, gap)
    for i, s in enumerate(fl.slopes):
        x0, x1 = fl.breakpoints[i], fl.breakpoints[i + 1]
        if x0 >= hi:
            continue
        gap = fl(x1) + s * (beta2 - x1) - target
        gaps.append((x0, x1, gap))
    for x0, x1, gap in gaps:
        if abs(gap) <= 1e-8 * scale:
            return 0.5 * (x0 + x1)
    for (l0, l1, g0), (r0, r1, g1) in zip(gaps, gaps[1:]):
        if g0 < 0 <= g1:
            return r0
    raise ValidationError(
        "beta2", f"no tangent through ({beta2}, {target}) based in [{fl.lo}, {hi}]"
    )


def _lattice(fl: Flux, lo: float, hi: float) -> list[float]:
    pts = {lo, hi} | set(fl.nodes_in(lo, hi))
    return sorted(pts)


def speed_gap_bound(
    fl: Flux,
    left_range: tuple[float, float],
    right_range: tuple[float, float],
    mid_range: tuple[float, float],
    A: float,
    B: float,
) -> float | None:
    """Collision-time bound (B - A) / (s_left - s_right), or None.

    s_left is the slowest chord joining the left family to a mid state;
    s_right the fastest chord joining a mid state to the right family.  When
    the gap is positive the boundary waves must meet by the returned time.
    No bound is claimed when the gap is not positive, or when a family has
    no chord at all because its states all equal the mid states.
    """
    lefts = _lattice(fl, *left_range)
    rights = _lattice(fl, *right_range)
    mids = _lattice(fl, *mid_range)
    s_left = min(
        ((fl(p) - fl(q)) / (p - q) for p in lefts for q in mids if p != q), default=None
    )
    s_right = max(
        ((fl(p) - fl(q)) / (p - q) for p in mids for q in rights if p != q), default=None
    )
    if s_left is None or s_right is None or s_left <= s_right:
        return None
    return (B - A) / (s_left - s_right)


def ranges_for(kind: VerdictKind, hp: HypothesisParams):
    """(left range, right range) of u- / u+ for a satisfied verdict."""
    if kind is VerdictKind.SATISFIED_II1:
        return (hp.a1, hp.a2), (hp.b2, hp.b1)
    return (hp.b2, hp.b1), (hp.a1, hp.a2)


# -- emergence detection -------------------------------------------------------

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
    """``_separating_front`` for disjoint ranges, kept up to date from the
    fronts each event record says died and were born.

    Every piece value is left, right or neither.  With disjoint ranges the
    chain separates exactly when no piece is neither, no front steps from a
    right piece to a left one, and exactly one front steps from left to
    right; that front is the separating one.  ``bad`` counts the neither
    pieces (each front's right piece, plus the head's left piece, which the
    constant outer tail fixes for the life of the state) and the right-to-left
    fronts; ``crossing`` holds the live left-to-right fronts.
    """

    def __init__(self, fronts: list[_LiveFront], left_range, right_range):
        # in_range of each range is one comparison chain against its widened ends
        self._ends = (*_widened(left_range), *_widened(right_range))
        self.bad = int(self._class(fronts[0].left) == _NEITHER) if fronts else 0
        self.crossing: set[_LiveFront] = set()
        self.update((), fronts)

    def _class(self, v: float) -> int:
        l_lo, l_hi, r_lo, r_hi = self._ends
        return _LEFT if l_lo <= v <= l_hi else _RIGHT if r_lo <= v <= r_hi else _NEITHER

    def _count(self, f: _LiveFront, sign: int) -> None:
        cl, cr = self._class(f.left), self._class(f.right)
        if cl == _LEFT and cr == _RIGHT:
            if sign > 0:
                self.crossing.add(f)
            else:
                self.crossing.discard(f)
        else:
            self.bad += sign * ((cr == _NEITHER) + (cl == _RIGHT and cr == _LEFT))

    def update(self, gone, born) -> None:
        """The fronts ``gone`` left the chain and those ``born`` joined it."""
        for f in gone:
            self._count(f, -1)
        for f in born:
            self._count(f, 1)

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
        sep = _Separation(s.fronts, left_range, right_range)

        def find(rec):
            if rec is not None:
                sep.update(rec.incoming, rec.outgoing)
            return sep.front()
    else:
        find = lambda rec: _separating_front(s, left_range, right_range)

    # (t, x) of the separated checks since the last break, and of those taken
    # at the break's own time, since T0 may equal it
    run: list[tuple[float, float]] = []
    t0 = speed = None
    for rec in itertools.chain((None,), events(s, t_max)):
        f = find(rec)
        if f is None:
            t0 = None
            run = [p for p in run if p[0] >= s.t]
        else:
            if t0 is None:
                t0 = s.t
            run.append((s.t, f.pos(s.t)))
            speed = f.speed
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


def certify(
    fl: Flux,
    hp: HypothesisParams,
    A: float,
    B: float,
    u_minus: StepFunction,
    ubar: StepFunction,
    u_plus: StepFunction,
    t_max: float,
    verdict: ConditionVerdict | None = None,
    state: SimState | None = None,
) -> EmergenceReport:
    """Run the emergence check for a configuration with satisfied conditions.

    Raises a ValidationError of ``hypothesis`` when the conditions are
    violated; otherwise simulates to the horizon t_max, detects persistent
    separation, and attaches the empirical gamma plus the finite analytic
    bound when the chord-speed gap is positive.  ``state`` is the fresh SimState of the
    assembled data to run; one is built when none is passed.
    """
    if verdict is None:
        verdict = check_main_conditions(fl, hp)
    if not verdict.satisfied:
        raise ValidationError(
            "hypothesis", f"conditions violated: {[w.condition for w in verdict.witnesses]}"
        )
    left_range, right_range = ranges_for(verdict.kind, hp)
    for v in u_minus.values:
        if not in_range(v, left_range):
            raise ValidationError("u_minus", f"value {v} outside {left_range}")
    for v in u_plus.values:
        if not in_range(v, right_range):
            raise ValidationError("u_plus", f"value {v} outside {right_range}")

    u0 = assemble_initial_data(A, B, u_minus, ubar, u_plus)
    if state is None:
        state = init_state(fl, u0)
    report = run_until_single_front(state, left_range, right_range, t_max)

    if verdict.kind is VerdictKind.SATISFIED_II1:
        # the chord-speed induction requires the middle data to stay inside
        # the left family (at or below a2); outside it no bound is claimed
        mid = (min(*u_minus.values, *ubar.values), max(*u_minus.values, *ubar.values))
        if not in_range(mid[1], (-math.inf, hp.a2)):
            mid = None
    else:
        # fast [b2, b1] states chase slow [a1, a2] states through all the data
        mid = (min(u0.values), max(u0.values))
    t_tilde = None if mid is None else speed_gap_bound(fl, left_range, right_range, mid, A, B)

    if t_tilde is not None:
        # the chord-speed bound must dominate the measured collapse time
        if report.emerged:
            if not report.t0 <= t_tilde + 1e-9 * (1.0 + t_tilde):
                raise BoundViolated(
                    f"measured T0={report.t0} exceeds the analytic bound {t_tilde}"
                )
        elif not t_max < t_tilde:
            raise BoundViolated(f"no emergence by t={t_max} despite bound {t_tilde}")

    span = abs(B - A)
    gamma = report.t0 / span if report.emerged and span > 0 else None
    return replace(report, gamma=gamma, t_tilde=t_tilde)
