"""Decide the single-shock emergence conditions for a flux/data configuration,
compute analytic collision-time bounds, and certify emergence empirically.

``check_main_conditions`` decides, on the breakpoint lattice:
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
from .flux import SLOPE_TOL, Flux, TripletClass, classify_triplet, eval_chord, eval_tangent
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


def _require(failures: list[Witness], condition: str, theta: float | None,
             lhs: float, rhs: float, less: bool = True) -> None:
    """Append a Witness (condition, theta, lhs, rhs) to failures unless lhs < rhs
    strictly, or rhs < lhs when not ``less``."""
    ok, boundary = _strict_less(lhs, rhs) if less else _strict_less(rhs, lhs)
    if not ok:
        failures.append(Witness(condition, theta, lhs, rhs, boundary))


def check_main_conditions(fl: Flux, hp: HypothesisParams) -> ConditionVerdict:
    """Decide the standing hypothesis and which emergence condition holds.

    A failed hypothesis (slope-band preimages, width ordering) is VIOLATED
    with its witnesses only.  Then each orientation in turn: f below the three
    chords on [C, D] for convex-convex (I); for convex-concave, f above them
    with f(b2) below the a1 tangent (II.1), then f below them with the b1
    tangent below f(a2) (II.2).  The first orientation with no witness is the
    verdict, otherwise VIOLATED with every orientation's witnesses in order.
    """
    # band slopes are left slopes, which exist on (lo, hi]
    if not fl.lo < hp.a1:
        raise ValidationError("hypothesis.a1", f"need flux.lo = {fl.lo} < a1, got {hp.a1}")
    if not hp.b1 <= fl.hi:
        raise ValidationError("hypothesis.b1", f"need b1 <= flux.hi = {fl.hi}, got {hp.b1}")
    triplet = classify_triplet(fl, hp.C, hp.D)
    if triplet is TripletClass.NEITHER:
        raise ValidationError("hypothesis",
                              "flux is not convex-convex or convex-concave at (C, D)")
    failures: list[Witness] = []
    # the nodes whose left slope is in a band's slope range are its interval's
    for side, x_lo, x_hi, region in (
        ("left", hp.a1, hp.a2, [x for x in fl.breakpoints if fl.lo < x < hp.C]),
        ("right", hp.b2, hp.b1, [x for x in fl.breakpoints if hp.D < x <= fl.hi]),
    ):
        s_lo, s_hi = sorted((fl.left_slope(x_lo), fl.left_slope(x_hi)))
        for x in region:
            s = fl.left_slope(x)
            if (s_lo - SLOPE_TOL <= s <= s_hi + SLOPE_TOL) != (x_lo <= x <= x_hi):
                failures.append(Witness(f"slope-preimage-{side}", x, s, s_lo, False))
    lo_shift, hi_shift = hp.shifted_pair
    _require(failures, "width-left", None, lo_shift, hp.C)
    _require(failures, "width-right", None, hp.D, hi_shift)
    if failures:
        return ConditionVerdict(VerdictKind.VIOLATED, tuple(failures))

    pairs = [("a1-b1", hp.a1, hp.b1), ("a2-b2", hp.a2, hp.b2), ("shifted", lo_shift, hi_shift)]
    chords = [(f"chord-{name}", theta, fl(theta), eval_chord(fl, a, b, theta))
              for theta in _lattice(fl, hp.C, hp.D) for name, a, b in pairs]
    # (kind, f below the chords, the tangent's condition, base and the point it is read at)
    if triplet is TripletClass.CONVEX_CONVEX:
        orientations = [(VerdictKind.SATISFIED_I, True, None)]
    else:
        orientations = [(VerdictKind.SATISFIED_II1, False, ("tangent-a1-at-b2", hp.a1, hp.b2)),
                        (VerdictKind.SATISFIED_II2, True, ("tangent-b1-at-a2", hp.b1, hp.a2))]
    for kind, below, tangent in orientations:
        fails: list[Witness] = []
        for condition, theta, f_theta, line in chords:
            _require(fails, condition, theta, f_theta, line, less=below)
        if tangent:
            # shown as (tangent, f): the tangent clears f as f clears the chords
            condition, base, at = tangent
            _require(fails, condition, at, eval_tangent(fl, base, at), fl(at), less=below)
        if not fails:
            return ConditionVerdict(kind, ())
        failures += fails
    return ConditionVerdict(VerdictKind.VIOLATED, tuple(failures))


def compute_alpha0(fl: Flux, beta2: float, hi: float | None = None) -> float:
    """Base point whose tangent line passes through (beta2, f(beta2)).

    The tangent-line value at beta2 is constant on each flux segment, so the
    gap function is a nondecreasing step over segments: return a point of an
    exactly-tangent segment when one exists, otherwise the breakpoint where
    the gap changes sign; exactly means within ``_strict_less``'s boundary
    tolerance.  The base point lies in [fl.lo, hi], hi defaulting to beta2.
    """
    hi = beta2 if hi is None else hi
    target = fl(beta2)
    gaps: list[tuple[float, float]] = []   # (segment left, gap)
    for x0, x1 in zip(fl.breakpoints, fl.breakpoints[1:]):
        if x0 >= hi:
            continue
        line = eval_tangent(fl, x1, beta2)
        if _strict_less(line, target)[1]:
            return 0.5 * (x0 + x1)
        gaps.append((x0, line - target))
    for (_, g0), (r0, g1) in zip(gaps, gaps[1:]):
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


def in_range(v: float, rng: tuple[float, float]) -> bool:
    """v inside the closed range rng, exactly."""
    return rng[0] <= v <= rng[1]


def _separating_front(s: SimState, left_range, right_range) -> _LiveFront | None:
    """Leftmost front splitting left-range pieces from right-range pieces:
    the front right of the last piece outside right_range (the first front if
    none is), when every piece up to it is in left_range.  Scans the whole
    chain; the detector for ranges that may overlap, and the oracle of
    ``_Separation``."""
    fronts = s.fronts
    vals = [fronts[0].left] + [f.right for f in fronts] if fronts else []
    k = max((i for i, v in enumerate(vals) if not in_range(v, right_range)), default=0)
    if k < len(fronts) and all(in_range(v, left_range) for v in vals[: k + 1]):
        return fronts[k]
    return None


def _disjoint(left_range, right_range) -> bool:
    """No value is in_range of both ranges."""
    return left_range[1] < right_range[0] or right_range[1] < left_range[0]


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
        # in_range of each range is one comparison chain against its ends
        self._ends = (*left_range, *right_range)
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
    report = EmergenceReport(
        emerged=t0 is not None,
        left_range=left_range,
        right_range=right_range,
        horizon=t_max,
        events=s.events_processed,
    )
    if t0 is None:
        return report
    samples = [p for p in run if p[0] >= t0]
    last_t, last_x = samples[-1]
    samples.append((t_max, last_x + speed * (t_max - last_t)))
    return replace(report, t0=t0, x0=samples[0][1], r_samples=tuple(samples), final_speed=speed)


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
    for field, tail, rng in (("u_minus", u_minus, left_range), ("u_plus", u_plus, right_range)):
        for v in tail.values:
            if not in_range(v, rng):
                raise ValidationError(field, f"value {v} outside {rng}")

    u0 = assemble_initial_data(A, B, u_minus, ubar, u_plus)
    if state is None:
        state = init_state(fl, u0)
    report = run_until_single_front(state, left_range, right_range, t_max)

    if verdict.kind is VerdictKind.SATISFIED_II1:
        # the chord-speed induction requires the middle data to stay inside
        # the left family (at or below a2); outside it no bound is claimed
        mid = (min(*u_minus.values, *ubar.values), max(*u_minus.values, *ubar.values))
        if not mid[1] <= hp.a2:
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
