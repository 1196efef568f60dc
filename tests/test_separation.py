"""The incremental separation detector against the whole-chain scan.

For disjoint ranges ``run_until_single_front`` keeps the answer up to date
from the event records (``singleshock._Separation``);
``singleshock._separating_front`` scans the chain and stays as the detector
for overlapping ranges and as the oracle here.  After every event both must
name the very same front object.  Both compare states with the range ends
exactly, so the ranges drawn here end on lattice values or one float step
from them.  The streamed report is compared with the report of the list of
per-event checks it replaced, bit for bit, and the preset reports with those
recorded before the detector became incremental.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import mesh, random_problem, ulps
from shocklab.errors import ShockLabError, ValidationError
from shocklab.flux import make_flux
from shocklab.scenario import PRESETS, preset
from shocklab import singleshock, tracking
from shocklab.singleshock import (
    EmergenceReport,
    _disjoint,
    _Separation,
    _separating_front,
    certify,
    check_main_conditions,
    in_range,
    run_until_single_front,
)
from shocklab.step import step
from shocklab.tracking import advance, events, init_state

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
T_MAX = 20.0


def reference_run(s, left_range, right_range, t_max):
    """run_until_single_front as one scan and one stored check per event."""

    def check():
        f = _separating_front(s, left_range, right_range)
        if f is None:
            return (s.t, False, None, None)
        return (s.t, True, f.pos(s.t), f.speed)

    checks = [check()]
    for _ in events(s, t_max):
        checks.append(check())
    return reference_report(checks, left_range, right_range, t_max, s.events_processed)


def reference_report(checks, left_range, right_range, t_max, n_events):
    """The report of a list of (t, separated, x, speed) checks."""
    first_good = None
    for rec in reversed(checks):
        if not rec[1]:
            break
        first_good = rec
    if first_good is None:
        return EmergenceReport(False, left_range, right_range, t_max, events=n_events)
    t0 = first_good[0]
    samples = [(t, x) for t, ok, x, _ in checks if ok and t >= t0]
    last_t, _, last_x, last_speed = checks[-1]
    samples.append((t_max, last_x + last_speed * (t_max - last_t)))
    return EmergenceReport(True, left_range, right_range, t_max, t0=t0, x0=samples[0][1],
                           r_samples=tuple(samples), final_speed=last_speed, events=n_events)


def bits(report):
    """Every field of a report, floats by their hex form (keeps -0.0)."""
    hx = lambda v: v.hex() if isinstance(v, float) else v
    return (report.emerged, tuple(map(hx, report.left_range)), tuple(map(hx, report.right_range)),
            hx(report.horizon), hx(report.t0), hx(report.x0),
            tuple((hx(t), hx(x)) for t, x in report.r_samples),
            hx(report.final_speed), hx(report.gamma), hx(report.t_tilde), report.events)


@st.composite
def ranges(draw, fl, u0):
    """Left and right ranges built from the lattice values the run can visit:
    split at a gap in either orientation, singletons, ends exactly on a value
    or a float step or two from it, and overlapping ranges."""
    lo, hi = u0.lo, u0.hi
    lattice = sorted({*u0.values, *fl.nodes_in(lo, hi)})
    kind = draw(st.sampled_from(["split", "singleton", "ulp", "overlap"]))
    if kind == "split" and len(lattice) > 1:
        k = draw(st.integers(0, len(lattice) - 2))
        a = (lattice[0], lattice[k])
        b = (lattice[draw(st.integers(k + 1, len(lattice) - 1))], lattice[-1])
    elif kind in ("split", "singleton"):
        a = (draw(st.sampled_from(lattice)),) * 2
        b = (draw(st.sampled_from(lattice)),) * 2
    elif kind == "ulp":
        # ends on a lattice value or a float step or two inside or outside it
        k = draw(st.integers(0, len(lattice) - 1))
        a = (lattice[0], ulps(lattice[k], draw(st.integers(-2, 2))))
        b_lo = lattice[min(k + 1, len(lattice) - 1)]
        b = (ulps(b_lo, draw(st.integers(-2, 2))), lattice[-1])
    else:
        i, j = sorted(draw(st.lists(st.sampled_from(lattice), min_size=2, max_size=2)))
        a, b = (lo, j), (i, hi)
    return (a, b) if draw(st.booleans()) else (b, a)


def walk_both(fl, u0, left_range, right_range, t_max=T_MAX):
    """Walk a state, feeding a _Separation each event record; after every
    event the detector must return the front the scan returns, or both None.
    Returns the state and the answers, as booleans."""
    s = init_state(fl, u0)
    det = _Separation(s.fronts, left_range, right_range)
    found = []
    for rec in itertools.chain((None,), events(s, t_max)):
        if rec is not None:
            det.update(rec.incoming, rec.outgoing)
        f = det.front()
        assert f is _separating_front(s, left_range, right_range)
        found.append(f is not None)
    return s, found


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
@example(47777, False, None)
def test_detector_names_the_scanned_front_after_every_event(seed, convex, data):
    fl, u0 = random_problem(seed, convex)
    if data is None:   # the pinned example: ranges of the two outer tails
        left_range, right_range = (u0.values[0],) * 2, (u0.values[-1],) * 2
    else:
        left_range, right_range = data.draw(ranges(fl, u0), label="ranges")
    if _disjoint(left_range, right_range):
        walk_both(fl, u0, left_range, right_range)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_streamed_report_equals_per_event_checks(seed, convex, data):
    fl, u0 = random_problem(seed, convex)
    left_range, right_range = data.draw(ranges(fl, u0), label="ranges")
    s = init_state(fl, u0)
    got = run_until_single_front(s, left_range, right_range, T_MAX)
    want = reference_run(init_state(fl, u0), left_range, right_range, T_MAX)
    assert bits(got) == bits(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]), st.booleans(),
                          st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)), max_size=25))
def test_streamed_samples_follow_the_checks(steps):
    """Scripted walks: events at repeated and rising times, separation that
    comes and goes, also within one time.  The streamed report must equal the
    report of the full list of checks."""
    s = init_state(mesh("burgers", -3.0, 3.0, 0.25), step([1.0, 0.0], [0.0]))
    t, times, answers = 0.0, [], [None]
    for dt, ok, x, speed in steps:
        t += dt
        times.append(t)
        answers.append(tracking._LiveFront(x, t, speed, 1.0, 0.0) if ok else None)
    script = iter(answers)

    def scripted_events(state, t_until):
        for t in times:
            state.t = t
            yield None
        state.t = t_until

    t_max = t + 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(singleshock, "events", scripted_events)
        mp.setattr(singleshock, "_separating_front", lambda *args: next(script))
        # overlapping ranges, so the run asks the (scripted) scan
        got = run_until_single_front(s, (0.0, 1.0), (0.0, 1.0), t_max)
    checks = [(t_f, f is not None, f and f.pos(t_f), f and f.speed)
              for t_f, f in zip([0.0, *times], answers)]
    assert bits(got) == bits(reference_report(checks, (0.0, 1.0), (0.0, 1.0), t_max, 0))


# (seed, left range, right range as indices into the sorted lattice values,
# separation pattern the walk must show): a separation that a fan of neither
# states breaks.  Random ranges hit this in about 1 of 8000 draws.
BREAKS = [
    (3, (0, 3), (5, 6), "separated, then broken at the horizon"),
    (18, (0, 1), (5, 11), "separated, broken, separated again"),
    (52, (13, 15), (0, 10), "separated, broken, separated again"),
]


@pytest.mark.parametrize("seed, left, right, what", BREAKS)
def test_separation_that_breaks(seed, left, right, what):
    fl, u0 = random_problem(seed, False)
    lattice = sorted({*u0.values, *fl.nodes_in(u0.lo, u0.hi)})
    left_range = (lattice[left[0]], lattice[left[1]])
    right_range = (lattice[right[0]], lattice[right[1]])
    assert _disjoint(left_range, right_range)
    _, found = walk_both(fl, u0, left_range, right_range)
    pattern = "".join("1" if f else "0" for f in found)
    assert "10" in pattern
    assert pattern.endswith("0") == what.endswith("horizon")
    got = run_until_single_front(init_state(fl, u0), left_range, right_range, T_MAX)
    assert bits(got) == bits(reference_run(init_state(fl, u0), left_range, right_range, T_MAX))


def test_head_piece_outside_both_ranges():
    """The outer left piece 0.5 is in neither range, so the 1 -> 0 shock
    never separates, though it is the only left-to-right front."""
    fl = mesh("burgers", -3.0, 3.0, 0.5)
    u0 = step([0.5, 1.0, 0.0], [0.0, 1.0])
    _, found = walk_both(fl, u0, (1.0, 1.0), (0.0, 0.0))
    assert found == [False, False]


# the three fronts 1 -> 0, 0 -> 2 and 2 -> 1 (speeds 1, 0, -1) meet at x = 0,
# t = 1, and the fan of (1, 1) is empty
ANNIHILATING_FLUX = ((-1.0, 0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 1.0, 0.0, 1.0))
ANNIHILATING_DATA = ([1.0, 0.0, 2.0, 1.0], [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("left_range, right_range", [
    ((1.0, 1.0), (0.0, 0.0)), ((1.0, 1.0), (2.0, 2.0)), ((0.0, 1.0), (2.0, 2.0)),
    ((1.5, 2.0), (0.0, 1.0)),
])
def test_chain_that_empties(left_range, right_range):
    """Fronts that annihilate to an empty chain: the detector follows the
    chain to nothing, and the report says no emergence."""
    fl = make_flux(*ANNIHILATING_FLUX)
    u0 = step(*ANNIHILATING_DATA)
    s, found = walk_both(fl, u0, left_range, right_range)
    assert s.head is None and s.events_processed == 1 and not found[-1]
    rep = run_until_single_front(init_state(fl, u0), left_range, right_range, T_MAX)
    assert not rep.emerged
    assert bits(rep) == bits(reference_run(init_state(fl, u0), left_range, right_range, T_MAX))


def test_overlapping_ranges_take_the_scan(monkeypatch):
    built = []

    class Spy(_Separation):
        def __init__(self, *args):
            built.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(singleshock, "_Separation", Spy)
    fl = mesh("burgers", -3.0, 3.0, 0.25)
    u0 = step([1.0, 0.5, 0.0], [0.0, 1.0])
    overlapping = [((0.0, 1.0), (0.5, 0.5)), ((0.5, 1.0), (0.0, 0.5)), ((1.0, 1.0), (1.0, 1.0))]
    for left_range, right_range in overlapping:
        assert not _disjoint(left_range, right_range)
        rep = run_until_single_front(init_state(fl, u0), left_range, right_range, 10.0)
        assert bits(rep) == bits(reference_run(init_state(fl, u0), left_range, right_range, 10.0))
    assert built == []
    # ranges one float step apart share no value: the detector takes them
    disjoint = [((1.0, 1.0), (0.0, 0.0)), ((0.0, 0.5), (ulps(0.5, 1), 1.0)),
                ((ulps(0.5, 1), 1.0), (0.0, 0.5))]
    for left_range, right_range in disjoint:
        assert _disjoint(left_range, right_range)
        walk_both(fl, u0, left_range, right_range)
        rep = run_until_single_front(init_state(fl, u0), left_range, right_range, 10.0)
        assert bits(rep) == bits(reference_run(init_state(fl, u0), left_range, right_range, 10.0))
    assert built == disjoint


def leftmost_split(s, left_range, right_range):
    """The rule written out: the leftmost front with every piece left of it
    in left_range and every piece right of it in right_range."""
    fronts = s.fronts
    vals = [fronts[0].left] + [f.right for f in fronts] if fronts else []
    for k, f in enumerate(fronts):
        if (all(in_range(v, left_range) for v in vals[: k + 1])
                and all(in_range(v, right_range) for v in vals[k + 1:])):
            return f
    return None


@st.composite
def chain_ranges(draw, s):
    """Two ranges with ends on the states of the chain of s, overlapping or
    not; or the hulls of the pieces either side of a drawn front."""
    fronts = s.fronts
    vals = [fronts[0].left] + [f.right for f in fronts] if fronts else s.profile().values
    if fronts and draw(st.booleans()):
        k = draw(st.integers(0, len(fronts) - 1))
        return (min(vals[: k + 1]), max(vals[: k + 1])), (min(vals[k + 1:]), max(vals[k + 1:]))
    ends = st.lists(st.sampled_from(sorted(set(vals))), min_size=2, max_size=2).map(sorted)
    return tuple(draw(ends)), tuple(draw(ends))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, T_MAX), st.data())
def test_scan_is_the_leftmost_split(seed, convex, t, data):
    fl, u0 = random_problem(seed, convex)
    s = init_state(fl, u0)
    advance(s, t)
    left_range, right_range = data.draw(chain_ranges(s), label="ranges")
    assert _separating_front(s, left_range, right_range) is leftmost_split(
        s, left_range, right_range)


@pytest.mark.parametrize("flux, data, n_fronts", [
    (make_flux(*ANNIHILATING_FLUX), step(*ANNIHILATING_DATA), 0),
    (mesh("burgers", -3.0, 3.0, 0.5), step([1.0, 0.0], [0.0]), 1),   # the 1 -> 0 shock
])
def test_scan_on_empty_and_one_front_chains(flux, data, n_fronts):
    s = init_state(flux, data)
    advance(s, 2.0)
    assert len(s.fronts) == n_fronts
    ends = sorted({-1.0, 0.0, 1.0, 2.0})
    spans = [(a, b) for a in ends for b in ends if a <= b]
    for left_range, right_range in itertools.product(spans, repeat=2):
        assert _separating_front(s, left_range, right_range) is leftmost_split(
            s, left_range, right_range)


@given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(0, 1e3), st.floats(-1e3, 1e3, allow_nan=False),
       st.floats(0, 1e3))
@example(0.0, 1.0, 1.0000000000000002, 1.0)   # the ends one float step apart
@example(0.0, 1.0, 1.0, 1.0)                  # a shared end
def test_disjoint_means_no_shared_value(a, wa, b, wb):
    """No float lies in both ranges once _disjoint holds: probe the ends of
    both ranges and their float neighbours."""
    left_range, right_range = (a, a + wa), (b, b + wb)
    if not _disjoint(left_range, right_range):
        assert max(a, b) <= min(a + wa, b + wb)   # the overlap holds a shared value
        return
    for end in (*left_range, *right_range):
        for v in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)):
            assert not (in_range(v, left_range) and in_range(v, right_range))


# -- every field of the preset reports, recorded before the detector was
# -- incremental: certify for the four certified presets, the --explore probe
# -- (tail ranges) for the two counterexamples

PRESET_REPORTS = {
    "burgers_shock": dict(
        emerged=True, events=37, horizon="0x1.9000000000000p+5",
        left_range=("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        right_range=("0x0.0p+0", "0x0.0p+0"),
        t0="0x1.181b14d3396dfp+1", x0="0x1.69349dc8602b0p+0", final_speed="0x1.0000000000000p-1",
        gamma="0x1.181b14d3396dfp+1", t_tilde=None,
        r_samples=(("0x1.181b14d3396dfp+1", "0x1.69349dc8602b0p+0"),
                   ("0x1.9000000000000p+5", "0x1.9511988f526bdp+4")),
    ),
    "neg_cubic_ii1": dict(
        emerged=True, events=33, horizon="0x1.9000000000000p+5",
        left_range=("-0x1.0000000000000p-1", "-0x1.0000000000000p-1"),
        right_range=("0x1.0000000000000p+1", "0x1.0000000000000p+1"),
        t0="0x1.f4200a3fb0719p-3", x0="-0x1.bac7befe26da6p-3", final_speed="-0x1.a000000000000p+1",
        gamma="0x1.f4200a3fb0719p-3", t_tilde=None,
        r_samples=(("0x1.f4200a3fb0719p-3", "-0x1.bac7befe26da6p-3"),
                   ("0x1.9000000000000p+5", "-0x1.43d857e76bca5p+7")),
    ),
    "double_well_i": dict(
        emerged=True, events=47, horizon="0x1.e000000000000p+5",
        left_range=("0x1.4000000000000p+1", "0x1.4cccccccccccdp+1"),
        right_range=("-0x1.4cccccccccccdp+1", "-0x1.4000000000000p+1"),
        t0="0x1.49f3225307e5ap-2", x0="0x1.f9a104e37ae37p-2", final_speed="0x0.0p+0",
        gamma="0x1.49f3225307e5ap-2", t_tilde=None,
        r_samples=(("0x1.49f3225307e5ap-2", "0x1.f9a104e37ae37p-2"),
                   ("0x1.e000000000000p+5", "0x1.f9a104e37ae37p-2")),
    ),
    "buckley_leverett": dict(
        emerged=True, events=7, horizon="0x1.e000000000000p+5",
        left_range=("0x1.199999999999ap-1", "0x1.199999999999ap-1"),
        right_range=("0x0.0p+0", "0x0.0p+0"),
        t0="0x1.24ecfeb88c084p-1", x0="0x1.1de02dc0ea680p+0", final_speed="0x1.16cfd7720f354p+0",
        gamma="0x1.24ecfeb88c084p-1", t_tilde=None,
        r_samples=(("0x1.24ecfeb88c084p-1", "0x1.1de02dc0ea680p+0"),
                   ("0x1.e000000000000p+5", "0x1.075c4c546a134p+6")),
    ),
    "counterexample_1": dict(
        emerged=False, events=0, horizon="0x1.9000000000000p+6",
        left_range=("0x1.0000000000000p+1", "0x1.0000000000000p+1"),
        right_range=("-0x1.0000000000000p+1", "-0x1.0000000000000p+1"),
        t0=None, x0=None, final_speed=None, gamma=None, t_tilde=None, r_samples=(),
    ),
    "counterexample_2": dict(
        emerged=False, events=0, horizon="0x1.9000000000000p+6",
        left_range=("-0x1.8000000000000p+0", "-0x1.8000000000000p+0"),
        right_range=("0x1.0000000000000p+1", "0x1.0000000000000p+1"),
        t0=None, x0=None, final_speed=None, gamma=None, t_tilde=None, r_samples=(),
    ),
}


def preset_report(name):
    s = preset(name)
    verdict = check_main_conditions(s.flux, s.hypothesis)
    if verdict.satisfied:
        return certify(s.flux, s.hypothesis, s.A, s.B, s.u_minus, s.ubar, s.u_plus,
                       t_max=s.t_max, verdict=verdict)
    left_range = (min(s.u_minus.values), max(s.u_minus.values))
    right_range = (min(s.u_plus.values), max(s.u_plus.values))
    return run_until_single_front(init_state(s.flux, s.initial_data()), left_range, right_range,
                                  s.t_max)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_report_fields_unchanged(name):
    rep = preset_report(name)
    hx = lambda v: None if v is None else v.hex()
    got = dict(
        emerged=rep.emerged, events=rep.events, horizon=hx(rep.horizon),
        left_range=tuple(map(hx, rep.left_range)), right_range=tuple(map(hx, rep.right_range)),
        t0=hx(rep.t0), x0=hx(rep.x0), final_speed=hx(rep.final_speed),
        gamma=hx(rep.gamma), t_tilde=hx(rep.t_tilde),
        r_samples=tuple((hx(t), hx(x)) for t, x in rep.r_samples),
    )
    want = PRESET_REPORTS[name]
    for key in want:
        assert got[key] == want[key], key


# -- horizons ----------------------------------------------------------------------

@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_run_rejects_a_horizon_that_is_not_finite_and_positive(t_max):
    s = init_state(mesh("burgers", -3.0, 3.0, 0.25), step([1.0, 0.0], [0.0]))
    with pytest.raises(ValidationError, match="t_max"):
        run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), t_max)
    assert s.t == 0.0 and s.events_processed == 0


@pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0])
def test_certify_rejects_a_horizon_that_is_not_finite_and_positive(t_max):
    s = preset("burgers_shock")
    with pytest.raises(ValidationError, match="t_max"):
        certify(s.flux, s.hypothesis, s.A, s.B, s.u_minus, s.ubar, s.u_plus, t_max=t_max)


def test_walk_rejects_nan_infinity_and_rewind():
    fl = mesh("burgers", -3.0, 3.0, 0.25)
    s = init_state(fl, step([1.0, 0.0, 1.0], [0.0, 1.0]))
    for bad in (math.nan, -1.0):
        with pytest.raises(ValidationError, match="t_until"):
            next(events(s, bad))
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValidationError):
            advance(s, bad)
    assert s.t == 0.0 and s.events_processed == 0
    advance(s, 5.0)
    with pytest.raises(ShockLabError, match="t_until"):
        run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), 1.0)
    assert s.t == 5.0
