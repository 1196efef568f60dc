import dataclasses
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    everywhere_leq, l1_distance, lipschitz, mesh, random_problem, random_step, refused, tv_exact,
)
from shocklab import errors, tracking
from shocklab.flux import make_flux
from shocklab.scenario import PRESETS, preset, random_steps
from shocklab.singleshock import run_until_single_front
from shocklab.step import constant, step
from shocklab.tracking import advance, events, init_state

V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])


def burgers(h=0.05):
    return mesh("burgers", -3, 3, h, corners=(0.0, 1.0, 2.0))


def test_init_two_shocks():
    fl = mesh("burgers", -1, 3, 4.0, corners=(0.0, 1.0, 2.0))
    u0 = step([2.0, 1.0, 0.0], [0.0, 1.0])
    s = init_state(fl, u0)
    snap = s.front_snapshot(0.0)
    assert [(x, sp) for x, sp, _, _ in snap] == [(0.0, 1.5), (1.0, 0.5)]


def test_init_constant_no_fronts():
    s = init_state(burgers(), constant(0.5))
    assert s.fronts == []
    assert advance(s, 5.0).values == (0.5,)


def test_init_v_flux_fan():
    s = init_state(V_FLUX, step([-1.0, 1.0], [0.0]))
    snap = s.front_snapshot(0.0)
    assert [(x, sp) for x, sp, _, _ in snap] == [(0.0, -1.0), (0.0, 1.0)]


def test_events_two_fronts():
    fl = mesh("burgers", -1, 3, 4.0, corners=(0.0, 1.0, 2.0))
    s = init_state(fl, step([2.0, 1.0, 0.0], [0.0, 1.0]))
    ev = next(events(s, math.inf), None)
    assert ev.t == pytest.approx(1.0, abs=1e-12)
    assert ev.x == pytest.approx(1.5, abs=1e-12)
    assert len(ev.incoming) == 2
    assert s.t == ev.t and s.events_processed == 1


def test_events_single_front_none():
    fl = burgers()
    s = init_state(fl, step([1.0, 0.0], [0.0]))
    assert next(events(s, math.inf), None) is None


ENDLESS_WALKS = {
    "parallel": (make_flux([-3, 0, 3], [4.5, 0, 4.5]), step([1.0, 0.0, 0.5], [0.0, 1.0])),
    "one_merge": (mesh("burgers", -1, 3, 4.0, corners=(0.0, 1.0, 2.0)),
                  step([2.0, 1.0, 0.0], [0.0, 1.0])),
    **{f"random_{seed}_{convex}": random_problem(seed, convex)
       for seed in range(4) for convex in (True, False)},
}


@pytest.mark.parametrize("case", sorted(ENDLESS_WALKS))
def test_endless_walk_stops_at_its_last_collision(case):
    flux, u0 = ENDLESS_WALKS[case]
    s = init_state(flux, u0)
    log = list(events(s, math.inf))
    assert s.t == (log[-1].t if log else 0.0)
    assert repr(s.profile()) == repr(advance(init_state(flux, u0), s.t))
    # no collision is pending, so a later walk meets none
    assert list(events(s, s.t + 5.0)) == []
    assert repr(s.profile()) == repr(advance(init_state(flux, u0), s.t))


def test_three_front_symmetric_merge():
    fl = mesh("burgers", 0, 5, 1.0)
    u0 = step([4.0, 3.0, 2.0, 1.0], [-1.0, 0.0, 1.0])
    s = init_state(fl, u0)
    ev = next(events(s, math.inf))
    assert len(ev.incoming) == 3
    assert ev.t == pytest.approx(1.0, abs=1e-12)
    out = advance(s, 2.0)
    assert out.values == (4.0, 1.0)
    assert s.events_processed == 1
    # merged shock: speed (f(4)-f(1))/3 = 2.5 from x=2.5 at t=1
    assert out.positions[0] == pytest.approx(2.5 + 2.5 * 1.0, abs=1e-12)


def test_interior_annihilation_schedules_the_outer_neighbours():
    # three fronts between two live neighbours meet near (1, 0) and leave no
    # front; the neighbours, now adjacent, meet at t = 20 as a standing shock
    fl = mesh("burgers", -3, 3, 0.05)
    u0 = step([1.0, 0.0, 0.05, -0.05, 0.0, -1.0], [-10.0, -0.025, 0.0, 0.025, 10.0])
    s = init_state(fl, u0)
    first, second = events(s, 30.0)
    assert first.t == pytest.approx(1.0) and first.x == pytest.approx(0.0, abs=1e-12)
    assert [(f.left, f.right) for f in first.incoming] == [(0.0, 0.05), (0.05, -0.05), (-0.05, 0.0)]
    assert first.outgoing == ()
    assert second.t == pytest.approx(20.0) and second.x == pytest.approx(0.0, abs=1e-12)
    assert [(f.left, f.right) for f in second.incoming] == [(1.0, 0.0), (0.0, -1.0)]
    assert [(f.left, f.right, f.speed) for f in second.outgoing] == [(1.0, -1.0, 0.0)]
    assert s.profile() == step([1.0, -1.0], [0.0])


@pytest.mark.filterwarnings("error")   # also an exception raised in __del__
def test_data_outside_the_working_interval_is_refused():
    with refused("u0"):
        init_state(burgers(), step([0.5, 4.0], [0.0]))


def test_merge_example_positions():
    fl = mesh("burgers", -1, 3, 4.0, corners=(0.0, 1.0, 2.0))
    s = init_state(fl, step([2.0, 1.0, 0.0], [0.0, 1.0]))
    out = advance(s, 2.0)
    assert out.values == (2.0, 0.0)
    assert out.positions == (pytest.approx(2.5, abs=1e-12),)


def test_advance_to_current_time_is_identity():
    fl = burgers()
    u0 = step([1.0, 0.3, 0.0], [0.0, 1.0])
    s = init_state(fl, u0)
    assert advance(s, 0.0) == u0


def test_counterexample_1_frozen_profile():
    c = math.sqrt(2.0 / 3.0)
    fl = mesh("double_well", -3, 3, 0.05, corners=(-2.0, -c, 0.0, c, 2.0))
    u0 = step([2.0, 0.0, -2.0], [0.0, 1.0])
    s = init_state(fl, u0)
    out = advance(s, 10.0)
    assert s.events_processed == 0
    assert out == u0


def test_counterexample_2_persistent_gap():
    from shocklab.scenario import _counterexample_2_flux

    fl = _counterexample_2_flux()
    u0 = step([-1.5, -1.0, 2.0], [0.0, 1.0])
    s = init_state(fl, u0)
    report = run_until_single_front(s, (-1.5, -1.5), (2.0, 2.0), 100.0)
    assert not report.emerged
    snap = s.front_snapshot(100.0)
    # rightmost fan front (right state -1) and the contact (left state -1)
    fan_edge = [x for x, _, _, r in snap if r == -1.0]
    contact = [x for x, _, l, _ in snap if l == -1.0]
    assert len(fan_edge) == 1 and len(contact) == 1
    assert contact[0] - fan_edge[0] == pytest.approx(1.0, abs=1e-9)
    speeds = [sp for _, sp, _, _ in snap]
    assert min(speeds) == pytest.approx(-6.5275, abs=0.3)
    assert speeds[-1] == pytest.approx(-3.01, abs=1e-9)


def test_two_state_emergence_burgers(rng):
    fl = burgers()
    for seed in range(3):
        vals = np.random.default_rng(seed).uniform(-1.0, 1.5, 8)
        pos = [0.0] + [0.125 * (i + 1) for i in range(7)] + [1.0]
        u0 = step([1.0] + [float(v) for v in vals] + [0.0], pos)
        s = init_state(fl, u0)
        report = run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), 60.0)
        assert report.emerged
        assert report.final_speed == pytest.approx(0.5, abs=0.0)
        assert report.t0 <= 60.0
        # r(t) advances with the RH speed after T0
        (t0, x0), (t1, x1) = report.r_samples[0], report.r_samples[-1]
        assert x1 - x0 == pytest.approx(0.5 * (t1 - t0), abs=1e-9)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_positions_at_non_finite_time_are_refused(t):
    # a standing shock sits at 0 * inf = NaN
    s = init_state(burgers(), step([1.0, -1.0], [0.0]))
    with pytest.raises(errors.ValidationError, match="^t: "):
        s.profile(t)
    with pytest.raises(errors.ValidationError, match="^t: "):
        s.front_snapshot(t)


def test_emergence_from_zero_events():
    fl = burgers()
    s = init_state(fl, step([1.0, 0.0], [0.0]))
    report = run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), 10.0)
    assert report.emerged and report.t0 == 0.0 and report.x0 == 0.0


def test_tv_never_increases(rng):
    fl = burgers(0.1)
    for _ in range(20):
        u0 = random_step(rng, 6, -1.5, 1.5)
        s = init_state(fl, u0)
        tv0 = tv_exact(u0)
        for t in (0.2, 0.5, 1.0, 3.0, 8.0):
            assert tv_exact(advance(s, t)) <= tv0


def test_maximum_principle(rng):
    fl = burgers(0.1)
    for _ in range(20):
        u0 = random_step(rng, 5, -2.0, 2.0)
        s = init_state(fl, u0)
        advance(s, 10.0)
        lo, hi = min(u0.values), max(u0.values)
        for rec in s.event_log:
            for f in rec.outgoing:
                assert lo <= f.left <= hi and lo <= f.right <= hi


def test_comparison_principle(rng):
    fl = burgers(0.1)
    for _ in range(15):
        u0 = random_step(rng, 5, -1.0, 1.0)
        bumps = rng.uniform(0.0, 0.8, len(u0.values))
        v0 = step([v + b for v, b in zip(u0.values, bumps)], u0.positions)
        su, sv = init_state(fl, u0), init_state(fl, v0)
        for t in (0.3, 1.0, 4.0):
            assert everywhere_leq(advance(su, t), advance(sv, t))


def test_l1_contraction(rng):
    fl = burgers(0.1)
    for _ in range(15):
        u0 = random_step(rng, 5, -1.0, 1.0)
        v0 = random_step(rng, 4, -1.0, 1.0)
        su, sv = init_state(fl, u0), init_state(fl, v0)
        m = lipschitz(fl, min(u0.lo, v0.lo), max(u0.hi, v0.hi))
        a, b = -4.0, 4.0
        base = l1_distance(u0, v0, a - m * 5.0, b + m * 5.0)
        for t in (1.0, 5.0):
            ut, vt = advance(su, t), advance(sv, t)
            assert l1_distance(ut, vt, a, b) <= l1_distance(u0, v0, a - m * t, b + m * t) + 1e-9
            assert l1_distance(ut, vt, a, b) <= base + 1e-9


def test_determinism_bit_identical_logs(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 7, -1.5, 1.5)
    runs = []
    for _ in range(2):
        s = init_state(fl, u0)
        advance(s, 12.0)
        # JSON text and repr tell -0.0 from 0.0, which == does not
        runs.append([
            (json.dumps(r.to_json()), repr([(f.x0, f.t0) for f in r.incoming]))
            for r in s.event_log
        ])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("walk", ["advance", "run_until_single_front"])
def test_walked_state_freed_by_reference_counting(walk):
    # the event log holds the dead fronts, so a state must not keep its
    # fronts alive in reference cycles that only the collector could free
    u0 = step([1.0, -0.5, 0.8, -1.0, 0.3, 0.0], [0.0, 0.2, 0.4, 0.6, 0.8])
    gc.collect()
    gc.disable()
    try:
        s = init_state(burgers(0.1), u0)
        if walk == "advance":
            advance(s, 2.0)
        else:
            run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), 2.0)
        # two live fronts or more link to each other both ways
        assert s.event_log and len(s.fronts) >= 2
        ref = weakref.ref(s)
        del s
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _walks_to_the_end():
    """(flux, data, end) of each preset walked to its t_max, then with 200
    random middle steps of seed 3 in its recipe's range (the range of its
    tails when it has none), then of random problems 0-19 of both kinds
    walked past their last collision."""
    for name, raw in sorted(PRESETS.items()):
        s = preset(name)
        ubar = raw["data"]["ubar"]
        if isinstance(ubar, dict):
            lo, hi = ubar["random"]["lo"], ubar["random"]["hi"]
        else:
            lo, hi = sorted((s.u_minus.values[0], s.u_plus.values[0]))
        variant = dataclasses.replace(s, ubar=random_steps(200, lo, hi, 3, s.A, s.B))
        yield s.flux, s.initial_data(), s.t_max
        yield variant.flux, variant.initial_data(), variant.t_max
    for seed, convex in itertools.product(range(20), (True, False)):
        yield *random_problem(seed, convex), math.inf


def test_no_walk_leaves_a_reference_cycle():
    # the tracker unlinks every dead front and a state breaks its own links
    # when it dies, so no walk needs the cycle collector to free its state
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        walks = n_events = 0
        for fl, u0, end in _walks_to_the_end():
            s = init_state(fl, u0)
            for _ in events(s, end):
                pass
            walks += 1
            n_events += s.events_processed
            ref = weakref.ref(s)
            del s
            assert ref() is None
            assert gc.collect() == 0
        assert walks == 52 and n_events > 10_000
    finally:
        if enabled:
            gc.enable()


def test_front_count_bound(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 6, -1.0, 1.0)
    s = init_state(fl, u0)
    counts = [len(s.fronts)]
    for _ in events(s, 20.0):
        counts.append(len(s.fronts))
    # convex flux: after the initial fans resolve, fronts only merge
    assert all(b <= a for a, b in zip(counts, counts[1:]))


# no event changes the left tail, so the profile's first value is the data's
# after every event, zero signs included; where the chain empties it is the
# whole profile.  On this zigzag flux the fronts 1 -> 0, 0 -> 2 and 2 -> 1
# (speeds 1, 0, -1) of data 1 | 0 | 2 | 1 at -1, 0, 1 meet at (0, 1) and
# leave nothing.
ZIGZAG = make_flux([-1.0, 0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=8))
@example([1.0, 0.0, 2.0, 1.0])
def test_left_tail_is_the_data_left_tail_after_every_event(vals):
    u0 = step(vals, [float(i) for i in range(-1, len(vals) - 2)])
    s = init_state(ZIGZAG, u0)
    tail = repr(u0.values[0])
    assert repr(s.profile().values[0]) == tail
    for _ in events(s, 50.0):
        assert repr(s.profile().values[0]) == tail
    if vals == [1.0, 0.0, 2.0, 1.0]:
        assert s.head is None


def test_event_overflow_guard(monkeypatch):
    fl = burgers(0.5)
    s = init_state(fl, step([1.0, 0.2, 0.0], [0.0, 1.0]))
    monkeypatch.setattr(tracking, "MAX_EVENTS", 0)
    with refused("t_until"):
        advance(s, 10.0)


def test_scaling_covariance():
    fl = burgers()
    base = step([1.0, 0.3, -0.2, 0.0], [0.0, 0.4, 1.0])
    s1 = init_state(fl, base)
    r1 = run_until_single_front(s1, (1.0, 1.0), (0.0, 0.0), 100.0)
    for lam in (0.5, 2.0, 5.0):
        scaled = step(base.values, [x * lam for x in base.positions])
        s2 = init_state(fl, scaled)
        r2 = run_until_single_front(s2, (1.0, 1.0), (0.0, 0.0), 100.0 * lam)
        assert r2.t0 == pytest.approx(lam * r1.t0, rel=1e-6)


def test_front_count_bounded_by_hull_nodes(rng):
    # each event's fan is at most one front per hull segment between the
    # outermost incoming states
    from conftest import random_flux

    for _ in range(30):
        fl2 = random_flux(rng, max_nodes=10)
        pad = 0.1 * (fl2.hi - fl2.lo)
        u0 = random_step(rng, 6, fl2.lo + pad, fl2.hi - pad)
        s = init_state(fl2, u0)
        advance(s, 10.0)
        for rec in s.event_log:
            outer_lo = min(rec.incoming[0].left, rec.incoming[-1].right)
            outer_hi = max(rec.incoming[0].left, rec.incoming[-1].right)
            n_between = len(fl2.nodes_in(outer_lo, outer_hi, closed=False))
            assert len(rec.outgoing) <= n_between + 1
            assert len(rec.outgoing) <= len(rec.incoming) + n_between


# three jumps whose fronts first meet at t = 8/3 and merge to one shock by t = 8
THREE_JUMPS = step([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 2.0])


def test_positions_outside_the_event_free_window_are_refused():
    s = init_state(burgers(0.25), THREE_JUMPS)
    # a fresh state past its first collision would move fronts through each other
    for query in (s.profile, s.front_snapshot):
        with pytest.raises(errors.ValidationError, match="^t: .*event-free window"):
            query(3.0)
    # after the walk, t = 0 would extrapolate the one shock left: one jump, not three
    advance(s, 10.0)
    for query in (s.profile, s.front_snapshot):
        with pytest.raises(errors.ValidationError, match="^t: .*event-free window"):
            query(0.0)


def test_both_ends_of_the_event_free_window_equal_advance():
    bits = lambda p: (tuple(x.hex() for x in p.positions), tuple(v.hex() for v in p.values))
    s = init_state(burgers(0.25), THREE_JUMPS)
    advance(s, 3.0)
    lo, hi = s.event_log[-1].t, s._peek()[0]
    assert lo < 3.0 < hi
    for t in (lo, hi):
        assert bits(s.profile(t)) == bits(advance(init_state(burgers(0.25), THREE_JUMPS), t))
    assert s.front_snapshot(lo) and s.front_snapshot(hi)
