"""Property tests of the front tracker's fast paths against the slower
oracles they replace: the bisected hull and its closed forms on convex and
concave runs against a scan of every node, fan speeds read off the hull
against Rankine-Hugoniot quotients of the flux, the bisected node slice and
the hoisted Oleinik check against their scans, the per-state fan memo against
fresh Riemann solves, and the linked front chain against the dead and born
fronts the event log holds."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import front_speed, mesh, random_problem
from shocklab import riemann
from shocklab.flux import ANALYTIC_FLUXES, hull, make_flux
from shocklab.riemann import Front, oleinik_condition_e, solve_riemann
from shocklab.step import step
from shocklab.tracking import events, init_state

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
coord = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


def bits(xs):
    """Exact float identity, including the sign of zero."""
    return tuple(float(x).hex() for x in xs)


def hull_oracle(fl, a, b, side):
    """Hull by evaluating fl at every node strictly inside (a, b)."""
    pts = [(a, fl(a))] + [(x, fl(x)) for x in fl.nodes_in(a, b, closed=False)] + [(b, fl(b))]
    sgn = 1.0 if side == "lower" else -1.0
    tol = 1e-12 * fl._scale * (1.0 + max(abs(p[1]) for p in pts))
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (ox, oy), (px, py) = chain[-2], chain[-1]
            if sgn * ((px - ox) * (p[1] - oy) - (py - oy) * (p[0] - ox)) > tol:
                break
            chain.pop()
        chain.append(p)
    return make_flux([p[0] for p in chain], [p[1] for p in chain])


@st.composite
def flux_interval(draw):
    xs = draw(st.lists(coord, min_size=2, max_size=14, unique=True))
    bp = sorted(xs)
    assume(min(np.diff(bp)) > 1e-9)
    # small integer values make collinear runs, which the hull must collapse
    value = st.one_of(st.floats(-4.0, 4.0, allow_subnormal=False),
                      st.integers(-3, 3).map(float))
    fl = make_flux(bp, draw(st.lists(value, min_size=len(bp), max_size=len(bp))))
    point = st.one_of(st.sampled_from(bp), st.floats(bp[0], bp[-1], allow_subnormal=False))
    a, b = draw(point), draw(point)
    assume(a != b)
    return fl, min(a, b), max(a, b), draw(st.sampled_from(["lower", "upper"]))


@SETTINGS
@given(flux_interval())
def test_bisected_hull_matches_node_scan(case):
    fl, a, b, side = case
    got, want = hull(fl, a, b, side), hull_oracle(fl, a, b, side)
    assert bits(got.breakpoints) == bits(want.breakpoints)
    assert bits(got.values) == bits(want.values)
    assert bits(got.slopes) == bits(want.slopes)


# working interval of each analytic kind in the run-structured fluxes
KIND_RANGES = {"burgers": (-3.0, 3.0), "neg_cubic": (-2.0, 2.0),
               "double_well": (-2.0, 2.0), "buckley_leverett": (0.0, 1.0)}


@st.composite
def run_flux(draw):
    """A flux made of long strictly convex or concave runs: an analytic kind
    on a random mesh, a random strictly convex or concave table, or an
    integer table whose repeated slopes make collinear stretches."""
    shape = draw(st.sampled_from(["analytic", "convex", "concave", "integer"]))
    if shape == "analytic":
        kind = draw(st.sampled_from(sorted(ANALYTIC_FLUXES)))
        lo, hi = KIND_RANGES[kind]
        return mesh(kind, lo, hi, (hi - lo) / draw(st.integers(3, 120)))
    n = draw(st.integers(3, 24))
    if shape == "integer":
        steps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
        bp = np.cumsum([0.0] + [0.5 * k for k in steps]) - 3.0
        slopes = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        v0 = draw(st.integers(-3, 3))
        return make_flux(bp, np.cumsum([float(v0)] + [s * h for s, h in zip(slopes, np.diff(bp))]))
    bp = sorted(draw(st.lists(coord, min_size=n, max_size=n, unique=True)))
    assume(min(np.diff(bp)) > 1e-6)
    slopes = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=n - 1, max_size=n - 1,
                                  unique=True)))
    vals = np.cumsum([draw(st.floats(-1.0, 1.0))] + list(np.multiply(slopes, np.diff(bp))))
    return make_flux(bp, vals if shape == "convex" else -vals)


@st.composite
def run_pair(draw):
    """States on a breakpoint, within 1e-13 to 1e-9 of one, at +-0.0, a few
    segments apart (inside one run, or across a run boundary or inflection),
    or anywhere in the working interval."""
    fl = draw(run_flux())
    bp = fl.breakpoints
    node = st.sampled_from(bp)
    offset = st.sampled_from([1e-13, 1e-11, 1e-9]).flatmap(lambda e: st.floats(-e, e))
    point = st.one_of(
        node,
        st.tuples(node, offset).map(sum),
        st.sampled_from([0.0, -0.0]).filter(fl.contains),
        st.floats(fl.lo, fl.hi),
    )
    a = draw(point)
    k = min(range(len(bp)), key=lambda i: abs(bp[i] - a))
    near = st.floats(bp[max(k - 3, 0)], bp[min(k + 3, len(bp) - 1)])
    b = draw(st.one_of(point, near))
    assume(a != b and fl.contains(a) and fl.contains(b))
    return fl, min(a, b), max(a, b), draw(st.sampled_from(["lower", "upper"]))


@st.composite
def tol_edge_pair(draw):
    """One state just off a node, placed so that the end triple it makes with
    that node and the next one inward has a cross product within a factor 4 of
    hull's tolerance; the other state lies beyond that next node, and the hull
    side is the one the node's turn curves toward."""
    fl = draw(run_flux())
    bp, slopes = fl.breakpoints, fl.slopes
    assume(len(bp) >= 3)
    k = draw(st.integers(1, len(bp) - 2))
    turn = slopes[k] - slopes[k - 1]
    assume(turn != 0)
    tol = 1e-12 * fl._scale * (1.0 + max(map(abs, fl.values)))
    if draw(st.booleans()):
        a = bp[k] - draw(st.floats(0.25, 4.0)) * tol / (abs(turn) * (bp[k + 1] - bp[k]))
        b = draw(st.floats(bp[k + 1], bp[-1]))
        assume(bp[k - 1] < a)
    else:
        b = bp[k] + draw(st.floats(0.25, 4.0)) * tol / (abs(turn) * (bp[k] - bp[k - 1]))
        a = draw(st.floats(bp[0], bp[k - 1]))
        assume(b < bp[k + 1])
    return fl, a, b, "lower" if turn > 0 else "upper"


def fan_bits(fan):
    return [bits((f.speed, f.left, f.right)) for f in fan]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(run_pair(), tol_edge_pair()))
# a same-shape closed form without its end-triple check keeps the node at 0.5
@example((mesh("burgers", -3, 3, 0.05), 0.4999999999999, 0.9, "lower"))
# f(a) rounds above the concave run's node next to it, so the chain keeps that
# node where the chord of a run curved away from the hull would drop it
@example((make_flux([-1.0, 0.6191796425095394, 2.0, 2.5], [-943356773.6415967, 0.0, 0.01, -0.5]),
          0.6191796425095393, 2.0, "lower"))
def test_closed_form_hull_matches_chain(case):
    fl, a, b, side = case
    got, want = hull(fl, a, b, side), hull_oracle(fl, a, b, side)
    assert bits(got.breakpoints) == bits(want.breakpoints)
    assert bits(got.values) == bits(want.values)
    assert bits(got.slopes) == bits(want.slopes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riemann, "hull", hull_oracle)
        chained = [solve_riemann(fl, l, r) for l, r in ((a, b), (b, a))]
    assert [fan_bits(solve_riemann(fl, l, r)) for l, r in ((a, b), (b, a))] == [
        fan_bits(fan) for fan in chained
    ]


def oleinik_scan(fl, front):
    """``oleinik_condition_e`` as it evaluated f(l) and f(r) at every node."""
    l, r, s = front.left, front.right, front.speed
    for v in [x for x in fl.breakpoints if min(l, r) < x < max(l, r)]:
        if (fl(l) - fl(v)) / (l - v) < s - 1e-9:
            return False
        if (fl(v) - fl(r)) / (v - r) > s + 1e-9:
            return False
    return True


@SETTINGS
@given(flux_interval(), st.floats(-8.0, 8.0))
def test_bisected_nodes_and_hoisted_oleinik_match_scans(case, speed):
    fl, a, b, _ = case
    assert bits(fl.nodes_in(a, b)) == bits([x for x in fl.breakpoints if a <= x <= b])
    assert bits(fl.nodes_in(a, b, closed=False)) == bits(
        [x for x in fl.breakpoints if a < x < b])
    assert fl.nodes_in(b, a) == fl.nodes_in(b, a, closed=False) == []
    fronts = [f for l, r in ((a, b), (b, a)) for f in solve_riemann(fl, l, r)]
    fronts += [Front(speed, a, b), Front(speed, b, a), Front(front_speed(fl, a, b), a, b)]
    for f in fronts:
        assert oleinik_condition_e(fl, f) is oleinik_scan(fl, f)


@SETTINGS
@given(flux_interval())
def test_fan_speeds_are_rankine_hugoniot_quotients(case):
    fl, a, b, _ = case
    for l, r in ((a, b), (b, a)):
        fan = solve_riemann(fl, l, r)
        for f in fan:
            assert bits([f.speed]) == bits([front_speed(fl, f.left, f.right)])
        # neighbours share a state and speed up strictly, also where the flux
        # has collinear runs, so no pair inside a fan ever meets
        for f, g in zip(fan, fan[1:]):
            assert f.right == g.left and f.speed < g.speed


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(47777, False)  # flux nodes span only 0.0145
def test_memoized_fans_equal_fresh_solves(seed, convex):
    fl, u0 = random_problem(seed, convex)
    s = init_state(fl, u0)
    for _ in events(s, 50.0):
        pass
    assert s._fans
    for key, fan in s._fans.items():
        fresh = solve_riemann(fl, key[0], key[1])
        assert [bits((f.speed, f.left, f.right)) for f in fan] == [
            bits((f.speed, f.left, f.right)) for f in fresh
        ]


@pytest.mark.parametrize("seed, convex", [(0, True), (1, False), (2, True), (47777, False)])
def test_one_hull_per_memoized_fan(monkeypatch, seed, convex):
    # the traced flux.hull calls equal riemann.solves only while every hull
    # goes through riemann.hull once per memo miss
    calls = []

    def counting_hull(fl, a, b, side="lower"):
        calls.append((a, b, side))
        return hull(fl, a, b, side)

    monkeypatch.setattr(riemann, "hull", counting_hull)
    fl, u0 = random_problem(seed, convex)
    s = init_state(fl, u0)
    for _ in events(s, 50.0):
        pass
    solved = [key for key in s._fans if key[0] != key[1]]
    assert all(not s._fans[key] for key in s._fans if key[0] == key[1])
    assert len(calls) == len(solved) > 0


def test_fan_memo_keeps_the_sign_of_zero():
    # 0.0 == -0.0 as dict keys, yet each fan echoes its own outer states
    fl = mesh("burgers", -3, 3, 0.25)
    u0 = step([1.0, -0.0, 1.0, 0.0], [0.0, 1.0, 2.0])
    s = init_state(fl, u0)
    fresh = [f for l, r in zip(u0.values, u0.values[1:]) for f in solve_riemann(fl, l, r)]
    assert [bits((f.speed, f.left, f.right)) for f in s.fronts] == [
        bits((f.speed, f.left, f.right)) for f in fresh
    ]


def _check_chain(s, initial):
    """``initial``: init_state's chain, as it was before any event."""
    fronts = s.fronts
    assert s.head is (fronts[0] if fronts else None)
    for i, f in enumerate(fronts):
        assert f.prev is (fronts[i - 1] if i > 0 else None)
        assert f.next is (fronts[i + 1] if i + 1 < len(fronts) else None)
    for a, b in zip(fronts, fronts[1:]):
        assert a.right == b.left
        assert a.pos(s.t) <= b.pos(s.t) + s.eps_x
    # the event log holds each dead front, unlinked; with the live chain
    # that accounts for every front ever made, once
    dead = [f for rec in s.event_log for f in rec.incoming]
    assert all(f.prev is None and f.next is None for f in dead)
    ever = {id(f) for f in dead + fronts}
    assert len(ever) == len(dead) + len(fronts)
    # and each front is born once: in init_state's chain, or in the record
    # of the event it leaves, at that event's time and place
    assert len(s.initial) == len(initial) and all(a is b for a, b in zip(s.initial, initial))
    born = initial + [f for rec in s.event_log for f in rec.outgoing]
    assert len({id(f) for f in born}) == len(born) and {id(f) for f in born} == ever
    assert all(f.t0 == rec.t and f.x0 == rec.x for rec in s.event_log for f in rec.outgoing)
    # the splice hands every new pair to _schedule, yet two fronts of one fan,
    # born at one (t, x), never meet, so none of their pairs is queued
    assert all((a.t0, a.x0) != (b.t0, b.x0) for *_, a, b in s._heap)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(47777, False)  # flux nodes span only 0.0145
def test_chain_links_follow_front_order(seed, convex):
    fl, u0 = random_problem(seed, convex)
    s = init_state(fl, u0)
    initial = s.fronts
    _check_chain(s, initial)
    for _ in events(s, 50.0):
        _check_chain(s, initial)
    assert s.profile().values[0] == u0.values[0]
