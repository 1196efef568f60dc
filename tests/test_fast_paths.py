"""Property tests of the front tracker's fast paths against the slower
oracles they replace: the bisected hull against a scan of every node, fan
speeds read off the hull against Rankine-Hugoniot quotients of the flux, the
per-state fan memo against fresh Riemann solves, and the linked front chain
against the dead and born fronts the event log holds."""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import mesh, random_problem
from shocklab.flux import hull, make_flux
from shocklab.riemann import front_speed, solve_riemann
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
    tol = 1e-12 * fl._scale() * (1.0 + max(abs(p[1]) for p in pts))
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


@SETTINGS
@given(flux_interval())
def test_fan_speeds_are_rankine_hugoniot_quotients(case):
    fl, a, b, _ = case
    for l, r in ((a, b), (b, a)):
        for f in solve_riemann(fl, l, r):
            assert bits([f.speed]) == bits([front_speed(fl, f.left, f.right)])


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
    """``initial``: the fids of init_state's chain."""
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
    fids = sorted(f.fid for f in dead + fronts)
    assert fids == list(range(len(fids)))
    # and each front is born once: in init_state's chain, or in the record
    # of the event it leaves, at that event's time and place
    born = [f for rec in s.event_log for f in rec.outgoing]
    assert sorted(initial + [f.fid for f in born]) == fids
    assert all(f.t0 == rec.t and f.x0 == rec.x for rec in s.event_log for f in rec.outgoing)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(47777, False)  # flux nodes span only 0.0145
def test_chain_links_follow_front_order(seed, convex):
    fl, u0 = random_problem(seed, convex)
    s = init_state(fl, u0)
    initial = [f.fid for f in s.fronts]
    _check_chain(s, initial)
    for _ in events(s, 50.0):
        _check_chain(s, initial)
    assert s.profile().values[0] == u0.values[0]
