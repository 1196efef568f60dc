import pytest

from conftest import front_speed, mesh, random_flux, refused
from shocklab.flux import Flux, make_flux
from shocklab.riemann import oleinik_condition_e, solve_riemann

V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])


def test_v_flux_single_shock():
    fan = solve_riemann(V_FLUX, 1.0, -1.0)
    assert len(fan) == 1
    f = fan[0]
    assert (f.left, f.right) == (1.0, -1.0)
    assert f.speed == 0.0


def test_v_flux_two_contact_fan():
    fan = solve_riemann(V_FLUX, -1.0, 1.0)
    assert [(f.left, f.right, f.speed) for f in fan] == [
        (-1.0, 0.0, -1.0),
        (0.0, 1.0, 1.0),
    ]


def test_double_well_stationary_jump():
    fl = mesh("double_well", -3, 3, 0.05, corners=(-2.0, 0.0, 2.0))
    fan = solve_riemann(fl, 2.0, 0.0)
    assert len(fan) == 1
    assert fan[0].speed == 0.0


def test_front_speed_examples():
    burgers = mesh("burgers", -2, 2, 0.5, corners=(0.0, 1.0))
    assert front_speed(burgers, 1.0, 0.0) == 0.5
    assert front_speed(V_FLUX, 1.0, -1.0) == 0.0
    cubic = mesh("neg_cubic", -3, 3, 0.5, corners=(-1.0, 2.0))
    assert front_speed(cubic, -1.0, 2.0) == -3.0


def test_front_speed_equal_states():
    with pytest.raises(ZeroDivisionError):
        front_speed(V_FLUX, 1.0, 1.0)


def test_zero_width_jump_empty_fan():
    assert len(solve_riemann(V_FLUX, 0.5, 0.5)) == 0


def test_state_out_of_range():
    with refused("state"):
        solve_riemann(V_FLUX, 0.0, 3.0)


def test_convex_flux_fan_states_are_corner_points():
    fl = mesh("burgers", -2, 2, 0.25)
    fan = solve_riemann(fl, -1.0, 1.0)
    inner = tuple(f.right for f in fan[:-1])
    assert inner == tuple(x for x in fl.breakpoints if -1.0 < x < 1.0)
    # contact speeds are exactly the segment slopes
    i, j = fl.breakpoints.index(-1.0), fl.breakpoints.index(1.0)
    assert tuple(f.speed for f in fan) == fl.slopes[i:j]


def test_random_fans_admissible(rng):
    for _ in range(300):
        fl = random_flux(rng)
        u_l, u_r = rng.uniform(fl.lo, fl.hi, 2)
        fan = solve_riemann(fl, u_l, u_r)
        if u_l == u_r:
            assert len(fan) == 0
            continue
        assert fan[0].left == u_l and fan[-1].right == u_r
        for a, b in zip(fan, fan[1:]):
            assert a.right == b.left and a.speed < b.speed
        for f in fan:
            # Rankine-Hugoniot holds exactly by construction
            assert f.speed == (fl(f.left) - fl(f.right)) / (f.left - f.right)
            assert oleinik_condition_e(fl, f)


@pytest.mark.parametrize("u_l, u_r", [
    (0.0, 3.0), (3.0, 0.0), (-3.0, 0.0), (0.0, -3.0), (3.0, 3.0), (-3.0, 3.0),
    (float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0), (0.0, float("-inf")),
])
def test_state_out_of_range_either_side(u_l, u_r):
    with refused("state"):
        solve_riemann(V_FLUX, u_l, u_r)


@pytest.mark.parametrize("u_l, u_r, checks", [
    (-1.5, 1.5, 2), (1.5, -1.5, 2), (0.25, 0.75, 2), (0.5, 0.5, 1), (2.0, -2.0, 2),
])
def test_one_range_check_per_state(monkeypatch, u_l, u_r, checks):
    # the hull's evaluation of f at each state is the range check
    calls = []
    contains = Flux.contains

    def counting(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(Flux, "contains", counting)
    solve_riemann(V_FLUX, u_l, u_r)
    assert len(calls) == checks
