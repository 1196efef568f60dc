import numpy as np
import pytest

from conftest import mesh, random_convex_flux, random_step, refused
from shocklab.flux import make_flux
from shocklab.laxoleinik import _Primitive, solve_pointwise, value_function
from shocklab.legendre import legendre_dual
from shocklab.step import constant, l1_distance, step
from shocklab.tracking import advance, init_state

V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])


def burgers(h=0.05):
    return mesh("burgers", -3, 3, h, corners=(0.0, 1.0))


def test_zero_data_flat_argmin():
    cd = value_function(V_FLUX, constant(0.0), 0.3, 1.0)
    assert cd.value == pytest.approx(0.0, abs=1e-12)
    # flat argmin over the zero band of the dual: slopes in [-1, 1]
    assert cd.y_minus == pytest.approx(0.3 - 1.0, abs=1e-12)
    assert cd.y_plus == pytest.approx(0.3 + 1.0, abs=1e-12)


def test_v_flux_fan_center():
    cd = value_function(V_FLUX, step([-1.0, 1.0], [0.0]), 0.0, 1.0)
    assert cd.value == pytest.approx(0.0, abs=1e-12)
    assert cd.y_minus == 0.0 and cd.y_plus == 0.0


def test_burgers_shock_side():
    fl = burgers()
    u0 = step([1.0, 0.0], [0.0])
    cd = value_function(fl, u0, 0.25, 1.0)
    assert cd.y_plus < 0.0


def test_nonpositive_time():
    with refused("t"):
        value_function(V_FLUX, constant(0.0), 0.0, 0.0)


def test_nonconvex_rejected():
    fl = mesh("neg_cubic", -3, 3, 0.5)
    with refused("flux"):
        value_function(fl, constant(0.0), 0.0, 1.0)


def test_solve_pointwise_rarefaction_center():
    pv = solve_pointwise(V_FLUX, step([-1.0, 1.0], [0.0]), 0.0, 1.0)
    assert pv.left == 0.0 and pv.right == 0.0 and not pv.at_shock


def test_solve_pointwise_burgers_shock_sides():
    fl = burgers()
    u0 = step([1.0, 0.0], [0.0])
    t = 1.0
    assert solve_pointwise(fl, u0, 0.25 * t, t).value == 1.0
    assert solve_pointwise(fl, u0, 0.75 * t, t).value == 0.0
    pv = solve_pointwise(fl, u0, 0.5 * t, t)
    assert pv.at_shock and pv.left == 1.0 and pv.right == 0.0


def test_solve_pointwise_constant():
    pv = solve_pointwise(burgers(), constant(0.37), 1.3, 2.0)
    assert pv.left == 0.37 and pv.right == 0.37


def test_monotone_feet(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 5, -1.0, 1.0)
    for t in (0.5, 2.0):
        xs = np.sort(rng.uniform(-5, 5, 50))
        feet = [value_function(fl, u0, float(x), t) for x in xs]
        for a, b in zip(feet, feet[1:]):
            assert a.y_plus <= b.y_plus + 1e-12
            assert a.y_minus <= b.y_minus + 1e-12


def test_window_doubling_changes_nothing(rng):
    fl = burgers(0.1)
    dual = legendre_dual(fl)
    p0 = dual.slope_bound
    u0 = random_step(rng, 4, -1.0, 1.0)
    v0 = _Primitive(u0)
    for _ in range(20):
        x = float(rng.uniform(-4, 4))
        t = float(rng.uniform(0.1, 3.0))
        cd = value_function(fl, u0, x, t)
        assert abs(x - cd.y_minus) <= p0 * t + 1e-9
        assert abs(x - cd.y_plus) <= p0 * t + 1e-9
        # brute-force the objective over a dense grid on the doubled window
        ys = np.linspace(x - 2 * p0 * t, x + 2 * p0 * t, 4001)
        ys = ys[(ys >= x - dual.hi * t) & (ys <= x - dual.lo * t)]
        phi = [v0(float(y)) + t * dual(min(max((x - y) / t, dual.lo), dual.hi)) for y in ys]
        assert cd.value <= min(phi) + 1e-9


def test_dynamic_programming(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 4, -1.0, 1.0)
    dual = legendre_dual(fl)
    state = init_state(fl, u0)
    for (x, t, s) in [(0.7, 2.0, 0.8), (-1.3, 3.0, 1.0), (0.2, 1.5, 0.4)]:
        cd = value_function(fl, u0, x, t)
        # re-anchor at time s through the front-tracking profile
        mid = advance(init_state(fl, u0), s)
        vmid = _Primitive(mid)
        # v(.,s) needs the additive constant of the original primitive
        cs = value_function(fl, u0, 0.0, s).value - vmid(0.0)
        cands = set(mid.positions)
        cands.update(x - (t - s) * p for p in dual.breakpoints)
        best = min(
            vmid(xi) + cs + (t - s) * dual(min(max((x - xi) / (t - s), dual.lo), dual.hi))
            for xi in cands
            if dual.lo - 1e-12 <= (x - xi) / (t - s) <= dual.hi + 1e-12
        )
        assert best == pytest.approx(cd.value, abs=1e-9)


def test_cross_solver_l1(rng):
    for _ in range(10):
        fl = random_convex_flux(rng, max_nodes=12)
        lo = fl.lo + 0.1 * (fl.hi - fl.lo)
        hi = fl.hi - 0.1 * (fl.hi - fl.lo)
        u0 = random_step(rng, 4, lo, hi)
        state = init_state(fl, u0)
        for t in (0.5, 1.0, 3.0):
            prof = advance(state, t)
            grid = sorted(set(np.linspace(-10, 10, 201)) | {x for x in prof.positions if -10 < x < 10})
            err = 0.0
            for a, b in zip(grid, grid[1:]):
                m = 0.5 * (a + b)
                err += (b - a) * abs(prof(m) - solve_pointwise(fl, u0, m, t).value)
            assert err <= 1e-6


def test_mesh_refinement_converges():
    # piecewise-affine approximations of burgers converge linearly in h
    data = step([-1.0, 1.0, 0.0], [0.0, 1.5])
    ref = mesh("burgers", -3, 3, 0.0125, corners=(0.0, 1.0, 1.5))
    sref = init_state(ref, data)
    errs = {}
    times = (0.5, 1.0, 1.5, 2.0)
    profs_ref = {t: advance(sref, t) for t in times}
    for h in (0.2, 0.1, 0.05):
        fl = mesh("burgers", -3, 3, h, corners=(0.0, 1.0, 1.5))
        s = init_state(fl, data)
        tot = 0.0
        for t in times:
            tot += l1_distance(advance(s, t), profs_ref[t], -6.0, 6.0) * 0.5
        errs[h] = tot
    assert 0.3 <= errs[0.1] / errs[0.2] <= 0.7
    assert 0.3 <= errs[0.05] / errs[0.1] <= 0.7
