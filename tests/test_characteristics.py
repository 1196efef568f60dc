import math

import numpy as np
import pytest

from conftest import mesh, random_step, refused
from shocklab.characteristics import is_characteristic_line, r_curve
from shocklab.flux import make_flux
from shocklab.step import constant, step
from shocklab.tracking import advance, init_state

V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])


def burgers(h=0.05):
    return mesh("burgers", -3, 3, h, corners=(0.0, 1.0))


SHOCK = step([1.0, 0.0], [0.0])
RAREFACTION = step([-1.0, 1.0], [0.0])


def test_shock_curve_both_sides():
    fl = burgers()
    ts = [0.5, 1.0, 2.0, 4.0]
    for side in ("plus", "minus"):
        curve = r_curve(fl, SHOCK, 0.0, side, ts)
        for t, x in curve:
            assert x == pytest.approx(0.5 * t, abs=1e-8)


def test_rarefaction_edges():
    minus = r_curve(V_FLUX, RAREFACTION, 0.0, "minus", [0.5, 1.0, 2.0])
    plus = r_curve(V_FLUX, RAREFACTION, 0.0, "plus", [0.5, 1.0, 2.0])
    for t, x in minus:
        assert x == pytest.approx(-t, abs=1e-8)
    for t, x in plus:
        assert x == pytest.approx(t, abs=1e-8)


def test_constant_data_transport():
    fl = burgers()
    c = 0.42
    s = fl.left_slope(c)  # c interior to a segment: unique characteristic slope
    for side in ("plus", "minus"):
        curve = r_curve(fl, constant(c), 1.3, side, [0.5, 1.0, 3.0])
        for t, x in curve:
            assert x == pytest.approx(1.3 + s * t, abs=1e-8)


def test_short_time_anchoring():
    fl = burgers()
    curve = r_curve(fl, SHOCK, 0.0, "plus", [1e-6])
    assert curve.positions[0] == pytest.approx(0.0, abs=1e-5)


def test_lipschitz_sample_bound():
    fl = burgers()
    p0 = max(abs(s) for s in fl.slopes)
    curve = r_curve(fl, SHOCK, 0.0, "plus", np.linspace(0.2, 3.0, 12))
    for (t0, x0), (t1, x1) in zip(curve, list(curve)[1:]):
        assert abs(x1 - x0) / (t1 - t0) <= 1.0 + p0


def test_monotone_in_alpha(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 4, -1.0, 1.0)
    ts = [0.5, 1.5]
    alphas = np.linspace(-1.5, 1.5, 9)
    for side in ("plus", "minus"):
        curves = [r_curve(fl, u0, float(a), side, ts) for a in alphas]
        for c1, c2 in zip(curves, curves[1:]):
            for x1, x2 in zip(c1.positions, c2.positions):
                assert x1 <= x2 + 2e-8


def test_minus_below_plus(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 4, -1.0, 1.0)
    ts = [0.4, 0.9, 2.1]
    for a in (-0.7, 0.0, 0.9):
        minus = r_curve(fl, u0, a, "minus", ts)
        plus = r_curve(fl, u0, a, "plus", ts)
        for xm, xp in zip(minus.positions, plus.positions):
            assert xm <= xp + 2e-8


def test_semigroup_reanchoring(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 4, -1.0, 1.0)
    s, t = 0.8, 2.4
    eps = 2e-8
    for side in ("plus", "minus"):
        for a in (-0.5, 0.2):
            direct = r_curve(fl, u0, a, side, [t]).positions[0]
            anchor = r_curve(fl, u0, a, side, [s]).positions[0]
            mid = advance(init_state(fl, u0), s)
            rean = r_curve(fl, mid, anchor, side, [t - s]).positions[0]
            assert rean == pytest.approx(direct, abs=2 * eps + 1e-8)


def test_merged_curves_stay_merged():
    fl = burgers()
    ts = list(np.linspace(0.2, 6.0, 16))
    a, b = -0.2, 0.2  # both absorbed by the shock of (1 | 0) data
    ca = r_curve(fl, SHOCK, a, "plus", ts)
    cb = r_curve(fl, SHOCK, b, "plus", ts)
    merged = False
    for xa, xb in zip(ca.positions, cb.positions):
        if merged:
            assert xa == pytest.approx(xb, abs=2e-8)
        elif abs(xa - xb) <= 2e-8:
            merged = True
    assert merged


def test_data_ordering(rng):
    fl = burgers(0.1)
    u0 = random_step(rng, 4, -1.0, 0.5)
    w0 = step([v + 0.4 for v in u0.values], u0.positions)
    ts = [0.5, 1.2]
    for side in ("plus", "minus"):
        cu = r_curve(fl, u0, 0.1, side, ts)
        cw = r_curve(fl, w0, 0.1, side, ts)
        for xu, xw in zip(cu.positions, cw.positions):
            assert xu <= xw + 2e-8


def test_characteristic_line_constant_data():
    fl = burgers()
    c = 0.42
    assert is_characteristic_line(fl, constant(c), -0.7, fl.left_slope(c), 5.0)


def test_characteristic_line_absorbed_by_shock():
    fl = burgers()
    assert not is_characteristic_line(fl, SHOCK, 0.0, fl.left_slope(1.0), 5.0)


def test_characteristic_line_fan_center_ray():
    assert is_characteristic_line(V_FLUX, RAREFACTION, 0.0, 0.0, 5.0)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_characteristic_line_needs_finite_positive_horizon(horizon):
    with refused("t"):
        is_characteristic_line(V_FLUX, RAREFACTION, 0.0, 0.0, horizon)
