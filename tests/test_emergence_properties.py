"""Properties of the emergence curve r(t): speed sandwich and the
contraction-factor diagnostic."""

import math

import pytest

from conftest import mesh
from shocklab.scenario import random_steps
from shocklab.singleshock import HypothesisParams, certify, run_until_single_front
from shocklab.step import constant, step
from shocklab.tracking import init_state

SQ23 = math.sqrt(2.0 / 3.0)


def chord_extrema(fl, left_range, right_range):
    lat = lambda lo, hi: sorted({lo, hi, *fl.nodes_in(lo, hi)})
    slopes = [
        (fl(p) - fl(q)) / (p - q)
        for p in lat(*left_range)
        for q in lat(*right_range)
        if p != q
    ]
    return min(slopes), max(slopes)


def test_r_curve_speed_sandwich_interval_ranges():
    # double-well instance with genuinely two-sided ranges
    fl = mesh(
        "double_well", -3.2, 3.2, 0.05,
        corners=(-2.6, -2.5, -SQ23, 0.0, SQ23, 2.5, 2.6),
    )
    left, right = (2.5, 2.6), (-2.6, -2.5)
    lo, hi = chord_extrema(fl, left, right)
    u0 = step([2.6, 0.5, -1.0, 2.5, -2.5], [0.0, 0.3, 0.7, 1.0])
    s = init_state(fl, u0)
    rep = run_until_single_front(s, left, right, 60.0)
    assert rep.emerged
    for (t0, x0), (t1, x1) in zip(rep.r_samples, rep.r_samples[1:]):
        if t1 - t0 < 1e-12:
            continue
        slope = (x1 - x0) / (t1 - t0)
        assert lo - 1e-6 <= slope <= hi + 1e-6


def test_r_curve_speed_sandwich_two_state():
    fl = mesh("burgers", -3, 3, 0.05, corners=(0.0, 1.0))
    u0 = step([1.0, -0.3, 0.8, 0.0], [0.0, 0.5, 1.0])
    s = init_state(fl, u0)
    rep = run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), 60.0)
    assert rep.emerged
    # singleton ranges: the only chord slope is 1/2
    (t0, x0), (t1, x1) = rep.r_samples[0], rep.r_samples[-1]
    assert (x1 - x0) / (t1 - t0) == pytest.approx(0.5, abs=1e-6)


def test_contraction_diagnostic():
    # single-stage bound gamma_step combined with the width-contraction factor
    # delta < 1 caps the full emergence time
    fl = mesh("neg_cubic", -3, 3, 0.05, corners=(-1.5, -1.0, -0.5, 0.0, 2.0, 2.5))
    hp = HypothesisParams(-0.5, -0.5, 0.0, 0.0, 2.0, 2.0)
    ubar = random_steps(6, -1.0, -0.5, 12, 0.0, 1.0)
    rep = certify(fl, hp, 0.0, 1.0, constant(-0.5), ubar, constant(2.0), t_max=60.0)
    assert rep.emerged and rep.t_tilde is not None
    span = 1.0
    eps = 0.5  # any eps > (b1 - b2) + (a2 - a1) = 0 admissible here
    delta = (hp.b1 - hp.a1 - eps) / (hp.b2 - hp.a2)
    assert delta < 1.0
    gamma_step = rep.t_tilde / span
    assert rep.t0 <= gamma_step / (1.0 - delta) * span + 1e-9
