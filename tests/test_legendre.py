import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import mesh, random_convex_flux, refused
from shocklab.flux import make_flux
from shocklab.legendre import bidual, dual_bruteforce, legendre_dual

V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])


def test_one_point_dual_has_no_flux():
    d = legendre_dual(make_flux([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]))   # affine, slope 2
    assert d.breakpoints == (2.0,)
    with refused("breakpoints"):
        d.as_flux()


def test_v_flux_dual_closed_form():
    d = legendre_dual(V_FLUX)
    assert d.breakpoints == (-3.0, -1.0, 1.0, 3.0)
    # flat on [-1, 1], then p - 1 and -p - 1 on the wings
    assert d(0.0) == 0.0
    assert d(0.7) == 0.0
    assert d(2.0) == pytest.approx(1.0, abs=1e-15)
    assert d(-2.5) == pytest.approx(1.5, abs=1e-15)


def test_burgers_dual_is_half_square():
    h = 0.01
    fl = mesh("burgers", -2, 2, h)
    d = legendre_dual(fl)
    ps = np.linspace(d.lo, d.hi, 211)
    errs = [abs(d(p) - 0.5 * p * p) for p in ps]
    assert max(errs) <= h * h / 8 + 1e-12


def test_single_segment_dual_is_point():
    fl = make_flux([0, 1], [2, 5])
    d = legendre_dual(fl)
    assert d.breakpoints == (3.0,)
    assert d.values == (3.0 * 1.0 - 5.0,)


def test_dual_rejects_nonconvex():
    wiggle = make_flux([0, 1, 2], [0, 1, 1.5])  # slopes 1, 0.5: concave
    with refused("flux"):
        legendre_dual(wiggle)


def test_dual_matches_bruteforce_at_random_points(rng):
    for _ in range(40):
        fl = random_convex_flux(rng)
        d = legendre_dual(fl)
        ps = rng.uniform(d.lo, d.hi, 10)
        exact = np.array([d(p) for p in ps])
        brute = dual_bruteforce(fl, ps)
        assert_allclose(exact, brute, atol=1e-9, rtol=0)


def test_bidual_identity_v_flux():
    back = bidual(V_FLUX)
    assert back.breakpoints == V_FLUX.breakpoints
    assert_allclose(back.values, V_FLUX.values, atol=1e-12, rtol=0)


def test_bidual_identity_burgers():
    fl = mesh("burgers", -2, 2, 0.05)
    back = bidual(fl)
    for x in fl.breakpoints:
        assert abs(back(x) - fl(x)) <= 1e-9


def test_bidual_affine():
    fl = make_flux([-1, 2], [3, 0])
    back = bidual(fl)
    assert back.breakpoints == fl.breakpoints
    assert_allclose(back.values, fl.values, atol=1e-12, rtol=0)


def test_bidual_random(rng):
    for _ in range(30):
        fl = random_convex_flux(rng)
        back = bidual(fl)
        for x in fl.breakpoints:
            assert abs(back(x) - fl(x)) <= 1e-9


def test_degenerate_run_collapses_to_single_dual_node():
    fl = make_flux([0, 1, 2, 3], [0, 1, 2, 4])  # slopes 1, 1, 2
    d = legendre_dual(fl)
    assert d.breakpoints == (1.0, 2.0)
    # maximizer of the collapsed run is its right endpoint
    assert d.values[0] == 2.0 * 1.0 - fl(2.0)


def test_youngs_inequality_at_nodes(rng):
    for _ in range(25):
        fl = random_convex_flux(rng)
        d = legendre_dual(fl)
        for q, fq in zip(fl.breakpoints, fl.values):
            for p, gp in zip(d.breakpoints, d.values):
                assert fq + gp >= p * q - 1e-9
        # equality when p lies in the subdifferential at q
        for i in range(1, len(fl.breakpoints) - 1):
            q = fl.breakpoints[i]
            p = fl.slopes[i - 1]  # left slope is in [left, right] slope band
            assert abs(fl(q) + d(p) - p * q) <= 1e-9


def test_dual_domain_is_slope_range():
    d = legendre_dual(V_FLUX)
    with refused("p"):
        d(4.0)


def test_dual_states_are_one_sided_derivatives():
    d = legendre_dual(V_FLUX)
    # slope band (-1, 1) maximized by the kink at 0
    assert d.left_state(0.0) == 0.0
    assert d.right_state(0.0) == 0.0
    # at a dual node the maximizer set is a whole segment
    assert d.left_state(1.0) == 0.0
    assert d.right_state(1.0) == 1.0
