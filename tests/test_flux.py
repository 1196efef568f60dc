import math

import numpy as np
import pytest

from conftest import refused
from shocklab import errors
from shocklab.flux import (
    AnalyticFluxSpec,
    TripletClass,
    approximate_pw_affine,
    classify_triplet,
    eval_chord,
    eval_tangent,
    hull,
    make_flux,
)


def burgers_mesh(h=0.01, lo=-2.0, hi=2.0, corners=(0.0, 1.0)):
    return approximate_pw_affine(
        AnalyticFluxSpec("burgers", lo, hi, h, corners=tuple(corners))
    )


def neg_cubic_mesh(h=0.01, lo=-3.0, hi=3.0, corners=(-1.0, -0.5, 0.0, 2.0)):
    return approximate_pw_affine(
        AnalyticFluxSpec("neg_cubic", lo, hi, h, corners=tuple(corners))
    )


def double_well_mesh(h=0.01, lo=-3.0, hi=3.0):
    c = math.sqrt(2.0 / 3.0)
    return approximate_pw_affine(
        AnalyticFluxSpec("double_well", lo, hi, h, corners=(-2.0, -c, 0.0, c, 2.0))
    )


V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])


def test_make_flux_slopes_by_hand():
    assert V_FLUX.slopes == (-3.0, -1.0, 1.0, 3.0)


def test_make_flux_flat_segment():
    fl = make_flux([0, 1], [0, 0])
    assert fl.slopes == (0.0,)
    assert fl(0.5) == 0.0


def test_make_flux_rejects_duplicates():
    with refused("flux.breakpoints"):
        make_flux([0, 1, 1], [0, 1, 2])
    with refused("flux.values"):
        make_flux([0, 1, 2], [0, 1])
    with refused("flux.breakpoints"):
        make_flux([0.0], [1.0])
    with refused("flux.breakpoints"):
        make_flux([0.0, 1.0], [0.0, math.inf])
    with refused("flux.breakpoints"):
        make_flux([0.0, 1e-300], [0.0, 1e300])   # slope 1e600


def test_eval_outside_interval_errors():
    with refused("state"):
        V_FLUX(5.0)


def test_approximate_burgers_nodes():
    fl = approximate_pw_affine(AnalyticFluxSpec("burgers", -2, 2, 1.0, corners=(0.0, 1.0, 2.0)))
    assert fl.breakpoints == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert fl.values == (2.0, 0.5, 0.0, 0.5, 2.0)


def test_approximate_neg_cubic_values():
    fl = approximate_pw_affine(AnalyticFluxSpec("neg_cubic", -3, 3, 3.0, corners=(-1.0, 0.0, 2.0)))
    assert fl.breakpoints == (-3.0, -1.0, 0.0, 2.0, 3.0)
    assert fl.values == (27.0, 1.0, 0.0, -8.0, -27.0)


def test_approximate_mesh_subsumed_by_corners():
    fl = approximate_pw_affine(
        AnalyticFluxSpec("burgers", 0.0, 1.0, 1.0, corners=(0.0, 0.5, 1.0))
    )
    assert fl.breakpoints == (0.0, 0.5, 1.0)


def test_approximate_rejects_bad_mesh():
    with refused("flux.mesh"):
        approximate_pw_affine(AnalyticFluxSpec("burgers", -1, 1, 0.0))
    with refused("flux.hi"):
        approximate_pw_affine(AnalyticFluxSpec("burgers", 1.0, 1.0, 0.5))
    with refused("flux.corners"):
        approximate_pw_affine(AnalyticFluxSpec("burgers", -1.0, 1.0, 0.5, corners=(2.0,)))


def test_chord_burgers_symmetric():
    fl = burgers_mesh()
    assert eval_chord(fl, -1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_chord_at_endpoint_is_nodal_value():
    assert eval_chord(V_FLUX, -1.0, 1.0, -1.0) == 1.0


def test_chord_neg_cubic():
    fl = neg_cubic_mesh()
    assert eval_chord(fl, -0.5, 2.0, 0.0) == pytest.approx(-1.5, abs=1e-12)


def test_chord_degenerate():
    with refused("b"):
        eval_chord(V_FLUX, 1.0, 1.0, 0.0)


def test_tangent_neg_cubic_tangency():
    fl = neg_cubic_mesh(h=0.005)
    # tangent from -1 touches the graph again at 2
    assert eval_tangent(fl, -1.0, 2.0) == pytest.approx(-8.0, abs=0.1)
    assert eval_tangent(fl, -0.5, 2.0) == pytest.approx(-1.75, abs=0.05)
    assert eval_tangent(fl, -0.5, -0.5) == fl(-0.5)


def test_tangent_boundary_point():
    with refused("a"):
        eval_tangent(V_FLUX, -2.0, 0.0)
    with refused("state"):
        V_FLUX.left_slope(V_FLUX.lo)


def test_classify_burgers_convex_convex():
    fl = burgers_mesh()
    rng = np.random.default_rng(3)
    pairs = [(0.0, 0.0), (-1.0, 1.0), (0.3, 0.7)]
    pairs += [tuple(sorted(rng.uniform(fl.lo, fl.hi, 2))) for _ in range(40)]
    for c, d in pairs:
        assert classify_triplet(fl, c, d) is TripletClass.CONVEX_CONVEX


def test_classify_neg_cubic_convex_concave():
    fl = neg_cubic_mesh()
    assert classify_triplet(fl, 0.0, 0.0) is TripletClass.CONVEX_CONCAVE


def test_classify_double_well():
    fl = double_well_mesh()
    c = math.sqrt(2.0 / 3.0)
    assert classify_triplet(fl, -c, c) is TripletClass.CONVEX_CONVEX
    # squeezing the triplet into the concave well breaks convexity
    assert classify_triplet(fl, -0.1, 0.1) is TripletClass.NEITHER


def test_classify_out_of_range():
    with refused("C, D"):
        classify_triplet(V_FLUX, -5.0, 0.0)


def test_hull_double_well_upper_chord():
    fl = double_well_mesh()
    h = hull(fl, 0.0, 2.0, "upper")
    assert h.breakpoints == (0.0, 2.0)
    assert h.values == (0.0, 0.0)


def test_hull_of_convex_is_identity():
    fl = burgers_mesh(h=0.25)
    h = hull(fl, -1.0, 1.0, "lower")
    assert h.breakpoints == tuple(x for x in fl.breakpoints if -1 <= x <= 1)
    assert all(h(x) == fl(x) for x in h.breakpoints)


def test_hull_v_shape():
    fl = make_flux([-1, 0, 1], [1, 0, 1])
    lo = hull(fl, -1, 1, "lower")
    up = hull(fl, -1, 1, "upper")
    assert lo.breakpoints == (-1.0, 0.0, 1.0)
    assert up.breakpoints == (-1.0, 1.0)
    assert up.values == (1.0, 1.0)


def test_hull_empty_interval():
    with refused("b"):
        hull(V_FLUX, 1.0, 1.0, "lower")


def test_hull_unknown_side():
    with pytest.raises(errors.ValidationError, match="^side: "):
        hull(V_FLUX, -1.0, 1.0, "middle")


def test_hull_idempotent_and_extremal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(3, 12)
        bp = np.sort(rng.uniform(-3, 3, n))
        while np.min(np.diff(bp)) < 1e-3:
            bp = np.sort(rng.uniform(-3, 3, n))
        vals = rng.uniform(-2, 2, n)
        fl = make_flux(bp, vals)
        a, b = fl.lo, fl.hi
        for side in ("lower", "upper"):
            h1 = hull(fl, a, b, side)
            h2 = hull(h1, a, b, side)
            assert h1.breakpoints == h2.breakpoints
            assert h1.values == h2.values
            sgn = 1.0 if side == "lower" else -1.0
            for x in fl.breakpoints:
                assert sgn * (h1(x) - fl(x)) <= 1e-9
            assert all(
                sgn * (s2 - s1) > 0 for s1, s2 in zip(h1.slopes, h1.slopes[1:])
            )


def test_chord_slope_consequence_on_lattice():
    # whenever the premise holds the derivative sandwich must follow
    fl = double_well_mesh()
    # premise: f(C), f(D) lie strictly below the chord over [alpha, beta]
    for c in (-math.sqrt(2 / 3), math.sqrt(2 / 3)):
        assert fl(c) < eval_chord(fl, -2.0, 2.0, c)
    m = (fl(-2.0) - fl(2.0)) / (-4.0)
    assert fl.left_slope(-2.0) < m < fl.left_slope(2.0)


def test_flux_json_roundtrip():
    d = V_FLUX.to_json()
    fl = make_flux(d["breakpoints"], d["values"])
    assert fl == V_FLUX
