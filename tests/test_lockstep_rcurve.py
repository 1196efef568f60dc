"""The matrix kernel of the variational solver against the scalar code it
replaced: value_function against a candidate-by-candidate loop, and the
lockstep bisection of r_curve against one scalar bisection per sample.  Both
must agree bit for bit, since the kernel keeps the loop's operand order."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mesh, random_convex_flux, random_problem, random_step, refused
from shocklab import errors
from shocklab.characteristics import r_curve
from shocklab.flux import make_flux
from shocklab.laxoleinik import CharData, value_function
from shocklab.legendre import legendre_dual
from shocklab.scenario import random_steps
from shocklab.step import step


# -- the scalar oracle ----------------------------------------------------------

class ScalarPrimitive:
    """v0(y) = int_0^y u0, one point at a time."""

    def __init__(self, u0):
        self.u0 = u0
        acc = [0.0]
        for i in range(len(u0.positions) - 1):
            acc.append(acc[-1] + u0.values[i + 1] * (u0.positions[i + 1] - u0.positions[i]))
        self._acc = tuple(acc)
        self._offset = 0.0
        self._offset = self(0.0)

    def __call__(self, y):
        u0 = self.u0
        if not u0.positions:
            return u0.values[0] * y - self._offset
        if y <= u0.positions[0]:
            return u0.values[0] * (y - u0.positions[0]) - self._offset
        i = bisect_right(u0.positions, y) - 1
        return self._acc[i] + u0.values[i + 1] * (y - u0.positions[i]) - self._offset


def scalar_value_function(fl, u0, x, t):
    dual = legendre_dual(fl)
    v0 = ScalarPrimitive(u0)
    y_lo = x - t * dual.hi
    y_hi = x - t * dual.lo
    ys = [y_lo, y_hi]
    ys += [y for y in u0.positions if y_lo < y < y_hi]
    ys += [x - t * p for p in dual.breakpoints[1:-1]]
    cands = sorted(set(ys))
    best = None
    vals = []
    for y in cands:
        p = min(max((x - y) / t, dual.lo), dual.hi)
        phi = v0(y) + t * dual(p)
        vals.append(phi)
        if best is None or phi < best:
            best = phi
    eps = 1e-9 * (1.0 + abs(best))
    arg = tuple(y for y, phi in zip(cands, vals) if phi <= best + eps)
    return CharData(x, t, best, arg[0], arg[-1], arg)


def scalar_r_curve(fl, u0, alpha, side, t_grid):
    """One bisection per sample, each predicate one scalar value function."""
    p0 = legendre_dual(fl).slope_bound
    out = []
    for t in t_grid:
        lo = alpha - p0 * t - 1.0
        hi = alpha + p0 * t + 1.0
        tol_a = 1e-12 * (1.0 + abs(alpha))
        if side == "plus":
            def pred(x):
                return scalar_value_function(fl, u0, x, t).y_plus <= alpha + tol_a
        else:
            def pred(x):
                return not (scalar_value_function(fl, u0, x, t).y_minus >= alpha - tol_a)
        if not pred(lo) or pred(hi):
            raise errors.ValidationError("t", f"bracket [{lo}, {hi}] does not straddle the curve")
        eps_x = 1e-10 * (1.0 + abs(alpha) + p0 * t)
        while hi - lo > eps_x:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return tuple(out)


# -- problems ---------------------------------------------------------------------

def bits(xs):
    """Exact float identity, including the sign of zero."""
    return tuple(float(x).hex() for x in xs)


def convex_problem(seed):
    """Burgers or a random convex flux (an affine one among them), with
    step data inside its range."""
    if seed % 2:
        return random_problem(seed, True)
    rng = np.random.default_rng(seed)
    fl = random_convex_flux(rng, max_nodes=10)
    margin = (fl.hi - fl.lo) / 8
    return fl, random_step(rng, int(rng.integers(1, 8)), fl.lo + margin, fl.hi - margin)


# one shock on Burgers: every anchor near 0 is absorbed at once, so the R
# curves run along the tie zone of the shock
SHOCK = step([1.0, 0.0], [0.0])

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
times = st.lists(st.floats(0.05, 6.0, allow_subnormal=False), min_size=1, max_size=3)


@st.composite
def anchor(draw, u0):
    """An anchor in the data, on a jump, or just beside one."""
    jumps = list(u0.positions) or [0.0]
    near = st.sampled_from(jumps).flatmap(
        lambda y: st.sampled_from([y, y - 1e-9, y + 1e-9, y - 0.01, y + 0.01]))
    return draw(st.one_of(near, st.floats(jumps[0] - 1.0, jumps[-1] + 1.0)))


@st.composite
def query(draw, fl, u0, t):
    """x anywhere, on a jump, or where a dual breakpoint's ray from a jump
    lands (two candidates then coincide)."""
    dual = legendre_dual(fl)
    jumps = list(u0.positions) or [0.0]
    ray = st.tuples(st.sampled_from(jumps), st.sampled_from(dual.breakpoints)).map(
        lambda yp: yp[0] + t * yp[1])
    return draw(st.one_of(st.floats(-4.0, 4.0), st.sampled_from(jumps), ray))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.data())
def test_value_function_equals_scalar_loop(seed, data):
    fl, u0 = convex_problem(seed)
    t = data.draw(st.floats(0.01, 6.0, allow_subnormal=False), "t")
    x = data.draw(query(fl, u0, t), "x")
    got, want = value_function(fl, u0, x, t), scalar_value_function(fl, u0, x, t)
    assert got == want
    assert bits([got.value, *got.minimizers]) == bits([want.value, *want.minimizers])


@settings(SETTINGS, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["plus", "minus"]), st.data())
def test_r_curve_equals_scalar_bisection(seed, shock, side, data):
    fl, u0 = convex_problem(seed)
    if shock:
        fl, u0 = random_problem(seed, True)[0], SHOCK
    alpha = data.draw(anchor(u0), "alpha")
    ts = data.draw(times, "times")
    want = scalar_r_curve(fl, u0, alpha, side, ts)
    got = r_curve(fl, u0, alpha, side, ts).positions
    assert bits(got) == bits(want)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_absorbed_anchor_tie_zone(side):
    # random Burgers data whose shock has absorbed the anchor 0.625 by t = 4,
    # where R- exceeds R+ by the width of the tie zone (about 5e-8)
    fl = mesh("burgers", -3.0, 3.0, 0.05, corners=(0.0, 1.0))
    u0 = random_steps(8, -0.5, 1.5, 0, 0.0, 1.0)
    ts = [1.0, 4.0]
    got = r_curve(fl, u0, 0.625, side, ts).positions
    assert bits(got) == bits(scalar_r_curve(fl, u0, 0.625, side, ts))


def test_empty_time_grid():
    fl, u0 = random_problem(1, True)
    curve = r_curve(fl, u0, 0.0, "plus", [])
    assert curve.times == () and curve.positions == ()


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_times_rejected(bad):
    fl, u0 = random_problem(1, True)
    with refused("t"):
        r_curve(fl, u0, 0.0, "plus", [1.0, bad])
    with refused("t"):
        value_function(fl, u0, 0.0, bad)


def test_bad_anchor_position_and_side_rejected():
    fl, u0 = random_problem(1, True)
    with pytest.raises(errors.ValidationError, match="alpha"):
        r_curve(fl, u0, float("nan"), "plus", [1.0])
    with pytest.raises(errors.ValidationError, match="x"):
        value_function(fl, u0, float("inf"), 1.0)
    with pytest.raises(errors.ValidationError, match="side"):
        r_curve(fl, u0, 0.0, "left", [1.0])


@pytest.mark.parametrize("u0", [step([1.0, -1.0], [0.0]), step([0.0, 0.5], [-0.0])], ids=str)
@pytest.mark.parametrize("x", [-0.0, 0.0])
def test_signed_zero_candidates(u0, x):
    # slope 0 is an interior dual breakpoint, so x - t * 0 and the jump at
    # zero are equal candidates of either sign; the first listed is kept
    fl = make_flux([-2, -1, 0, 1], [1, 0, 0, 1])
    got, want = value_function(fl, u0, x, 1.0), scalar_value_function(fl, u0, x, 1.0)
    assert bits([got.value, *got.minimizers]) == bits([want.value, *want.minimizers])
