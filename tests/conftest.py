import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from shocklab.errors import ValidationError
from shocklab.flux import AnalyticFluxSpec, approximate_pw_affine, make_flux
from shocklab.step import step


def random_convex_flux(rng, max_nodes=30, lo=-3.0, hi=3.0, slope_span=4.0):
    """Convex piecewise-affine flux with strictly increasing slopes."""
    n = int(rng.integers(2, max_nodes))
    bp = np.sort(rng.uniform(lo, hi, n))
    while len(bp) < 2 or np.min(np.diff(bp)) < 1e-3:
        bp = np.sort(rng.uniform(lo, hi, n))
    slopes = np.sort(rng.uniform(-slope_span, slope_span, len(bp) - 1))
    while len(slopes) > 1 and np.min(np.diff(slopes)) < 1e-6:
        slopes = np.sort(rng.uniform(-slope_span, slope_span, len(bp) - 1))
    vals = np.concatenate([[rng.uniform(-1, 1)], np.cumsum(slopes * np.diff(bp))])
    vals[1:] += vals[0]
    return make_flux(bp, vals)


def random_flux(rng, max_nodes=14, lo=-3.0, hi=3.0):
    """Arbitrary-shape piecewise-affine flux."""
    n = int(rng.integers(3, max_nodes))
    bp = np.sort(rng.uniform(lo, hi, n))
    while np.min(np.diff(bp)) < 1e-3:
        bp = np.sort(rng.uniform(lo, hi, n))
    return make_flux(bp, rng.uniform(-2, 2, n))


def random_step(rng, k, lo, hi, a=-2.0, b=2.0):
    """Step function with k+1 values on jumps inside (a, b)."""
    pos = np.sort(rng.uniform(a, b, k))
    while k > 1 and np.min(np.diff(pos)) < 1e-6:
        pos = np.sort(rng.uniform(a, b, k))
    vals = rng.uniform(lo, hi, k + 1)
    return step([float(v) for v in vals], [float(x) for x in pos])


def random_problem(seed, convex):
    """Burgers or an arbitrary flux, and a step with 2 to 11 jumps in its range."""
    rng = np.random.default_rng(seed)
    fl = mesh("burgers", -3, 3, 0.25) if convex else random_flux(rng)
    # random_flux may place all its nodes within 0.02 of each other
    margin = min(0.01, (fl.hi - fl.lo) / 4)
    return fl, random_step(rng, int(rng.integers(2, 12)), fl.lo + margin, fl.hi - margin)


def ulps(v, k):
    """The float k steps above v (below it for k < 0)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def tv_exact(u):
    """Total variation of the step function u as an exact rational (floats
    are exact rationals)."""
    return sum((abs(Fraction(b) - Fraction(a)) for a, b in zip(u.values, u.values[1:])),
               Fraction(0))


def l1_distance(u, v, a, b):
    """Exact integral of |u - v| over [a, b] for step functions u, v."""
    xs = sorted({a, b, *(x for x in u.positions if a < x < b), *(x for x in v.positions if a < x < b)})
    out = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        mid = 0.5 * (x0 + x1)
        out += (x1 - x0) * abs(u(mid) - v(mid))
    return out


def everywhere_leq(u, v):
    """Pointwise u <= v on the merged partition; states compare exactly.

    Cells narrower than position roundoff are skipped: a front computed along
    two arithmetic paths may land a few ulps apart, opening a measure-zero
    sliver where the profiles disagree spuriously.
    """
    xs = sorted(set(u.positions) | set(v.positions))
    if not xs:
        return u.values[0] <= v.values[0]
    probes = [xs[0] - 1.0, xs[-1] + 1.0]
    probes += [
        0.5 * (a + b)
        for a, b in zip(xs, xs[1:])
        if b - a > 1e-11 * (1.0 + abs(a))
    ]
    return all(u(x) <= v(x) for x in probes)


def dual_bruteforce(fl, p):
    """Direct sup over the breakpoint lattice of the conjugate of fl at the
    slopes p (the sup of a pw-affine conjugand is attained at a breakpoint)."""
    q = np.asarray(fl.breakpoints)
    gq = np.asarray(fl.values)
    return np.max(np.multiply.outer(np.asarray(p), q) - gq, axis=-1)


def front_speed(fl, l, r):
    """Rankine-Hugoniot quotient (f(l) - f(r)) / (l - r), the oracle for the
    speeds solve_riemann reads off the hull."""
    return (fl(l) - fl(r)) / (l - r)


def lipschitz(fl, lo, hi):
    """Max |slope| over the segments of fl meeting [lo, hi]."""
    if lo > hi:
        lo, hi = hi, lo
    out = 0.0
    for i, s in enumerate(fl.slopes):
        if fl.breakpoints[i + 1] > lo and fl.breakpoints[i] < hi:
            out = max(out, abs(s))
    return out


@contextmanager
def refused(field):
    """Expect a ValidationError that names ``field``, the input to change."""
    with pytest.raises(ValidationError) as err:
        yield err
    assert err.value.field == field


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def mesh(kind, lo, hi, h, corners=(), **params):
    return approximate_pw_affine(
        AnalyticFluxSpec(kind, lo, hi, h, corners=tuple(corners),
                         params=tuple(sorted(params.items())))
    )
