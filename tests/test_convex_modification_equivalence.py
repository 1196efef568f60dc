"""The reduction behind the convex-convex emergence proof, checked end to end.

When the data lives in the two outer families (at or below alpha, at or above
beta) and the chord over [alpha, beta] clears the non-convex well, every
family-crossing jump resolves as a single front whose speed only involves
flux values outside (alpha, beta).  Evolution under the original flux must
therefore coincide with evolution under any convex modification: a convex
flux that agrees with f outside (alpha, beta).  The latter is independently
computable by the variational solver.

The lower convex envelope of f over its working interval serves as the
modification.  It is convex by construction, and for the double well
u^4/4 - u^2 with alpha = -2, beta = 2 it agrees with f outside (-2, 2): the
envelope only replaces f between the two minima +-sqrt(2), where the
bitangent y = -1 touches, and f is convex beyond them.  The test asserts both
premises on the stored lattice rather than relying on this argument.
"""

import math

import numpy as np

from conftest import l1_distance, mesh
from shocklab.flux import hull
from shocklab.laxoleinik import solve_pointwise
from shocklab.step import step
from shocklab.tracking import advance, init_state

SQ23 = math.sqrt(2.0 / 3.0)


def test_tracking_agrees_across_convex_modification():
    fl = mesh("double_well", -3.0, 3.0, 0.05, corners=(-2.0, -SQ23, 0.0, SQ23, 2.0))
    mod = hull(fl, fl.lo, fl.hi, "lower")
    assert mod.is_convex()
    outside = [x for x in fl.breakpoints if not -2.0 < x < 2.0]
    assert all(mod(x) == fl(x) for x in outside)
    rng = np.random.default_rng(42)
    for _ in range(12):
        lows = rng.uniform(-2.6, -2.0, 5)
        pos = sorted(rng.uniform(0.0, 1.0, 5))
        u0 = step([2.5] + [float(v) for v in lows] + [-2.2], [0.0] + pos)
        s1, s2 = init_state(fl, u0), init_state(mod, u0)
        for t in (0.5, 1.5, 4.0):
            p1, p2 = advance(s1, t), advance(s2, t)
            assert l1_distance(p1, p2, -8.0, 8.0) <= 1e-9
            grid = sorted(set(np.linspace(-8.0, 8.0, 101)) | set(p1.positions))
            err = sum(
                (b - a) * abs(p1(0.5 * (a + b)) - solve_pointwise(mod, u0, 0.5 * (a + b), t).value)
                for a, b in zip(grid, grid[1:])
            )
            assert err <= 1e-9
