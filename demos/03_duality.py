"""Convex conjugates of piecewise-affine fluxes.

Breakpoints and slopes swap roles; conjugating twice returns the original
function.  The quadratic is (approximately) self-dual.
"""

import numpy as np

from shocklab import AnalyticFluxSpec, approximate_pw_affine, bidual, legendre_dual, make_flux

v_flux = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])
d = legendre_dual(v_flux)
print("V-flux dual:")
print(f"  slopes {v_flux.slopes} -> dual breakpoints {d.breakpoints}")
print(f"  dual values {d.values}  (flat on [-1,1], then |p| - 1)")

back = bidual(v_flux)
print(f"  bidual breakpoints {back.breakpoints} values {back.values}")

h = 0.01
burgers = approximate_pw_affine(AnalyticFluxSpec("burgers", -2, 2, h))
db = legendre_dual(burgers)
ps = np.linspace(db.lo, db.hi, 9)
print(f"\nBurgers mesh (h={h}): dual vs p^2/2 (self-duality up to h^2/8):")
for p in ps:
    print(f"  p={p:+.2f}   f*(p)={db(p):+.6f}   p^2/2={0.5 * p * p:+.6f}")

# the sup of a piecewise-affine conjugand is attained at a breakpoint
q, gq = np.asarray(burgers.breakpoints), np.asarray(burgers.values)
brute = np.max(np.multiply.outer(ps, q) - gq, axis=-1)
print(f"\nmax |closed form - brute-force sup| over those p: "
      f"{max(abs(db(p) - b) for p, b in zip(ps, brute)):.2e}")
