"""Expected face counts of random shadows of the three regular series.

Projecting the n-cube to R^d gives exact rational expectations.  Planar
shadows of the simplex and crosspolytope need only external angles, which
come from quadrature; in R^3 their one inexact input is the sampled
triangle angle beta(Q_0, Q_2), and from R^4 on the internal angles are
exact Steck integrals.  Every run is reproducible: the estimates depend only
on (samples, seed).
"""

from polyproj import Family, MCConfig, expected_f_projection

cfg = MCConfig(samples=200_000, seed=0)

print("Exact expected f-vectors of projected cubes")
print(f"{'n':>3} {'d':>3}  E f_0   E f_1   E f_2")
for n in (4, 6, 8, 10):
    cells = "  ".join(f"{expected_f_projection(Family.CUBE, n, 3, k).value:6.0f}" for k in range(3))
    print(f"{n:>3} {3:>3}  {cells}")

print()
print("Planar shadows: expected vertex count (quadrature, deterministic)")
print(f"{'n':>3} {'simplex':>12} {'crosspolytope':>14} {'cube':>8}")
for n in (3, 5, 7, 9):
    row = [f"{expected_f_projection(family, n, 2, 0).value:.6f}"
           for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE)]
    cube = expected_f_projection(Family.CUBE, n, 2, 0)
    print(f"{n:>3} {row[0]:>12} {row[1]:>14} {cube.value:>8.0f}")

print()
print("Shadows in R^3: expected vertex count (sampled beta(Q_0, Q_2),", cfg.samples, "samples)")
print(f"{'n':>3} {'simplex':>14} {'crosspolytope':>14}")
for n in (4, 6, 8):
    row = []
    for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
        est = expected_f_projection(family, n, 3, 0, cfg)
        row.append(f"{est.value:.3f}+-{est.std_error:.3f}")
    print(f"{n:>3} {row[0]:>14} {row[1]:>14}")

print()
print("A polygon has as many edges as vertices, and the two sums agree exactly:")
v = expected_f_projection(Family.SIMPLEX, 7, 2, 0, cfg)
e = expected_f_projection(Family.SIMPLEX, 7, 2, 1, cfg)
print(f"  simplex n=7, d=2: E f_0 = {v.value!r}, E f_1 = {e.value!r}")
