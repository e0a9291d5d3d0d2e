"""Internal and external angles: exact branches, quadrature and Monte Carlo estimates.

Cube angles and codimension-one pairs are exact powers of 1/2, and a vertex
of the simplex or the crosspolytope has one over the vertex count.  Other
external angles come from one-dimensional quadrature; the classical
tetrahedron angles have closed forms worth comparing against it, and against
the normal-cone sampler that still checks it.  Internal angles of faces of
dimension 3 and up are closed forms at codimension 2 and 3 and the shifted
Steck integral past them, exact to float rounding; both are checked here
against the internal-cone sampler and Gram's relation.  Only the
triangle's vertex angle beta(Q_0, Q_2) is still sampled.
"""

import math

from polyproj import Family, MCConfig, cone_angle, external_angle, internal_angle, internal_cone, normal_cone

cfg = MCConfig(samples=300_000, seed=0)

print("Exact branches")
print("  cube externals gamma(Q_g, P_4):",
      [str(external_angle(Family.CUBE, 4, g).exact_value) for g in range(5)])
print("  facet external, any family:   ",
      external_angle(Family.SIMPLEX, 5, 4).exact_value)
print("  edge-in-triangle internal:    ",
      internal_angle(Family.SIMPLEX, 5, 1, 2).exact_value)

print()
print("Tetrahedron internal angles (closed forms) vs the internal-cone sampler")
for name, k in (("vertex internal beta(Q_0, Q_3)", 0), ("edge internal beta(Q_1, Q_3)", 1)):
    est = internal_angle(Family.SIMPLEX, 3, k, 3, cfg)
    sampled = cone_angle(internal_cone(Family.SIMPLEX, 3, k, 3), cfg)
    print(f"  {name}: {est.value:.15f} ({est.method})"
          f"  sampled {sampled.value:.6f} +- {sampled.std_error:.6f}")
triangle = internal_angle(Family.SIMPLEX, 3, 0, 2, cfg)
print(f"  triangle vertex beta(Q_0, Q_2), the one sampled angle: {triangle.value:.6f}"
      f" +- {triangle.std_error:.6f}  (exactly 1/6 = {1 / 6:.6f})")

print()
print("Gram's relation over the faces of the regular 5-simplex, sum_k (-1)^k C(6, k + 1) beta(Q_k, Q_5) = 0")
g = 5
terms = []
for k in range(g + 1):
    est = internal_angle(Family.SIMPLEX, g, k, g)
    source = "Steck integral" if g - k >= 4 else "closed form" if g - k >= 2 else "exact"
    terms.append((-1) ** k * math.comb(g + 1, k + 1) * est.value)
    print(f"  beta(Q_{k}, Q_{g}) = {est.value:.15f}  ({source})")
print(f"  alternating sum {math.fsum(terms):.1e}, of terms up to {max(map(abs, terms)):.1f}")

print()
print("Ridge external angles (quadrature) vs closed forms, with the sampler beside them")
ridges = [
    (Family.SIMPLEX, 3, (math.pi - math.acos(1 / 3)) / (2 * math.pi)),
    (Family.SIMPLEX, 40, (math.pi - math.acos(1 / 40)) / (2 * math.pi)),
    (Family.CROSSPOLYTOPE, 3, (math.pi - math.acos(-1 / 3)) / (2 * math.pi)),
    (Family.CROSSPOLYTOPE, 40, (math.pi - math.acos(-38 / 40)) / (2 * math.pi)),
]
for family, n, exact in ridges:
    est = external_angle(family, n, n - 2)
    sampled = cone_angle(normal_cone(family, n, n - 2), cfg)
    print(f"  {family.value:>14} gamma(Q_{n - 2}, P_{n}): {est.value:.15f}"
          f"  (relative error {abs(est.value - exact) / exact:.1e});"
          f" sampled {sampled.value:.6f} +- {sampled.std_error:.6f}")

print()
print("Vertex external angles sum to 1 over the whole polytope")
for family in Family:
    n = 5
    est = external_angle(family, n, 0)
    count = {"simplex": n + 1, "crosspolytope": 2 * n, "cube": 2**n}[family.value]
    print(f"  {family.value:>14}: {count} vertices x {est.exact_value} = {count * est.exact_value}")
