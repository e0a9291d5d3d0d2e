"""Intrinsic volumes of the regular series, exact where possible.

V_k sums (external angle x k-volume) over the k-faces.  Cubes give binomial
coefficients exactly, and V_0 = 1 exactly for every family; the simplex and
crosspolytope ladders use quadrature external angles and grow strictly with n.
"""

from polyproj import Family, intrinsic_volume

print("Cube: V_k(P_n) = C(n, k), exact")
for n in (3, 6, 10):
    vals = [intrinsic_volume(Family.CUBE, n, k).exact_value for k in range(n + 1)]
    print(f"  n={n:>2}: {vals}")

print()
for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
    print(f"{family.value}: V_0, V_1 and V_2 over n (quadrature)")
    print(f"{'n':>3} {'V_0':>5} {'V_1':>9} {'V_2':>9}")
    for n in range(2, 8):
        v0, v1, v2 = (intrinsic_volume(family, n, k) for k in range(3))
        print(f"{n:>3} {str(v0.exact_value):>5} {v1.value:>9.4f} {v2.value:>9.4f}")
    print()

top = intrinsic_volume(Family.CROSSPOLYTOPE, 5, 5)
print("Top-dimensional volumes are exact, e.g. the 5-crosspolytope fills",
      f"{top.exact_value} = {top.value:.6f} of its own dimension.")
