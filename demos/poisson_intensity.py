"""Poissonized expectations: the point count itself becomes random.

With N ~ Poisson(t) points, E f_k(t) mixes the fixed-size expectations with
Poisson weights; the sum is truncated adaptively once the certified tail bound
drops below eps.  Scaling by the size-functional factor turns counts into
expected total k-volumes.
"""

from polyproj import poissonized_series, t_functional_expected

print("Zonotope model, d=2 (every term exact)")
print(f"{'t':>5} {'E f_0':>10} {'terms':>6} {'tail bound':>11}")
ts = (1, 2, 5, 10, 20, 40)
for t, res in zip(ts, poissonized_series(ts, 2, 0, model="zonotope", eps=1e-8)):
    print(f"{t:>5} {res.value:>10.4f} {res.terms:>6} {res.truncation_bound:>11.2e}")

print()
print("Gaussian model, d=2, k=1: counts and expected total edge length")
print("(every term exact: quadrature external angles, no sampling)")
print(f"{'t':>5} {'E f_1':>10} {'E length':>10}")
ts = (2, 5, 10, 20, 30)
for t, res in zip(ts, poissonized_series(ts, 2, 1, model="gaussian", eps=1e-8)):
    length = t_functional_expected(2, 1, 1.0, res.value, model="gaussian")
    print(f"{t:>5} {res.value:>10.4f} {length:>10.4f}")

print()
print("The b=0 functional is just counting:",
      t_functional_expected(2, 1, 0.0, 12.5), "== 12.5")
