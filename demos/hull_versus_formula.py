"""Sampled convex hulls against the projection formula, model by model.

Each replication builds an actual polytope and counts faces exactly.  A point
cloud's facets are read off one table of d x d minors of its points, the
minors near zero decided again exactly, with qhull for shapes too large for
the table; a zonotope is flat only when a d x d minor of its generators is
exactly zero, decided on the same minors, and otherwise has the one f-vector
of a generic hyperplane arrangement, the cube closed form.  The formula side computes the
same expectations from face counts and cone angles, of the projected polytope
each model reduces to.
"""

import math

from polyproj import MCConfig, SimConfig, expected_f_model, simulate_expected_f

cfg = MCConfig(samples=200_000, seed=0)

runs = [
    ("gaussian", 6, 3, 4000),
    ("symmetric", 5, 3, 4000),
    ("zonotope", 5, 3, 400),
    ("projected_simplex", 6, 3, 4000),
]

for model, n, d, reps in runs:
    result = simulate_expected_f(SimConfig(model=model, n=n, d=d, replications=reps, seed=0))
    print(f"{model} n={n} d={d} ({reps} replications)")
    for k in range(d):
        sim = result.means[k]
        formula = expected_f_model(model, n, d, k, cfg)
        denom = math.hypot(sim.std_error, formula.std_error)
        z = (sim.value - formula.value) / denom if denom else 0.0
        print(f"  E f_{k}: simulated {sim.value:8.4f} +- {sim.std_error:.4f}"
              f"   formula {formula.value:8.4f} ({formula.method})  z = {z:+.2f}")
    print()

print("Zonotope counts are deterministic: every draw hits the closed form exactly,")
print("so the simulated standard errors above are zero.")
