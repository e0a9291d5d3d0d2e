"""More points, more faces: expected counts grow strictly with n.

For cubes the table is exact rational arithmetic.  Planar Gaussian tables
use quadrature external angles and exact internal ones, so they are exact up
to QUADRATURE_RTOL; in R^3 the internal angle beta(Q_0, Q_2) is sampled, and each
consecutive pair must be separated by three combined standard errors before
the step is called a strict increase.
"""

from polyproj import MCConfig, monotonicity_table

print("Projected cube, d=3, k=0 (exact)")
print(f"{'n':>3} {'E f_0':>8}  verdict")
for row in monotonicity_table("cube", 3, 0, 3, 12):
    verdict = "" if row.strict_increase is None else ("up" if row.strict_increase else "flat")
    print(f"{row.n:>3} {row.value:>8.0f}  {verdict}")

print()
print("Gaussian polytope, d=2, k=0 (quadrature, exact verdicts)")
print(f"{'n':>3} {'E f_0':>18}  verdict")
for row in monotonicity_table("gaussian", 2, 0, 3, 9):
    verdict = "" if row.strict_increase is None else ("up" if row.strict_increase else "not resolved")
    print(f"{row.n:>3} {row.value:>18.15f}  {verdict}")

print()
print("Gaussian polytope, d=3, k=0 (sampled internal angle, 3-sigma verdicts)")
cfg = MCConfig(samples=300_000, seed=0)
print(f"{'n':>3} {'E f_0':>10} {'se':>9}  verdict")
for row in monotonicity_table("gaussian", 3, 0, 4, 9, cfg):
    verdict = "" if row.strict_increase is None else ("up" if row.strict_increase else "not resolved")
    print(f"{row.n:>3} {row.value:>10.4f} {row.std_error:>9.4f}  {verdict}")

print()
print("The k = min(n, d) row is the image itself, flat at 1:")
rows = monotonicity_table("simplex", 2, 2, 2, 6)
print("  simplex d=2, k=2 over n=2..6:", [row.value for row in rows])
