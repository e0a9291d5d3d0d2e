"""Output checks applied to every report the benchmark receives.

Each check returns human-readable problems; an op with any problem counts as
failed.  The checks only use invariants that hold for every seed:

  round trip   the report parses with `from_csv` and renders back to the same bytes
  shape        one row per requested (n, k, t), in the CLI's order
  exact rows   exact cube and zonotope rows, and the formula side of cube-type
               simulations, equal the closed forms
  Euler        sum (-1)^k E f_k - (1 - (-1)^d) is within 5 summed stderrs of 0
  z-scores     simulate rows have |z| <= 5
  Poisson      values are non-decreasing in t, within 2 eps plus 5 summed
               stderrs (Monte Carlo terms at neighbouring sizes need not be
               monotone, so an exact-only tolerance would fail correct runs)
"""

from __future__ import annotations

import math

from polyproj import expected_f_cube_closed_form, expected_f_zonotope, from_csv, render

from ops import Op

EULER_SIGMAS = 5.0
Z_LIMIT = 5.0


def face_dims(op: Op) -> list[int]:
    """The k values the CLI reports for this op, in order."""
    if op.command == "simulate":
        return list(range(op.d))
    if op.k is not None:
        return [op.k]
    if op.command == "expected":
        top = min(op.n - 1, op.d) if op.model == "gaussian" else min(op.n, op.d)
        return list(range(top))
    return list(range(op.d))


def t_grid(op: Op) -> list[float]:
    grid, t = [], op.t_min
    while t <= op.t_max + 1e-9:
        grid.append(round(t, 12))
        t += 1.0
    return grid


def expected_keys(op: Op) -> list[tuple]:
    """(n, k, t) of every row the CLI emits for `op`, in emission order."""
    ks = face_dims(op)
    if op.command == "monotonicity":
        return [(n, k, None) for k in ks for n in range(op.n_min, op.n_max + 1)]
    if op.command == "poisson":
        return [(None, k, t) for k in ks for t in t_grid(op)]
    return [(op.n, k, None) for k in ks]


def _full_dimensional(op: Op, n: int) -> bool:
    # Euler's relation in the form used here needs a d-dimensional image
    if op.model == "gaussian":
        return n >= op.d + 1
    return n >= op.d


def _exact_values(op: Op, n: int, k: int) -> set[float]:
    """Closed forms of E f_k for cube-type ops; empty where the value is random."""
    if op.family != "cube" and op.model not in ("zonotope", "projected_cube"):
        return set()
    values = {expected_f_zonotope(n, op.d, k).value}
    if op.d <= n and k < op.d:
        values.add(float(expected_f_cube_closed_form(n, op.d, k)))
    return values


def check_report(op: Op, text: str) -> list[str]:
    """Every problem found in `text`, the CSV report of `op`."""
    try:
        rows = from_csv(text)
    except (ValueError, TypeError) as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if render(rows, "csv") != text:
        problems.append("report does not round-trip through from_csv")
    got = [(r.n if op.command != "poisson" else None, r.k, r.t) for r in rows]
    if got != expected_keys(op):
        problems.append(f"rows {got[:4]}... do not match the requested grid")
        return problems
    for r in rows:
        if r.command != op.command:
            problems.append(f"row command {r.command!r} != {op.command!r}")
        if r.value is None or r.stderr is None or not (math.isfinite(r.value) and math.isfinite(r.stderr)):
            problems.append(f"row k={r.k} n={r.n} t={r.t} has a missing or non-finite value")
            return problems
        if r.stderr < 0 or (r.method == "exact" and r.stderr != 0):
            problems.append(f"row k={r.k} n={r.n} has an inconsistent stderr {r.stderr}")
        if r.n is not None:
            exact = _exact_values(op, r.n, r.k)
            if exact and op.command != "simulate" and not (exact == {r.value} and r.stderr == 0):
                problems.append(f"row n={r.n} k={r.k}: {r.value} != closed forms {sorted(exact)}")
            if exact and r.formula_value is not None and exact != {r.formula_value}:
                problems.append(f"row n={r.n} k={r.k}: formula {r.formula_value} != closed forms {sorted(exact)}")
        if op.command == "simulate":
            if r.z_score is None or not abs(r.z_score) <= Z_LIMIT:
                problems.append(f"simulate row k={r.k}: |z| = {r.z_score} exceeds {Z_LIMIT}")
    problems += _euler_problems(op, rows)
    if op.command == "poisson":
        for k in face_dims(op):
            ordered = [r for r in rows if r.k == k]
            for a, b in zip(ordered, ordered[1:]):
                allowed = 2 * op.eps + EULER_SIGMAS * (a.stderr + b.stderr)
                if not b.value >= a.value - allowed:
                    problems.append(f"poisson k={k}: value drops by {a.value - b.value:.3g} > {allowed:.3g} "
                                    f"from t={a.t} to t={b.t}")
    return problems


def poisson_drops(op: Op, text: str) -> int:
    """Steps of t where a Poisson value drops by more than 2 eps: Monte Carlo noise, counted."""
    if op.command != "poisson":
        return 0
    rows = from_csv(text)
    return sum(1 for a, b in zip(rows, rows[1:]) if a.k == b.k and b.value < a.value - 2 * op.eps)


def closed_form_deviations(op: Op, text: str) -> int:
    """Simulate rows of a cube-type model whose sampled mean is not the closed form.

    Every such polytope has the same f-vector almost surely, so a mean off the
    closed form means some replication's f-vector was miscounted.  The rows
    still pass the z-score check that the simulate command promises, so this
    is reported as a count rather than as a failed op.
    """
    if op.command != "simulate":
        return 0
    return sum(1 for r in from_csv(text) if _exact_values(op, r.n, r.k) - {r.value})


def _euler_problems(op: Op, rows) -> list[str]:
    if op.command == "poisson" or face_dims(op) != list(range(op.d)):
        return []
    problems = []
    by_n: dict[int, list] = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r)
    for n, group in by_n.items():
        if not _full_dimensional(op, n):
            continue
        residual = sum((-1) ** r.k * r.value for r in group) - (1 - (-1) ** op.d)
        allowed = EULER_SIGMAS * sum(r.stderr for r in group) + 1e-9 * sum(abs(r.value) for r in group)
        if not abs(residual) <= allowed:
            problems.append(f"Euler residual {residual:.3g} at n={n} exceeds {allowed:.3g}")
    return problems
