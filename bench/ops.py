"""Seeded op lists for the three benchmark workloads.

An op is one `polyproj` CLI command.  The workload seed fixes the order of
the ops in each pass and the `--seed` each op hands to the program; the
shapes (models, sizes, sample counts) are fixed per workload, so every seed
asks for the same amount of work.  The program only ever sees the argv built
here.

Ops that must run back to back (a sweep that fills an angle cache file and
the Poisson op that reads it back) form one unit; a pass is the workload's
units in a seeded order.  Every unit of a run gets its own program seed, so
no two units share an angle key and no two Poisson ops share a memo key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("formula_mc", "sweep_reuse", "hull_sim")


@dataclass(frozen=True)
class Op:
    """One CLI command, described by its parameters rather than its argv."""

    command: str  # expected | simulate | monotonicity | poisson
    model: str | None = None
    family: str | None = None
    n: int | None = None
    d: int = 2
    k: int | None = None  # None means --all-k
    n_min: int | None = None
    n_max: int | None = None
    t_min: float = 1.0
    t_max: float = 30.0
    reps: int | None = None
    samples: int = 20_000
    seed: int = 0
    cache: bool = False  # reads and appends the unit's run-private --angle-cache file
    eps: float = 1e-8

    def argv(self, cache_path: str | None = None) -> list[str]:
        argv = [self.command]
        argv += ["--model", self.model] if self.model else ["--family", self.family]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        argv += ["--d", str(self.d)]
        if self.command != "simulate":
            argv += ["--all-k"] if self.k is None else ["--k", str(self.k)]
        if self.command == "monotonicity":
            argv += ["--n-min", str(self.n_min), "--n-max", str(self.n_max)]
        if self.command == "poisson":
            argv += ["--t-min", repr(self.t_min), "--t-max", repr(self.t_max),
                     "--eps", repr(self.eps)]
        if self.command == "simulate":
            argv += ["--reps", str(self.reps)]
        argv += ["--samples", str(self.samples), "--seed", str(self.seed), "--workers", "1"]
        if self.cache:
            if cache_path is None:
                raise ValueError("op reads an angle cache but no cache path was given")
            argv += ["--angle-cache", cache_path]
        return argv

    def label(self) -> str:
        target = self.model or self.family
        size = f"n={self.n}" if self.n is not None else f"n={self.n_min}..{self.n_max}"
        return f"{self.command} {target} {size} d={self.d}"


def _units(workload: str, tiny: bool) -> list[tuple[Op, ...]]:
    """The fixed shapes of one pass; `tiny` shrinks them for the self-test."""
    if workload == "formula_mc":
        samples = 600 if tiny else 10_000
        configs = [("gaussian", n) for n in (6, 7, 8)] + [("symmetric", n) for n in (5, 6, 7)]
        return [
            (Op("expected", model=m, n=n, d=d, samples=samples),)
            for m, n in configs
            for d in (3, 4)
        ]
    if workload == "sweep_reuse":
        samples, n_max, t_max = (500, 8, 4.0) if tiny else (20_000, 40, 30.0)
        units = []
        for target, poisson_model in (("crosspolytope", "symmetric"), ("gaussian", "gaussian")):
            sweep = Op("monotonicity", d=2, k=0, n_min=2, n_max=n_max, samples=samples, cache=True,
                       **({"family": target} if target == "crosspolytope" else {"model": target}))
            units.append((sweep, Op("poisson", model=poisson_model, d=2, k=0, t_max=t_max,
                                    samples=samples, cache=True)))
        units.append((Op("monotonicity", family="cube", d=3, n_min=1, n_max=6 if tiny else 12),))
        return units
    if workload == "hull_sim":
        # the formula side runs at 1000 samples so that it stays under a tenth of each op
        samples = 200 if tiny else 1000
        shapes = [("gaussian", 10, 3, 4000), ("symmetric", 8, 4, 1000),
                  ("projected_cube", 8, 3, 100), ("zonotope", 8, 3, 25)]
        return [
            (Op("simulate", model=m, n=n, d=d, reps=max(4, reps // 50) if tiny else reps,
                samples=samples),)
            for m, n, d, reps in shapes
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


# nominal seconds per pass at full size; a run makes seconds // nominal
# passes, so a given --seconds means a fixed amount of work on any machine.
# With --seconds 25 the ops of a run take 25-35 s on a 2-core x86 VM.
NOMINAL_PASS_S = {"formula_mc": 4.1, "sweep_reuse": 6.0, "hull_sim": 3.0}


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run makes; at least two, so that every percentile has company."""
    return max(2, int(seconds // NOMINAL_PASS_S[workload]))


@dataclass(frozen=True)
class Plan:
    passes: list[list[tuple[Op, ...]]]
    warmup: Op  # untimed first op: lazy imports and first-call costs land here


def shape(op: Op) -> Op:
    """The op without its program seed: the same shape recurs once per pass."""
    return replace(op, seed=0)


def generate(workload: str, seed: int, passes: int, tiny: bool = False) -> Plan:
    """`passes` passes of units; each unit carries fresh program seeds."""
    rng = random.Random(f"{workload}:{seed}")
    used: set[int] = set()

    def fresh_seed() -> int:
        while True:
            s = rng.randrange(1, 2**31)
            if s not in used:
                used.add(s)
                return s

    plan = []
    for _ in range(passes):
        units = _units(workload, tiny)
        rng.shuffle(units)
        seeded = []
        for unit in units:
            # a unit's ops share one seed: cache rows are keyed by (samples, seed)
            s = fresh_seed()
            seeded.append(tuple(replace(op, seed=s) for op in unit))
        plan.append(seeded)
    # the last unit of the fixed list is each workload's cheapest op
    return Plan(plan, replace(_units(workload, tiny)[-1][0], seed=fresh_seed()))
