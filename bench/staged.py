"""The traced run: each op replayed stage by stage through public functions.

The untraced run measures what a user sees; this run explains it.  For every
op of one pass it calls the layers' public functions in stages, with a span
around each call:

  cli       build_parser().parse_args(argv)
  angles    every angle the formula needs, requested cold (internal_angle,
            external_angle), each call classified as exact, memo hit, cache
            hit or sampled
  expected  the formula, Poisson sum or monotonicity table with angles warm
  hull      for simulate: one span per stream derivation, cloud draw and
            f-vector, replicating the replication loop of simulate_expected_f
  report    render()

The staged route must rebuild each report byte for byte: run.py compares it
with the CLI's report for the same argv, produced in a separate process so
that neither route warms the other's memos.

Spans marked `probe` repeat work only to measure it (a cone built once more
to time its construction, qhull run once more on the same cloud, stream
derivations replayed); they count as tracing overhead, never as layer time.
When a workload does not exercise a layer at all, the layer's unit costs come
from a small reference probe, listed in `REFERENCE_PROBES`, so that every
per-layer metric is measured on every workload; count metrics stay those of
the workload.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from polyproj import (
    Cone,
    DegenerateGeometryError,
    Family,
    MCConfig,
    ReportRow,
    SimConfig,
    clear_angle_memo,
    cone_angle,
    expected_f_model,
    expected_f_projection,
    expected_f_zonotope,
    external_angle,
    hull_f_vector,
    internal_angle,
    internal_cone,
    monotonicity_table,
    normal_cone,
    poissonized_expected,
    random_orthonormal_frame,
    render,
    sample_gaussian,
    simulate_expected_f,
    symmetrize,
    vertices,
    zonotope_f_vector,
)
from polyproj.cli import build_parser
from polyproj.solvers import robust_nnls
from polyproj.streams import (
    ANGLE_SAMPLES,
    KIND_INTERNAL,
    MODEL_CODES,
    SIM_REPLICATION,
    derive_generator,
)

from checks import face_dims, t_grid
from ops import Op

CHUNK = MCConfig().chunk_size
MAX_ATTEMPTS = 5  # attempts per replication before simulate_expected_f gives up

REFERENCE_PROBES = {
    "internal angle": "beta(Q_0, Q_2) at 2048 samples",
    "nnls": "the internal cone of (Q_0, Q_2)",
    "hull": "30 clouds per (model, n, d) the workload computes formulas for",
    "zonotope": "3 zonotopes of 6 Gaussian generators in R^3",
    "cache load": "a cache file of gamma(Q_1, P_n), n = 3..40, at 256 samples",
    "poisson": "gaussian d=2 k=0 over t = 1..5 at 512 samples, angles cold",
    "monotonicity": "cube d=3 k=0 over n = 1..12",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest through a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, 0.0, 0.0, parent, self.op, probe or (parent is not None and self.spans[parent].probe))
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def named(self, name: str, probe: bool | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (probe is None or s.probe == probe)]


def _target(model: str | None, family: str | None, n: int) -> tuple[Family, int] | None:
    """The projected polytope whose angles the formula for (model or family, n) uses."""
    if family is not None:
        return Family(family), n
    if model in ("gaussian", "projected_simplex"):
        return (Family.SIMPLEX, n - 1) if n >= 2 else None
    if model in ("symmetric", "projected_crosspolytope"):
        return Family.CROSSPOLYTOPE, n
    if model == "projected_cube":
        return Family.CUBE, n
    return None  # zonotope: closed form, no angles


def _hull_shape(op: Op) -> tuple[str, int, int] | None:
    """The random polytope model whose expectation `op` computes, at its largest size."""
    if op.command == "poisson":
        return None
    model = op.model or {"simplex": "projected_simplex", "crosspolytope": "symmetric",
                         "cube": "projected_cube"}[op.family]
    return model, op.n or op.n_max, op.d


def needed_angles(family: Family, n: int, d: int, k: int) -> list[tuple]:
    """Angle requests of the projection sum for E f_k, in the order sn_terms makes them."""
    if k >= min(n, d) or d > n or d == 1:
        return []
    out = []
    for j in range(d, 0, -2):
        out += [("int", family, n, k, j - 1), ("ext", family, n, None, j - 1)]
    return out


def _sample_cloud(model: str, n: int, d: int, rng) -> np.ndarray:
    if model == "gaussian":
        return sample_gaussian(n, d, rng)
    if model == "symmetric":
        return symmetrize(sample_gaussian(n, d, rng))
    family, m = {"projected_simplex": (Family.SIMPLEX, n - 1),
                 "projected_crosspolytope": (Family.CROSSPOLYTOPE, n),
                 "projected_cube": (Family.CUBE, n)}[model]
    verts = vertices(family, m)
    return verts @ random_orthonormal_frame(verts.shape[1], d, rng)


def _estimate(model: str | None, family: str | None, n: int, d: int, k: int, cfg: MCConfig):
    """E f_k the way the CLI computes it for a model or a family."""
    if model is None:
        return expected_f_projection(Family(family), n, d, k, cfg)
    if model.startswith("projected_"):
        fam, m = _target(model, None, n)
        return expected_f_projection(fam, m, d, k, cfg)
    return expected_f_model(model, n, d, k, cfg)


@dataclass
class Counts:
    angles: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("sampled", "exact", "memo_hits", "cache_hits", "samples_drawn"), 0))
    derivations: int = 0
    cache_bytes: int = 0
    cache_load_s: list[float] = field(default_factory=list)
    per_sample: dict[str, list[tuple[float, int]]] = field(default_factory=lambda: {"int": [], "ext": []})
    sampled_cones: list[tuple] = field(default_factory=list)
    poisson_terms: int = 0
    poisson_distinct: int = 0
    hulls: int = 0
    merged: int = 0
    lattice_errors: int = 0
    replications: int = 0
    degenerate: int = 0
    rows: int = 0
    problems: list[str] = field(default_factory=list)


class StagedRunner:
    """Replays ops through public functions, stage by stage, under a Tracer."""

    def __init__(self, workdir: str):
        self.tracer = Tracer()
        self.counts = Counts()
        self.workdir = workdir
        self._file_keys: dict[str, set] = {}

    # -- angles -----------------------------------------------------------

    def _cone(self, kind: str, family: Family, n: int, k: int | None, g: int) -> Cone:
        if kind == "ext":
            return normal_cone(family, n, g)
        # internal angles are sampled on the shared canonical simplex face
        base = internal_cone(Family.SIMPLEX, g, k, g)
        return Cone(base.frame, base.data, seed_path=(KIND_INTERNAL, 0, k, g))

    def request_angles(self, requests, cfg: MCConfig, seen: set) -> None:
        c = self.counts
        path = cfg.cache_path
        span = self.tracer.span
        for kind, family, n, k, g in requests:
            if kind == "int":
                key = ("int", k, g, cfg.samples, cfg.seed)
            else:
                key = ("ext", family, n, g, cfg.samples, cfg.seed)
            size = os.path.getsize(path) if path and os.path.exists(path) else 0
            first = path is not None and not seen
            with span("angles.internal" if kind == "int" else "angles.external") as rec:
                if kind == "int":
                    est = internal_angle(family, n, k, g, cfg)
                else:
                    est = external_angle(family, n, g, cfg)
            grown = (os.path.getsize(path) if path and os.path.exists(path) else 0) - size
            c.cache_bytes += grown
            if est.method == "exact":
                c.angles["exact"] += 1
                continue
            if key in seen:
                source = "memo_hits"
            elif path and key in self._file_keys.setdefault(path, set()):
                source = "cache_hits"
                if first:
                    c.cache_load_s.append(rec.duration)
            else:
                source = "sampled"
            seen.add(key)
            c.angles[source] += 1
            if (grown > 0) != (source == "sampled" and path is not None):
                c.problems.append(f"angle {key[:-2]} classified {source} but the cache file grew by {grown} bytes")
            if source != "sampled":
                continue
            c.angles["samples_drawn"] += est.samples
            if path:
                self._file_keys[path].add(key)
            with span("angles.cone_build", probe=True) as build:
                cone = self._cone(kind, family, n, k, g)
            c.per_sample[kind].append((rec.duration - build.duration, est.samples))
            c.sampled_cones.append((kind, family, n, k, g))
            chunks = math.ceil(est.samples / CHUNK)
            c.derivations += chunks
            for idx in range(chunks):
                with span("streams.derive", probe=True):
                    derive_generator(cfg.seed, ANGLE_SAMPLES, *cone.seed_path, idx)

    def _formula_requests(self, model, family, n, d, ks) -> list[tuple]:
        target = _target(model, family, n)
        if target is None:
            return []
        return [r for k in ks for r in needed_angles(target[0], target[1], d, k)]

    # -- ops --------------------------------------------------------------

    def run_op(self, index: int, op: Op, cache_path: str | None, poisson_terms: list[int] | None) -> str:
        """Rebuild the CLI report of `op` stage by stage; returns the CSV text."""
        clear_angle_memo()
        self.tracer.op = index
        span = self.tracer.span
        cfg = MCConfig(samples=op.samples, seed=op.seed, workers=1, cache_path=cache_path)
        seen: set = set()
        with span("op"):
            with span("cli.parse"):
                build_parser().parse_args(op.argv(cache_path))
            ks = face_dims(op)
            if op.command == "expected":
                self.request_angles(self._formula_requests(op.model, op.family, op.n, op.d, ks), cfg, seen)
                rows = []
                for k in ks:
                    with span("expected.formula"):
                        est = _estimate(op.model, op.family, op.n, op.d, k, cfg)
                    rows.append(ReportRow(
                        command="expected", model=op.model or "", family=op.family or "",
                        n=op.n, d=op.d, k=k, value=float(est.value), stderr=float(est.std_error),
                        method=est.method))
            elif op.command == "monotonicity":
                rows = self._monotonicity(op, ks, cfg, seen)
            elif op.command == "poisson":
                rows = self._poisson(op, ks, cfg, seen, poisson_terms)
            else:
                rows = self._simulate(op, cfg, seen)
            self.counts.rows += len(rows)
            with span("report.render"):
                return render(rows, "csv")

    def _monotonicity(self, op: Op, ks, cfg, seen) -> list[ReportRow]:
        requests = [r for n in range(op.n_min, op.n_max + 1)
                    for r in self._formula_requests(op.model, op.family, n, op.d, ks)]
        self.request_angles(requests, cfg, seen)
        rows = []
        for k in ks:
            with self.tracer.span("expected.monotonicity"):
                table = monotonicity_table(op.model or op.family, op.d, k, op.n_min, op.n_max, cfg)
            rows += [ReportRow(
                command="monotonicity", model=op.model or "", family=op.family or "",
                n=r.n, d=op.d, k=k, value=r.value, stderr=r.std_error,
                method="exact" if r.exact else "monte_carlo", strict_increase=r.strict_increase,
            ) for r in table]
        return rows

    def _poisson(self, op: Op, ks, cfg, seen, terms_by_t: list[int] | None) -> list[ReportRow]:
        # the sizes the Poisson sums reach come from the CLI run of the same
        # op; without them the angles are requested inside the sums
        grid = t_grid(op)
        if terms_by_t:
            self.request_angles(self._poisson_requests(op, ks, max(terms_by_t)), cfg, seen)
        rows, terms = [], []
        for k in ks:
            for t in grid:
                with self.tracer.span("expected.poisson"):
                    est = poissonized_expected(t, op.d, k, model=op.model, eps=op.eps, cfg=cfg)
                terms.append(est.terms)
                rows.append(ReportRow(
                    command="poisson", model=op.model, d=op.d, k=k, t=float(t), value=est.value,
                    stderr=est.std_error, method="exact" if est.std_error == 0 else "monte_carlo"))
        if terms_by_t and terms != terms_by_t:
            self.counts.problems.append(f"{op.label()}: Poisson term counts differ from the CLI run")
        self.counts.poisson_terms += sum(terms)
        # sizes 0..terms-1 are summed at every t, so the distinct sizes are the longest sum
        self.counts.poisson_distinct += max(terms) * len(ks)
        return rows

    def _poisson_requests(self, op: Op, ks, sizes: int) -> list[tuple]:
        return [r for ell in range(sizes) for r in self._formula_requests(op.model, None, ell, op.d, ks)]

    def _simulate(self, op: Op, cfg, seen) -> list[ReportRow]:
        span = self.tracer.span
        c = self.counts
        n, d, reps = op.n, op.d, op.reps
        counts = np.zeros((reps, d), dtype=np.int64)
        # the loop itself is the replication driver of the hull layer
        with span("hull.simulate"):
            for i in range(reps):
                for attempt in range(MAX_ATTEMPTS):
                    c.derivations += 1
                    with span("streams.derive"):
                        rng = derive_generator(op.seed, SIM_REPLICATION, MODEL_CODES[op.model], n, d, i, attempt)
                    try:
                        if op.model == "zonotope":
                            with span("hull.sample"):
                                gens = rng.standard_normal((n, d))
                            with span("hull.zonotope"):
                                fv = zonotope_f_vector(gens)
                        else:
                            with span("hull.sample"):
                                cloud = _sample_cloud(op.model, n, d, rng)
                            with span("hull.f_vector"):
                                fv = hull_f_vector(cloud)
                            if not fv.degenerate:
                                self._qhull_probe(cloud, fv.counts[d - 1])
                    except DegenerateGeometryError:
                        c.degenerate += 1
                        continue
                    if fv.degenerate:
                        c.degenerate += 1
                        continue
                    counts[i] = fv.counts
                    break
                else:
                    c.problems.append(f"{op.label()}: replication {i} stayed degenerate")
        c.replications += reps
        if op.model in ("zonotope", "projected_cube"):
            # these f-vectors are constant almost surely: any other count is a miscount
            closed = [expected_f_zonotope(n, d, k).value for k in range(d)]
            c.lattice_errors += int(np.count_nonzero((counts != np.array(closed)).any(axis=1)))
        ks = list(range(d))
        self.request_angles(self._formula_requests(op.model, None, n, d, ks), cfg, seen)
        rows = []
        for k in ks:
            col = counts[:, k].astype(float)
            mean = float(col.mean())
            se = float(col.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            with span("expected.formula"):
                formula = _estimate(op.model, None, n, d, k, cfg)
            diff = mean - formula.value
            denom = (se**2 + formula.std_error**2) ** 0.5
            z = diff / denom if denom > 0 else (0.0 if diff == 0 else float("inf"))
            rows.append(ReportRow(
                command="simulate", model=op.model, n=n, d=d, k=k, value=mean, stderr=se,
                method="monte_carlo", formula_value=float(formula.value), z_score=z))
        return rows

    def _qhull_probe(self, cloud: np.ndarray, facets: int) -> None:
        with self.tracer.span("hull.qhull", probe=True):
            simplices = len(ConvexHull(cloud).simplices)
        self.counts.hulls += 1
        self.counts.merged += facets < simplices

    # -- probes -----------------------------------------------------------

    def probes(self, ops: list[Op], seed: int) -> dict[str, str]:
        """Unit-cost probes on the workload's own shapes; returns metric -> probe used."""
        self.tracer.op = None
        rng = np.random.default_rng(seed)
        span = self.tracer.span
        c = self.counts
        notes: dict[str, str] = {}

        # robust_nnls on the workload's own systems: internal-cone membership and,
        # for zonotopes, the origin-in-hull test of the chamber recursion
        systems = []
        for k, g in sorted({(s[3], s[4]) for s in c.sampled_cones if s[0] == "int"}):
            cone = self._cone("int", Family.SIMPLEX, g, k, g)
            systems.append((cone.data.generators.T, cone.frame))
        systems += sorted({(op.n, op.d) for op in ops if op.model == "zonotope"})
        if not systems:
            cone = self._cone("int", Family.SIMPLEX, 2, 0, 2)
            systems.append((cone.data.generators.T, cone.frame))
            notes["solvers.nnls_us"] = REFERENCE_PROBES["nnls"]
        for system in systems:
            for _ in range(200):
                if isinstance(system[0], int):
                    # origin in conv(rows): [rows^T; 1] lam = e_last, unit rows
                    n, d = system
                    rows = rng.standard_normal((n, d))
                    rows /= np.linalg.norm(rows, axis=1)[:, None]
                    a = np.vstack([rows.T, np.ones((1, n))])
                    b = np.eye(d + 1)[-1]
                else:
                    a, frame = system
                    b = rng.standard_normal(frame.shape[0]) @ frame
                with span("solvers.nnls", probe=True):
                    robust_nnls(a, b)

        if not c.per_sample["int"]:
            notes["angles.internal.us_per_sample"] = REFERENCE_PROBES["internal angle"]
            cone = self._cone("int", Family.SIMPLEX, 2, 0, 2)
            with span("angles.internal", probe=True) as rec:
                cone_angle(cone, MCConfig(samples=2048, seed=seed))
            c.per_sample["int"].append((rec.duration, 2048))

        if not self.tracer.named("hull.f_vector") and not self.tracer.named("hull.zonotope"):
            notes["hull.*"] = REFERENCE_PROBES["hull"]
            for model, n, d in sorted({s for s in map(_hull_shape, ops) if s}):
                for _ in range(30):
                    with span("hull.sample", probe=True):
                        cloud = _sample_cloud(model, n, d, rng)
                    with span("hull.f_vector", probe=True):
                        fv = hull_f_vector(cloud)
                    self._qhull_probe(cloud, fv.counts[d - 1])
        if not self.tracer.named("hull.zonotope"):
            notes["hull.zonotope_ms"] = REFERENCE_PROBES["zonotope"]
            for _ in range(3):
                gens = rng.standard_normal((6, 3))
                with span("hull.zonotope", probe=True):
                    zonotope_f_vector(gens)

        if not c.cache_load_s:
            notes["angles.cache_load_ms"] = REFERENCE_PROBES["cache load"]
            path = os.path.join(self.workdir, "reference-cache.txt")
            cfg = MCConfig(samples=256, seed=seed, cache_path=path)
            for n in range(3, 41):
                external_angle(Family.SIMPLEX, n, 1, cfg)
            clear_angle_memo()
            with span("angles.cache_load", probe=True) as rec:
                external_angle(Family.SIMPLEX, 40, 1, cfg)
            c.cache_load_s.append(rec.duration)
            clear_angle_memo()

        if not self.tracer.named("expected.poisson"):
            notes["expected.poisson.self_s"] = REFERENCE_PROBES["poisson"]
            cfg = MCConfig(samples=512, seed=seed)
            clear_angle_memo()
            for t in (1.0, 2.0, 3.0, 4.0, 5.0):
                with span("expected.poisson", probe=True):
                    poissonized_expected(t, 2, 0, model="gaussian", cfg=cfg)
            clear_angle_memo()

        if not self.tracer.named("expected.monotonicity"):
            notes["expected.monotonicity.self_s"] = REFERENCE_PROBES["monotonicity"]
            with span("expected.monotonicity", probe=True):
                monotonicity_table("cube", 3, 0, 1, 12)
        return notes

    def workers2(self, ops: list[Op], seed: int) -> dict[str, tuple[float, str]]:
        """The same angle and the same simulation at workers=1 and workers=2."""
        out = {}
        self.tracer.op = None
        # the largest sampled cone of the dominant kind, internal first
        cones = set(self.counts.sampled_cones)
        kinds = [s for s in cones if s[0] == "int"] or list(cones)
        if kinds:
            kind, family, n, k, g = max(kinds, key=lambda s: (s[4], s[2], -(s[3] or 0)))
        else:
            kind, family, n, k, g = "int", Family.SIMPLEX, 2, 0, 2
        cone = self._cone(kind, family, n, k, g)
        samples = 2 * CHUNK  # two chunks, so that two workers can split them
        times = []
        for w in (1, 2):
            with self.tracer.span(f"angles.workers{w}", probe=True) as rec:
                cone_angle(cone, MCConfig(samples=samples, seed=seed, workers=w))
            times.append(rec.duration)
        if kind == "int":
            name = f"internal angle beta(Q_{k}, Q_{g}) of the shared simplex face"
        else:
            name = f"external angle gamma(Q_{g}, P_{n}) of the {family.value}"
        out["angles.workers2_speedup"] = (times[0] / times[1], f"{name} at {samples} samples")

        shapes = [s for s in map(_hull_shape, ops) if s and s[0] in ("gaussian", "symmetric")]
        model, n, d = max(shapes, key=lambda s: (s[2], s[1], s[0])) if shapes else ("gaussian", 10, 3)
        times = []
        for w in (1, 2):
            with self.tracer.span(f"hull.workers{w}", probe=True) as rec:
                simulate_expected_f(SimConfig(model=model, n=n, d=d, replications=1024, seed=seed, workers=w))
            times.append(rec.duration)
        out["hull.workers2_speedup"] = (times[0] / times[1], f"simulate {model} n={n} d={d} at 1024 replications")
        return out


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(runner: StagedRunner, overhead_s: float, speedups: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from the spans and counts.

    `overhead_s` is the traced pass's op time minus the untraced pass's, both
    in reference seconds (see calibrate.py).
    """
    t = runner.tracer
    c = runner.counts
    own = t.self_times()

    def self_s(prefix: str) -> float:
        return sum(own[i] for i, s in enumerate(t.spans) if not s.probe and s.name.startswith(prefix))

    def mean_us(name: str) -> float:
        return 1e6 * _mean([s.duration for s in t.named(name)])

    def per_sample(kind: str) -> float:
        pairs = c.per_sample[kind]
        return 1e6 * sum(p[0] for p in pairs) / sum(p[1] for p in pairs) if pairs else 0.0

    # what an op spends outside every layer: argument parsing and the glue
    # that turns estimates into report rows
    cli = sum(own[i] for i, s in enumerate(t.spans) if s.name in ("op", "cli.parse"))
    distinct = c.poisson_distinct
    f_vector = t.named("hull.f_vector")
    qhull = t.named("hull.qhull")
    m = {
        "streams.derive_us": (mean_us("streams.derive"), "us"),
        "streams.derivations": (c.derivations, "count"),
        "solvers.nnls_us": (mean_us("solvers.nnls"), "us"),
        "angles.internal.us_per_sample": (per_sample("int"), "us"),
        "angles.external.us_per_sample": (per_sample("ext"), "us"),
        "angles.cone_build_ms": (1e3 * _mean([s.duration for s in t.named("angles.cone_build")]), "ms"),
        "angles.cache_load_ms": (1e3 * _mean(c.cache_load_s), "ms"),
        "angles.cache_bytes_written": (c.cache_bytes, "bytes"),
        **{f"angles.{k}": (v, "count") for k, v in c.angles.items()},
        "angles.self_s": (self_s("angles."), "s"),
        "angles.workers2_speedup": (speedups["angles.workers2_speedup"][0], "x"),
        "expected.self_s": (self_s("expected."), "s"),
        "expected.poisson.terms": (c.poisson_terms, "count"),
        "expected.poisson.distinct_terms": (distinct, "count"),
        "expected.poisson.reuse_ratio": (c.poisson_terms / distinct if distinct else 0.0, "1"),
        "expected.poisson.self_s": (_layer_or_probe(t, own, "expected.poisson"), "s"),
        "expected.monotonicity.self_s": (_layer_or_probe(t, own, "expected.monotonicity"), "s"),
        "hull.sample_us": (mean_us("hull.sample"), "us"),
        "hull.qhull_us": (mean_us("hull.qhull"), "us"),
        "hull.lattice_us": (1e6 * (_mean([s.duration for s in f_vector]) - _mean([s.duration for s in qhull])), "us"),
        "hull.merged_ratio": (c.merged / c.hulls if c.hulls else 0.0, "1"),
        "hull.lattice_errors": (c.lattice_errors, "count"),
        "hull.zonotope_ms": (1e3 * _mean([s.duration for s in t.named("hull.zonotope")]), "ms"),
        "hull.degenerate_ratio": (c.degenerate / c.replications if c.replications else 0.0, "1"),
        "hull.workers2_speedup": (speedups["hull.workers2_speedup"][0], "x"),
        "report.render_us_per_row": (1e6 * sum(s.duration for s in t.named("report.render")) / max(c.rows, 1), "us"),
        "cli.overhead_s": (cli, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m


def _layer_or_probe(t: Tracer, own: list[float], name: str) -> float:
    real = [own[i] for i, s in enumerate(t.spans) if s.name == name and not s.probe]
    if real:
        return sum(real)
    return sum(s.duration for s in t.named(name, probe=True))
