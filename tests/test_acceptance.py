"""Acceptance gates, one test per release criterion.

Every Monte Carlo quantity below runs with a fixed seed and fixed sample
count, so each gate reproduces the same numbers on every run.  Each test
prints a single `[acceptance] ...` verdict line with its wall time so the
suite doubles as a release checklist.

External angles come from quadrature, so planar formulas sample nothing:
their values are compared at QUADRATURE_RTOL, and their strict-increase
verdicts need a gap above QUADRATURE_RTOL times the two values.  Statistical
gates compare at 3 combined standard errors.  Strict-increase certificates
of sampled rows additionally require the observed gap to exceed the 3-sigma
slack, so sample counts were sized (against quadrature oracles) to keep the
true gap at least twice the slack at every step.
"""

import math
import time
from fractions import Fraction
from math import comb

from polyproj import (
    QUADRATURE_RTOL,
    Family,
    SimConfig,
    clear_angle_memo,
    expected_f_cube_closed_form,
    expected_f_model,
    expected_f_projection,
    expected_f_zonotope,
    external_angle,
    face_count,
    internal_angle,
    intrinsic_volume,
    monotonicity_table,
    poissonized_expected,
    simulate_expected_f,
    t_functional_expected,
    zonotope_f_vector,
)
from polyproj.angles import MCConfig
from polyproj.cli import main
from polyproj.streams import derive_generator

CFG = MCConfig(samples=1_000_000, seed=0)
CFG_POISSON = MCConfig(samples=50_000, seed=0)
CFG_TAIL = MCConfig(samples=10_000, seed=0)
# float rounding of two closed forms of the same angle, with room
TETRA_RTOL = 1e-14

SHADOW_PIN = 6 * (math.pi - math.acos(1.0 / 3.0)) / math.pi


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_cube_exactness(capsys):
    t0 = time.monotonic()
    failures = []
    checked = 0
    for n in range(1, 13):
        for d in range(1, n + 1):
            for k in range(d):
                got = expected_f_projection(Family.CUBE, n, d, k)
                want = expected_f_cube_closed_form(n, d, k)
                checked += 1
                if not (got.exact and got.exact_value == want):
                    failures.append(("closed-form", n, d, k))
    # strict growth in n; d = 1 is excluded because every shadow on a line
    # is a segment, flat at 2 vertices
    series_count = 0
    for d in range(2, 13):
        for k in range(d):
            vals = [expected_f_projection(Family.CUBE, n, d, k).exact_value
                    for n in range(d, 13)]
            series_count += 1
            if not all(b > a for a, b in zip(vals, vals[1:])):
                failures.append(("strict", d, k))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    _verdict(capsys, "1 cube exactness", ok,
             f"{checked} rational equalities, {series_count} strict series, "
             f"{elapsed:.2f}s < 1s; failures {failures[:4]}")


def test_criterion_2_zonotope_determinism(capsys):
    t0 = time.monotonic()
    failures = []
    cells = 0
    # full-rank grid: d = 1 and n < d are outside zonotope_f_vector's domain
    # (rejected with typed errors, covered by unit tests)
    for d in (2, 3, 4):
        for n in range(d, 11):
            want = tuple(int(expected_f_zonotope(n, d, k).value) for k in range(d))
            for rep in range(3):
                rng = derive_generator(202, n, d, rep)
                got = zonotope_f_vector(rng.standard_normal((n, d))).counts
                cells += 1
                if got != want:
                    failures.append((n, d, rep, got, want))
    pinned = expected_f_zonotope(4, 3, 0)
    if not (pinned.exact and pinned.exact_value == 14):
        failures.append(("pin", pinned.value))
    sim = simulate_expected_f(SimConfig(model="zonotope", n=4, d=3,
                                        replications=100, seed=0))
    for k, want_k in enumerate((14, 24, 12)):
        m = sim.means[k]
        if m.value != float(want_k) or m.std_error != 0.0:
            failures.append(("replication", k, m.value, m.std_error))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _verdict(capsys, "2 zonotope determinism", ok,
             f"{cells} hull replications, 100-rep variance 0, "
             f"{elapsed:.1f}s < 60s; failures {failures[:4]}")


def test_criterion_3_gaussian_equivalence(capsys):
    t0 = time.monotonic()
    failures = []
    zs = []
    for (n, d) in ((4, 2), (5, 2), (5, 3), (6, 3)):
        formula = expected_f_model("gaussian", n, d, 0, CFG)
        sim = simulate_expected_f(SimConfig(model="gaussian", n=n, d=d,
                                            replications=100_000, seed=0))
        mean = sim.means[0]
        z = abs(mean.value - formula.value) / math.hypot(mean.std_error,
                                                         formula.std_error)
        zs.append(f"({n},{d}) z={z:.2f}")
        if not z < 3.0:
            failures.append((n, d, z))
        if (n, d) == (4, 2):
            dev = abs(formula.value - SHADOW_PIN)
            if not (formula.exact and dev <= QUADRATURE_RTOL * SHADOW_PIN):
                failures.append(("pin", dev, QUADRATURE_RTOL * SHADOW_PIN))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    _verdict(capsys, "3 gaussian equivalence", ok,
             f"{', '.join(zs)}, pin dev <= {QUADRATURE_RTOL:.0e} rel, {elapsed:.0f}s < 600s; "
             f"failures {failures[:4]}")


def test_criterion_4_frame_vs_gaussian(capsys):
    t0 = time.monotonic()
    failures = []
    zs = []
    frame = simulate_expected_f(SimConfig(model="projected_simplex", n=5, d=2,
                                          replications=10_000, seed=0))
    gauss = simulate_expected_f(SimConfig(model="gaussian", n=5, d=2,
                                          replications=10_000, seed=0))
    for k in (0, 1):
        a, b = frame.means[k], gauss.means[k]
        z = abs(a.value - b.value) / math.hypot(a.std_error, b.std_error)
        zs.append(f"k={k} z={z:.2f}")
        if not z < 3.0:
            failures.append((k, z))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _verdict(capsys, "4 frame vs gaussian", ok,
             f"{', '.join(zs)}, {elapsed:.0f}s < 300s; failures {failures}")


def test_criterion_5_angle_identities(capsys):
    t0 = time.monotonic()
    failures = []
    for n in range(1, 13):
        total = face_count(Family.CUBE, n, 0) * external_angle(Family.CUBE, n, 0).exact_value
        if total != 1:
            failures.append(("cube-sum", n, total))
    for fam in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
        for n in range(1, 13):
            total = face_count(fam, n, 0) * external_angle(fam, n, 0).exact_value
            if total != 1:
                failures.append(("vertex-sum", fam.value, n, total))
    # ridges: a planar wedge between two facets, (pi - dihedral angle) / (2 pi)
    worst = 0.0
    for n in range(3, 13):
        for fam, cos_dihedral in ((Family.SIMPLEX, 1 / n), (Family.CROSSPOLYTOPE, (2 - n) / n)):
            want = (math.pi - math.acos(cos_dihedral)) / (2 * math.pi)
            g = external_angle(fam, n, n - 2)
            dev = abs(g.value - want) / want
            worst = max(worst, dev / QUADRATURE_RTOL)
            if not (g.exact and dev <= QUADRATURE_RTOL):
                failures.append(("ridge", fam.value, n, dev))
    # the tetrahedron's vertex angle, (3 arccos(1/3) - pi) / (4 pi), which
    # internal_angle takes as 1/8 - 3 arcsin(1/3) / (4 pi): exact, and
    # within float rounding of it
    beta = internal_angle(Family.SIMPLEX, 3, 0, 3, CFG)
    tetra = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
    tetra_dev = abs(beta.value - tetra) / tetra
    if not (beta.exact and tetra_dev <= TETRA_RTOL):
        failures.append(("tetra", beta.value, beta.std_error))
    half = Fraction(1, 2)
    for fam in Family:
        for n in range(2, 9):
            g = external_angle(fam, n, n - 1)
            if not (g.method == "exact" and g.exact_value == half):
                failures.append(("ext-codim1", fam.value, n))
    for fam in (Family.SIMPLEX, Family.CUBE):
        for g_dim in range(1, 7):
            b = internal_angle(fam, 8, g_dim - 1, g_dim)
            if not (b.method == "exact" and b.exact_value == half):
                failures.append(("int-codim1", fam.value, g_dim))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _verdict(capsys, "5 angle identities", ok,
             f"vertex sums exact, worst ridge dev {worst:.3f}x gate, "
             f"tetra relative dev {tetra_dev:.1e} <= {TETRA_RTOL:.0e}, "
             f"codim-1 exact, {elapsed:.0f}s < 300s; failures {failures[:4]}")


def test_criterion_6_monotonicity_tables(capsys):
    t0 = time.monotonic()
    failures = []
    for d in (2, 3):
        for k in range(d):
            rows = monotonicity_table("cube", d, k, k + 1, 12)
            if not (all(r.exact for r in rows)
                    and all(r.strict_increase for r in rows[:-1])):
                failures.append(("cube", d, k))
    worst = math.inf
    for fam in ("simplex", "crosspolytope"):
        for d in (2, 3):
            for k in range(d):
                rows = monotonicity_table(fam, d, k, k + 1, 8, CFG)
                if not all(r.strict_increase for r in rows[:-1]):
                    failures.append((fam, d, k,
                                     [r.strict_increase for r in rows[:-1]]))
                if d == 2 and not all(r.exact and r.std_error == 0.0 for r in rows):
                    failures.append(("planar-exact", fam, k))
                for lo, hi in zip(rows, rows[1:]):
                    margin = (hi.value - lo.value
                              - 3 * (lo.std_error + hi.std_error))
                    worst = min(worst, margin)
    # the k = min(n, d) row is flat at exactly 1
    for fam in ("simplex", "crosspolytope", "cube"):
        for d in (2, 3):
            rows = monotonicity_table(fam, d, d, d, 8)
            if not all(r.exact and r.value == 1.0 for r in rows):
                failures.append(("flat-value", fam, d))
            if any(r.strict_increase for r in rows[:-1]):
                failures.append(("flat-verdict", fam, d))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 900.0
    _verdict(capsys, "6 monotonicity tables", ok,
             f"cube exact strict to n=12, planar exact strict and MC strict to n=8 "
             f"(worst margin {worst:.3f}), flat rows at 1, "
             f"{elapsed:.0f}s < 900s; failures {failures[:4]}")


def test_criterion_7_intrinsic_volumes(capsys):
    t0 = time.monotonic()
    failures = []
    for n in range(1, 13):
        for k in range(n + 1):
            v = intrinsic_volume(Family.CUBE, n, k)
            if not (v.exact and v.exact_value == comb(n, k)):
                failures.append(("cube", n, k))
    # V_j ladders; j = 0 is excluded because V_0 is identically 1
    worst = math.inf
    for fam in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
        for j in (1, 2, 3):
            prev = None
            for n in range(j, 8):
                est = intrinsic_volume(fam, n, j)
                if prev is not None:
                    margin = (est.value - prev.value
                              - 3 * math.hypot(est.std_error, prev.std_error))
                    worst = min(worst, margin)
                    if not margin > 0:
                        failures.append((fam.value, j, n, margin))
                prev = est
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _verdict(capsys, "7 intrinsic volumes", ok,
             f"cube V_k = C(n,k) exact to n=12, ladders strict "
             f"(worst margin {worst:.3f}), {elapsed:.0f}s < 300s; "
             f"failures {failures[:4]}")


def test_criterion_8_poissonization_t_functional(capsys):
    t0 = time.monotonic()
    failures = []
    details = []
    for k in (0, 1):
        series = [poissonized_expected(float(t), 2, k, model="gaussian",
                                       eps=1e-8, cfg=CFG_POISSON)
                  for t in range(1, 31)]
        bound = max(r.truncation_bound for r in series)
        if not bound < 1e-8:
            failures.append(("bound", k, bound))
        # Non-decrease within noise.  Consecutive values reuse the same
        # memoized per-term estimates, so the difference noise is the
        # per-term noise through the reweighting, not two independent SEs.
        worst = math.inf
        for i in range(len(series) - 1):
            t_lo, t_hi = float(i + 1), float(i + 2)
            var = 0.0
            for ell in range(max(series[i].terms, series[i + 1].terms)):
                est = expected_f_model("gaussian", ell, 2, k, CFG_POISSON)
                w_lo = math.exp(-t_lo + ell * math.log(t_lo) - math.lgamma(ell + 1))
                w_hi = math.exp(-t_hi + ell * math.log(t_hi) - math.lgamma(ell + 1))
                var += (w_hi - w_lo) ** 2 * est.std_error ** 2
            slack = 3.0 * math.sqrt(var) + 2e-8
            gap = series[i + 1].value - series[i].value
            worst = min(worst, gap + slack)
            if gap < -slack:
                failures.append(("decrease", k, t_lo, gap, slack))
        tail = series[-1]
        extension = 0.0
        for ell in range(tail.terms, tail.terms + 50):
            w = math.exp(-30.0 + ell * math.log(30.0) - math.lgamma(ell + 1))
            extension += w * expected_f_model("gaussian", ell, 2, k, CFG_TAIL).value
        if not 0.0 <= extension < 1e-8:
            failures.append(("extension", k, extension))
        details.append(f"k={k} bound {bound:.1e} ext {extension:.1e} "
                       f"worst gap+slack {worst:.3f}")
    if t_functional_expected(3, 2, 0.0, 7.25) != 7.25:
        failures.append(("b=0",))
    if t_functional_expected(3, 0, 2.0, 7.25) != 7.25:
        failures.append(("k=0",))
    # the mean edge length of standard Gaussian points' hull in the plane
    factor_dev = abs(t_functional_expected(2, 1, 1.0, 1.0, "gaussian") - math.sqrt(math.pi))
    if not factor_dev < 1e-12:
        failures.append(("factor", factor_dev))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _verdict(capsys, "8 poissonization and t-functional", ok,
             f"{'; '.join(details)}; reductions exact, length factor dev "
             f"{factor_dev:.1e}, {elapsed:.0f}s < 120s; failures {failures[:4]}")


def test_criterion_9_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    failures = []
    specs = [
        ("simulate", ["simulate", "--model", "gaussian", "--n", "6", "--d", "3",
                      "--reps", "600", "--seed", "5", "--format", "csv"]),
        ("expected", ["expected", "--model", "gaussian", "--n", "6", "--d", "3",
                      "--k", "0", "--samples", "40000", "--seed", "2",
                      "--format", "json"]),
        ("poisson", ["poisson", "--model", "gaussian", "--d", "2", "--k", "0",
                     "--t-min", "1", "--t-max", "4", "--t-step", "1",
                     "--samples", "8000", "--seed", "11", "--b", "1.0"]),
    ]
    for tag, argv in specs:
        blobs = []
        for run_id, workers in enumerate((1, 2, 1)):
            out = tmp_path / f"{tag}-{run_id}.report"
            clear_angle_memo()  # force recomputation, not memo echo
            code = main(argv + ["--workers", str(workers), "--out", str(out)])
            if code != 0:
                failures.append((tag, workers, "exit", code))
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            failures.append((tag, "bytes differ"))
    clear_angle_memo()
    elapsed = time.monotonic() - t0
    ok = not failures
    _verdict(capsys, "9 determinism", ok,
             f"3 report kinds x (workers 1, 2, repeat) byte-identical, "
             f"{elapsed:.0f}s; failures {failures[:4]}")
