"""Benchmark of the polyproj CLI: three seeded workloads, checked outputs, traced layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload formula_mc --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's ops through `polyproj.cli.main` in one process,
closed loop (the next op starts when the previous one returns), and prints
the end-to-end metrics.  --trace 1 replays one pass stage by stage through
the layers' public functions (see staged.py) and prints the per-layer metrics.
Either way the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The program is imported from ./src of the checkout, never from elsewhere; a
checkout without it makes the run exit with status 2 before measuring.
"""

from __future__ import annotations

import os

# fixed thread counts for every timed run, whatever the caller's environment:
# one load-generating process, one BLAS/OpenMP thread, one polyproj worker
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "POLYPROJ_WORKERS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_S, Clock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import polyproj.cli\n"
    "polyproj.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
SE_TARGET = 0.01  # the stated accuracy of time_to_se_s


def _import_program():
    """Import polyproj from the checkout's src/, refusing any other copy."""
    sys.path.insert(1, str(SRC))
    import polyproj
    import polyproj.cli

    if Path(polyproj.__file__).resolve().parent != SRC / "polyproj":
        raise ImportError(f"polyproj was imported from {polyproj.__file__}, not from {SRC}")


@dataclass
class OpResult:
    pass_index: int
    op: object
    raw: float  # seconds
    wall: float  # reference seconds, see calibrate.py
    report: str
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _call_main(argv: list[str]) -> tuple[object, str, str]:
    from polyproj.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit):  # a crashing op is a failed op, not a crashed benchmark
        code = "raised"
        err.write(traceback.format_exc(limit=-3))
    return code, out.getvalue(), err.getvalue()


def run_cli_op(clock, pass_index: int, op, cache_path: str | None) -> OpResult:
    """One closed-loop op through polyproj.cli.main, timed and checked."""
    from polyproj import clear_angle_memo

    from checks import check_report

    clear_angle_memo()
    (code, report, err), raw, wall = clock.time(_call_main, op.argv(cache_path))
    if code != 0:
        problems = [f"exit {code}: {err.strip()[-300:]}"]
    else:
        problems = check_report(op, report)
    return OpResult(pass_index, op, raw, wall, report, problems)


def run_passes(clock, plan, workdir: Path) -> list[OpResult]:
    results = []
    for p, units in enumerate(plan.passes):
        for u, unit in enumerate(units):
            cache = str(workdir / f"angles-p{p}-u{u}.txt")
            results += [run_cli_op(clock, p, op, cache) for op in unit]
    return results


def warmup(clock, plan, workdir: Path) -> OpResult:
    """The untimed warm-up op; its report is kept for the byte-identity rerun."""
    return run_cli_op(clock, -1, plan.warmup, str(workdir / "angles-warmup.txt"))


def rerun_check(clock, first: OpResult, workdir: Path) -> OpResult:
    """Run the warm-up op again on fresh state: the report must match byte for byte."""
    again = run_cli_op(clock, -1, first.op, str(workdir / "angles-rerun.txt"))
    if again.report != first.report:
        again.problems.append("rerun report differs from the first run of the same argv")
    return again


def measure_setup(clock) -> tuple[list[float], list[float]]:
    """Fresh interpreters: import polyproj.cli and build the parser, timed inside each.

    Returns (raw seconds, reference seconds) per interpreter.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def one() -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        inner, _, _ = clock.time(one)
        raw.append(inner)
        ref.append(clock.to_reference(inner))
    return raw, ref


def machine_record() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = {k: v.get("name") for k, v in cfg.get("Build Dependencies", {}).items() if isinstance(v, dict)}
    except (TypeError, AttributeError):  # older NumPy prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile of `times` with at least 10 values above it: (value, percentile, beyond)."""
    ordered = sorted(times)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def _max_stderr(report: str) -> float:
    from polyproj import from_csv

    try:
        return max((r.stderr or 0.0 for r in from_csv(report)), default=0.0)
    except (ValueError, TypeError):
        return 0.0


def end_to_end(results: list[OpResult], checks: list[OpResult], setup: tuple[list[float], list[float]],
               clock) -> tuple[dict, list[str]]:
    """End-to-end metrics (name -> (value, unit)) and extra human-readable lines."""
    from checks import closed_form_deviations, poisson_drops

    from ops import shape

    walls = [r.wall for r in results]
    passes = sorted({r.pass_index for r in results})
    pass_wall = [sum(r.wall for r in results if r.pass_index == p) for p in passes]
    # per-shape medians over the passes: a burst of load on a shared machine
    # lands in one pass of one shape and moves no median
    by_shape: dict = {}
    for r in results:
        by_shape.setdefault(shape(r.op), []).append(r)
    wall = sum(statistics.median(r.wall for r in rs) for rs in by_shape.values())
    raw_wall = sum(statistics.median(r.raw for r in rs) for rs in by_shape.values())
    tts = sum(statistics.median(r.wall for r in rs)
              * (statistics.median(_max_stderr(r.report) for r in rs) / SE_TARGET) ** 2
              for rs in by_shape.values())
    rows = sum(max(r.report.count("\n") - 1, 0) for r in results) / len(passes)
    attempted = len(results) + len(checks)
    failed = sum(r.failed for r in results + checks)
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "rows_per_s": (rows / wall, "rows/s"),
        "time_to_se_s": (tts, "s"),
        "ok_ratio": (1.0 - failed / attempted, "1"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"op_tail_s is p{tail_pct:.1f} of {len(walls)} ops ({beyond} ops beyond it)",
        f"fail_ratio {failed / attempted!r} 1 ({failed} of {attempted} ops, {len(checks)} of them untimed:"
        " the warm-up op and its byte-identity rerun)",
        f"passes {len(passes)}, pass walls {[round(w, 3) for w in pass_wall]} reference s",
        f"raw seconds: wall_s {raw_wall!r} s, op_p50_s {statistics.median(r.raw for r in results)!r} s, "
        f"setup_s {statistics.median(setup[0])!r} s",
        f"setup_s samples {[round(s, 4) for s in setup[1]]} reference s",
        f"calibration kernel median {statistics.median(clock.kernels)!r} s over {len(clock.kernels)} runs, "
        f"reference {REFERENCE_S} s",
    ]
    poisson = [r for r in results if r.op.command == "poisson" and not r.failed]
    if poisson:
        notes.append(f"poisson_drops {sum(poisson_drops(r.op, r.report) for r in poisson)} steps of t over "
                     f"{len(poisson)} poisson ops where a value drops by more than 2 eps (within its stderr)")
    sims = [r for r in results if r.op.command == "simulate"]
    if sims:
        reps = sum(r.op.reps for r in sims)
        notes.append(f"replications_per_s {reps / sum(r.wall for r in sims)!r} reps/s")
        off = [r for r in sims if not r.failed and closed_form_deviations(r.op, r.report)]
        notes.append(f"closed_form_deviations {len(off)} of {len(sims)} simulate ops have a cube-type mean "
                     "off the closed form (a miscounted replication; see hull.lattice_errors)")
    return metrics, notes


def run_untraced(args, workdir: Path):
    from ops import generate, pass_count

    plan = generate(args.workload, args.seed, pass_count(args.workload, args.seconds), tiny=args.tiny)
    clock = Clock()
    setup = measure_setup(clock)
    first = warmup(clock, plan, workdir)
    results = run_passes(clock, plan, workdir)
    checks = [first, rerun_check(clock, first, workdir)]
    metrics, notes = end_to_end(results, checks, setup, clock)
    problems = [f"{r.op.label()} seed {r.op.seed}: {p}" for r in results + checks for p in r.problems]
    return metrics, notes, len(results) + len(checks), sum(r.failed for r in results + checks), problems


def run_reference_pass(args, workdir: Path) -> None:
    """Child mode of --trace 1: one untraced pass, dumped as JSON for the parent to compare."""
    from polyproj import MCConfig, poissonized_expected

    from checks import face_dims, t_grid
    from ops import generate

    plan = generate(args.workload, args.seed, 1, tiny=args.tiny)
    clock = Clock()
    warmup(clock, plan, workdir)
    out = []
    for u, unit in enumerate(plan.passes[0]):
        cache = str(workdir / f"angles-u{u}.txt")
        for op in unit:
            r = run_cli_op(clock, 0, op, cache)
            terms = []
            if op.command == "poisson" and not r.problems:
                # the sums are memoized per size, so this replay is cheap and
                # tells the traced route which sizes each sum reached
                cfg = MCConfig(samples=op.samples, seed=op.seed, workers=1, cache_path=cache if op.cache else None)
                terms = [poissonized_expected(t, op.d, k, model=op.model, eps=op.eps, cfg=cfg).terms
                         for k in face_dims(op) for t in t_grid(op)]
            out.append({"raw": r.raw, "wall": r.wall, "report": r.report, "problems": r.problems,
                        "terms": terms})
    Path(args.reference_pass).write_text(json.dumps(out), encoding="utf-8")


def run_traced(args, workdir: Path):
    from ops import generate
    from staged import StagedRunner, layer_metrics

    ref_path = workdir / "reference-pass.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--reference-pass", str(ref_path)]
    if args.tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=170, stdout=subprocess.DEVNULL)
    reference = json.loads(ref_path.read_text(encoding="utf-8"))

    plan = generate(args.workload, args.seed, 1, tiny=args.tiny)
    clock = Clock()
    warmup(clock, plan, workdir)
    traced_raw = traced_ref = 0.0
    runner = StagedRunner(str(workdir))
    problems, ops = [], []
    failed = 0
    for u, unit in enumerate(plan.passes[0]):
        cache = str(workdir / f"traced-u{u}.txt")
        for op in unit:
            ref = reference[len(ops)]
            before = len(runner.counts.problems)
            report, raw, wall = clock.time(runner.run_op, len(ops), op, cache if op.cache else None, ref["terms"])
            traced_raw += raw
            traced_ref += wall
            label = f"{op.label()} seed {op.seed}"
            op_problems = [f"{label}: {p}" for p in ref["problems"] + runner.counts.problems[before:]]
            if report != ref["report"]:
                op_problems.append(f"{label}: staged report differs from the CLI report")
            failed += bool(op_problems)
            problems += op_problems
            ops.append(op)
    notes = runner.probes(ops, args.seed)
    speedups = runner.workers2(ops, args.seed)
    untraced_ref = sum(r["wall"] for r in reference)
    metrics = layer_metrics(runner, traced_ref - untraced_ref, speedups)
    lines = [f"{name}: reference probe, {what}" for name, what in notes.items()]
    lines += [f"{name} base: {base}" for name, (_, base) in speedups.items()]
    lines.append(f"trace.overhead_s = traced {traced_ref:.3f} - untraced {untraced_ref:.3f} reference s "
                 f"(raw {traced_raw:.3f} s - {sum(r['raw'] for r in reference):.3f} s)")
    lines.append(f"expected.poisson.reuse_ratio base: {runner.counts.poisson_distinct} distinct sizes")
    write_spans(runner, args, metrics)
    return metrics, lines, len(reference), failed, problems


def write_spans(runner, args, metrics) -> None:
    OUT.mkdir(exist_ok=True)
    spans = [[s.name, s.start, s.end, s.parent, s.op, s.probe] for s in runner.tracer.spans]
    payload = {"workload": args.workload, "seed": args.seed, "machine": machine_record(),
               "columns": ["name", "start", "end", "parent", "op", "probe"], "spans": spans,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")


def parse_args(argv=None):
    from ops import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True, help="workload seed: op order and program seeds")
    p.add_argument("--seconds", type=float, required=True, help="measuring time; sets the pass count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--reference-pass", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import polyproj from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.reference_pass:
            run_reference_pass(args, workdir)
            return 0
        runner = run_traced if args.trace else run_untraced
        metrics, notes, attempted, failed, problems = runner(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"machine": machine_record()}))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r:>24} {unit}")
    for line in notes:
        print(line)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
