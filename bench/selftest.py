"""Self-test of the benchmark at tiny sizes; run from the checkout root:

    python3 bench/selftest.py

It checks that every metric BENCHMARK.json names is printed, with its unit,
on every workload in both modes; that deliberately corrupted reports trip
the output checks; that the staged route's angle requests leave nothing to
sample for the warm formula; and that a directory holding only the benchmark
makes run.py fail without printing a result.  Exit status 0 means all passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(1, str(ROOT / "src"))

import polyproj.angles  # noqa: E402
from polyproj import from_csv, render  # noqa: E402

import run  # noqa: E402
from calibrate import Clock  # noqa: E402
from checks import check_report  # noqa: E402
from ops import WORKLOADS, Op  # noqa: E402
from staged import StagedRunner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_printed() -> list[str]:
    failures = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{where}: not correct: {proc.stderr[-500:]}")
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            got = result["metrics"]
            if set(got) != set(wanted):
                failures.append(f"{where}: metrics {sorted(set(got) ^ set(wanted))} missing or extra")
            for name, unit in wanted.items():
                value = got.get(name, {}).get("value")
                if got.get(name, {}).get("unit") != unit:
                    failures.append(f"{where}: {name} has unit {got.get(name, {}).get('unit')!r}, not {unit!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{where}: {name} = {value!r} is not a finite number")
                if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]):
                    failures.append(f"{where}: no printed line for {name} in {unit}")
    return failures


def _cli_report(op: Op) -> str:
    result = run.run_cli_op(Clock(), 0, op, None)
    if result.problems:
        raise RuntimeError(f"{op.label()}: {result.problems}")
    return result.report


def _scratch_dir() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT))


def _with_rows(text: str, edit) -> str:
    rows = from_csv(text)
    return render(edit(rows), "csv")


def check_corruption_detected() -> list[str]:
    """Each corrupted report must trip at least one check; the intact ones none."""
    from dataclasses import replace

    ops = {
        "expected": Op("expected", model="gaussian", n=6, d=3, samples=2000, seed=3),
        "cube": Op("monotonicity", family="cube", d=3, n_min=1, n_max=6),
        "poisson": Op("poisson", model="gaussian", d=2, k=0, t_max=6.0, samples=1000, seed=3),
        "simulate": Op("simulate", model="gaussian", n=6, d=3, reps=200, samples=1000, seed=3),
        "zonotope": Op("simulate", model="zonotope", n=5, d=3, reps=5, samples=1000, seed=3),
    }
    reports = {name: _cli_report(op) for name, op in ops.items()}
    failures = [f"intact {name} report fails: {check_report(ops[name], text)}"
                for name, text in reports.items() if check_report(ops[name], text)]

    def bump(rows, i, **changes):
        rows[i] = replace(rows[i], **changes)
        return rows

    corruptions = {
        "expected, one value shifted by 20 stderrs": ("expected", lambda rs: bump(
            rs, 0, value=rs[0].value + 20 * sum(r.stderr for r in rs))),
        "expected, a row dropped": ("expected", lambda rs: rs[:-1]),
        "expected, a NaN value": ("expected", lambda rs: bump(rs, 1, value=float("nan"))),
        "cube, one exact count off by one": ("cube", lambda rs: bump(rs, 7, value=rs[7].value + 1)),
        "cube, exact row with a stderr": ("cube", lambda rs: bump(rs, 3, stderr=0.5)),
        "poisson, a value collapses": ("poisson", lambda rs: bump(rs, 4, value=0.0, stderr=0.0)),
        "simulate, a z-score of 6": ("simulate", lambda rs: bump(rs, 2, z_score=6.0)),
        "simulate, Euler broken": ("simulate", lambda rs: bump(rs, 0, value=rs[0].value + 1.0)),
        "zonotope, formula side off the closed form": ("zonotope", lambda rs: bump(
            rs, 1, formula_value=rs[1].formula_value + 2)),
    }
    for label, (name, edit) in corruptions.items():
        if not check_report(ops[name], _with_rows(reports[name], edit)):
            failures.append(f"corruption not detected: {label}")
    text = reports["expected"]
    if not check_report(ops["expected"], text.replace(".", ",", 1)):
        failures.append("corruption not detected: header or cell text damaged")
    if not check_report(ops["expected"], text.rstrip("\n")):
        failures.append("corruption not detected: report without its final newline")

    workdir = _scratch_dir()
    try:
        first = run.OpResult(-1, ops["expected"], 0.0, 0.0, _with_rows(
            reports["expected"], lambda rs: bump(rs, 0, value=rs[0].value * (1 + 1e-15))), [])
        if not run.rerun_check(Clock(), first, workdir).problems:
            failures.append("a rerun that differs from the first report was not flagged")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return failures


def check_staged_requests_complete() -> list[str]:
    """The staged route rebuilds the CLI report, and its warm formula stage samples nothing."""
    failures = []
    calls = []
    original = polyproj.angles.cone_angle

    def counting(cone, cfg=None):
        calls.append(cone.seed_path)
        return original(cone, cfg)

    workdir = _scratch_dir()
    polyproj.angles.cone_angle = counting
    try:
        for op in (Op("expected", model="gaussian", n=8, d=4, samples=300, seed=2),
                   Op("expected", model="symmetric", n=5, d=3, samples=300, seed=2),
                   Op("monotonicity", family="crosspolytope", d=2, k=0, n_min=2, n_max=9, samples=300, seed=2),
                   Op("monotonicity", model="gaussian", d=3, n_min=2, n_max=7, samples=300, seed=2),
                   Op("simulate", model="symmetric", n=6, d=4, reps=10, samples=300, seed=2)):
            runner = StagedRunner(str(workdir))
            calls.clear()
            report = runner.run_op(0, op, None, None)
            sampled = runner.counts.angles["sampled"]
            if len(calls) != sampled:
                failures.append(f"staged {op.label()}: {len(calls)} cones sampled, "
                                f"{sampled} of them by the angle stage")
            if report != run.run_cli_op(Clock(), 0, op, None).report:
                failures.append(f"staged {op.label()} differs from the CLI report")
    finally:
        polyproj.angles.cone_angle = original
        shutil.rmtree(workdir, ignore_errors=True)
    return failures


def check_bare_directory_fails() -> list[str]:
    """In a directory with only BENCHMARK.json and bench/, run.py exits nonzero without a result."""
    bare = _scratch_dir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run_bench("formula_mc", 0, cwd=bare, script=bare / "bench" / "run.py")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{\"correct\"")):
            return [f"bare directory run exited {proc.returncode} with output {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = []
    for check in (check_corruption_detected, check_staged_requests_complete,
                  check_bare_directory_fails, check_metrics_printed):
        found = check()
        print(f"[selftest] {check.__name__}: {'PASS' if not found else 'FAIL'}", flush=True)
        failures += found
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
