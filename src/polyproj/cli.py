"""Command-line harness: expected values, simulations, monotonicity sweeps, Poissonization.

Reports go to stdout (or --out) in CSV or JSON with a fixed schema; human
summaries go to stderr so the data stream stays parseable.  The library
returns whole results; this module is the one layer that opens files (--out,
--dump) and keeps the clock.  The four commands share one row builder, _row,
and one --timings clock, _timed.  Exit codes: 0 success, 1 numeric or
simulation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
from contextlib import nullcontext

import numpy as np

from .angles import MCConfig
from .errors import InvalidArgumentError, PolyprojError
from .expected import (
    GAUSSIAN_MODELS,
    MAX_TABLE_ROWS,
    expected_f_model,
    monotonicity_table,
    poissonized_series,
    t_functional_expected,
)
from .families import Family, target_row
from .hull import MODELS, SimConfig, simulate_expected_f
from .report import ReportRow, render


MAX_T_POINTS = 10_000
# rows of --dump per csv.writerows call: a slice at a time, not one list of every row
_DUMP_SLICE = 512


def t_grid(t_min: float, t_max: float, t_step: float) -> list[float]:
    """t_min, t_min + t_step, ... up to t_max, rounded to 12 decimals.

    A grid that is empty, over MAX_T_POINTS points, or has a t of 0 or a repeated t is an error.
    """
    slack = min(1e-9, t_step / 2)  # float steps may overshoot t_max; half a step past it is a new point
    if t_max + slack < t_min:
        raise InvalidArgumentError(f"--t-max must be >= --t-min, got {t_max} < {t_min}")
    grid, t = [], t_min
    while t <= t_max + slack:
        if len(grid) == MAX_T_POINTS:  # also stops a step too small to move t
            raise InvalidArgumentError(f"--t-min {t_min} to --t-max {t_max} by --t-step {t_step} "
                                       f"gives more than {MAX_T_POINTS} grid points")
        grid.append(round(t, 12))
        t += t_step
    if grid[0] == 0.0 or len(set(grid)) < len(grid):
        raise InvalidArgumentError(f"--t-min {t_min} by --t-step {t_step} gives a t of 0 or a repeated t "
                                   "at 12 decimals; grid points must be positive and distinct")
    return grid


def _number(convert, what: str, lo, strict: bool = False):
    """An argparse type: convert the text to a finite number >= lo (> lo when strict)."""

    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if isinstance(v, float) and not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"expected a finite number, got {v}")
        if v < lo or (strict and v == lo):
            raise argparse.ArgumentTypeError(f"expected {what}, got {v}")
        return v

    return parse


_positive_int = _number(int, "a positive integer", 1)
_nonneg_int = _number(int, "a nonnegative integer", 0)
_nonneg_float = _number(float, "a nonnegative number", 0)
_positive_float = _number(float, "a positive number", 0, strict=True)


def _workers(text: str) -> int:
    try:
        return _positive_int(text or os.environ.get("POLYPROJ_WORKERS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{exc} (from --workers or $POLYPROJ_WORKERS)") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=_positive_int, default=1_000_000,
                   help="draws for beta(Q_0, Q_2), the one sampled internal angle, each integrated along the "
                        "cone's axis (default 1e6); the other internal angles are closed forms at codimension "
                        "2 and 3 and Steck integrals past them, and the external angles quadratures")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="master seed (default 0)")
    # the "" default goes through `type` at parse time, which reads
    # $POLYPROJ_WORKERS (or 1) then: the cached parser sees the current
    # environment, and a bad value is a usage error rather than a traceback
    p.add_argument("--workers", type=_workers, default="",
                   help="simulate's worker processes, at most one per CPU this process may use "
                        "(default $POLYPROJ_WORKERS or 1); the formula commands accept it and ignore it")
    # accepted and ignored, so that scripts written for the old angle cache
    # file still run; angles are memoized in-process only
    p.add_argument("--angle-cache", metavar="PATH", help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to this file instead of stdout")
    p.add_argument("--timings", action="store_true",
                   help="fill the wall_time_s column (off by default so reports are reproducible byte for byte)")


def _add_target(p: argparse.ArgumentParser, models: tuple[str, ...]) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", choices=tuple(f.value for f in Family))
    grp.add_argument("--model", choices=models)


def _add_k(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--k", type=_nonneg_int)
    grp.add_argument("--all-k", action="store_true", help="every proper face dimension")


def _row(args, k: int, est, **extra) -> ReportRow:
    """A report row of face dimension k: the columns every command fills, then its own."""
    return ReportRow(
        command=args.subcommand, model=args.model or "", family=getattr(args, "family", None) or "",
        d=args.d, k=k, value=float(est.value), stderr=float(est.std_error), method=est.method, **extra,
    )


def _timed(args, f, *a):
    """f(*a) and its wall time in seconds, None without --timings."""
    t0 = time.perf_counter()
    result = f(*a)
    return result, (time.perf_counter() - t0 if args.timings else None)


def _ks(args, top: int):
    return range(top) if args.all_k else [args.k]


def _emit(rows: list[ReportRow], args) -> None:
    args.report.write(render(rows, args.format))


def _cmd_expected(args) -> int:
    row = target_row(args.family or args.model)
    rows = []
    for k in _ks(args, min(args.n - row.shift, args.d)):
        est, wall = _timed(args, expected_f_model, row, args.n, args.d, k, args.cfg)
        rows.append(_row(args, k, est, n=args.n, wall_time_s=wall))
    _emit(rows, args)
    return 0


def _cmd_simulate(args) -> int:
    sim_cfg = SimConfig(model=args.model, n=args.n, d=args.d,
                        replications=args.reps, seed=args.seed, workers=args.workers)
    # the dump file is opened first, so a bad path fails before any replication is drawn
    with open(args.dump, "w", newline="", encoding="utf-8") if args.dump is not None else nullcontext() as dump:
        result, wall = _timed(args, simulate_expected_f, sim_cfg)
        if dump is not None:
            writer = csv.writer(dump, lineterminator="\n")
            writer.writerow(["replication"] + [f"f_{k}" for k in range(args.d)])
            for lo in range(0, args.reps, _DUMP_SLICE):
                block = result.rows[lo : lo + _DUMP_SLICE]
                writer.writerows(np.column_stack([np.arange(lo, lo + len(block)), block]).tolist())
    rows = []
    for k in range(args.d):
        sim = result.means[k]
        formula = expected_f_model(args.model, args.n, args.d, k, args.cfg)
        diff = sim.value - formula.value
        denom = (sim.std_error**2 + formula.std_error**2) ** 0.5
        z = diff / denom if denom > 0 else 0.0 if diff == 0 else math.copysign(math.inf, diff)
        rows.append(_row(args, k, sim, n=args.n, formula_value=float(formula.value), z_score=float(z),
                         wall_time_s=wall))
    _emit(rows, args)
    print(f"simulate {args.model} n={args.n} d={args.d}: {result.replications} replications, "
          f"{result.degenerate_events} degenerate resamples", file=sys.stderr)
    return 0


def _cmd_monotonicity(args) -> int:
    target = args.family or args.model
    rows = []
    summaries = []
    for k in _ks(args, args.d):
        table, wall = _timed(args, monotonicity_table, target, args.d, k, args.n_min, args.n_max, args.cfg)
        rows += [_row(args, k, r, n=r.n, strict_increase=r.strict_increase, wall_time_s=wall) for r in table]
        steps = [r.strict_increase for r in table if r.strict_increase is not None]
        summaries.append(f"monotonicity {target} d={args.d} k={k}: "
                         f"{sum(steps)}/{len(steps)} steps strictly increasing")
    _emit(rows, args)
    for line in summaries:
        print(line, file=sys.stderr)
    return 0


def _cmd_poisson(args) -> int:
    rows = []
    for k in _ks(args, args.d):
        sums, wall = _timed(args, poissonized_series, args.t_grid, args.d, k, args.model, args.eps, args.cfg)
        for t, est in zip(args.t_grid, sums):
            tf = None if args.b is None else t_functional_expected(args.d, k, args.b, est.value, args.model)
            rows.append(_row(args, k, est, t=t, t_functional=tf, wall_time_s=wall))
        values = [est.value for est in sums]
        drops = sum(1 for a, b in zip(values, values[1:]) if b < a - 2 * args.eps)
        summary = "non-decreasing" if drops == 0 else f"{drops} decreasing steps"
        print(f"poisson {args.model} d={args.d} k={k}: {summary} over t grid", file=sys.stderr)
    _emit(rows, args)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="polyproj",
        description="Expected f-vectors of random projections of regular polytopes "
                    "and Gaussian random polytopes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expected", help="formula-side expected face counts")
    _add_target(p, GAUSSIAN_MODELS)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    _add_k(p)
    _add_common(p)
    p.set_defaults(func=_cmd_expected, parser=p)

    p = sub.add_parser("simulate", help="sample hulls and compare with the formula route")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, default=10_000)
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="write every sampled f-vector to this CSV file")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("monotonicity", help="expected f_k over a range of n with strictness verdicts")
    _add_target(p, GAUSSIAN_MODELS)
    p.add_argument("--d", type=_positive_int, required=True)
    _add_k(p)
    p.add_argument("--n-min", type=_positive_int, required=True)
    p.add_argument("--n-max", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_monotonicity, parser=p)

    p = sub.add_parser("poisson", help="Poissonized expectations over a grid of intensities")
    p.add_argument("--model", choices=GAUSSIAN_MODELS, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    _add_k(p)
    p.add_argument("--t-min", type=_positive_float, default=1.0)
    p.add_argument("--t-max", type=_positive_float, default=30.0)
    p.add_argument("--t-step", type=_positive_float, default=1.0)
    p.add_argument("--eps", type=_positive_float, default=1e-8,
                   help="truncation tolerance for the Poisson tail (default 1e-8)")
    p.add_argument("--b", type=_nonneg_float, default=None,
                   help="also report E sum of vol_k(F)^b over the k-faces F (t_functional)")
    _add_common(p)
    p.set_defaults(func=_cmd_poisson, parser=p)

    return parser


def main(argv=None) -> int:
    # post-parse usage errors go through the subcommand's parser, so they print its usage line
    args = build_parser().parse_args(argv)
    if hasattr(args, "n_min"):
        if args.n_max < args.n_min:
            args.parser.error(f"--n-max must be >= --n-min, got {args.n_max} < {args.n_min}")
        if args.n_max - args.n_min >= MAX_TABLE_ROWS:
            args.parser.error(f"--n-min {args.n_min} to --n-max {args.n_max} gives more than "
                              f"{MAX_TABLE_ROWS} table rows")
    if hasattr(args, "t_step"):
        try:
            args.t_grid = t_grid(args.t_min, args.t_max, args.t_step)
        except InvalidArgumentError as exc:
            args.parser.error(str(exc))
        if args.b is not None and args.k is not None and args.k >= args.d:
            args.parser.error(f"--b needs a face dimension --k below --d, got --k {args.k} and --d {args.d}")
    try:
        # the report file is opened first, so a bad --out fails before any work is done
        with open(args.out, "w", newline="", encoding="utf-8") if args.out else nullcontext(sys.stdout) as report:
            args.report = report
            args.cfg = MCConfig(samples=args.samples, seed=args.seed)
            return args.func(args)
    except (PolyprojError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
