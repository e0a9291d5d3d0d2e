import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import polyproj
from polyproj import from_csv
import polyproj.cli as cli
from polyproj import InvalidArgumentError, clear_angle_memo
from polyproj.cli import build_parser, main
from polyproj.families import target_row
from oracles import per_replication_rows

SMALL = ["--samples", "5000", "--seed", "1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# expected


def test_expected_cube_all_k(capsys):
    code, out, _ = run(capsys, ["expected", "--family", "cube", "--n", "4", "--d", "3",
                                "--all-k", *SMALL])
    assert code == 0
    rows = from_csv(out)
    assert [(r.k, r.value, r.method) for r in rows] == [
        (0, 14.0, "exact"), (1, 24.0, "exact"), (2, 12.0, "exact"),
    ]
    assert all(r.command == "expected" and r.family == "cube" for r in rows)


def test_module_entry_point():
    # `python -m polyproj` in a fresh interpreter, on the copy of the package under test
    src = str(Path(polyproj.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "polyproj", "expected", "--family", "cube", "--n", "4", "--d", "3", "--all-k"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    row = from_csv(done.stdout)[0]
    assert (row.k, row.value, row.stderr, row.method) == (0, 14.0, 0.0, "exact")
    bad = subprocess.run(argv + ["--bogus"], capture_output=True, text=True, env=env, timeout=300)
    assert bad.returncode == 2
    assert "unrecognized arguments: --bogus" in bad.stderr


def test_expected_model_monte_carlo(capsys):
    # in R^3 the sum needs the sampled internal angle beta(Q_0, Q_2)
    code, out, _ = run(capsys, ["expected", "--model", "gaussian", "--n", "5", "--d", "3",
                                "--k", "0", *SMALL])
    assert code == 0
    row = from_csv(out)[0]
    assert row.method == "monte_carlo"
    assert row.stderr > 0
    assert 4.0 < row.value < 5.0


def test_expected_planar_model_is_exact(capsys):
    code, out, _ = run(capsys, ["expected", "--model", "gaussian", "--n", "5", "--d", "2",
                                "--k", "0", *SMALL])
    assert code == 0
    row = from_csv(out)[0]
    assert (row.method, row.stderr) == ("exact", 0.0)
    assert row.value == pytest.approx(4.12260172, rel=1e-8)


def test_expected_json_format(capsys):
    code, out, _ = run(capsys, ["expected", "--model", "zonotope", "--n", "4", "--d", "3",
                                "--k", "0", "--format", "json", *SMALL])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["value"] == 14.0
    assert payload[0]["model"] == "zonotope"


def test_expected_gaussian_all_k_stops_at_simplex_dim(capsys):
    # 3 Gaussian points make at most a triangle even in R^4
    code, out, _ = run(capsys, ["expected", "--model", "gaussian", "--n", "3", "--d", "4",
                                "--all-k", *SMALL])
    assert code == 0
    assert [r.k for r in from_csv(out)] == [0, 1]


def test_expected_out_file_is_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["expected", "--model", "symmetric", "--n", "4", "--d", "2", "--all-k", *SMALL]
    assert run(capsys, argv + ["--out", str(p1)])[0] == 0
    assert run(capsys, argv + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_expected_worker_invariance(capsys):
    argv = ["expected", "--model", "gaussian", "--n", "6", "--d", "3", "--k", "0",
            "--samples", "40000", "--seed", "2"]
    _, out1, _ = run(capsys, argv + ["--workers", "1"])
    _, out2, _ = run(capsys, argv + ["--workers", "2"])
    assert out1 == out2


def test_formula_commands_start_no_thread(monkeypatch, capsys):
    # --workers is simulate's; three chunks of every sampled angle are scored
    # on this thread.  d = 3 rows read beta(0, 2), the one sampled angle
    def no_thread(self):
        raise AssertionError(f"a formula command started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    clear_angle_memo()
    code, out, err = run(capsys, ["expected", "--model", "gaussian", "--n", "8", "--d", "3", "--all-k",
                                  "--samples", "70000", "--workers", "4"])
    clear_angle_memo()
    assert (code, err) == (0, "")
    assert "monte_carlo" in out  # some angle was sampled


def test_timings_column(capsys):
    # an expected row is timed over its own k; the rows of one simulate run
    # share that run's time, those of one monotonicity k that k's table, and
    # those of one poisson k that k's series.  Every other column is the
    # untimed run's
    for argv in (["expected", "--family", "cube", "--n", "3", "--d", "2", "--k", "0", *SMALL],
                 ["simulate", "--model", "zonotope", "--n", "4", "--d", "3", "--reps", "5", *SMALL],
                 ["monotonicity", "--family", "cube", "--d", "3", "--all-k", "--n-min", "2", "--n-max", "4", *SMALL],
                 ["poisson", "--model", "gaussian", "--d", "2", "--all-k", "--t-max", "5", *SMALL]):
        _, bare, _ = run(capsys, argv)
        assert all(r.wall_time_s is None for r in from_csv(bare))
        _, timed, _ = run(capsys, argv + ["--timings"])
        timed = from_csv(timed)
        assert [dataclasses.replace(r, wall_time_s=None) for r in timed] == from_csv(bare)
        assert all(r.wall_time_s >= 0.0 for r in timed)
        if argv[0] == "simulate":
            assert len({r.wall_time_s for r in timed}) == 1
        if argv[0] in ("monotonicity", "poisson"):
            for k in {r.k for r in timed}:
                assert len({r.wall_time_s for r in timed if r.k == k}) == 1


# one row of each command as the report writes it: the CSV line, and the JSON
# object with its indentation stripped
EXACT_ROWS = [
    (["expected", "--family", "cube", "--n", "4", "--d", "3", "--k", "1"],
     "expected,,cube,4,3,1,,24.0,0.0,exact,,,,,",
     '{"command": "expected","model": "","family": "cube","n": 4,"d": 3,"k": 1,"t": null,'
     '"value": 24.0,"stderr": 0.0,"method": "exact","strict_increase": null,"formula_value": null,'
     '"z_score": null,"t_functional": null,"wall_time_s": null}'),
    (["simulate", "--model", "zonotope", "--n", "4", "--d", "2", "--reps", "5"],
     "simulate,zonotope,,4,2,1,,8.0,0.0,monte_carlo,,8.0,0.0,,",
     '{"command": "simulate","model": "zonotope","family": "","n": 4,"d": 2,"k": 1,"t": null,'
     '"value": 8.0,"stderr": 0.0,"method": "monte_carlo","strict_increase": null,"formula_value": 8.0,'
     '"z_score": 0.0,"t_functional": null,"wall_time_s": null}'),
    (["monotonicity", "--family", "cube", "--d", "2", "--k", "0", "--n-min", "3", "--n-max", "4"],
     "monotonicity,,cube,3,2,0,,6.0,0.0,exact,true,,,,",
     '{"command": "monotonicity","model": "","family": "cube","n": 3,"d": 2,"k": 0,"t": null,'
     '"value": 6.0,"stderr": 0.0,"method": "exact","strict_increase": true,"formula_value": null,'
     '"z_score": null,"t_functional": null,"wall_time_s": null}'),
]


@pytest.mark.parametrize("argv,csv_row,json_row", EXACT_ROWS, ids=["expected", "simulate", "monotonicity"])
def test_exact_report_rows(capsys, argv, csv_row, json_row):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert csv_row in out.splitlines()
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json_row in "".join(line.strip() for line in out.splitlines())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zonotope_matches_formula(capsys):
    code, out, err = run(capsys, ["simulate", "--model", "zonotope", "--n", "4", "--d", "3",
                                  "--reps", "30", *SMALL])
    assert code == 0
    rows = from_csv(out)
    assert [r.value for r in rows] == [14.0, 24.0, 12.0]
    assert [r.formula_value for r in rows] == [14.0, 24.0, 12.0]
    assert all(r.z_score == 0.0 for r in rows)
    assert "30 replications" in err


def test_simulate_gaussian_z_scores(capsys):
    code, out, _ = run(capsys, ["simulate", "--model", "gaussian", "--n", "5", "--d", "2",
                                "--reps", "400", "--samples", "40000", "--seed", "0"])
    assert code == 0
    rows = from_csv(out)
    assert len(rows) == 2
    for r in rows:
        assert abs(r.z_score) < 4.0
        assert r.stderr > 0


def test_simulate_mean_below_an_exact_formula_has_z_score_minus_inf(capsys, monkeypatch):
    # with both standard errors 0, the z-score's infinity takes the sign of the difference
    simulate = cli.simulate_expected_f

    def one_below(cfg):
        result = simulate(cfg)
        means = {k: polyproj.Estimate(est.value - 1.0, 0.0) for k, est in result.means.items()}
        return dataclasses.replace(result, means=means)

    monkeypatch.setattr(cli, "simulate_expected_f", one_below)
    code, out, _ = run(capsys, ["simulate", "--model", "zonotope", "--n", "5", "--d", "3", "--reps", "20", *SMALL])
    assert code == 0
    rows = from_csv(out)
    assert [r.value for r in rows] == [r.formula_value - 1.0 for r in rows]
    assert [r.z_score for r in rows] == [-math.inf] * 3
    assert all(line.endswith(",-inf,,") for line in out.splitlines()[1:])


def test_simulate_dump(tmp_path, capsys):
    dump = tmp_path / "draws.csv"
    code, _, _ = run(capsys, ["simulate", "--model", "projected_cube", "--n", "3",
                              "--d", "2", "--reps", "10", "--dump", str(dump), *SMALL])
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "replication,f_0,f_1"
    assert len(lines) == 11


def test_dump_written_a_block_at_a_time_is_the_one_call_dump(tmp_path, capsys):
    # 1301 replications cross the 512- and 1024-row slice edges; the dump, written a
    # slice at a time, is one csv.writer pass over the rows of the per-replication
    # oracle, header included, on the minors route and on a cube model at d = 2
    for model, n, d in [("gaussian", 10, 3), ("projected_cube", 4, 2)]:
        dump = tmp_path / f"{model}.csv"
        code, _, _ = run(capsys, ["simulate", "--model", model, "--n", str(n), "--d", str(d), "--reps", "1301",
                                  "--seed", "6", "--samples", "5000", "--dump", str(dump)])
        assert code == 0
        rows, _ = per_replication_rows(model, n, d, 6, 1301)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replication"] + [f"f_{k}" for k in range(d)])
        writer.writerows([i, *row] for i, row in enumerate(rows.tolist()))
        assert dump.read_bytes() == buf.getvalue().encode()


def test_simulate_semantic_error_exits_1(capsys):
    code, _, err = run(capsys, ["simulate", "--model", "gaussian", "--n", "3", "--d", "3",
                                "--reps", "5", *SMALL])
    assert code == 1
    assert err.startswith("error:")
    # more than 2^32 replications is past the 2^26 cap on replications x d, an error line
    code, out, err = run(capsys, ["simulate", "--model", "gaussian", "--n", "6", "--d", "3",
                                  "--reps", str(2**32 + 1)])
    assert (code, out) == (1, "")
    assert err.startswith("error: replications x d must be <= 2^26, got 4294967297 x 3")
    # one replication has no standard error, so it is an error line too, not a stderr of 0
    code, out, err = run(capsys, ["simulate", "--model", "symmetric", "--n", "3", "--d", "2", "--reps", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: replications must be >= 2, got 1") and "Traceback" not in err


# ---------------------------------------------------------------------------
# monotonicity


def test_monotonicity_cube(capsys):
    code, out, err = run(capsys, ["monotonicity", "--family", "cube", "--d", "2",
                                  "--k", "0", "--n-min", "2", "--n-max", "6", *SMALL])
    assert code == 0
    rows = from_csv(out)
    assert [r.value for r in rows] == [4.0, 6.0, 8.0, 10.0, 12.0]
    assert [r.strict_increase for r in rows] == [True, True, True, True, None]
    assert "4/4 steps strictly increasing" in err


def test_monotonicity_all_k(capsys):
    code, out, _ = run(capsys, ["monotonicity", "--model", "zonotope", "--d", "3",
                                "--all-k", "--n-min", "3", "--n-max", "5", *SMALL])
    assert code == 0
    rows = from_csv(out)
    assert len(rows) == 9
    assert {r.k for r in rows} == {0, 1, 2}


def test_monotonicity_row_cap_boundary(monkeypatch, capsys):
    # MAX_TABLE_ROWS rows are a table; one more is a usage error, before any row is built
    assert cli.MAX_TABLE_ROWS is polyproj.expected.MAX_TABLE_ROWS == 100_000
    monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 5)
    argv = ["monotonicity", "--family", "cube", "--d", "2", "--k", "0", "--n-min", "2"]
    code, out, _ = run(capsys, [*argv, "--n-max", "6"])
    assert code == 0 and len(from_csv(out)) == 5
    monkeypatch.setattr(cli, "monotonicity_table", None)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n-max", "7"])
    assert exc.value.code == 2
    assert "gives more than 5 table rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["expected", "--model", "gaussian", "--n", str(10**21), "--d", "3", "--k", "0"],
     "error: external angles capped at polytope dimension n = 2^53"),
    (["expected", "--family", "crosspolytope", "--n", str(2**53 + 1), "--d", "2", "--k", "0"],
     "error: external angles capped at polytope dimension n = 2^53"),
    (["poisson", "--model", "gaussian", "--d", "3", "--k", "0", "--t-min", "1e6", "--t-max", "1e6"],
     "error: poissonized sum did not reach eps=1e-08 within 10000 terms"),
    (["poisson", "--model", "zonotope", "--d", "3", "--k", "0", "--t-min", "600", "--t-max", "1e6",
      "--t-step", "999400"], "error: poissonized sum did not reach eps=1e-08 within 10000 terms"),
    (["simulate", "--model", "gaussian", "--n", str(10**11), "--d", "3", "--reps", "2"],
     "error: model gaussian capped at 200000 hull points"),
])
def test_sizes_past_their_caps_exit_1(capsys, argv, message):
    # each size is known before any angle is taken or any point drawn
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)


@pytest.mark.parametrize("argv,message", [
    (["expected", "--family", "simplex", "--n", "2000", "--d", "2000", "--all-k"],
     "error: an exact value of about 2^1024 is past the float range"),
    (["expected", "--family", "cube", "--n", "1024", "--d", "1024", "--k", "0"],
     "error: an exact value of about 2^1024 is past the float range"),
    (["expected", "--family", "cube", "--n", "1100", "--d", "1100", "--k", "0"],
     "error: an exact count of at least 2^1100 is past the float range"),
    (["expected", "--family", "cube", "--n", str(10**12), "--d", str(10**12), "--k", "0"],
     "error: an exact count of at least 2^2048 is past the float range"),
    (["monotonicity", "--family", "simplex", "--d", "2000", "--k", "500", "--n-min", "1500", "--n-max", "1501"],
     "error: an exact value of about 2^1373 is past the float range"),
    (["expected", "--model", "gaussian", "--n", "3000", "--d", "1500", "--k", "1499"],
     "error: an exact value of about 2^2993 is past the float range"),
    (["simulate", "--model", "gaussian", "--n", "6", "--d", "3", "--reps", str(2**32)],
     "error: replications x d must be <= 2^26, got 4294967296 x 3"),
])
def test_exact_counts_past_the_float_range_exit_1(capsys, argv, message):
    # a count too large for a report's float is a typed error, found before a
    # face count or a closed form is built where it is one of those
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(message) and "Traceback" not in err


def test_exact_rows_at_the_edge_of_the_float_range(capsys):
    # 2^1023 vertices fit a float; a zero Poisson sum whose face bounds do not
    # fit one still ends, its tail compared in log space
    code, out, _ = run(capsys, ["expected", "--family", "cube", "--n", "1023", "--d", "1023", "--k", "0"])
    assert code == 0 and out.splitlines()[1] == "expected,,cube,1023,1023,0,,8.98846567431158e+307,0.0,exact,,,,,"
    code, out, _ = run(capsys, ["poisson", "--model", "gaussian", "--d", "3", "--k", "250",
                                "--t-min", "2000", "--t-max", "2000"])
    assert code == 0 and out.splitlines()[1:] == ["poisson,gaussian,,,3,250,2000.0,0.0,0.0,exact,,,,,"]
    code, out, _ = run(capsys, ["expected", "--family", "cube", "--n", str(10**12), "--d", "3", "--all-k"])
    assert code == 0 and [line.split(",")[9] for line in out.splitlines()[1:]] == ["exact"] * 3


def test_monotonicity_range_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["monotonicity", "--family", "cube", "--d", "2", "--k", "0",
              "--n-min", "5", "--n-max", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["monotonicity", "--family", "cube", "--d", "3", "--k", "0", "--n-min", "5", "--n-max", "3"],
     "--n-max must be >= --n-min, got 3 < 5"),
    (["poisson", "--model", "gaussian", "--d", "2", "--k", "0", "--t-min", "1e-13", "--t-max", "1"],
     "grid points must be positive and distinct"),
    (["monotonicity", "--family", "cube", "--d", "3", "--k", "0", "--n-min", "1", "--n-max", str(10**23)],
     f"--n-min 1 to --n-max {10**23} gives more than 100000 table rows"),
])
def test_post_parse_errors_print_the_subcommand_usage(capsys, argv, message):
    # checks made after parsing report through the subcommand's parser, as argparse's own errors do
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: polyproj {argv[0]} [-h]")
    assert f"polyproj {argv[0]}: error: " in captured.err
    assert message in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# poisson


def test_poisson_zonotope_grid(capsys):
    code, out, err = run(capsys, ["poisson", "--model", "zonotope", "--d", "2", "--k", "0",
                                  "--t-min", "1", "--t-max", "5", "--t-step", "1", *SMALL])
    assert code == 0
    rows = from_csv(out)
    assert [r.t for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(r.method == "exact" for r in rows)
    values = [r.value for r in rows]
    assert values == sorted(values)
    assert "non-decreasing" in err


def test_poisson_t_functional_column(capsys):
    # the mean edge length: sqrt(pi) on standard Gaussian points' hull, and
    # sqrt(pi / 2) for a zonotope, whose edges are its Gaussian generators
    for model, length in [("gaussian", math.sqrt(math.pi)), ("zonotope", math.sqrt(math.pi / 2))]:
        code, out, _ = run(capsys, ["poisson", "--model", model, "--d", "2", "--all-k",
                                    "--t-min", "2", "--t-max", "2", "--b", "1.0", *SMALL])
        assert code == 0
        by_k = {r.k: r for r in from_csv(out)}
        assert by_k[0].t_functional == by_k[0].value  # k = 0 collapses to counting
        assert by_k[1].t_functional == pytest.approx(by_k[1].value * length)


@pytest.mark.parametrize("model,d,k,multiplier", [("gaussian", 2, 1, 4.0), ("zonotope", 3, 2, 6.0)])
def test_poisson_b2_anchors(capsys, model, d, k, multiplier):
    # at b = 2 the multipliers are 4 and 6, and the column is the value times them, exactly
    code, out, _ = run(capsys, ["poisson", "--model", model, "--d", str(d), "--k", str(k),
                                "--t-min", "3", "--t-max", "3", "--b", "2", *SMALL])
    assert code == 0
    (row,) = from_csv(out)
    assert row.t_functional == row.value * multiplier


def test_poisson_b_row_columns(capsys):
    code, out, _ = run(capsys, ["poisson", "--model", "zonotope", "--d", "3", "--k", "2",
                                "--t-min", "4", "--t-max", "4", "--b", "1.5"])
    assert code == 0
    (row,) = from_csv(out)
    assert (row.command, row.model, row.family, row.n, row.d, row.k, row.t) == ("poisson", "zonotope", "", None, 3, 2, 4.0)
    assert row.t_functional == polyproj.t_functional_expected(3, 2, 1.5, row.value, "zonotope")
    assert row.t_functional != row.value
    assert (row.strict_increase, row.formula_value, row.z_score, row.wall_time_s) == (None,) * 4


def test_poisson_without_b_leaves_column_empty(capsys):
    _, out, _ = run(capsys, ["poisson", "--model", "zonotope", "--d", "2", "--k", "0",
                             "--t-min", "1", "--t-max", "1", *SMALL])
    assert from_csv(out)[0].t_functional is None


def test_poisson_sampled_rows_are_not_exact(capsys):
    # at one sample per angle most sums carry stderr 0, but every term past ell = 4 is sampled
    code, out, _ = run(capsys, ["poisson", "--model", "gaussian", "--d", "3", "--k", "0",
                                "--t-max", "5", "--samples", "1"])
    assert code == 0
    rows = from_csv(out)
    assert any(r.stderr == 0 for r in rows)
    assert all(r.method == "monte_carlo" for r in rows)


@pytest.mark.parametrize("flags", [
    ["--model", "gaussian", "--d", "3", "--all-k", "--t-max", "6", *SMALL],
    ["--model", "symmetric", "--d", "2", "--all-k", "--t-min", "0.5", "--t-max", "9", "--t-step", "0.5"],
    ["--model", "gaussian", "--d", "2", "--k", "1", "--b", "1.5", "--t-max", "8"],
    ["--model", "zonotope", "--d", "3", "--all-k", "--t-max", "6", "--format", "json"],
], ids=["gaussian-d3-all-k", "symmetric-d2-all-k", "b", "json"])
def test_poisson_report_matches_one_sum_per_t(capsys, flags):
    # the report, byte for byte, as rendered from one poissonized_expected call per t
    code, out, _ = run(capsys, ["poisson", *flags])
    assert code == 0
    args = build_parser().parse_args(["poisson", *flags])
    cfg = polyproj.MCConfig(samples=args.samples, seed=args.seed, workers=args.workers)
    rows = []
    for k in range(args.d) if args.all_k else [args.k]:
        for t in cli.t_grid(args.t_min, args.t_max, args.t_step):
            est = polyproj.poissonized_expected(t, args.d, k, args.model, args.eps, cfg)
            tf = None if args.b is None else polyproj.t_functional_expected(args.d, k, args.b, est.value, args.model)
            rows.append(polyproj.ReportRow(command="poisson", model=args.model, d=args.d, k=k, t=t,
                                           value=est.value, stderr=est.std_error, method=est.method,
                                           t_functional=tf))
    assert out == polyproj.render(rows, args.format)


def test_t_grid_accumulates_steps():
    assert cli.t_grid(1.0, 30.0, 1.0) == [float(t) for t in range(1, 31)]
    # the slack past --t-max is at most half a step, so a tiny step stops at --t-max
    assert cli.t_grid(1.0, 1.0, 1e-11) == [1.0]
    grid, t = [], 0.5
    while t <= 3.0 + 1e-9:
        grid.append(round(t, 12))
        t += 0.1
    assert cli.t_grid(0.5, 3.0, 0.1) == grid
    assert cli.t_grid(5.0, 5.0, 1.0) == [5.0]
    assert len(cli.t_grid(1.0, float(cli.MAX_T_POINTS), 1.0)) == cli.MAX_T_POINTS


def test_poisson_accepts_the_smallest_t_min(capsys):
    # 1e-12 is the least positive t at 12 decimals
    code, out, _ = run(capsys, ["poisson", "--model", "zonotope", "--d", "2", "--k", "0",
                                "--t-min", "1e-12", "--t-max", "1e-12"])
    assert code == 0
    assert out.splitlines()[1].startswith("poisson,zonotope,,,2,0,1e-12,")


# each of these grids is endless or too large to build: always ask cli.t_grid
# first, so that a build without the bound fails fast instead of filling memory
BAD_T_GRIDS = [
    ((1.0, 1e12, 1.0), "more than"),  # too many points
    ((1.0, 30.0, 1e-300), "more than"),  # the step never moves t
    ((5.0, 2.0, 1.0), "--t-max must be >= --t-min"),  # empty
]


@pytest.mark.parametrize("grid,message", BAD_T_GRIDS + [
    ((1e17, 1e17 + 64, 1.0), "more than"),  # the step is below the spacing of doubles at t
    ((1.0, 10_001.0, 1.0), "more than 10000 grid points"),
    ((1.0, 1.0 + 1e-11, 1e-13), "positive and distinct"),  # steps that vanish at 12 decimals
])
def test_t_grid_rejects_unbounded_or_empty_grids(grid, message):
    with pytest.raises(InvalidArgumentError, match=message):
        cli.t_grid(*grid)


@pytest.mark.parametrize("grid,message", BAD_T_GRIDS + [
    ((4e-13, 1.0, 1.0), "positive and distinct"),  # t = 0 at 12 decimals
])
def test_poisson_bad_t_grid_exits_2(capsys, grid, message):
    with pytest.raises(InvalidArgumentError):
        cli.t_grid(*grid)
    flags = [f"--t-{name}={value!r}" for name, value in zip(("min", "max", "step"), grid)]
    with pytest.raises(SystemExit) as exc:
        main(["poisson", "--model", "zonotope", "--d", "2", "--k", "0", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# shared plumbing


# the rows that an older release rejected; "missing-dir" names a path whose directory is absent
CACHE_FILES = {
    "corrupt": b"# angle cache\nsimplexface 0 0 2 int 100 0 0.5\n",
    "malformed-row": b"simplex 4 -1 0 ext 100 0 notanumber 0.1\n",
    "not-utf8": b"\xff\xfe simplex 4 -1 0 ext 100 0 0.5 0.05\n",
    "not-utf8-after-header": b"# angle cache\n\xff\xfe simplex 4 -1 0 ext 100 0 0.5 0.05\n",
    "missing-dir": b"# angle cache\nsimplexface 0 0 2 int 100 0 0.5\n",
}


@pytest.mark.parametrize("cache", list(CACHE_FILES))
@pytest.mark.parametrize("argv", [
    ["expected", "--family", "cube", "--n", "4", "--d", "3", "--all-k"],
    ["expected", "--model", "gaussian", "--n", "6", "--d", "3", "--all-k", *SMALL],
    ["monotonicity", "--family", "crosspolytope", "--d", "2", "--k", "0", "--n-min", "2", "--n-max", "9"],
    ["poisson", "--model", "gaussian", "--d", "2", "--k", "0", "--t-max", "3"],
    ["simulate", "--model", "zonotope", "--n", "4", "--d", "3", "--reps", "5"],
], ids=["expected-cube", "expected-sampled", "monotonicity-planar", "poisson-planar", "simulate-zonotope"])
def test_angle_cache_is_ignored(tmp_path, capsys, argv, cache):
    # --angle-cache is still parsed, but no file is read, created or written
    from polyproj import clear_angle_memo

    corrupt = tmp_path / "angles.txt"
    corrupt.write_bytes(CACHE_FILES[cache])
    before = corrupt.read_bytes()
    path = tmp_path / "missing" / "angles.txt" if cache == "missing-dir" else corrupt
    clear_angle_memo()
    plain = run(capsys, argv)
    clear_angle_memo()
    flagged = run(capsys, argv + ["--angle-cache", str(path)])
    assert plain[0] == 0 and flagged == plain
    assert sorted(tmp_path.iterdir()) == [corrupt] and corrupt.read_bytes() == before
    clear_angle_memo()


@pytest.mark.parametrize("argv", [
    ["expected", "--family", "cube", "--n", "4", "--d", "3", "--all-k", "--out", "{missing}/x.csv"],
    ["simulate", "--model", "zonotope", "--n", "4", "--d", "3", "--reps", "5", "--dump", "{missing}/d.csv"],
], ids=["out", "dump"])
def test_unusable_paths_exit_1(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the output paths were opened")


@pytest.mark.parametrize("argv,patched", [
    (["simulate", "--model", "symmetric", "--n", "10", "--d", "4", "--reps", "1000000", "--dump", "{missing}/d.csv"],
     "polyproj.hull._replication_block"),
    (["simulate", "--model", "symmetric", "--n", "10", "--d", "4", "--reps", "1000000", "--out", "{missing}/x.csv"],
     "polyproj.hull._replication_block"),
    (["expected", "--model", "gaussian", "--n", "6", "--d", "3", "--all-k", "--out", "{missing}/x.csv"],
     "polyproj.cli.expected_f_model"),
], ids=["simulate-dump", "simulate-out", "expected-out"])
def test_bad_output_paths_fail_before_any_work(tmp_path, capsys, monkeypatch, argv, patched):
    # --out and --dump are opened first: a bad path exits 1 before one replication or angle is drawn
    monkeypatch.setattr(patched, _must_not_run)
    code, out, err = run(capsys, [a.format(missing=tmp_path / "missing") for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_simulate_abort_exits_1(capsys, monkeypatch):
    # every draw flat: replication 0 is still flat after the last attempt
    from polyproj import hull

    draws = hull.replication_maps

    def flat_maps(*args):
        for indices, maps in draws(*args):
            maps[:, :, -1] = 0.0
            yield indices, maps

    monkeypatch.setattr(hull, "replication_maps", flat_maps)
    code, out, err = run(capsys, ["simulate", "--model", "gaussian", "--n", "6", "--d", "3", "--reps", "10", *SMALL])
    assert code == 1 and out == ""
    assert err == "error: replication 0 of model gaussian stayed degenerate after 5 attempts\n"


def test_every_result_is_an_estimate(capsys):
    """Every number the library returns is an Estimate whose method the CLI prints as is."""
    cfg = polyproj.MCConfig(samples=2000, seed=1)
    small = ["--samples", "2000", "--seed", "1"]

    def printed(argv):
        code, out, _ = run(capsys, argv + small)
        assert code == 0
        return [r.method for r in from_csv(out)]

    # beta(0, 2) is the one sampled angle; beta(0, 3) is a closed form
    angles = [polyproj.external_angle("simplex", 5, 1, cfg), polyproj.external_angle("cube", 5, 1),
              polyproj.internal_angle("simplex", 5, 0, 2, cfg), polyproj.internal_angle("simplex", 5, 0, 3, cfg),
              polyproj.internal_angle("simplex", 5, 0, 1)]
    assert all(isinstance(a, polyproj.Estimate) for a in angles)
    assert [a.method for a in angles] == ["exact", "exact", "monte_carlo", "exact", "exact"]

    for target, flag in (("gaussian", "--model"), ("cube", "--family")):
        ests = [polyproj.expected_f_model(target_row(target), 6, 3, k, cfg) for k in range(3)]
        assert all(isinstance(e, polyproj.Estimate) for e in ests)
        assert [e.method for e in ests] == printed(
            ["expected", flag, target, "--n", "6", "--d", "3", "--all-k"])

        rows = polyproj.monotonicity_table(target, 3, 0, 4, 6, cfg)
        assert all(isinstance(r, polyproj.Estimate) for r in rows)
        assert [r.method for r in rows] == printed(
            ["monotonicity", flag, target, "--d", "3", "--k", "0", "--n-min", "4", "--n-max", "6"])

    # a segment's counts are exact at every size, and planar sums sample no
    # angle, so d = 1 and d = 2 give exact sums; d = 3 samples beta(Q_0, Q_2)
    for d, method in ((1, "exact"), (2, "exact"), (3, "monte_carlo")):
        sums = [polyproj.poissonized_expected(t, d, 0, model="gaussian", cfg=cfg) for t in (2.0, 3.0)]
        assert all(isinstance(p, polyproj.Estimate) for p in sums)
        assert [p.method for p in sums] == [method] * 2 == printed(
            ["poisson", "--model", "gaussian", "--d", str(d), "--k", "0", "--t-min", "2", "--t-max", "3"])

    for model in ("zonotope", "gaussian"):
        sim = polyproj.SimConfig(model=model, n=5, d=3, replications=20, seed=1)
        means = list(polyproj.simulate_expected_f(sim).means.values())
        assert all(isinstance(m, polyproj.Estimate) for m in means)
        assert [m.method for m in means] == printed(
            ["simulate", "--model", model, "--n", "5", "--d", "3", "--reps", "20"])


@pytest.mark.parametrize("argv", [[], ["expected"], ["simulate"], ["monotonicity"], ["poisson"]])
def test_help_exits_0(capsys, argv):
    # help strings are only formatted here, so a bad one surfaces as a traceback
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: polyproj {' '.join(argv)}".rstrip())


def test_bad_workers_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("POLYPROJ_WORKERS", "x")
    with pytest.raises(SystemExit) as exc:
        main(["expected", "--family", "cube", "--n", "4", "--d", "3", "--k", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --workers: expected a positive integer, got 'x'" in err
    assert "$POLYPROJ_WORKERS" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_reads_workers_environment_per_run(monkeypatch, capsys):
    # the parser is built once, so $POLYPROJ_WORKERS must be read when each command is parsed;
    # simulate's SimConfig is where the count is used (one block here, so no pool starts)
    seen = []
    real = cli.SimConfig
    monkeypatch.setattr(cli, "SimConfig", lambda **kw: seen.append(kw["workers"]) or real(**kw))
    argv = ["simulate", "--model", "zonotope", "--n", "4", "--d", "3", "--reps", "5"]
    for value in ("3", "2"):
        monkeypatch.setenv("POLYPROJ_WORKERS", value)
        assert main(argv) == 0
    assert main([*argv, "--workers", "4"]) == 0  # the flag wins over the environment
    monkeypatch.delenv("POLYPROJ_WORKERS")
    assert main(argv) == 0
    assert seen == [3, 2, 4, 1]
    assert build_parser().parse_args(argv).workers == 1


@pytest.mark.parametrize("flag,expected", [
    ("--samples", "expected a positive integer, got 'x'"),
    ("--seed", "expected a nonnegative integer, got 'x'"),
    ("--workers", "expected a positive integer, got 'x'"),
])
def test_non_numeric_flag_message(capsys, flag, expected):
    with pytest.raises(SystemExit) as exc:
        main(["expected", "--family", "cube", "--n", "4", "--d", "3", "--k", "0", flag, "x"])
    assert exc.value.code == 2
    assert f"argument {flag}: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["expected", "--family", "cube", "--n", "4", "--d", "3"],  # missing k choice
    ["expected", "--family", "cube", "--model", "gaussian", "--n", "4", "--d", "3", "--k", "0"],
    ["expected", "--family", "icosahedron", "--n", "4", "--d", "3", "--k", "0"],
    ["expected", "--family", "cube", "--n", "0", "--d", "3", "--k", "0"],
    ["expected", "--family", "cube", "--n", "4", "--d", "3", "--k", "0", "--samples", "0"],
    ["simulate", "--model", "hexagon", "--n", "4", "--d", "3", "--reps", "5"],
    ["poisson", "--model", "gaussian", "--d", "2", "--k", "0", "--eps", "0"],
    ["frobnicate"],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--t-min", "--t-max", "--t-step", "--eps", "--b"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_floats_are_usage_errors(capsys, flag, value):
    # parsed only: a run with --t-max inf would never finish its grid
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["poisson", "--model", "gaussian", "--d", "2", "--k", "0", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a " in capsys.readouterr().err


def test_finite_b_parses():
    for value in (0.0, 1.5):
        args = build_parser().parse_args(["poisson", "--model", "gaussian", "--d", "2", "--k", "0", f"--b={value}"])
        assert args.b == value


def test_negative_b_exits_2_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("poissonized_series ran before --b was checked")

    monkeypatch.setattr(cli, "poissonized_series", no_sampling)
    with pytest.raises(SystemExit) as exc:
        main(["poisson", "--model", "gaussian", "--d", "2", "--k", "0", "--b", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --b: expected a nonnegative number, got -1.0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("k", ["2", "3"])
def test_b_with_k_not_below_d_exits_2_before_any_sum(monkeypatch, capsys, k):
    # k = d is the polytope itself, whose size functional was printed as a face's
    def no_sum(*args, **kwargs):
        raise AssertionError("poissonized_series ran before --k was checked against --d")

    monkeypatch.setattr(cli, "poissonized_series", no_sum)
    with pytest.raises(SystemExit) as exc:
        main(["poisson", "--model", "gaussian", "--d", "2", "--k", k, "--t-min", "5", "--t-max", "5", "--b", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: polyproj poisson")
    assert f"--b needs a face dimension --k below --d, got --k {k} and --d 2" in captured.err


@pytest.mark.parametrize("b", ["1e6", "1e308"])
def test_b_past_the_float_range_exits_1(capsys, b):
    # the size-functional multiplier at d = 3, k = 2 leaves the float range
    # near b = 201.93 and its log-Gammas near b = 1e308: an error line, where
    # math.exp and math.lgamma raised a bare OverflowError
    code, out, err = run(capsys, ["poisson", "--model", "gaussian", "--d", "3", "--k", "2", "--t-max", "2", "--b", b])
    assert code == 1 and out == ""
    assert err == f"error: the size functional at d=3, k=2, b={float(b)!r} is past the float range\n"
