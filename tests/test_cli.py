import io
import json
import time
from pathlib import Path

import pytest

from rdsys import dynamics, systems
from rdsys.cli import run
from rdsys.sysfile import load_system, save_system
from test_partition import one_point_system


@pytest.fixture
def step_file(tmp_path):
    path = tmp_path / "step.txt"
    path.write_text(systems.bundled_text("step_ninth"), encoding="utf-8")
    return str(path)


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text(systems.bundled_text("rational_split"), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_ok(self, step_file, capsys):
        assert run(["validate", step_file]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_non_unit_sum_exits_one(self, tmp_path, capsys):
        bad = systems.bundled_text("step_ninth").replace(
            "prob = piecewise (0,1/9,true,true,1);(1/9,1,false,true,1/2)",
            "prob = piecewise (0,1/9,true,true,1);(1/9,1,false,true,2/5)")
        path = tmp_path / "bad.txt"
        path.write_text(bad, encoding="utf-8")
        assert run(["validate", str(path)]) == 1
        assert "NonUnitSum" in capsys.readouterr().out

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("[domain]\nlo = 0\nhi = 1\nfoo = 2\n", encoding="utf-8")
        assert run(["validate", str(path)]) == 1

    def test_missing_file_exits_one(self):
        assert run(["validate", "/nonexistent/system.txt"]) == 1


class TestCylinders:
    def test_masses(self, step_file, capsys):
        assert run(["cylinders", step_file, "--x", "1", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.0,1/4" in out and "total mass 1" in out

    def test_budget_exit_code(self, step_file):
        assert run(["cylinders", step_file, "--x", "1", "--depth", "64",
                    "--word-budget", "1024"]) == 2

    def test_huge_depth_refused_without_the_power(self, step_file, capsys):
        # 2^(10^9) is never computed: the depth passes the budget's bit length
        start = time.perf_counter()
        assert run(["cylinders", step_file, "--x", "1", "--depth", "1000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "|E|^depth = 2^1000000000 exceeds budget 1048576" in capsys.readouterr().err


class TestXi:
    def test_certified_pair(self, step_file, capsys):
        assert run(["xi", step_file, "--x", "1", "--y", "1/4", "--seed", "5",
                    "--n-exact", "4", "--n-mc", "64", "--samples", "64"]) == 0
        out = capsys.readouterr().out
        assert "verdict: singular_certified" in out
        assert "exact separating word" in out

    def test_exact_equivalence_grade(self, capsys):
        path = str(systems.bundled_path("positive_step"))
        assert run(["xi", path, "--x", "1/4", "--y", "3/4", "--seed", "5",
                    "--n-exact", "4", "--n-mc", "64", "--samples", "64"]) == 0
        out = capsys.readouterr().out
        assert "verdict: equivalent" in out
        assert "evidence grade: exact certificate" in out

    def test_seed_required(self, step_file):
        with pytest.raises(SystemExit):
            run(["xi", step_file, "--x", "1", "--y", "1/4"])


class TestPartition:
    def test_step_report(self, step_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert run(["partition", step_file, "--seed", "7",
                    "-o", str(outdir), "--json"]) == 0
        out = capsys.readouterr().out
        assert "breakpoints: 0, 1/9, 1/3" in out
        assert "lift defect (depth 6, 5 points): 0" in out
        report = json.loads((outdir / "report.json").read_text())
        assert report["lift_defect"] == "0"
        assert (outdir / "partition_report.txt").exists()

    def test_byte_identical_reruns(self, split_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["partition", split_file, "--seed", "3", "--json"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        for name in ("report.txt", "report.json", "partition_report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_lift_depth_zero(self, step_file, capsys):
        assert run(["partition", step_file, "--lift-depth", "0"]) == 0
        assert "lift defect (depth 0, 5 points): 0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["cylinders", "--x", "1", "--depth", "-1"],
    ["partition", "--lift-depth", "-1"],
    ["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--n-exact", "-1"],
])
def test_negative_depth_is_usage_error(step_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv[:1] + [step_file] + argv[1:])
    assert exc.value.code == 2
    assert "depth must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--samples", "-2"],
     "samples must be >= 1, got -2"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--samples", "0"],
     "samples must be >= 1, got 0"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--n-mc", "0"],
     "n-mc must be >= 1, got 0"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["rate", "--seed", "1", "--steps", "-1"], "steps must be >= 0, got -1"),
    (["rate", "--seed", "1", "--burn", "-1"], "burn must be >= 0, got -1"),
    (["rate", "--seed", "1", "--cloud-size", "0"], "cloud-size must be >= 1, got 0"),
    (["rate", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["simulate", "--x0", "0", "--steps", "3", "--seed", "-1"], "seed must be >= 0"),
    (["simulate", "--x0", "0", "--steps", "-1", "--seed", "1"], "steps must be >= 0"),
    (["partition", "--seed", "-1"], "seed must be >= 0"),
    (["partition", "--refine-cap", "-1"], "refine-cap must be >= 0, got -1"),
    (["graph", "--refine-cap", "-1"], "refine-cap must be >= 0, got -1"),
    (["simulate", "--x0", "0", "--steps", "3", "--seed", "1", "--f", "foo:1"],
     "unknown test function 'foo:1'"),
    (["simulate", "--x0", "0", "--steps", "3", "--seed", "1", "--f", "ind:1,0,true,true"],
     "empty interval"),
    (["simulate", "--x0", "0", "--steps", "3", "--seed", "1", "--f", "poly:"],
     "not a rational: ''"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--drift-z", "nan"],
     "drift-z must be positive and finite, got nan"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--drift-z", "-1"],
     "drift-z must be positive and finite, got -1.0"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--drift-z", "0"],
     "drift-z must be positive and finite, got 0.0"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--drift-z", "inf"],
     "drift-z must be positive and finite, got inf"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--drift-z", "four"],
     "invalid float value: 'four'"),
    (["xi", "--x", "1", "--y", "1/4", "--seed", "1", "--word-budget", "0"],
     "word-budget must be >= 1, got 0"),
    (["cylinders", "--x", "1", "--depth", "2", "--word-budget", "0"],
     "word-budget must be >= 1, got 0"),
])
def test_bad_sampler_size_or_seed_is_usage_error(step_file, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv[:1] + [step_file] + argv[1:])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_rate_start_outside_domain_is_invalid_input(step_file, capsys):
    assert run(["rate", step_file, "--seed", "1", "--start", "5", "--cloud-size", "20",
                "--steps", "2", "--burn", "2"]) == 1
    assert "outside domain" in capsys.readouterr().err


def test_rate_tagged_start_is_invalid_input(split_file, capsys):
    # the float cloud carries no tag: an irr: start would run as its rational twin
    assert run(["rate", split_file, "--seed", "3", "--start", "irr:1/5", "--cloud-size",
                "20", "--steps", "2", "--burn", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: start irr:1/5")
    # a rational start on the tagged system keeps a rational orbit
    assert run(["rate", split_file, "--seed", "3", "--start", "1/5", "--cloud-size",
                "20", "--steps", "2", "--burn", "2"]) == 0


def test_mixed_system_runs(capsys):
    """Piecewise edges beside edges that read the tag: the partition is
    the interval cells crossed with the tag."""
    path = str(systems.bundled_path("mixed_split"))
    assert run(["partition", path]) == 0
    out = capsys.readouterr().out
    assert "lift defect (depth 6, 5 points): 0" in out
    assert "operator agreement defect (20 points, f in {1,x,x^2}): 0" in out
    assert run(["graph", path]) == 0
    assert "terminal components: [[0, 2], [1, 3]]" in capsys.readouterr().out
    assert run(["simulate", path, "--x0", "irr:1/5", "--steps", "200", "--seed", "7"]) == 0
    assert "class 1 [0,1/2] irrational" in capsys.readouterr().out


def test_simulate_files_the_start_before_any_step(tmp_path, monkeypatch, capsys):
    # {0} is a one-point cell, so irr:0 lies in no cell: refused unsimulated
    path = tmp_path / "one_point.txt"
    save_system(one_point_system(), path)
    monkeypatch.setattr(dynamics, "simulate",
                        lambda *args, **kwargs: pytest.fail("simulate ran"))
    assert run(["simulate", str(path), "--x0", "irr:0", "--steps", "100000",
                "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: point irr:0 not covered by any cell\n"


def test_partition_spot_point_at_a_one_point_cell(tmp_path, capsys):
    # {1/2} is a cell and 1/2 a tagged spot point: it is checked as rational
    path = tmp_path / "half.txt"
    path.write_text(
        "[domain]\nlo = 0\nhi = 1\n\n"
        "[edge 0]\nslope = 1/2\nintercept = 1/4\nprob = piecewise "
        "(0,1/2,true,false,1/2);(1/2,1/2,true,true,1/4);(1/2,1,false,true,1/2)\n\n"
        "[edge 1]\nslope = 1/2\nintercept = 0\nprob = piecewise "
        "(0,1/2,true,false,0);(1/2,1/2,true,true,1/4);(1/2,1,false,true,0)\n\n"
        "[edge 2]\nslope = 1/3\nintercept = 0\n"
        "prob = rationality q_value=1/2 irr_value=1/2\n", encoding="utf-8")
    assert run(["partition", str(path)]) == 0
    out = capsys.readouterr().out
    assert "state 2: {1/2} rational" in out and "{1/2} irrational" not in out
    assert "lift defect (depth 6, 5 points): 0" in out


class TestGraph:
    def test_step_graph(self, step_file, tmp_path, capsys):
        outdir = tmp_path / "g"
        assert run(["graph", step_file, "--seed", "7", "-o", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "irreducible: False" in out
        assert "state 1 (0,1/9]: 1/7" in out
        assert "state 3 (1/3,1]: 4/7" in out
        assert "global mean: 2/7" in out
        # `irreducible` states it once
        assert not any(line.startswith("recurrent") for line in out.splitlines())
        matrix = (outdir / "matrix.csv").read_text()
        assert "state2,0,1/2,0,1/2" in matrix
        pi = (outdir / "stationary.csv").read_text()
        assert "1,1/7" in pi and "3,4/7" in pi

    def test_no_unproven_stability_note(self, split_file, capsys):
        # two terminal components, so no unique stationary law: nothing may
        # predict one from recurrence
        assert run(["graph", split_file]) == 0
        out = capsys.readouterr().out
        assert "stationary weights are NOT unique" in out
        assert "stability note" not in out


class TestSimulate:
    def test_trace_outputs(self, step_file, tmp_path, capsys):
        outdir = tmp_path / "s"
        assert run(["simulate", step_file, "--x0", "0", "--steps", "500",
                    "--seed", "11", "-o", str(outdir),
                    "--f", "poly:0,1", "--f", "ind:1/3,1,false,true"]) == 0
        out = capsys.readouterr().out
        assert "ergodic average of poly:0,1" in out
        trace = (outdir / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,label,point,precision"
        assert trace[1] == "0,-,0,exact"
        assert trace[2] == "1,1,1/3,exact"

    def test_parser_reuse_keeps_the_default_average(self, step_file, capsys):
        # the parser is built once per process and --f appends to a list default
        base = ["simulate", step_file, "--x0", "0", "--steps", "50", "--seed", "11"]
        assert run(base + ["--f", "poly:0,1", "--f", "ind:1/3,1,false,true"]) == 0
        first = capsys.readouterr().out
        assert "ergodic average of ind:1/3,1,false,true" in first
        assert run(base) == 0
        averages = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("ergodic average")]
        assert len(averages) == 1 and averages[0].startswith("ergodic average of poly:0,1:")

    def test_exact_mode_fractions_only(self, step_file, tmp_path):
        outdir = tmp_path / "s2"
        assert run(["simulate", step_file, "--x0", "1/2", "--steps", "40",
                    "--seed", "2", "-o", str(outdir)]) == 0
        for line in (outdir / "trace.csv").read_text().splitlines()[1:]:
            assert line.endswith(",exact")
            assert "." not in line.split(",")[2]


    def test_trace_rendered_only_for_an_output_directory(self, step_file, tmp_path,
                                                         monkeypatch):
        argv = ["simulate", step_file, "--x0", "1/2", "--steps", "3000", "--seed", "5"]
        write_csv = dynamics.Trace.write_csv
        calls = []
        monkeypatch.setattr(dynamics.Trace, "write_csv",
                            lambda trace, fh: calls.append(1) or write_csv(trace, fh))
        assert run(argv) == 0
        assert calls == []
        outdir = tmp_path / "lazy"
        assert run(argv + ["-o", str(outdir)]) == 0
        assert calls == [1]
        expected = io.StringIO()
        write_csv(dynamics.simulate(load_system(step_file), "1/2", 3000, 5), expected)
        assert (outdir / "trace.csv").read_text(encoding="utf-8") == expected.getvalue()


class TestRate:
    def test_rate_summary(self, step_file, tmp_path, capsys):
        outdir = tmp_path / "r"
        assert run(["rate", step_file, "--seed", "13", "--b", "1/2",
                    "--cloud-size", "400", "--steps", "12", "--burn", "32",
                    "-o", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "geometric mean ratio" in out
        csv = (outdir / "rate.csv").read_text()
        assert csv.startswith("n,d_n,ratio")
        assert "bound=0.7071067811865476" in csv


class TestDeterminism:
    def test_simulate_byte_identical(self, split_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", split_file, "--x0", "0", "--steps", "200", "--seed", "9"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
