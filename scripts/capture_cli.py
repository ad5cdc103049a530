#!/usr/bin/env python3
"""Capture every CLI subcommand's outputs on the bundled systems.

Runs `rdsys <subcommand>` in-process on each of the five bundled systems
with fixed seeds and arguments, and writes, per run, the stdout, the exit
code and every file the run writes with `-o`. Three generated systems
join them, seeded triadic chains from `systems.triadic_system`, so the
comparison covers the merge, the pair certificates and the exact solves on
large chains too. At 82 states with weights 0..3 the chain has dozens of
classes and thousands of separated pairs; it is written to
OUTDIR/triadic4_0to3/system.txt and run through `partition`, `graph`,
`simulate` and `xi` on a separated and a balanced pair. At 82 states with
weights 1..4 it is one class of 3,321 merged pairs; it is written to
OUTDIR/triadic4_1to4/system.txt and run through `partition` and `graph`.
At 244 states with weights 1..4 it is one terminal class, whose exact
weights and moments `graph` solves; it is written to
OUTDIR/triadic5_1to4/system.txt and run through `graph`. The shipped
`mixed_split` system, whose piecewise edges sit beside edges that read the
rationality tag, is run through `partition`, `graph`, `simulate` from an
irrational start and `xi` on a separated pair. A one-cell system of two
identity maps (probabilities 1/3 and 2/3), whose moment system is
singular, is written to OUTDIR/identity_maps/system.txt and run through
`graph`, which exits 3 with the solver's `SingularSystem`. A system with
no stable partition at the default cap (maps 2x/3 and x/3 + 2/3, cut at
1/2), whose exact folds walk words, is written to
OUTDIR/no_partition/system.txt and run through `cylinders`, `xi` and
`simulate`, which prints its trace and averages without class visits:

    OUTDIR/<system>/<run>/stdout.txt
    OUTDIR/<system>/<run>/exit_code.txt
    OUTDIR/<system>/<run>/out/...

Two captures of different checkouts are compared with one `diff -r`:

    PYTHONPATH=src python3 scripts/capture_cli.py /tmp/before
    PYTHONPATH=src python3 scripts/capture_cli.py /tmp/after
    diff -r /tmp/before /tmp/after

Usage: python3 scripts/capture_cli.py OUTDIR
"""

import argparse
import contextlib
import io
import random
import sys
from pathlib import Path

from rdsys import systems
from rdsys.cli import run
from rdsys.sysfile import save_system

SEED = "7"
SYSTEMS = ("step_ninth", "step_twentyseventh", "positive_step",
           "rational_split", "constant_half")
# point pairs for `xi`: one inside a cell, one across cells, one far apart
XI_PAIRS = {
    "step_ninth": (("1/2", "2/3"), ("1/4", "3/4"), ("1", "1/4")),
    "step_twentyseventh": (("1/2", "2/3"), ("1/20", "1/9"), ("1", "1/4")),
    "positive_step": (("1/4", "1/3"), ("1/4", "3/4"), ("0", "1")),
    "rational_split": (("0", "1/3"), ("0", "irr:1/2"), ("irr:1/5", "irr:9/10")),
    "constant_half": (("1/4", "3/4"), ("0", "1"), ("1/2", "1/2")),
}
DEEP_SYSTEM = "positive_step"
# a depth-1 exact scan finds no separating word for 1/4 and 3/4 here, so
# the word comes from a sampled path
SAMPLED_SYSTEM = "step_ninth"
# an irrational start on the system whose probabilities read the tag
TAGGED_SYSTEM = "rational_split"
# piecewise edges beside edges that read the tag; shipped, but not bundled
MIXED_SYSTEM = "mixed_split"


# generated system -> (m for 3^m + 1 states, the lowest of its four seeded weights)
GENERATED = {"triadic4_0to3": (4, 0), "triadic4_1to4": (4, 1), "triadic5_1to4": (5, 1)}
# every point is fixed, so the invariance of x * 1_[0,1] says nothing: the
# moment system's one row empties
IDENTITY_MAPS = """[domain]
lo = 0
hi = 1

[edge 0]
slope = 1
intercept = 0
prob = piecewise (0,1,true,true,1/3)

[edge 1]
slope = 1
intercept = 0
prob = piecewise (0,1,true,true,2/3)
"""

# pulling the cut at 1/2 back through 2x/3 never closes: no stable partition
NO_PARTITION = """[domain]
lo = 0
hi = 1

[edge 0]
slope = 2/3
intercept = 0
prob = piecewise (0,1/2,true,true,1/3);(1/2,1,false,true,2/3)

[edge 1]
slope = 1/3
intercept = 2/3
prob = piecewise (0,1/2,true,true,2/3);(1/2,1,false,true,1/3)
"""


def xi(path: str, x: str, y: str, n_exact: int):
    """argv of an `xi` run with the capture's seed and Monte Carlo budgets."""
    return ["xi", path, "--x", x, "--y", y, "--seed", SEED, "--samples", "300",
            "--n-mc", "300", "--n-exact", str(n_exact), "--json"]


def generated_runs(path: str, m: int, low: int):
    if m == 4:
        yield "partition", ["partition", path, "--seed", SEED, "--json"]
    yield "graph", ["graph", path, "--seed", SEED, "--json"]
    if low == 0:
        yield "simulate", ["simulate", path, "--x0", "1/3", "--steps", "2000",
                           "--seed", SEED, "--f", "poly:0,1", "--json"]
    if m == 4 and low == 0:
        # a separated pair, and a balanced one: (4/81,5/81] and (5/81,2/27] share class 5
        yield "xi_separated", xi(path, "1/3", "2/3", 4)
        yield "xi_balanced", xi(path, "1/18", "11/162", 4)


def mixed_runs(path: str):
    yield "partition", ["partition", path, "--seed", SEED, "--json"]
    yield "graph", ["graph", path, "--seed", SEED, "--json"]
    yield "simulate_irrational", ["simulate", path, "--x0", "irr:1/5", "--steps", "20000",
                                  "--seed", SEED, "--f", "poly:0,1", "--json"]
    yield "xi_separated", xi(path, "1/5", "4/5", 6)


def runs(name: str, path: str):
    """(run name, argv without -o) for every subcommand on one system."""
    yield "validate", ["validate", path, "--json"]
    yield "cylinders", ["cylinders", path, "--x", "1/3", "--depth", "6", "--json"]
    yield "cylinders_zero", ["cylinders", path, "--x", "1/3", "--depth", "6",
                             "--include-zero", "--json"]
    for k, (x, y) in enumerate(XI_PAIRS[name]):
        yield f"xi{k}", xi(path, x, y, 6)
    if name == DEEP_SYSTEM:
        # the exact walks at the depth the benchmark's paths workload uses
        yield "cylinders14", ["cylinders", path, "--x", "1/3", "--depth", "14", "--json"]
        yield "xi_exact14", xi(path, *XI_PAIRS[name][1], 14)
    if name == SAMPLED_SYSTEM:
        yield "xi_sampled_witness", xi(path, "1/4", "3/4", 1)
        yield "rate_default", ["rate", path, "--seed", SEED, "--json"]
        # more than one 65,536-draw chunk, so trace.csv crosses a chunk boundary
        yield "simulate_chunks", ["simulate", path, "--x0", "1/3", "--steps", "70000",
                                  "--seed", SEED, "--json"]
    if name == TAGGED_SYSTEM:
        # a tagged trace that turns float: the class frequencies read the tags
        yield "simulate_irrational", ["simulate", path, "--x0", "irr:1/5", "--steps",
                                      "20000", "--seed", SEED, "--f", "poly:0,1", "--json"]
        # the pushed cloud holds untagged floats, so a tagged start is refused
        yield "rate_irrational_start", ["rate", path, "--start", "irr:1/5", "--seed", "3",
                                        "--cloud-size", "500", "--steps", "12",
                                        "--burn", "32", "--json"]
    yield "partition", ["partition", path, "--seed", SEED, "--json"]
    yield "partition_lift10", ["partition", path, "--lift-depth", "10", "--json"]
    yield "graph", ["graph", path, "--seed", SEED, "--json"]
    yield "simulate", ["simulate", path, "--x0", "1/3", "--steps", "2000",
                       "--seed", SEED, "--f", "poly:0,1", "--json"]
    # long enough for the positions to turn float on every bundled system
    yield "simulate_float", ["simulate", path, "--x0", "1/3", "--steps", "20000",
                             "--seed", SEED, "--f", "poly:0,1", "--json"]
    yield "rate", ["rate", path, "--seed", SEED, "--b", "1/2", "--cloud-size", "500",
                   "--steps", "12", "--burn", "32", "--json"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory for the captured outputs")
    args = ap.parse_args()
    root = Path(args.outdir)
    plan = [(name, runs(name, str(systems.bundled_path(name)))) for name in SYSTEMS]
    plan.append((MIXED_SYSTEM, mixed_runs(str(systems.bundled_path(MIXED_SYSTEM)))))
    for name, (m, low) in GENERATED.items():
        generated = root / name / "system.txt"
        generated.parent.mkdir(parents=True, exist_ok=True)
        save_system(systems.triadic_system(m, random.Random(int(SEED)), zeros=low == 0),
                    generated)
        plan.append((name, generated_runs(str(generated), m, low)))
    identity = root / "identity_maps" / "system.txt"
    identity.parent.mkdir(parents=True, exist_ok=True)
    identity.write_text(IDENTITY_MAPS, encoding="utf-8")
    plan.append(("identity_maps", [("graph", ["graph", str(identity), "--seed", SEED,
                                              "--json"])]))
    walked = root / "no_partition" / "system.txt"
    walked.parent.mkdir(parents=True, exist_ok=True)
    walked.write_text(NO_PARTITION, encoding="utf-8")
    plan.append(("no_partition", [
        ("cylinders", ["cylinders", str(walked), "--x", "1/3", "--depth", "6", "--json"]),
        ("xi", xi(str(walked), "1/4", "3/4", 8)),
        ("xi_separated", xi(str(walked), "0", "1", 8)),
        ("simulate", ["simulate", str(walked), "--x0", "1/3", "--steps", "2000",
                      "--seed", SEED, "--f", "poly:0,1", "--json"])]))
    for name, named_runs in plan:
        for run_name, argv in named_runs:
            where = root / name / run_name
            where.mkdir(parents=True, exist_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv + ["-o", str(where / "out")])
            (where / "stdout.txt").write_text(out.getvalue(), encoding="utf-8")
            (where / "exit_code.txt").write_text(f"{code}\n{err.getvalue()}",
                                                 encoding="utf-8")
            print(f"{name} {run_name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
