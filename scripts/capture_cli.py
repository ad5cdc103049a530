#!/usr/bin/env python3
"""Capture every CLI subcommand's outputs on the bundled systems.

Runs `rdsys <subcommand>` in-process on each of the five bundled systems
with fixed seeds and arguments, and writes, per run, the stdout, the exit
code and every file the run writes with `-o`:

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
import sys
from pathlib import Path

from rdsys import systems
from rdsys.cli import run

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


def runs(name: str, path: str):
    """(run name, argv without -o) for every subcommand on one system."""
    yield "validate", ["validate", path, "--json"]
    yield "cylinders", ["cylinders", path, "--x", "1/3", "--depth", "6", "--json"]
    for k, (x, y) in enumerate(XI_PAIRS[name]):
        yield f"xi{k}", ["xi", path, "--x", x, "--y", y, "--seed", SEED,
                         "--samples", "300", "--n-mc", "300", "--n-exact", "6",
                         "--json"]
    yield "partition", ["partition", path, "--seed", SEED, "--json"]
    yield "graph", ["graph", path, "--seed", SEED, "--json"]
    yield "simulate", ["simulate", path, "--x0", "1/3", "--steps", "2000",
                       "--seed", SEED, "--f", "poly:0,1", "--json"]
    yield "rate", ["rate", path, "--seed", SEED, "--b", "1/2", "--cloud-size", "500",
                   "--steps", "12", "--burn", "32", "--json"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory for the captured outputs")
    args = ap.parse_args()
    root = Path(args.outdir)
    for name in SYSTEMS:
        path = str(systems.bundled_path(name))
        for run_name, argv in runs(name, path):
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
