"""Command-line front end.

Subcommands: validate, cylinders, xi, partition, graph, simulate, rate.
Exit codes: 0 success, 1 validation failure, 2 budget exhaustion,
3 internal invariant violation. Stochastic subcommands require --seed;
partition and graph accept it and ignore it, since they sample nothing;
identical inputs, seed and caps produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import dynamics, graph as graphmod, measures, partition as partmod
from .model import (BudgetExceeded, OutOfDomain, Point, RdsError, SpecFileError,
                    as_point, format_rational, format_word, parse_rational,
                    validate_system)
from .sysfile import load_system

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_INVARIANT = 3


class _Output:
    """Collects named output files plus a stdout report. A file is a
    zero-argument callable that renders its text; `flush` calls it only
    when there is a directory to write to."""

    def __init__(self, outdir):
        self.outdir = Path(outdir) if outdir else None
        self.report_lines = []
        self.files = {}

    def say(self, line: str = "") -> None:
        self.report_lines.append(line)

    def file(self, name: str, render) -> None:
        self.files[name] = render

    def flush(self, json_tree=None) -> None:
        text = "\n".join(self.report_lines) + "\n"
        sys.stdout.write(text)
        if self.outdir:
            self.outdir.mkdir(parents=True, exist_ok=True)
            (self.outdir / "report.txt").write_text(text, encoding="utf-8")
            for name, render in self.files.items():
                (self.outdir / name).write_text(render(), encoding="utf-8")
            if json_tree is not None:
                (self.outdir / "report.json").write_text(
                    json.dumps(json_tree, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
        elif json_tree is not None:
            sys.stdout.write(json.dumps(json_tree, indent=2, sort_keys=True) + "\n")


UNUSED_SEED = "accepted and ignored: every verdict is exact, nothing is sampled"


def _checked(convert, what: str = "", rule: str = "", ok=lambda value: True):
    """An argparse type: `convert(text)`, a usage error naming `what` unless
    it satisfies `ok`, stated as `rule`. An `RdsError` of `convert` is one too."""
    def parse(text: str):
        try:
            value = convert(text)
        except RdsError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{what} must be {rule}, got {value}")
        return value
    parse.__name__ = convert.__name__   # argparse names the type in "invalid int value"
    return parse


def _at_least(least: int, what: str):
    return _checked(int, what, f">= {least}", lambda v: v >= least)


_depth = _at_least(0, "depth")
_seed = _at_least(0, "seed")
_refine_cap = _at_least(0, "refine-cap")
_word_budget = _at_least(1, "word-budget")
_drift_z = _checked(float, "drift-z", "positive and finite", lambda v: 0 < v < float("inf"))
_test_function = _checked(dynamics.parse_test_function)


def _add_common(sp, *, seeded: bool) -> None:
    sp.add_argument("system", help="system specification file")
    sp.add_argument("-o", "--outdir", default=None, help="directory for output files")
    sp.add_argument("--json", action="store_true", help="also emit a JSON report")
    if seeded:
        sp.add_argument("--seed", type=_seed, required=True,
                        help="seed (mandatory; no wall-clock default)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` leaves it as it
    was (an appended option copies its list default before appending)."""
    ap = argparse.ArgumentParser(
        prog="rdsys",
        description="analysis of random dynamical systems on rational intervals")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check unit sums and domain invariance")
    _add_common(sp, seeded=False)

    sp = sub.add_parser("cylinders", help="exact depth-n cylinder masses")
    _add_common(sp, seeded=False)
    sp.add_argument("--x", required=True, help="start point (p/q or irr:p/q)")
    sp.add_argument("--depth", type=_depth, required=True)
    sp.add_argument("--include-zero", action="store_true")
    sp.add_argument("--word-budget", type=_word_budget, default=measures.DEFAULT_WORD_BUDGET)

    sp = sub.add_parser("xi", help="mutual-absolute-continuity evidence for two points")
    _add_common(sp, seeded=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--n-exact", type=_depth, default=10)
    sp.add_argument("--n-mc", type=_at_least(1, "n-mc"), default=2000)
    sp.add_argument("--samples", type=_at_least(1, "samples"), default=4000)
    sp.add_argument("--drift-z", type=_drift_z, default=4.0)
    sp.add_argument("--word-budget", type=_word_budget, default=measures.DEFAULT_WORD_BUDGET)

    sp = sub.add_parser("partition", help="stable partition and merged classes")
    _add_common(sp, seeded=False)
    sp.add_argument("--seed", type=_seed, help=UNUSED_SEED)
    sp.add_argument("--refine-cap", type=_refine_cap, default=partmod.REFINE_CAP)
    sp.add_argument("--lift-depth", type=_depth, default=6)

    sp = sub.add_parser("graph", help="digraph flags, stationary weights, moments")
    _add_common(sp, seeded=False)
    sp.add_argument("--seed", type=_seed, help=UNUSED_SEED)
    sp.add_argument("--refine-cap", type=_refine_cap, default=partmod.REFINE_CAP)

    sp = sub.add_parser("simulate", help="simulate a trace and report averages")
    _add_common(sp, seeded=True)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--steps", type=_at_least(0, "steps"), required=True)
    sp.add_argument("--f", type=_test_function, action="append", default=[],
                    help="test function poly:c0,c1,... or ind:lo,hi,own_lo,own_hi")

    sp = sub.add_parser("rate", help="empirical transport-distance contraction",
                        description="Cloud atoms are untagged, so on a system that reads "
                        "the rationality tag the rate is that of the rational cells.")
    _add_common(sp, seeded=True)
    sp.add_argument("--b", default=None,
                    help="step probability for the comparison bound max(1/3,b)^(1/2)")
    sp.add_argument("--cloud-size", type=_at_least(1, "cloud-size"), default=4000)
    sp.add_argument("--steps", type=_at_least(0, "steps"), default=40)
    sp.add_argument("--burn", type=_at_least(0, "burn"), default=64)
    sp.add_argument("--start", default="1", help="start point for the pushed cloud")
    return ap


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args, spec, out: _Output) -> int:
    report = validate_system(spec)
    out.say(str(report))
    tree = {"ok": report.ok,
            "cell_sums": [[d, format_rational(s)] for d, s in report.cell_sums],
            "issues": [str(i) for i in report.issues]}
    out.flush(tree if args.json else None)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_cylinders(args, spec, out: _Output) -> int:
    x = as_point(args.x)
    rows = measures.enumerate_cylinders(spec, x, args.depth,
                                        include_zero=args.include_zero,
                                        budget=args.word_budget)
    # one integer sum over the common denominator, far cheaper than a Fraction sum
    den = math.lcm(*(m.denominator for _w, m in rows))
    total = Fraction(sum(m.numerator * (den // m.denominator) for _w, m in rows), den)
    out.say(f"depth {args.depth} cylinders from x={x}: {len(rows)} words, "
            f"total mass {format_rational(total)}")
    cells = [(format_word(word), format_rational(mass)) for word, mass in rows]
    csv = ["word,mass", *(f"{word},{mass}" for word, mass in cells)]
    out.file("cylinders.csv", lambda: "\n".join(csv) + "\n")
    out.say("\n".join(csv))
    out.flush({"x": str(x), "depth": args.depth, "cylinders": dict(cells)}
              if args.json else None)
    return EXIT_OK


def _cmd_xi(args, spec, out: _Output) -> int:
    params = measures.XiParams(n_exact=args.n_exact, n_mc=args.n_mc,
                               num_samples=args.samples, seed=args.seed,
                               drift_z=args.drift_z, budget=args.word_budget)
    report = measures.xi_estimate(spec, as_point(args.x), as_point(args.y), params)
    out.say(f"verdict: {report.verdict}")
    if report.infinity_witness is not None:
        out.say(f"exact separating word: {format_word(report.infinity_witness)}")
    out.say(f"drift (x-direction): {report.mc_drift!r} +- {report.mc_drift_stderr!r}")
    out.say(f"drift (y-direction): {report.mc_drift_reverse!r} +- {report.mc_drift_reverse_stderr!r}")
    out.say(f"sampled infinite-ratio fraction: {report.mc_infinity_fraction!r}")
    out.say(f"evidence grade: "
            + ("exact certificate" if report.exact
               else f"statistical, seed={report.seed}"))
    out.file("xi.csv", report.to_csv)
    out.say(report.to_csv().rstrip("\n"))
    tree = {"verdict": report.verdict, "drift": report.mc_drift,
            "stderr": report.mc_drift_stderr, "seed": report.seed,
            "tails": {f"{n},{format_rational(M)}": format_rational(v)
                      for (n, M), v in sorted(report.exact_tail_table.items())}}
    out.flush(tree if args.json else None)
    return EXIT_OK


def _spot_points(spec, fp, count: int):
    lo, hi = spec.domain.lo, spec.domain.hi
    pts = [Point(lo + (hi - lo) * Fraction(k + 1, count + 1)) for k in range(count)]
    if spec.has_rationality_edges:
        half = len(pts) // 2
        # a one-point cell has no irrational copy, so a point there stays rational
        singles = {c.interval.lo for c in fp.partition.cells if c.interval.is_degenerate}
        pts = pts[:half] + [Point(p.value, p.value not in singles) for p in pts[half:]]
    return pts


def _cmd_partition(args, spec, out: _Output) -> int:
    params = partmod.PartitionParams(refinement_cap=args.refine_cap)
    fp = partmod.fundamental_partition(spec, params)
    out.say(partmod.partition_report(fp).rstrip("\n"))

    problems = partmod.verify_separations(fp, spec)
    for p in problems:
        raise RdsError(f"certificate re-verification failed: {p}")

    depth = args.lift_depth
    points = _spot_points(spec, fp, 5)
    worst = Fraction(0)
    for p in points:
        worst = max(worst, partmod.lift_check(spec, fp, p, depth))
    out.say(f"lift defect (depth {depth}, {len(points)} points): {format_rational(worst)}")

    fs = [dynamics.Polynomial((Fraction(1),)),
          dynamics.Polynomial((Fraction(0), Fraction(1))),
          dynamics.Polynomial((Fraction(0), Fraction(0), Fraction(1)))]
    worst_u = Fraction(0)
    for p in _spot_points(spec, fp, 20):
        for f in fs:
            worst_u = max(worst_u, partmod.adjoint_discrepancy(spec, fp, p, f))
    out.say(f"one-step operator agreement defect (20 points, f in {{1,x,x^2}}): "
            f"{format_rational(worst_u)}")
    if worst != 0 or worst_u != 0:
        raise RdsError("lift or operator identity violated")

    out.file("partition_report.txt", lambda: partmod.partition_report(fp))
    tree = {
        "breakpoints": [format_rational(b) for b in fp.partition.breakpoints],
        "classes": {str(info.class_id): info.describe() for info in fp.classes},
        "certificates": {f"{i},{j}": str(c) for (i, j), c in sorted(fp.certificates.items())},
        "lift_defect": format_rational(worst),
        "operator_defect": format_rational(worst_u),
    }
    out.flush(tree if args.json else None)
    return EXIT_OK


def _cmd_graph(args, spec, out: _Output) -> int:
    chain = partmod.extract_symbolic_chain(
        spec, partmod.stable_partition(spec, args.refine_cap))
    g = graphmod.digraph_of_chain(chain)
    irr = graphmod.is_irreducible(g)
    aper = graphmod.is_aperiodic(g)
    out.say(f"irreducible: {irr}")
    out.say(f"aperiodic: {aper}")

    stat = graphmod.stationary_distribution(chain)
    out.say(f"terminal components: {stat.terminal}")

    def matrix_csv() -> str:
        csv = ["," + ",".join(f"state{j}" for j in range(chain.n_states))]
        for i, row in enumerate(graphmod.aggregated_matrix(chain)):
            csv.append(f"state{i}," + ",".join(format_rational(v) for v in row))
        return "\n".join(csv) + "\n"
    out.file("matrix.csv", matrix_csv)

    tree = {"irreducible": irr, "aperiodic": aper}
    if stat.unique:
        out.say("stationary weights (exact):")
        for v in range(chain.n_states):
            out.say(f"  state {v} {chain.cells[v]}: {format_rational(stat.pi[v])}")
        out.file("stationary.csv", lambda: "\n".join(
            ["state,pi"] + [f"{v},{format_rational(stat.pi[v])}"
                            for v in range(chain.n_states)]) + "\n")
        mom = graphmod.exact_first_moment(spec, chain, stat)
        out.say("per-class first moments (exact, recurrent states):")
        for v, m in sorted(mom.per_class.items()):
            out.say(f"  state {v}: {format_rational(m)}")
        out.say(f"global mean: {format_rational(mom.global_mean)}")
        tree["pi"] = {v: format_rational(stat.pi[v]) for v in range(chain.n_states)}
        tree["global_mean"] = format_rational(mom.global_mean)
    else:
        out.say("stationary weights are NOT unique; one per terminal component:")
        for comp, pi in zip(stat.terminal, stat.component_pis):
            out.say(f"  component {comp}: "
                    + ", ".join(f"{v}:{format_rational(pi[v])}" for v in comp))
        tree["pi"] = None

    moduli = graphmod.eigenvalue_moduli(chain)
    out.say("eigenvalue moduli (diagnostic, float): "
            + ", ".join(f"{m:.6f}" for m in moduli))
    out.flush(tree if args.json else None)
    return EXIT_OK


def _cmd_simulate(args, spec, out: _Output) -> int:
    x0 = as_point(args.x0)
    spec.require_in_domain(x0)
    # filed before any step: a tagged start at a one-point cell's value has no cell
    fp = partmod.fundamental_partition(spec)
    fp.partition.cell_of_point(x0)
    trace = dynamics.simulate(spec, x0, args.steps, args.seed)
    out.say(f"trace: {len(trace)} steps from x0={x0}, seed={trace.seed}, "
            f"exact prefix {trace.exact_steps} steps")

    fs = args.f or [dynamics.Polynomial((Fraction(0), Fraction(1)))]
    tree = {"steps": len(trace), "averages": {}}
    for f in fs:
        avg = dynamics.ergodic_average(trace, f)
        shown = format_rational(avg) if isinstance(avg, Fraction) else repr(avg)
        out.say(f"ergodic average of {f}: {shown}")
        tree["averages"][str(f)] = shown

    freqs = dynamics.class_frequencies(trace, fp)
    out.say("class visit frequencies:")
    for info in fp.classes:
        out.say(f"  class {info.class_id} {info.describe()}: "
                f"{format_rational(freqs[info.class_id])}")
    tree["class_frequencies"] = {cid: format_rational(v) for cid, v in freqs.items()}

    def trace_csv() -> str:
        buf = io.StringIO()
        trace.write_csv(buf)
        return buf.getvalue()
    out.file("trace.csv", trace_csv)
    out.flush(tree if args.json else None)
    return EXIT_OK


def _cmd_rate(args, spec, out: _Output) -> int:
    bound = None
    if args.b is not None:
        bound = float(max(Fraction(1, 3), parse_rational(args.b))) ** 0.5
    ref = dynamics.stationary_cloud(spec, args.cloud_size, args.burn, args.seed + 1)
    point = as_point(args.start)
    if point.irrational_tag:
        raise OutOfDomain(f"start {args.start}: the pushed cloud holds untagged "
                          "floats, so it cannot keep the irrational tag")
    start = np.full(args.cloud_size, float(point.value))
    report = dynamics.convergence_rate(spec, start, ref, args.steps, args.seed,
                                       bound=bound)
    out.say(f"noise floor: {report.noise_floor!r}")
    out.say(f"geometric mean ratio over above-noise regime: "
            f"{report.geometric_mean_ratio!r}")
    if bound is not None:
        out.say(f"comparison bound max(1/3,b)^(1/2): {bound!r}")
    out.file("rate.csv", report.to_csv)
    out.say(report.to_csv().rstrip("\n"))
    tree = {"noise_floor": report.noise_floor,
            "geometric_mean_ratio": report.geometric_mean_ratio,
            "bound": bound,
            "distances": report.distances}
    out.flush(tree if args.json else None)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "cylinders": _cmd_cylinders,
    "xi": _cmd_xi,
    "partition": _cmd_partition,
    "graph": _cmd_graph,
    "simulate": _cmd_simulate,
    "rate": _cmd_rate,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(args.outdir)
    try:
        spec = load_system(args.system)
        if args.command != "validate":
            report = validate_system(spec)
            if not report.ok:
                sys.stderr.write(str(report) + "\n")
                return EXIT_INVALID
        return _COMMANDS[args.command](args, spec, out)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except OutOfDomain as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except SpecFileError as exc:
        sys.stderr.write(f"SpecFileError: {exc}\n")
        return EXIT_INVALID
    except FileNotFoundError as exc:
        sys.stderr.write(f"cannot read system file: {exc}\n")
        return EXIT_INVALID
    except RdsError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
