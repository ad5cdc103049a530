"""Inputs and operations of the three workloads.

`WORKLOADS[name](rdsys, seed)` makes a workload's inputs from the seed
(this is the set-up) and returns them with its operations. One round
runs every operation once, in order; every round repeats the same
operations on the same inputs. An operation's `run(got)` may read the results of earlier
operations of its round from `got`; its `check(result, got)` runs after
the round, outside the timed region, and returns a list of problems.
`fault` names a program fault for an operation that fails on every run
(its inputs do not depend on the seed).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import checks

F = Fraction
BUNDLED = ("step_ninth", "step_twentyseventh", "positive_step",
           "rational_split", "constant_half")
BUNDLED_CLASSES = {"step_ninth": 4, "step_twentyseventh": 5, "positive_step": 1,
                   "rational_split": 2, "constant_half": 1}
PIECEWISE = ("step_ninth", "step_twentyseventh", "positive_step", "constant_half")
PERIODIC_STATES = 130   # above the exact_max_states=128 switch to power iteration
SIM_STEPS = 10 ** 6


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    fault: Optional[str] = None


class Workload:
    def __init__(self, rdsys, seed):
        self.rd = rdsys
        self.rng = random.Random(seed)
        self.ops = []
        self.specs = {}

    def seed_int(self) -> int:
        return self.rng.randrange(1 << 31)

    def rational(self, lo, hi) -> Fraction:
        """A seeded rational in (lo, hi] with a small denominator."""
        q = self.rng.randint(7, 13)
        num = self.rng.randint(1, q)
        return lo + (hi - lo) * F(num, q)

    def add(self, name, run, check=lambda result, got: [], fault=None):
        self.ops.append(Op(name, run, check, fault))

    def load_bundled(self, names) -> None:
        for name in names:
            self.specs[name] = self.rd.sysfile.load_system(
                self.rd.systems.bundled_path(name))

    def validate_all(self) -> None:
        for name, spec in self.specs.items():
            if not self.rd.model.validate_system(spec).ok:
                raise RuntimeError(f"input system {name} is invalid")

    def cli(self, name, argv, check):
        """Run `rdsys <argv>` in-process; the result is (exit code, stdout)."""
        def run(got):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.rd.cli.run([str(a) for a in argv])
            return code, out.getvalue()

        def checked(result, got):
            code, text = result
            return [f"exit code {code}"] if code != 0 else check(text)
        self.add(name, run, checked)

    def path(self, name) -> str:
        return str(self.rd.systems.bundled_path(name))

    def add_sweep(self) -> None:
        """Every CLI subcommand once on step_ninth, plus the two exact walks
        no subcommand reaches, at small sizes: every layer shows in every
        workload's trace."""
        rd, s9 = self.rd, self.path("step_ninth")
        seed = self.seed_int()
        x = self.rational(F(1, 3), F(1))
        self.cli("sweep.validate", ["validate", s9], lambda t: [])
        self.cli("sweep.cylinders", ["cylinders", s9, "--x", x, "--depth", 8],
                 lambda t: [] if "total mass 1\n" in t else ["masses do not sum to 1"])
        self.cli("sweep.xi", ["xi", s9, "--x", x, "--y", F(1, 27), "--seed", seed,
                              "--samples", 200, "--n-mc", 200, "--n-exact", 6],
                 xi_text_problems)
        self.cli("sweep.partition", ["partition", s9, "--seed", seed],
                 lambda t: class_count_problems(t, 4))
        self.cli("sweep.graph", ["graph", s9, "--seed", seed], step_ninth_problems)
        self.cli("sweep.simulate", ["simulate", s9, "--x0", x, "--steps", 20000,
                                    "--seed", seed], frequency_text_problems)
        self.cli("sweep.rate", ["rate", s9, "--seed", seed, "--b", "1/2",
                                "--cloud-size", 1000, "--steps", 20, "--burn", 32],
                 lambda t: [] if "noise floor: " in t else ["no noise floor"])
        ps = self.specs["positive_step"]
        a, b = self.rational(F(0), F(1, 2)), self.rational(F(1, 2), F(1))
        self.add("sweep.tail_mass",
                 lambda got: [(M, rd.measures.tail_mass_exact(ps, a, b, 8, M))
                              for M in (2, 8)],
                 lambda r, got: checks.tail_problems(r))
        self.add("sweep.martingale",
                 lambda got: rd.measures.martingale_discrepancy(ps, a, b, 4, 8),
                 lambda r, got: [] if r == 0 else [f"defect {r}"])


# ---------------------------------------------------------------------------
# inputs

def triadic(rd, m, rng, zeros):
    """Maps x/3 + e/3 (e = 0, 1, 2); probabilities constant on the cells
    cut at j/3^m, from seeded weights 1..4, or 0..3 when `zeros`."""
    model = rd.model
    n = 3 ** m
    cells = [model.Interval(F(0), F(1, n))] + [
        model.Interval(F(j, n), F(j + 1, n), False, True) for j in range(1, n)]
    probs = []
    for _cell in cells:
        while True:
            w = [rng.randint(0, 3) if zeros else rng.randint(1, 4) for _ in range(3)]
            if sum(w) > 0:
                break
        probs.append([F(v, sum(w)) for v in w])
    edges = tuple(
        model.Edge(str(e), model.AffineMap(F(1, 3), F(e, 3)),
                   model.PiecewiseConstant(tuple((c, p[e]) for c, p in zip(cells, probs))))
        for e in range(3))
    return model.SystemSpec(domain=model.Interval(F(0), F(1)), edges=edges)


def periodic_rows(n):
    """State 0 goes to each of the other n-1 states, each goes back to 0:
    period 2, stationary weight 1/2 on state 0."""
    rows = [[F(0)] * n for _ in range(n)]
    rows[0][1:] = [F(1, n - 1)] * (n - 1)
    for i in range(1, n):
        rows[i][0] = F(1)
    return rows


def matrix_chain(rows):
    """The benchmark's own view of a matrix as chain tables."""
    prob = {(i, j): p for i, row in enumerate(rows) for j, p in enumerate(row) if p}
    return SimpleNamespace(n_states=len(rows), prob=prob,
                           target={(i, j): j for (i, j) in prob})


def fault_b_system(rd):
    """Maps x/3, x/3 + 1/3; p0 = 1/10000 on [0,1/2], 9999/10000 above."""
    model = rd.model
    low = model.Interval(F(0), F(1, 2))
    high = model.Interval(F(1, 2), F(1), False, True)
    p0 = {low: F(1, 10000), high: F(9999, 10000)}
    probs = (p0, {iv: 1 - p for iv, p in p0.items()})
    return model.SystemSpec(domain=model.Interval(F(0), F(1)), edges=tuple(
        model.Edge(str(e), model.AffineMap(F(1, 3), F(e, 3)),
                   model.PiecewiseConstant(tuple(probs[e].items())))
        for e in range(2)))


# ---------------------------------------------------------------------------
# text checks of CLI reports

def class_count_problems(text, expected) -> list:
    got = checks.report_classes(text)
    return [] if got == expected else [f"{got} classes, expected {expected}"]


def step_ninth_problems(text) -> list:
    if checks.graph_report_pi(text) != checks.step_ninth_pi():
        return ["stationary weights differ from (b^2, b, 1)/(1+b+b^2)"]
    return []


def pi_text_problems(text) -> list:
    weights = checks.graph_report_pi(text).values()
    if sum(weights) != 1 or min(weights) < 0:
        return ["stationary weights are not a probability vector"]
    return []


def xi_text_problems(text) -> list:
    if "verdict: singular_certified" in text and "exact separating word" not in text:
        return ["singular_certified without a separating word"]
    return []


def frequency_text_problems(text) -> list:
    lines = text.split("class visit frequencies:\n", 1)[1].splitlines()
    total = sum(F(line.rsplit(": ", 1)[1]) for line in lines
                if line.startswith("  class "))
    return [] if total == 1 else ["class frequencies do not sum to 1"]


# ---------------------------------------------------------------------------
# workloads

def certify(rd, seed) -> Workload:
    """Pair certificates on the triadic family (both variants, m=4) and
    the bundled systems, with the partition checks of `rdsys partition`."""
    w = Workload(rd, seed)
    w.load_bundled(BUNDLED)
    w.specs["triadic_1to4"] = triadic(rd, 4, w.rng, zeros=False)
    w.specs["triadic_0to3"] = triadic(rd, 4, w.rng, zeros=True)
    w.validate_all()
    part = rd.partition
    functions = [rd.dynamics.Polynomial(c)
                 for c in ((F(1),), (F(0), F(1)), (F(0), F(0), F(1)))]
    for name in ("triadic_1to4", "triadic_0to3"):
        spec = w.specs[name]
        params = part.PartitionParams(seed=w.seed_int())
        points = [w.rational(F(0), F(1)) for _ in range(3)]
        w.add(f"{name}.partition",
              lambda got, spec=spec, params=params: part.fundamental_partition(spec, params),
              lambda fp, got, spec=spec: checks.partition_problems(spec, fp))
        w.add(f"{name}.verify",
              lambda got, n=name, spec=spec: part.verify_separations(got[f"{n}.partition"], spec),
              lambda r, got: [f"{len(r)} witnesses fail re-verification"] if r else [])
        w.add(f"{name}.lift",
              lambda got, n=name, spec=spec, points=points: max(
                  part.lift_check(spec, got[f"{n}.partition"], p, 6) for p in points),
              lambda r, got: [] if r == 0 else [f"lift defect {r}"])
        w.add(f"{name}.adjoint",
              lambda got, n=name, spec=spec, points=points: max(
                  part.adjoint_discrepancy(spec, got[f"{n}.partition"], p, f)
                  for p in points for f in functions),
              lambda r, got: [] if r == 0 else [f"operator defect {r}"])
    for name in BUNDLED:
        w.cli(f"{name}.partition", ["partition", w.path(name), "--seed", w.seed_int()],
              lambda t, n=name: class_count_problems(t, BUNDLED_CLASSES[n]))
    w.add_sweep()
    return w


def solve(rd, seed) -> Workload:
    """Exact stationary solves, moments and digraph flags on chains
    extracted during set-up, `rdsys graph` on the bundled piecewise
    systems, and the 130-state period-2 chain (fault A)."""
    w = Workload(rd, seed)
    w.load_bundled(PIECEWISE)
    part, graph = rd.partition, rd.graph
    chains = {}
    for m in (3, 4):
        for zeros in (False, True):
            # redraw until the chain has one terminal class, so the
            # stationary weights are unique and the moments exist
            while True:
                spec = triadic(rd, m, w.rng, zeros)
                chain = part.extract_symbolic_chain(spec, part.stable_partition(spec))
                if len(checks.terminal_classes(chain)) == 1:
                    break
            name = f"triadic{m}_{'0to3' if zeros else '1to4'}"
            w.specs[name] = spec
            chains[name] = chain
    w.validate_all()
    rows = periodic_rows(PERIODIC_STATES)

    for name, chain in chains.items():
        spec = w.specs[name]
        w.add(f"{name}.stationary",
              lambda got, chain=chain: graph.stationary_distribution(chain),
              lambda st, got, chain=chain: checks.stationary_problems(chain, st.pi))
        w.add(f"{name}.moments",
              lambda got, n=name, spec=spec, chain=chain: graph.exact_first_moment(
                  spec, chain, got[f"{n}.stationary"]),
              lambda mo, got, n=name, spec=spec, chain=chain: checks.moment_problems(
                  spec, chain, got[f"{n}.stationary"].pi, mo.per_class))
        w.add(f"{name}.flags", lambda got, chain=chain: digraph_flags(graph, chain),
              lambda flags, got, chain=chain: [] if flags == checks.own_flags(chain)
              else [f"flags {flags} vs {checks.own_flags(chain)}"])
        w.add(f"{name}.eigen",
              lambda got, chain=chain: graph.eigenvalue_moduli(chain),
              lambda mods, got: [] if abs(mods[0] - 1) < 1e-9
              else [f"spectral radius {mods[0]}"])
    for name in PIECEWISE:
        w.cli(f"{name}.graph", ["graph", w.path(name), "--seed", w.seed_int()],
              step_ninth_problems if name == "step_ninth" else pi_text_problems)
    own = matrix_chain(rows)
    w.add("periodic130.stationary",
          lambda got: graph.stationary_from_matrix(rows),
          lambda st, got: checks.stationary_problems(own, st.pi),
          fault="A: power-iteration fallback above 128 states")
    w.add_sweep()
    return w


def paths(rd, seed) -> Workload:
    """Exact code-space walks, sampled paths and the fault B pair."""
    w = Workload(rd, seed)
    w.load_bundled(("positive_step", "step_ninth", "rational_split"))
    w.specs["fault_b"] = fault_b_system(rd)
    w.validate_all()
    meas, part, dyn = rd.measures, rd.partition, rd.dynamics
    ps, s9, rs = (w.specs[n] for n in ("positive_step", "step_ninth", "rational_split"))
    x, y = w.rational(F(0), F(1, 2)), w.rational(F(1, 2), F(1))
    x9 = w.rational(F(1, 3), F(1))
    x0 = w.rational(F(0), F(1))
    seeds = [w.seed_int() for _ in range(5)]
    split_x = w.rational(F(0), F(1))
    split_y = rd.model.Point(w.rational(F(0), F(1)), True)

    w.add("step_ninth.partition",
          lambda got: part.fundamental_partition(s9, part.PartitionParams(seed=seeds[0])),
          lambda fp, got: checks.partition_problems(s9, fp))
    w.add("positive_step.partition",
          lambda got: part.fundamental_partition(ps, part.PartitionParams(seed=seeds[0])),
          lambda fp, got: checks.partition_problems(ps, fp))
    w.add("step_ninth.cylinders16", lambda got: meas.enumerate_cylinders(s9, x9, 16),
          lambda rows, got: checks.cylinder_problems(
              rows, got["step_ninth.partition"].chain, x9, 16))
    w.add("positive_step.tails14",
          lambda got: [(M, meas.tail_mass_exact(ps, x, y, 14, M)) for M in (2, 8)],
          lambda r, got: checks.tail_problems(r))
    w.add("positive_step.martingale",
          lambda got: meas.martingale_discrepancy(ps, x, y, 7, 14),
          lambda r, got: ([] if r == 0 else [f"defect {r}"])
          if checks.OwnSystem(ps).all_positive() else ["a separating word may exist"])
    w.add("positive_step.xi14",
          lambda got: meas.xi_estimate(ps, x, y, meas.XiParams(
              n_exact=14, num_samples=200, n_mc=200, seed=seeds[1])),
          lambda r, got: checks.xi_problems(ps, r))
    w.add("positive_step.lift12",
          lambda got: part.lift_check(ps, got["positive_step.partition"], x, 12),
          lambda r, got: [] if r == 0 else [f"lift defect {r}"])
    w.add("step_ninth.moments", lambda got: step_ninth_moments(rd, s9, got),
          lambda r, got: checks.stationary_problems(r[0].chain, r[1].pi)
          + checks.moment_problems(s9, r[0].chain, r[1].pi, r[2].per_class))
    w.add("step_ninth.simulate",
          lambda got: dyn.simulate(s9, x0, SIM_STEPS, seeds[2]))
    w.add("step_ninth.averages",
          lambda got: (dyn.ergodic_average(got["step_ninth.simulate"],
                                           dyn.Polynomial((F(0), F(1)))),
                       dyn.class_frequencies(got["step_ninth.simulate"],
                                             got["step_ninth.partition"])),
          lambda r, got: checks.ergodic_problems(
              r[0], r[1], got["step_ninth.moments"][2].global_mean,
              step_ninth_class_pi(got)))
    w.add("step_ninth.simulate_again",
          lambda got: dyn.simulate(s9, x0, SIM_STEPS // 10, seeds[2]),
          lambda tr, got: checks.prefix_problems(tr, got["step_ninth.simulate"]))
    w.add("rational_split.xi",
          lambda got: meas.xi_estimate(rs, split_x, split_y,
                                       meas.XiParams(seed=seeds[3])),
          lambda r, got: checks.xi_problems(rs, r) + checks.drift_problems(r))
    w.add("step_ninth.rate",
          lambda got: dyn.convergence_rate(
              s9, [1.0] * 4000, dyn.stationary_cloud(s9, 4000, 64, seeds[4] + 1),
              40, seeds[4], bound=0.5 ** 0.5),
          lambda r, got: checks.rate_problems(r))
    w.cli("positive_step.cli_cylinders",
          ["cylinders", w.path("positive_step"), "--x", x, "--depth", 12],
          lambda t: [] if "total mass 1\n" in t else ["masses do not sum to 1"])
    w.cli("rational_split.cli_xi",
          ["xi", w.path("rational_split"), "--x", split_x, "--y", f"irr:{split_y.value}",
           "--seed", seeds[3], "--samples", 1000, "--n-mc", 500], xi_text_problems)
    w.cli("step_ninth.cli_simulate",
          ["simulate", w.path("step_ninth"), "--x0", x0, "--steps", 100000,
           "--seed", seeds[2]], frequency_text_problems)
    w.cli("step_ninth.cli_rate", ["rate", w.path("step_ninth"), "--seed", seeds[4],
                                  "--b", "1/2"],
          lambda t: [] if "noise floor: " in t else ["no noise floor"])
    fb = w.specs["fault_b"]
    w.add("fault_b.xi",
          lambda got: meas.xi_estimate(fb, F(1, 4), F(3, 4), meas.XiParams(
              seed=7, num_samples=200, n_mc=200)),
          lambda r, got: checks.xi_problems(fb, r),
          fault="B: xi_estimate certifies singularity with no witness")
    w.add_sweep()
    return w


def digraph_flags(graph, chain) -> tuple:
    g = graph.digraph_of_chain(chain)
    return graph.is_irreducible(g), graph.is_aperiodic(g), graph.is_recurrent(g)


def step_ninth_moments(rd, spec, got):
    """Stationary weights and first moments of step_ninth; their check
    vouches for the exact mean the ergodic average is compared with."""
    fp = got["step_ninth.partition"]
    st = rd.graph.stationary_distribution(fp.chain)
    return fp, st, rd.graph.exact_first_moment(spec, fp.chain, st)


def step_ninth_class_pi(got) -> dict:
    fp = got["step_ninth.partition"]
    closed = checks.step_ninth_pi()
    return {info.class_id: sum(closed[str(c)] for c in info.cells) for info in fp.classes}


WORKLOADS = {"certify": certify, "solve": solve, "paths": paths}
