#!/usr/bin/env python3
"""Run the full analysis pipeline over the bundled specimen systems and
print the headline numbers: stable partition, merged classes with their
certificates, stationary weights and first moments, contraction quotient,
drift evidence for the split system, and empirical transport-contraction
ratios.

Usage: python scripts/reproduce_examples.py [--seed N] [--quick]
"""

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from rdsys import systems
from rdsys.dynamics import (Polynomial, class_frequencies, contraction_estimate,
                            convergence_rate, ergodic_average, simulate,
                            stationary_cloud)
from rdsys.graph import (digraph_of_chain, exact_first_moment, is_aperiodic,
                         is_irreducible, is_recurrent, stationary_distribution)
from rdsys.measures import XiParams, xi_estimate
from rdsys.model import Point, format_rational
from rdsys.partition import PartitionParams, fundamental_partition, stable_partition

F = Fraction


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def analyze(name, seed):
    spec = systems.bundled_spec(name)
    banner(f"system: {name}")
    fp = fundamental_partition(spec, PartitionParams(seed=seed))
    print("classes:", "; ".join(info.describe() for info in fp.classes))
    for (i, j), cert in sorted(fp.certificates.items()):
        print(f"  pair ({i},{j}): {cert}")
    g = digraph_of_chain(fp.chain)
    print(f"irreducible={is_irreducible(g)} aperiodic={is_aperiodic(g)} "
          f"recurrent={is_recurrent(g)}")

    stat = stationary_distribution(fp.chain)
    if stat.unique:
        weights = ", ".join(f"{fp.chain.cells[v]}: {format_rational(stat.pi[v])}"
                            for v in range(fp.chain.n_states))
        print("stationary weights:", weights)
        mom = exact_first_moment(spec, fp.chain, stat)
        print("global mean:", format_rational(mom.global_mean))

    a = contraction_estimate(spec, fp.partition)
    print("average contraction quotient:", format_rational(a))
    return spec, fp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--quick", action="store_true",
                    help="smaller Monte Carlo budgets")
    args = ap.parse_args()
    mc = dict(num_samples=400, n_mc=400) if args.quick else {}

    for name in ("step_ninth", "step_twentyseventh", "positive_step",
                 "rational_split", "constant_half"):
        spec, fp = analyze(name, args.seed)

    banner("ergodic average, step_ninth, f(x)=x")
    spec = systems.bundled_spec("step_ninth")
    steps = 100_000 if args.quick else 1_000_000
    trace = simulate(spec, 1, steps, seed=args.seed)
    avg = ergodic_average(trace, Polynomial((F(0), F(1))))
    print(f"{steps} steps: mean {float(avg):.5f} (stationary mean 2/7 = {2/7:.5f})")

    banner("log-ratio drift, rational_split, rational vs irrational start")
    params = XiParams(seed=args.seed, **mc)
    rep = xi_estimate(spec := systems.bundled_spec("rational_split"),
                      Point(F(0)), systems.IRRATIONAL_SAMPLE, params)
    kl = 0.25 * math.log(3 / 4) + 0.75 * math.log(9 / 8)
    print(f"verdict {rep.verdict}; drift {rep.mc_drift:.5f} +- "
          f"{rep.mc_drift_stderr:.5f} (two-value relative entropy {kl:.5f})")

    banner("empirical transport contraction from a point cloud at x=1")
    size = 1000 if args.quick else 4000
    for name, bound in (("step_ninth", math.sqrt(0.5)), ("constant_half", 1 / 3)):
        spec = systems.bundled_spec(name)
        ref = stationary_cloud(spec, size, burn=64, seed=args.seed + 1)
        rate = convergence_rate(spec, np.full(size, 1.0), ref, 40,
                                seed=args.seed, bound=bound)
        print(f"{name}: geometric mean ratio "
              f"{rate.geometric_mean_ratio:.3f} (comparison bound {bound:.3f})")


if __name__ == "__main__":
    sys.exit(main())
