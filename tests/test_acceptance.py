"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its measured quantities. Tolerances are fixed here,
not configurable."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from rdsys import systems
from rdsys.cli import run as cli_run
from rdsys.dynamics import (Polynomial, class_frequencies, contraction_estimate,
                            convergence_rate, ergodic_average, simulate,
                            stationary_cloud, w1_distance)
from rdsys.graph import exact_first_moment, stationary_distribution
from rdsys.measures import XiParams, martingale_discrepancy, xi_estimate
from rdsys.model import Point
from rdsys.partition import (BalancedProduct, PartitionParams, SupportSeparation,
                             UnbalancedProduct, adjoint_discrepancy,
                             fundamental_partition, lift_check, stable_partition)

F = Fraction

BUNDLED = {name: builder() for name, builder in systems.BUILDERS.items()}
PART_SEED = 7


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def partition_of(name):
    return fundamental_partition(BUNDLED[name], PartitionParams(seed=PART_SEED))


def test_criterion_1_step_partition(tmp_path):
    from rdsys.model import Interval

    path = str(systems.bundled_path("step_ninth"))
    t0 = time.perf_counter()
    rc = cli_run(["partition", path, "--seed", str(PART_SEED),
                  "-o", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    report_text = (tmp_path / "partition_report.txt").read_text()

    fp = partition_of("step_ninth")
    breakpoints = fp.partition.breakpoints
    intervals = [info.cells[0].interval for info in fp.classes]
    expected = [Interval(F(0), F(0)),
                Interval(F(0), F(1, 9), False, True),
                Interval(F(1, 9), F(1, 3), False, True),
                Interval(F(1, 3), F(1), False, True)]
    cert = fp.certificates[(0, 1)]

    ok = (rc == 0
          and breakpoints == [F(0), F(1, 9), F(1, 3)]
          and intervals == expected
          and isinstance(cert, SupportSeparation)
          and cert.word == ("1", "0", "0")
          and (cert.mass_i, cert.mass_j) == (F(0), F(1, 4))
          and "support_separation word=1.0.0 masses 0 vs 1/4" in report_text
          and elapsed < 5.0)
    report(1, ok, f"cli exit={rc} breakpoints={[str(b) for b in breakpoints]} "
                  f"classes={[str(iv) for iv in intervals]} degenerate-certificate "
                  f"word={'.'.join(cert.word)} masses=({cert.mass_i},{cert.mass_j}) "
                  f"runtime={elapsed:.2f}s (<5s)")


def test_criterion_2_stationary_weights():
    failures = []
    for b in (F(1, 4), F(1, 3), F(1, 2), F(2, 3)):
        chain3 = stable_chain(systems.step_system(F(1, 9), b))
        res3 = stationary_distribution(chain3)
        z = 1 + b + b * b
        want3 = [F(0), b * b / z, b / z, 1 / z]
        if res3.as_vector(range(4)) != want3:
            failures.append(f"three-state b={b}")
        chain4 = stable_chain(systems.step_system(F(1, 27), b))
        res4 = stationary_distribution(chain4)
        z4 = z + b ** 3
        want4 = [F(0), b ** 3 / z4, b * b / z4, b / z4, 1 / z4]
        if res4.as_vector(range(5)) != want4:
            failures.append(f"four-state b={b}")

    half3 = stationary_distribution(stable_chain(BUNDLED["step_ninth"]))
    half4 = stationary_distribution(stable_chain(BUNDLED["step_twentyseventh"]))
    ok = (not failures
          and half3.as_vector(range(4)) == [F(0), F(1, 7), F(2, 7), F(4, 7)]
          and half4.as_vector(range(5)) == [F(0), F(1, 15), F(2, 15), F(4, 15), F(8, 15)])
    report(2, ok, "exact weight formulas over b in {1/4,1/3,1/2,2/3}, "
                  "every balance equation re-checked; b=1/2 gives (1/7,2/7,4/7) and "
                  "(1/15,2/15,4/15,8/15)" + (f"; failures={failures}" if failures else ""))


def stable_chain(spec):
    from rdsys.partition import extract_symbolic_chain
    return extract_symbolic_chain(spec, stable_partition(spec))


def test_criterion_3_positive_step_single_class():
    t0 = time.perf_counter()
    fp = partition_of("positive_step")
    elapsed = time.perf_counter() - t0
    cert = fp.product.certificate(0, 1)
    ok = (fp.class_count() == 1
          and cert == BalancedProduct()
          and fp.certificates == {}
          and elapsed < 5.0)
    report(3, ok, f"classes={fp.class_count()} certificate={type(cert).__name__} "
                  f"runtime={elapsed:.2f}s")


def test_criterion_4_split_statistical_drift():
    fp = partition_of("rational_split")
    cert = fp.certificates[(0, 1)]
    params = XiParams(num_samples=4000, n_mc=2000, seed=20260811)
    rep = xi_estimate(BUNDLED["rational_split"], Point(F(0)),
                      systems.IRRATIONAL_SAMPLE, params)
    target = 0.25 * math.log(F(1, 4) / F(1, 3)) + 0.75 * math.log(F(3, 4) / F(2, 3))
    ok = (fp.class_count() == 2
          and isinstance(cert, UnbalancedProduct)
          and rep.verdict == "singular_statistical"
          and abs(rep.mc_drift - target) <= 0.2 * target)
    report(4, ok, f"classes={fp.class_count()} certificate={type(cert).__name__} "
                  f"verdict={rep.verdict} "
                  f"drift={rep.mc_drift:.5f} target={target:.5f} "
                  f"(tolerance for this criterion: 20%)")


def within_class_pairs(name):
    """Ten point pairs per system, drawn inside single equivalence classes
    for the step systems (where cross-class words lose mass by design) and
    across the whole domain for everywhere-supported systems."""
    if name == "step_ninth":
        return [(F(1, 72), F(1, 18)), (F(1, 20), F(1, 9)), (F(1, 10), F(1, 9)),
                (F(1, 8), F(1, 3)), (F(1, 6), F(2, 9)), (F(1, 5), F(1, 4)),
                (F(1, 2), F(1)), (F(2, 5), F(3, 4)), (F(5, 6), F(7, 8)),
                (F(0), F(0))]
    if name == "step_twentyseventh":
        return [(F(1, 54), F(1, 27)), (F(1, 100), F(1, 30)), (F(1, 20), F(1, 9)),
                (F(1, 26), F(1, 10)), (F(1, 8), F(1, 3)), (F(1, 6), F(2, 9)),
                (F(1, 2), F(1)), (F(2, 5), F(3, 4)), (F(5, 6), F(7, 8)),
                (F(0), F(0))]
    if name == "rational_split":
        irr = systems.IRRATIONAL_SAMPLE
        return [(F(0), F(1)), (F(1, 3), F(2, 3)), (F(1, 7), F(5, 9)),
                (irr, Point(F(1, 5), True)), (irr, Point(F(9, 10), True)),
                (F(0), irr), (F(1, 2), irr), (F(3, 4), Point(F(1, 4), True)),
                (F(1), Point(F(1, 7), True)), (F(2, 5), F(2, 5))]
    return [(F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 2), F(2, 3)),
            (F(1, 5), F(4, 5)), (F(1, 7), F(6, 7)), (F(1, 3), F(2, 3)),
            (F(1, 8), F(5, 8)), (F(3, 8), F(7, 8)), (F(1, 6), F(5, 6)),
            (F(1, 2), F(1, 2))]


def test_criterion_5_martingale_identity():
    worst = F(0)
    checked = 0
    for name, spec in BUNDLED.items():
        for x, y in within_class_pairs(name):
            for n in range(1, 7):
                for m in range(1, n + 1):
                    worst = max(worst, martingale_discrepancy(spec, x, y, m, n))
                    checked += 1
    ok = worst == 0
    report(5, ok, f"max martingale defect over {checked} (pair,m,n) cases "
                  f"across {len(BUNDLED)} systems: {worst} (exact zero required)")


def test_criterion_6_lift_and_operator_identity():
    worst_lift = F(0)
    worst_op = F(0)
    fs = [Polynomial((F(1),)), Polynomial((F(0), F(1))),
          Polynomial((F(0), F(0), F(1)))]
    for name, spec in BUNDLED.items():
        fp = partition_of(name)
        pts = [F(k, 6) for k in range(5)]
        if spec.has_rationality_edges:
            pts = pts[:3] + [Point(F(1, 5), True), Point(F(7, 9), True)]
        for x in pts:
            worst_lift = max(worst_lift, lift_check(spec, fp, x, 8))
        grid = [F(k, 21) for k in range(1, 21)]
        if spec.has_rationality_edges:
            grid = grid[:10] + [Point(v, True) for v in grid[10:]]
        for x in grid:
            for f in fs:
                worst_op = max(worst_op, adjoint_discrepancy(spec, fp, x, f))
    ok = worst_lift == 0 and worst_op == 0
    report(6, ok, f"max lift defect (depth 8, 5 points/system): {worst_lift}; "
                  f"max one-step operator defect (20 points, f in {{1,x,x^2}}): "
                  f"{worst_op} (exact zeros required)")


def test_criterion_7_ergodic_average():
    spec = BUNDLED["step_ninth"]
    t0 = time.perf_counter()
    trace = simulate(spec, 1, 1_000_000, seed=31415)
    avg = ergodic_average(trace, Polynomial((F(0), F(1))))
    fp = partition_of("step_ninth")
    freqs = class_frequencies(trace, fp)
    elapsed = time.perf_counter() - t0

    mom = exact_first_moment(spec, fp.chain, stationary_distribution(fp.chain))
    target = mom.global_mean
    assert target == F(2, 7)

    mean_err = abs(float(avg) - float(target))
    targets = {0: 0.0, 1: 1 / 7, 2: 2 / 7, 3: 4 / 7}
    freq_err = max(abs(float(freqs[cid]) - t) for cid, t in targets.items())
    ok = mean_err <= 0.002 and freq_err <= 0.005 and elapsed < 60.0
    report(7, ok, f"mean defect {mean_err:.5f} (tol 0.002), max class-frequency "
                  f"defect {freq_err:.5f} (tol 0.005), runtime {elapsed:.1f}s (<60s)")


def test_criterion_8_contraction():
    vals = {}
    for name in ("step_ninth", "positive_step", "rational_split"):
        spec = BUNDLED[name]
        vals[name] = contraction_estimate(spec, stable_partition(spec))
    ok = (vals["step_ninth"] == F(1, 3) and vals["positive_step"] == F(1, 3)
          and vals["rational_split"] == F(1, 2))
    report(8, ok, f"exact contraction quotients: {{'step_ninth': '{vals['step_ninth']}', "
                  f"'positive_step': '{vals['positive_step']}', "
                  f"'rational_split': '{vals['rational_split']}'}} "
                  "(required 1/3, 1/3, 1/2)")


def test_criterion_9_rate_bound():
    results = []
    ok = True
    for seed in (101, 202, 303):
        for name, bound in (("step_ninth", math.sqrt(0.5)),
                            ("constant_half", 1 / 3)):
            spec = BUNDLED[name]
            ref = stationary_cloud(spec, 4000, burn=64, seed=seed + 1)
            rep = convergence_rate(spec, np.full(4000, 1.0), ref, 40, seed=seed,
                                   bound=bound)
            passed = (rep.geometric_mean_ratio is not None
                      and rep.geometric_mean_ratio <= bound + 0.1)
            ok = ok and passed
            results.append(f"{name}@{seed}: {rep.geometric_mean_ratio:.3f}"
                           f"<={bound + 0.1:.3f}")
    report(9, ok, "; ".join(results))


def check_additivity_exact(spec, x, depth):
    from rdsys.model import as_point
    def walk(point, mass, k):
        if k == depth or mass == 0:
            return
        total = F(0)
        for e in spec.edges:
            factor = e.prob.value_at(point)
            sub = mass * factor
            total += sub
            if sub > 0:
                walk(e.map.apply_point(point), sub, k + 1)
        assert total == mass, f"additivity fails at depth {k}"
    walk(as_point(x), F(1), 0)


def test_criterion_10_property_suites():
    from conftest import random_system
    rng = random.Random(0xACCE17)
    for index in range(200):
        spec = random_system(rng)
        for x in (F(0), F(rng.randint(0, 32), 32)):
            check_additivity_exact(spec, x, 8)

    np_rng = np.random.default_rng(0xACCE17)
    worst_violation = 0.0
    for _ in range(500):
        a, b, c = (np_rng.random(40) for _ in range(3))
        dab, dbc, dac = w1_distance(a, b), w1_distance(b, c), w1_distance(a, c)
        assert dab >= 0 and abs(dab - w1_distance(b, a)) == 0
        assert w1_distance(a, a) == 0
        worst_violation = max(worst_violation, dac - (dab + dbc))
    ok = worst_violation <= 1e-12
    report(10, ok, "cylinder additivity and unit mass exact to depth 8 on 200 "
                   "seeded random systems (2 start points each); transport-"
                   "distance metric axioms on 500 seeded triples "
                   f"(worst triangle violation {worst_violation:.2e})")
