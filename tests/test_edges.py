"""Edge cases crossing module boundaries: exact solves on large periodic
chains, degenerate sampling detection, xi verdict grading, and empirical
cylinder laws."""

import math
from fractions import Fraction

import pytest

from conftest import random_system
from rdsys import systems
from rdsys.graph import stationary_from_matrix
from rdsys.measures import (DegenerateSampling, XiParams, cylinder_measure,
                            enumerate_cylinders, xi_estimate)
from rdsys.model import (AffineMap, Edge, Interval, PiecewiseConstant, Point,
                         RefinementBudgetExceeded, SystemSpec)
from rdsys.dynamics import simulate
from rdsys.partition import (BalancedProduct, PartitionParams, ProductGraph,
                             fundamental_partition)

F = Fraction
STEP = systems.step_system()


def test_periodic_130_state_chain_exact():
    # state 0 goes to each of the other 129 states, each goes back to 0:
    # period 2, so iterating the chain never converges
    n = 130
    rows = [[F(0)] * n for _ in range(n)]
    rows[0][1:] = [F(1, n - 1)] * (n - 1)
    for i in range(1, n):
        rows[i][0] = F(1)
    res = stationary_from_matrix(rows)
    assert res.method == "exact_solve"
    assert res.residual == 0
    assert res.unique
    assert res.pi[0] == F(1, 2)
    assert all(res.pi[v] == F(1, 258) for v in range(1, n))


def fault_b_system():
    """Maps x/3, x/3 + 1/3; p0 = 1/10000 on [0,1/2], 9999/10000 above."""
    low = Interval(F(0), F(1, 2))
    high = Interval(F(1, 2), F(1), False, True)
    p0 = {low: F(1, 10000), high: F(9999, 10000)}
    probs = (p0, {iv: 1 - p for iv, p in p0.items()})
    return SystemSpec(domain=Interval(F(0), F(1)), edges=tuple(
        Edge(str(e), AffineMap(F(1, 3), F(e, 3)), PiecewiseConstant(tuple(probs[e].items())))
        for e in range(2)))


def test_xi_persistent_tails_do_not_certify():
    # the pair is merged by the exact balanced-product certificate; large
    # likelihood ratios at finite depth are no witness of singularity
    rep = xi_estimate(fault_b_system(), F(1, 4), F(3, 4),
                      XiParams(seed=7, num_samples=200, n_mc=200))
    assert rep.infinity_witness is None
    assert rep.verdict != "singular_certified"


def test_xi_fault_b_takes_exact_verdict():
    # every sample has the same per-step log-ratio here, so the drift test
    # alone answers singular_statistical; the cells' exact verdict comes first
    rep = xi_estimate(fault_b_system(), F(1, 4), F(3, 4),
                      XiParams(seed=7, num_samples=200, n_mc=200))
    assert rep.pair_certificate == BalancedProduct()
    assert rep.verdict == "equivalent"
    assert rep.exact


def test_xi_agrees_with_exact_partition(rng):
    small = XiParams(n_exact=4, n_mc=32, num_samples=32, seed=3)
    checked = 0
    for _ in range(30):
        spec = random_system(rng)
        try:
            fp = fundamental_partition(spec, PartitionParams(refinement_cap=24))
        except RefinementBudgetExceeded:
            continue
        x, y = F(rng.randint(0, 12), 12), F(rng.randint(0, 12), 12)
        i, j = (fp.partition.cell_of_point(Point(v)) for v in (x, y))
        cert = ProductGraph(fp.chain).certificate(i, j)
        rep = xi_estimate(spec, x, y, small)
        expected = {"support_separation": "singular_certified",
                    "balanced_product": "equivalent",
                    "unbalanced_product": "singular_statistical"}[cert.kind]
        assert rep.verdict == expected
        if expected == "singular_certified":
            masses = (cylinder_measure(spec, x, rep.infinity_witness),
                      cylinder_measure(spec, y, rep.infinity_witness))
            assert (masses[0] == 0) != (masses[1] == 0)
        checked += 1
    assert checked >= 20


def test_degenerate_sampling_detected():
    unit = Interval(F(0), F(1))
    broken = SystemSpec(domain=unit, edges=(
        Edge("0", AffineMap(F(1, 3), F(0)), PiecewiseConstant(((unit, F(1, 3)),))),
        Edge("1", AffineMap(F(1, 3), F(1, 3)), PiecewiseConstant(((unit, F(1, 3)),))),
    ))
    with pytest.raises(DegenerateSampling):
        xi_estimate(broken, F(1, 2), F(1, 4),
                    XiParams(n_exact=3, n_mc=8, num_samples=8, seed=1))


def test_xi_same_class_pair_equivalent():
    params = XiParams(n_exact=5, n_mc=200, num_samples=200, seed=8)
    rep = xi_estimate(STEP, F(1, 2), F(2, 3), params)
    assert rep.verdict == "equivalent"
    assert rep.infinity_witness is None


def test_xi_table_entries_bounded():
    params = XiParams(n_exact=5, n_mc=64, num_samples=64, seed=8)
    rep = xi_estimate(STEP, F(1), F(1, 4), params)
    assert all(0 <= v <= 2 for v in rep.exact_tail_table.values())


def test_external_certificate_grants_equivalence():
    params = XiParams(n_exact=4, n_mc=64, num_samples=64, seed=8)
    rep = xi_estimate(systems.positive_step_system(), F(0), F(1), params,
                      external_certificate=True)
    assert rep.verdict == "equivalent"


def test_empirical_cylinder_frequencies_match_exact_masses():
    # fresh short traces from a fixed start reproduce depth-2 masses
    n_runs = 3000
    counts = {}
    for seed in range(n_runs):
        tr = simulate(STEP, 1, 2, seed=seed)
        word = tuple(tr.labels)
        counts[word] = counts.get(word, 0) + 1
    for word, mass in enumerate_cylinders(STEP, 1, 2):
        freq = counts.get(word, 0) / n_runs
        p = float(mass)
        sigma = math.sqrt(p * (1 - p) / n_runs)
        assert abs(freq - p) < 4 * sigma, word


def test_cli_partition_budget_exit(tmp_path):
    from rdsys.cli import run
    from rdsys.sysfile import save_system
    p0 = PiecewiseConstant((
        (Interval(F(0), F(1, 5), True, True), F(1, 2)),
        (Interval(F(1, 5), F(1), False, True), F(1, 3))))
    p1 = PiecewiseConstant((
        (Interval(F(0), F(1, 5), True, True), F(1, 2)),
        (Interval(F(1, 5), F(1), False, True), F(2, 3))))
    spec = SystemSpec(domain=Interval(F(0), F(1)), edges=(
        Edge("0", AffineMap(F(2, 3), F(0)), p0),
        Edge("1", AffineMap(F(1, 3), F(2, 3)), p1)))
    path = tmp_path / "expanding.txt"
    save_system(spec, path)
    assert run(["partition", str(path), "--seed", "1", "--refine-cap", "32"]) == 2
