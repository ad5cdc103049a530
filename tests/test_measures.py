import collections
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import MIXED_SPLIT, mixed_system, no_partition_system, random_system
from rdsys import measures, systems
from rdsys.measures import (DEFAULT_WORD_BUDGET, BudgetExceeded, XiParams,
                            _exact_tail_scan, cylinder_measure, enumerate_cylinders,
                            martingale_discrepancy, tail_mass_exact, xi_estimate)
from rdsys.model import (AffineMap, DegenerateSampling, Edge, Interval, OutOfDomain,
                         OverlappingPieces, PiecewiseConstant, Point, PointLike,
                         RationalityPredicate, RefinementBudgetExceeded, SystemSpec,
                         as_point, format_rational)
from rdsys.partition import (FundamentalPartition, PartitionParams,
                             classify_point, fundamental_partition, lift_check)
from rdsys.sysfile import parse_system

F = Fraction

STEP = systems.step_system()
POSITIVE = systems.positive_step_system()
SPLIT = systems.rational_split_system()
IRR = systems.IRRATIONAL_SAMPLE

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=40)


class TestCylinderMeasure:
    def test_single_factor(self):
        assert cylinder_measure(STEP, 1, ("0",)) == F(1, 2)

    def test_two_factors(self):
        assert cylinder_measure(STEP, 1, ("0", "0")) == F(1, 4)

    def test_zero_short_circuit(self):
        assert cylinder_measure(STEP, F(1, 4), ("0", "0")) == 0

    def test_empty_word_has_full_mass(self):
        assert cylinder_measure(STEP, F(1, 2), ()) == 1


class TestEnumerate:
    def test_depth_one_is_edge_probabilities(self):
        rows = dict(enumerate_cylinders(STEP, 1, 1))
        assert rows == {("0",): F(1, 2), ("1",): F(1, 2)}

    def test_depth_two_from_one(self):
        rows = dict(enumerate_cylinders(STEP, 1, 2))
        assert rows == {("0", "0"): F(1, 4), ("0", "1"): F(1, 4),
                        ("1", "0"): F(1, 4), ("1", "1"): F(1, 4)}

    def test_zero_words_omitted(self):
        rows = dict(enumerate_cylinders(STEP, F(1, 4), 2))
        assert rows == {("0", "1"): F(1, 2), ("1", "0"): F(1, 4),
                        ("1", "1"): F(1, 4)}

    def test_include_zero_lists_all_words(self):
        rows = enumerate_cylinders(STEP, F(1, 4), 2, include_zero=True)
        assert len(rows) == 4
        assert dict(rows)[("0", "0")] == 0

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_cylinders(STEP, 1, 40, budget=1 << 10)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_total_mass_one(self, depth):
        for spec, x in ((STEP, F(7, 8)), (POSITIVE, F(1, 3)), (SPLIT, F(1, 5))):
            total = sum((m for _w, m in enumerate_cylinders(spec, x, depth)), F(0))
            assert total == 1


def check_additivity(spec, x, depth):
    """Kolmogorov consistency along the whole depth-n tree."""
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
        assert total == mass
    walk(point=Point(F(x)) if not isinstance(x, Point) else x, mass=F(1), k=0)


class TestConsistency:
    @given(rationals01)
    def test_bundled_additivity(self, x):
        for spec in (STEP, POSITIVE, SPLIT):
            check_additivity(spec, x, 5)

    def test_random_systems_additivity(self, rng):
        for _ in range(25):
            spec = random_system(rng)
            check_additivity(spec, F(rng.randint(0, 16), 16), 5)


class TestLikelihoodRatio:
    """Prefix ratios of two points' cylinder masses."""

    def test_rational_vs_irrational_single_step(self):
        assert cylinder_measure(SPLIT, 0, ("0",)) / cylinder_measure(SPLIT, IRR, ("0",)) \
            == F(3, 4)

    def test_infinite_branch(self):
        assert cylinder_measure(STEP, 1, ("0", "0")) > 0
        assert cylinder_measure(STEP, F(1, 4), ("0", "0")) == 0


class TestMartingale:
    def test_equal_depths_trivial(self):
        assert martingale_discrepancy(STEP, 1, F(1, 2), 3, 3) == 0

    def test_same_class_pair(self):
        assert martingale_discrepancy(STEP, 1, F(1, 2), 1, 3) == 0

    def test_positive_step_cross_pair(self):
        assert martingale_discrepancy(POSITIVE, 0, 1, 2, 4) == 0

    def test_split_cross_tag_pair(self):
        assert martingale_discrepancy(SPLIT, 0, IRR, 2, 5) == 0

    def test_cross_class_defect_is_lost_mass(self):
        # from x=1 the word 00 keeps x-mass 1/4 but has zero y-mass at y=1/4
        defect = martingale_discrepancy(STEP, 1, F(1, 4), 1, 2)
        assert defect == F(1, 4)

    def test_requires_ordered_depths(self):
        with pytest.raises(ValueError):
            martingale_discrepancy(STEP, 1, 1, 3, 2)


class TestTailMass:
    def test_same_point_zero(self):
        assert tail_mass_exact(STEP, F(2, 3), F(2, 3), 4, F(1)) == 0

    def test_infinity_word_counts(self):
        assert tail_mass_exact(STEP, 1, F(1, 4), 2, F(10)) == F(1, 4)

    def test_split_small_ratios(self):
        assert tail_mass_exact(SPLIT, 0, IRR, 1, F(2)) == 0

    @given(st.integers(min_value=1, max_value=4))
    def test_monotone_in_threshold(self, n):
        masses = [tail_mass_exact(SPLIT, 0, IRR, n, F(m)) for m in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(masses, masses[1:]))


class TestNegativeDepth:
    @pytest.mark.parametrize("call", [
        lambda: enumerate_cylinders(STEP, 1, -1),
        lambda: tail_mass_exact(STEP, 1, F(1, 4), -1, 2),
        lambda: martingale_discrepancy(STEP, 1, F(1, 4), -1, -1),
        lambda: martingale_discrepancy(STEP, 1, F(1, 4), -1, 2),
        lambda: lift_check(STEP, fundamental_partition(STEP), 1, -1),
        lambda: xi_estimate(STEP, 1, F(1, 4), XiParams(n_exact=-1, seed=1)),
    ])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            call()


class TestXi:
    def test_same_point_equivalent(self):
        params = XiParams(n_exact=4, n_mc=64, num_samples=64, seed=5)
        rep = xi_estimate(STEP, F(1, 2), F(1, 2), params)
        assert rep.verdict == "equivalent"
        assert all(v == 0 for v in rep.exact_tail_table.values())
        assert rep.mc_drift == 0

    def test_split_statistical_drift(self):
        params = XiParams(n_exact=6, n_mc=400, num_samples=400, seed=17)
        rep = xi_estimate(SPLIT, 0, IRR, params)
        assert rep.verdict == "singular_statistical"
        expected = 0.25 * math.log(3 / 4) + 0.75 * math.log(9 / 8)
        assert abs(rep.mc_drift - expected) < 5 * max(rep.mc_drift_stderr, 1e-4)

    def test_step_certified_by_infinity_word(self):
        params = XiParams(n_exact=4, n_mc=32, num_samples=32, seed=3)
        rep = xi_estimate(STEP, 1, F(1, 4), params)
        assert rep.verdict == "singular_certified"
        assert rep.infinity_witness is not None
        assert cylinder_measure(STEP, 1, rep.infinity_witness) > 0
        assert cylinder_measure(STEP, F(1, 4), rep.infinity_witness) == 0

    def test_reproducible(self):
        params = XiParams(n_exact=4, n_mc=128, num_samples=128, seed=23)
        a = xi_estimate(SPLIT, 0, IRR, params)
        b = xi_estimate(SPLIT, 0, IRR, params)
        assert a.mc_drift == b.mc_drift
        assert a.mc_drift_stderr == b.mc_drift_stderr
        assert a.mc_tail_estimates == b.mc_tail_estimates
        assert a.to_csv() == b.to_csv()

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            xi_estimate(STEP, 1, 1, XiParams())

    def test_csv_shape(self):
        params = XiParams(n_exact=3, n_mc=16, num_samples=16, seed=2)
        rep = xi_estimate(STEP, F(1, 2), F(2, 3), params)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "n,M,exact_tail"
        assert "verdict,drift,stderr,samples,seed" in lines
        summary = lines[lines.index("verdict,drift,stderr,samples,seed") + 1]
        assert summary.split(",")[0] == rep.verdict


# ---------------------------------------------------------------------------
# differential test: the recursive walkers the code-space walk replaced,
# kept verbatim as the oracle

def oracle_check_budget(spec: SystemSpec, depth: int, budget: int) -> None:
    if len(spec.edges) ** depth > budget:
        raise BudgetExceeded(
            f"|E|^depth = {len(spec.edges)}^{depth} exceeds budget {budget}")


def oracle_enumerate_cylinders(spec: SystemSpec, x: PointLike, depth: int, *,
                               include_zero: bool = False,
                               budget: int = DEFAULT_WORD_BUDGET) -> list:
    """All depth-n words with their exact masses (zero words optional)."""
    oracle_check_budget(spec, depth, budget)
    start = as_point(x)
    spec.require_in_domain(start)
    out = []

    def walk(point: Point, mass: Fraction, word: tuple, k: int) -> None:
        if k == depth:
            out.append((word, mass))
            return
        for e in spec.edges:
            factor = e.prob.value_at(point) if mass > 0 else Fraction(0)
            sub = mass * factor
            if sub == 0 and not include_zero:
                continue
            nxt = e.map.apply_point(point) if sub > 0 else point
            walk(nxt, sub, word + (e.edge_id,), k + 1)

    walk(start, Fraction(1), (), 0)
    return out


def oracle_martingale_discrepancy(spec: SystemSpec, x: PointLike, y: PointLike,
                                  m: int, n: int, *,
                                  budget: int = DEFAULT_WORD_BUDGET) -> Fraction:
    """Largest defect of the prefix-ratio martingale identity.

    For each depth-m word C with positive y-mass, compares the exact
    integral of the depth-n ratio over C against the integral of the
    depth-m ratio (both under the y-measure). The defect is zero whenever
    no positive-x-mass word with zero y-mass appears by depth n, which is
    the regime where the conditional-expectation identity holds.
    """
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    oracle_check_budget(spec, n, budget)
    xp, yp = as_point(x), as_point(y)
    spec.require_in_domain(xp)
    spec.require_in_domain(yp)
    worst = Fraction(0)

    def mass_below(px_pt, py_pt, px, py, k) -> Fraction:
        # sum of x-masses over depth-n descendants with positive y-mass
        if k == n:
            return px
        total = Fraction(0)
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            fy = e.prob.value_at(py_pt)
            if fx == 0 or fy == 0:
                continue
            total += mass_below(e.map.apply_point(px_pt), e.map.apply_point(py_pt),
                                px * fx, py * fy, k + 1)
        return total

    def walk(px_pt, py_pt, px, py, k) -> None:
        nonlocal worst
        if k == m:
            defect = abs(mass_below(px_pt, py_pt, px, py, k) - px)
            if defect > worst:
                worst = defect
            return
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            fy = e.prob.value_at(py_pt)
            if fy == 0 or fx == 0:
                # zero y-mass removes the word from the depth-m index set;
                # zero x-mass makes both integrals vanish
                continue
            walk(e.map.apply_point(px_pt), e.map.apply_point(py_pt),
                 px * fx, py * fy, k + 1)

    walk(xp, yp, Fraction(1), Fraction(1), 0)
    return worst


def oracle_tail_mass_exact(spec: SystemSpec, x: PointLike, y: PointLike, n: int,
                           M, *, budget: int = DEFAULT_WORD_BUDGET) -> Fraction:
    """Exact x-mass of depth-n words whose prefix ratio exceeds M.

    Words with positive x-mass and zero y-mass (infinite ratio) always
    count; once the y-mass dies the whole subtree's x-mass is credited in
    one step via additivity.
    """
    oracle_check_budget(spec, n, budget)
    M = Fraction(M)
    xp, yp = as_point(x), as_point(y)
    spec.require_in_domain(xp)
    spec.require_in_domain(yp)
    total = Fraction(0)

    def walk(px_pt, py_pt, px, py, k) -> None:
        nonlocal total
        if px == 0:
            return
        if py == 0:
            total += px
            return
        if k == n:
            if px > M * py:
                total += px
            return
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            if fx == 0:
                continue
            fy = e.prob.value_at(py_pt)
            walk(e.map.apply_point(px_pt),
                 e.map.apply_point(py_pt) if fy > 0 else py_pt,
                 px * fx, py * fy, k + 1)

    walk(xp, yp, Fraction(1), Fraction(1), 0)
    return total


def oracle_exact_tail_scan(spec: SystemSpec, x: Point, y: Point, params: XiParams):
    """One-pass DFS collecting x-direction tail masses for every depth and
    every grid threshold, plus per-depth total mass and an infinity witness."""
    n_exact = params.n_exact
    grid = sorted(Fraction(M) for M in params.m_grid)
    tails = {(n, M): Fraction(0) for n in range(1, n_exact + 1) for M in grid}
    depth_mass = [Fraction(0)] * (n_exact + 1)
    witness = None

    def walk(px_pt, py_pt, px, py, word, k) -> None:
        nonlocal witness
        if px == 0:
            return
        if py == 0:
            # the whole subtree keeps x-mass px and zero y-mass
            if witness is None or len(word) < len(witness):
                witness = word
            for n in range(k, n_exact + 1):
                depth_mass[n] += px
                if n >= 1:
                    for M in grid:
                        tails[(n, M)] += px
            return
        depth_mass[k] += px
        if k >= 1:
            for M in grid:
                if px > M * py:
                    tails[(k, M)] += px
                else:
                    break  # grid ascending, larger M cannot be exceeded
        if k == n_exact:
            return
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            if fx == 0:
                continue
            fy = e.prob.value_at(py_pt)
            walk(e.map.apply_point(px_pt),
                 e.map.apply_point(py_pt) if fy > 0 else py_pt,
                 px * fx, py * fy, word + (e.edge_id,), k + 1)

    walk(x, y, Fraction(1), Fraction(1), (), 0)
    for n, mass in enumerate(depth_mass):
        if mass != 1:
            raise DegenerateSampling(
                f"depth-{n} masses sum to {format_rational(mass)}, not 1")
    return tails, witness


def oracle_lift_check(spec: SystemSpec, fp: FundamentalPartition, x: PointLike,
                      depth: int, *, budget: int = 1 << 20) -> Fraction:
    """Largest defect between original cylinder masses and the summed
    masses of their path-consistent lifts through the reduced system.

    A lift follows the reduced transition table from some starting class;
    its factors are the original probabilities gated by membership of the
    actual orbit point in the lift's current class, so any wrong entry in
    the reduced tables shows up as a positive defect.
    """
    if len(spec.edges) ** depth > budget:
        raise BudgetExceeded(f"|E|^{depth} exceeds budget {budget}")
    start = as_point(x)
    spec.require_in_domain(start)
    edge_target = {(fe.class_id, fe.label): fe.target for fe in fp.fms_edges}
    n_classes = len(fp.classes)
    worst = Fraction(0)

    def walk(point, px, lifts, k):
        nonlocal worst
        if k == depth:
            total = sum((r for _c, r in lifts), Fraction(0))
            defect = abs(px - total)
            if defect > worst:
                worst = defect
            return
        here = classify_point(fp, point)
        for e in spec.edges:
            fx = e.prob.value_at(point)
            if fx == 0:
                continue
            new_lifts = []
            for c, r in lifts:
                if c is None or r == 0:
                    new_lifts.append((None, Fraction(0)))
                    continue
                nxt = edge_target.get((c, e.edge_id))
                if nxt is None:
                    new_lifts.append((None, Fraction(0)))
                    continue
                factor = fx if c == here else Fraction(0)
                new_lifts.append((nxt, r * factor))
            walk(e.map.apply_point(point), px * fx, new_lifts, k + 1)

    walk(start, Fraction(1), [(c, Fraction(1)) for c in range(n_classes)], 0)
    return worst


GRID = (F(1, 2), F(1), F(2), F(8))


def compare_walks(spec, x, y, depth):
    """Every fold against its oracle; the tail scan covers every depth and
    threshold, so the other folds are compared at fewer of them."""
    for n in range(depth + 1):
        for zero in (False, True):
            assert (enumerate_cylinders(spec, x, n, include_zero=zero)
                    == oracle_enumerate_cylinders(spec, x, n, include_zero=zero))
        for M in (F(1), F(8)):
            assert tail_mass_exact(spec, x, y, n, M) == oracle_tail_mass_exact(spec, x, y, n, M)
    for m in range(depth + 1):
        assert (martingale_discrepancy(spec, x, y, m, depth)
                == oracle_martingale_discrepancy(spec, x, y, m, depth))
    for a, b in ((x, y), (y, x)):
        params = XiParams(n_exact=depth, m_grid=GRID)
        assert (_exact_tail_scan(spec, a, b, params)
                == oracle_exact_tail_scan(spec, as_point(a), as_point(b), params))


def compare_lifts(spec, fp, points, depth):
    """On the partition's reduced tables, where every defect is zero, and on
    tables with every target moved to the next class, where defects show."""
    n = len(fp.classes)
    moved = replace(fp, fms_edges=[replace(fe, target=(fe.target + 1) % n)
                                   for fe in fp.fms_edges])
    for tables in (fp, moved):
        for x in points:
            for k in range(1, depth + 1):
                assert lift_check(spec, tables, x, k) == oracle_lift_check(spec, tables, x, k)


STEP_RIGHT_OWNED = parse_system(systems.bundled_text("step_ninth").replace(
    "(0,1/9,true,true,", "(0,1/9,true,false,").replace("(1/9,1,false,true,", "(1/9,1,true,true,"))
COLLAPSE = SystemSpec(domain=Interval(F(0), F(1)), edges=(
    Edge("0", AffineMap(F(0), F(1, 3)), RationalityPredicate(F(1, 2), F(1, 4))),
    Edge("1", AffineMap(F(1, 2), F(1, 4)), RationalityPredicate(F(1, 2), F(3, 4)))))

BUNDLED_POINTS = (Point(F(0)), Point(F(1, 4)), Point(F(1, 3)), Point(F(5, 7)),
                  Point(F(1)), IRR, Point(F(1, 5), True))


def compare_public_folds(spec, x, y, depth) -> bool:
    """`tail_mass_exact`, `martingale_discrepancy` and `xi_estimate`'s
    exact tail table and witness against the oracles; returns whether
    the pair has an exact witness word by `depth`."""
    for M in (F(1), F(8)):
        assert (tail_mass_exact(spec, x, y, depth, M)
                == oracle_tail_mass_exact(spec, x, y, depth, M))
    for m in sorted({0, depth // 2, depth - 1}):
        assert (martingale_discrepancy(spec, x, y, m, depth)
                == oracle_martingale_discrepancy(spec, x, y, m, depth))
    params = XiParams(n_exact=depth, m_grid=GRID, n_mc=4, num_samples=4, seed=1)
    tails_x, witness_x = oracle_exact_tail_scan(spec, x, y, params)
    tails_y, witness_y = oracle_exact_tail_scan(spec, y, x, params)
    witness = witness_x if witness_x is not None else witness_y
    try:
        report = xi_estimate(spec, x, y, params)
    except OutOfDomain:
        # the certificate refuses a tagged point at a one-point cell's
        # value, as `pair_certificate` does; the scans alone still run
        for a, b in ((x, y), (y, x)):
            assert (_exact_tail_scan(spec, a, b, params)
                    == oracle_exact_tail_scan(spec, a, b, params))
        return witness is not None
    assert report.exact_tail_table == {key: tails_x[key] + tails_y[key] for key in tails_x}
    if witness is not None:
        assert report.infinity_witness == witness
    return witness is not None


@pytest.fixture
def fold_paths(monkeypatch):
    """Counts the pair folds run on the chain (`chain`) and by the word
    walker (`walker`); a walk with no second point (`single`) is not a
    pair fold."""
    counts = collections.Counter()
    chain_layers, chain_martingale, walk = (measures._pair_layers,
                                            measures._martingale_on_chain, measures._code_walk)

    def layers(*args):
        counts["chain"] += 1
        return chain_layers(*args)

    def martingale(*args):
        counts["chain"] += 1
        return chain_martingale(*args)

    def walker(spec, x, y, depth, budget):
        counts["single" if y is None else "walker"] += 1
        return walk(spec, x, y, depth, budget)
    monkeypatch.setattr(measures, "_pair_layers", layers)
    monkeypatch.setattr(measures, "_martingale_on_chain", martingale)
    monkeypatch.setattr(measures, "_code_walk", walker)
    return counts


def edge_system(n_edges: int, dead_for_high: set) -> SystemSpec:
    """`n_edges` maps x/3 + k/(3 n_edges), with ids "0", "1", ...: edge k
    has probability 1/n_edges on [0, 1/2], and the edges in
    `dead_for_high` have probability 0 on (1/2, 1], the others sharing
    their mass equally."""
    low, high = Interval(F(0), F(1, 2), True, True), Interval(F(1, 2), F(1), False, True)
    live = n_edges - len(dead_for_high)
    return SystemSpec(domain=Interval(F(0), F(1)), edges=tuple(
        Edge(str(k), AffineMap(F(1, 3), F(k, 3 * n_edges)),
             PiecewiseConstant(((low, F(1, n_edges)),
                                (high, F(0) if k in dead_for_high else F(1, live)))))
        for k in range(n_edges)))


class TestDifferential:
    def test_random_systems(self, fold_paths):
        rng = random.Random(0xC0DE)
        lifted = 0
        for _ in range(200):
            spec = random_system(rng)
            x, y = (Point(F(rng.randint(0, 16), 16)) for _ in range(2))
            compare_walks(spec, x, y, 4)
            try:
                fp = fundamental_partition(spec, PartitionParams(refinement_cap=24))
            except RefinementBudgetExceeded:
                continue
            lifted += 1
            compare_lifts(spec, fp, (x, y), 4)
        assert lifted >= 100
        # systems with and without a stable partition at the default cap
        assert fold_paths["chain"] >= 3000 and fold_paths["walker"] >= 300

    @pytest.mark.parametrize("name", sorted(systems.BUILDERS))
    def test_bundled_systems(self, name, fold_paths):
        spec = systems.bundled_spec(name)
        points = [p for p in BUNDLED_POINTS
                  if spec.has_rationality_edges or not p.irrational_tag]
        for x, y in zip(points, points[1:] + points[:1]):
            compare_walks(spec, x, y, 6)
        compare_lifts(spec, fundamental_partition(spec), points, 7)
        # every bundled system has a stable partition: no pair fold walks words
        assert fold_paths["chain"] and not fold_paths["walker"]

    @pytest.mark.parametrize("spec", [
        *(pytest.param(systems.bundled_spec(name), id=name)
          for name in sorted(systems.BUILDERS)),
        pytest.param(MIXED_SPLIT, id="mixed_split")])
    def test_public_folds_on_bundled_pairs(self, spec, fold_paths):
        points = [p for p in BUNDLED_POINTS
                  if spec.has_rationality_edges or not p.irrational_tag]
        for x, y in itertools.permutations(points, 2):
            compare_public_folds(spec, x, y, 5)
        assert fold_paths["chain"] >= 5 * len(points) * (len(points) - 1)
        assert not fold_paths["walker"]

    def test_public_folds_on_seeded_systems(self, fold_paths):
        rng = random.Random(0xF01D)
        pairs = witnesses = 0
        for k in range(170):
            spec = (mixed_system if k % 2 else random_system)(rng)
            for _ in range(3):
                x, y = (Point(F(rng.randint(0, 12), 12),
                              spec.has_rationality_edges and rng.random() < 0.5)
                        for _ in range(2))
                witnesses += compare_public_folds(spec, x, y, 4)
                pairs += 1
        assert pairs == 510 and witnesses >= 100
        assert fold_paths["chain"] >= 2500 and fold_paths["walker"] >= 500

    def test_lex_least_of_several_dead_words(self, fold_paths):
        # from 1/4 every edge is live; from 3/4 edges 1 and 2 are dead, so
        # the depth-1 words 1 and 2 both die, and 1 comes first; from 1/4
        # against 1/5 nothing dies at depth 1, and at depth 2 every word
        # that leaves [0, 1/2] for y and then takes 1 or 2 dies
        spec = edge_system(4, {1, 2})
        for x, y, word in ((F(1, 4), F(3, 4), ("1",)), (F(3, 4), F(1, 4), None)):
            params = XiParams(n_exact=3, m_grid=GRID)
            got = _exact_tail_scan(spec, x, y, params)
            assert got == oracle_exact_tail_scan(spec, as_point(x), as_point(y), params)
            assert got[1] == word
        dead = [w for w, m in enumerate_cylinders(spec, F(1, 4), 1)
                if cylinder_measure(spec, F(3, 4), w) == 0]
        assert dead == [("1",), ("2",)]
        assert fold_paths["chain"] == 2 and not fold_paths["walker"]

    def test_dead_words_at_depth_two_keep_the_lex_least(self, fold_paths):
        # from 7/12 and 11/12 nothing dies at depth 1; at depth 2 the words
        # 30, 31, 40 and 41 die, under two parents that come after 0, 1, 2
        spec = edge_system(5, {0, 1})
        x, y = Point(F(7, 12)), Point(F(11, 12))
        dead = [w for w, _m in enumerate_cylinders(spec, x, 2)
                if cylinder_measure(spec, y, w) == 0]
        assert dead == [("3", "0"), ("3", "1"), ("4", "0"), ("4", "1")]
        params = XiParams(n_exact=3, m_grid=GRID)
        got = _exact_tail_scan(spec, x, y, params)
        assert got == oracle_exact_tail_scan(spec, x, y, params)
        assert got[1] == ("3", "0")
        assert fold_paths["chain"] == 1 and not fold_paths["walker"]

    def test_eleven_edges_order_by_index(self, fold_paths):
        # edges 2 and 10 are dead above 1/2: by edge index 2 comes first,
        # by edge-id string "10" would
        spec = edge_system(11, {2, 10})
        params = XiParams(n_exact=2, m_grid=GRID)
        for x, y in ((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), (F(1, 9), F(5, 6))):
            for a, b in ((x, y), (y, x)):
                got = _exact_tail_scan(spec, a, b, params)
                assert got == oracle_exact_tail_scan(spec, as_point(a), as_point(b), params)
            assert compare_public_folds(spec, Point(x), Point(y), 2)
        assert _exact_tail_scan(spec, F(1, 4), F(3, 4), params)[1] == ("2",)
        assert fold_paths["chain"] and not fold_paths["walker"]

    def test_no_stable_partition_walks_words(self, fold_paths):
        spec = no_partition_system()
        with pytest.raises(RefinementBudgetExceeded):
            fundamental_partition(spec)
        compare_public_folds(spec, Point(F(1, 4)), Point(F(3, 4)), 6)
        assert fold_paths["walker"] and not fold_paths["chain"]

    def test_shared_edge_ids_walk_words(self, fold_paths):
        # the chain keys its arcs by edge id, so two edges named "0" would
        # merge there; the walker keeps them apart
        spec = edge_system(3, {1})
        spec = replace(spec, edges=tuple(replace(e, edge_id="0") if e.edge_id == "2" else e
                                         for e in spec.edges))
        compare_public_folds(spec, Point(F(1, 4)), Point(F(3, 4)), 3)
        assert fold_paths["walker"] and not fold_paths["chain"]

    def test_argument_checks_on_the_chain(self):
        # depth, then budget, then domain, with the walker's messages
        with pytest.raises(ValueError, match="depth must be >= 0"):
            tail_mass_exact(POSITIVE, 2, 3, -1, 2)
        with pytest.raises(BudgetExceeded, match=r"2\^40 exceeds budget 1048576"):
            tail_mass_exact(POSITIVE, 2, 3, 40, 2)
        with pytest.raises(BudgetExceeded, match=r"2\^40 exceeds budget 1048576"):
            martingale_discrepancy(POSITIVE, 2, 3, 1, 40)
        with pytest.raises(BudgetExceeded, match=r"2\^12 exceeds budget 1024"):
            xi_estimate(POSITIVE, F(1, 4), F(3, 4),
                        XiParams(n_exact=12, budget=1 << 10, seed=1))
        # a system whose probabilities leave a gap fails only once a fold
        # reads them, after the argument checks
        gap = replace(POSITIVE, edges=tuple(
            replace(e, prob=PiecewiseConstant(e.prob.pieces[:1])) for e in POSITIVE.edges))
        with pytest.raises(ValueError, match="depth must be >= 0"):
            xi_estimate(gap, F(1, 4), F(3, 4), XiParams(n_exact=-1, seed=1))
        with pytest.raises(OverlappingPieces):
            xi_estimate(gap, F(1, 4), F(3, 4), XiParams(n_exact=2, seed=1))
        for call in (lambda: tail_mass_exact(POSITIVE, 2, F(1, 2), 3, 2),
                     lambda: tail_mass_exact(POSITIVE, F(1, 2), -1, 3, 2),
                     lambda: martingale_discrepancy(POSITIVE, F(1, 2), 2, 1, 3)):
            with pytest.raises(OutOfDomain):
                call()

    @pytest.mark.parametrize("spec, x, y", [
        # start on a cut owned by the left cell (1/9, 1/2), then on one
        # owned by the right cell
        (STEP, Point(F(1, 9)), Point(F(1, 3))),
        (POSITIVE, Point(F(1, 2)), Point(F(1, 6))),
        (STEP_RIGHT_OWNED, Point(F(1, 9)), Point(F(1, 3))),
        # 62-digit denominators on either side of the cut at 1/9
        (STEP, Point(F(1, 9) + F(1, 3 ** 130)), Point(F(1, 9) - F(1, 3 ** 130))),
        # after edge 0 (slope 0) an irrational start is the rational 1/3,
        # whose probabilities differ from the irrationals'
        (COLLAPSE, Point(F(1, 5), True), Point(F(1, 2))),
        (COLLAPSE, IRR, Point(F(1, 5), True)),
    ])
    def test_cut_long_and_tagged_start_points(self, spec, x, y):
        compare_walks(spec, x, y, 6)
        compare_lifts(spec, fundamental_partition(spec), (x, y), 7)

    def test_tail_mass_at_benchmark_depth(self):
        x, y = F(1, 7), F(5, 7)
        assert tail_mass_exact(POSITIVE, x, y, 14, 8) == oracle_tail_mass_exact(POSITIVE, x, y, 14, 8)
