"""The per-system cell index against the linear scans it replaced.

`oracle_cylinder_measure` and `oracle_extract_symbolic_chain` are the
`value_at`-based `cylinder_measure` and `extract_symbolic_chain` the index
replaced, kept verbatim as the oracle; the chain oracle finds image cells
with `conftest.PartitionLookup`.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import UNIT, PartitionLookup, random_system, triadic_system
from rdsys import measures, model, systems
from rdsys.measures import XiParams, cylinder_measure, xi_estimate
from rdsys.model import (AffineMap, Edge, ImageSplitsCells, Interval,
                         NonConstantOnCell, OverlappingPieces,
                         PiecewiseConstant, Point, PointLike,
                         RefinementBudgetExceeded, SystemSpec, UnknownEdge,
                         Word, as_point)
from rdsys.partition import (RATIONAL_TAG, Cell, IntervalPartition,
                             LabeledChain, fundamental_partition, lift_check,
                             stable_partition, extract_symbolic_chain,
                             verify_separations)
from rdsys.sysfile import parse_system

F = Fraction


def oracle_cylinder_measure(spec: SystemSpec, x: PointLike, word: Word) -> Fraction:
    """Exact mass of the cylinder of all paths starting with `word`.

    The product short-circuits at the first zero factor; maps past that
    point are never applied, so edges only need to act where their
    probability is positive.
    """
    p = as_point(x)
    spec.require_in_domain(p)
    mass = Fraction(1)
    for edge_id in word:
        e = spec.edge(edge_id)
        factor = e.prob.value_at(p)
        if factor == 0:
            return Fraction(0)
        mass *= factor
        p = e.map.apply_point(p)
    return mass


def oracle_extract_symbolic_chain(spec: SystemSpec, part: IntervalPartition) -> LabeledChain:
    """Read off per-cell probabilities and single-cell images, verifying
    constancy and image containment exactly."""
    lookup = PartitionLookup(part)
    prob = {}
    target = {}
    reps = {}
    for s, cell in enumerate(part.cells):
        rep = cell.representative()
        reps[s] = rep
        for e in spec.edges:
            value = e.prob.value_at(rep)
            if isinstance(e.prob, PiecewiseConstant):
                holder = next((iv for iv, _v in e.prob.pieces
                               if iv.contains_interval(cell.interval)), None)
                if holder is None:
                    raise NonConstantOnCell(
                        f"edge {e.edge_id} not constant on cell {cell}")
            elif cell.tag is None and e.prob.constant_value() is None:
                raise NonConstantOnCell(
                    f"edge {e.edge_id} reads the tag but cell {cell} has none")
            if value == 0:
                continue
            image = e.map.apply_interval(cell.interval)
            if cell.tag is None:
                image_tag = None
            else:
                image_tag = (cell.tag if (e.map.slope != 0 or cell.tag == RATIONAL_TAG)
                             else RATIONAL_TAG)
            hit = lookup.locate(image, image_tag)
            if hit is None:
                raise ImageSplitsCells(
                    f"edge {e.edge_id} image {image} of cell {cell} "
                    "not inside a single cell")
            prob[(s, e.edge_id)] = value
            target[(s, e.edge_id)] = hit
    return LabeledChain(n_states=len(part.cells), labels=spec.edge_ids,
                        prob=prob, target=target, reps=reps, cells=list(part.cells))


def compare_cylinders(spec, points, depth):
    """Every word up to `depth` from every point, against the oracle."""
    for x in points:
        for n in range(depth + 1):
            for word in itertools.product(spec.edge_ids, repeat=n):
                assert cylinder_measure(spec, x, word) == oracle_cylinder_measure(spec, x, word)


def compare_chains(spec, part):
    chain = extract_symbolic_chain(spec, part)
    oracle = oracle_extract_symbolic_chain(spec, part)
    assert (chain.prob, chain.target, chain.reps) == (oracle.prob, oracle.target, oracle.reps)


def cut_points(spec):
    """The cells' boundaries, and points a 60-digit denominator away."""
    eps = F(1, 3 ** 125)
    out = []
    for cell in model.common_refinement_cells(spec):
        out += [Point(cell.lo), Point(cell.hi)]
        if cell.lo + eps < cell.hi:
            out += [Point(cell.lo + eps), Point(cell.hi - eps)]
    return out


STEP = systems.step_system()
POSITIVE = systems.positive_step_system()
SPLIT = systems.rational_split_system()
TAGGED_POINTS = (systems.IRRATIONAL_SAMPLE, Point(F(1, 5), True), Point(F(0), True),
                 Point(F(1), True), Point(F(1, 2), True))


class TestDifferential:
    def test_random_systems(self):
        rng = random.Random(0x1DE)
        extracted = 0
        for _ in range(200):
            spec = random_system(rng)
            points = cut_points(spec) + [Point(F(rng.randint(0, 16), 16))]
            compare_cylinders(spec, points, 4)
            try:
                part = stable_partition(spec, 24)
            except RefinementBudgetExceeded:
                continue
            extracted += 1
            compare_chains(spec, part)
        assert extracted >= 100

    @pytest.mark.parametrize("name", sorted(systems.BUILDERS))
    def test_bundled_systems(self, name):
        spec = systems.bundled_spec(name)
        points = cut_points(spec) + [Point(F(1, 3)), Point(F(5, 7))]
        if spec.has_rationality_edges:
            points += TAGGED_POINTS
        compare_cylinders(spec, points, 6)
        compare_chains(spec, stable_partition(spec))

    @pytest.mark.parametrize("spec, x", [
        # a cut owned by the left cell, then one owned by the right cell
        (STEP, Point(F(1, 9))),
        (POSITIVE, Point(F(1, 2))),
        # 60-digit denominators on either side of those cuts
        (STEP, Point(F(1, 9) + F(1, 3 ** 125))),
        (STEP, Point(F(1, 9) - F(1, 3 ** 125))),
        (POSITIVE, Point(F(1, 2) + F(1, 10 ** 59 + 7))),
        (POSITIVE, Point(F(1, 2) - F(1, 10 ** 59 + 7))),
    ])
    def test_cut_and_long_start_points(self, spec, x):
        compare_cylinders(spec, (x,), 8)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_triadic_chains(self, m, zeros):
        spec = triadic_system(m, random.Random(m), zeros)
        compare_chains(spec, stable_partition(spec, 2000))

    def test_unknown_edge_only_when_reached(self):
        # the zero factor of edge 0 at 0 short-circuits before the unknown letter
        for word in (("0", "zz"), ("1", "zz")):
            for cylinder in (cylinder_measure, oracle_cylinder_measure):
                if word[0] == "0":
                    assert cylinder(STEP, F(0), word) == 0
                else:
                    with pytest.raises(UnknownEdge):
                        cylinder(STEP, F(0), word)


class TestMissingCut:
    def error(self, extract, spec, part):
        with pytest.raises(NonConstantOnCell) as info:
            extract(spec, part)
        return str(info.value)

    def test_partition_without_the_probability_cut(self):
        # step_ninth's probabilities change at 1/9; one cell [0,1] crosses it
        part = IntervalPartition(domain=UNIT, cells=[Cell(UNIT)], provenance={}, tagged=False)
        message = self.error(extract_symbolic_chain, STEP, part)
        assert message == self.error(oracle_extract_symbolic_chain, STEP, part)
        assert message == "edge 0 not constant on cell [0,1]"

    def test_first_nonconstant_edge_is_named(self):
        # edge 0 is constant, edges 1 and 2 change at 1/2, and the partition
        # lacks the cut at 1/2: the message names edge 1, as the scan did
        low, high = Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1), False, True)
        spec = SystemSpec(domain=UNIT, edges=(
            Edge("0", AffineMap(F(1, 2), F(0)), PiecewiseConstant(((UNIT, F(1, 2)),))),
            Edge("1", AffineMap(F(1, 2), F(1, 2)),
                 PiecewiseConstant(((low, F(1, 4)), (high, F(1, 8))))),
            Edge("2", AffineMap(F(1, 2), F(1, 4)),
                 PiecewiseConstant(((low, F(1, 4)), (high, F(3, 8)))))))
        part = IntervalPartition(domain=UNIT, cells=[Cell(UNIT)], provenance={}, tagged=False)
        message = self.error(extract_symbolic_chain, spec, part)
        assert message == self.error(oracle_extract_symbolic_chain, spec, part)
        assert message == "edge 1 not constant on cell [0,1]"

    def test_tag_reading_edge_needs_a_tagged_cell(self):
        part = IntervalPartition(domain=UNIT, cells=[Cell(UNIT)], provenance={}, tagged=False)
        message = self.error(extract_symbolic_chain, SPLIT, part)
        assert message == self.error(oracle_extract_symbolic_chain, SPLIT, part)

    def test_image_outside_the_cells(self):
        # unvalidated: edge 0 sends (1/2,1] past the domain, to (1,5/4]
        low, high = Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1), False, True)
        spec = SystemSpec(domain=UNIT, edges=(
            Edge("0", AffineMap(F(1, 2), F(3, 4)),
                 PiecewiseConstant(((low, F(1, 2)), (high, F(1, 3))))),
            Edge("1", AffineMap(F(1, 2), F(0)),
                 PiecewiseConstant(((low, F(1, 2)), (high, F(2, 3)))))))
        part = stable_partition(spec)
        assert [c.interval for c in part.cells] == [low, high]
        messages = []
        for extract in (extract_symbolic_chain, oracle_extract_symbolic_chain):
            with pytest.raises(ImageSplitsCells) as info:
                extract(spec, part)
            messages.append(str(info.value))
        assert messages == ["edge 0 image (1,5/4] of cell (1/2,1] not inside a single cell"] * 2


class TestBuiltOnce:
    def test_one_build_across_the_pipeline(self, monkeypatch):
        spec = parse_system(systems.bundled_text("step_ninth"))
        calls = []
        rows = model.cell_probability_rows
        monkeypatch.setattr(model, "cell_probability_rows",
                            lambda s: calls.append(s) or rows(s))
        fp = fundamental_partition(spec)
        assert verify_separations(fp, spec) == []
        for x in (F(0), F(1, 9), F(1, 2)):
            assert lift_check(spec, fp, x, 4) == 0
        xi_estimate(spec, F(1, 2), F(1, 4), XiParams(n_exact=3, n_mc=8, num_samples=8, seed=1))
        assert len(calls) == 1

    def test_equal_specs_compare_and_hash_alike(self):
        a = parse_system(systems.bundled_text("positive_step"))
        b = parse_system(systems.bundled_text("positive_step"))
        a.cell_index
        assert a == b and hash(a) == hash(b) and b in {a}
        assert a.cell_index is a.cell_index

    def test_gap_between_pieces_raises_on_first_use(self):
        gap = SystemSpec(domain=UNIT, edges=(
            Edge("0", AffineMap(F(1, 2), F(0)),
                 PiecewiseConstant(((Interval(F(0), F(1, 3)), F(1)),
                                    (Interval(F(1, 2), F(1)), F(1))))),))
        with pytest.raises(OverlappingPieces):
            measures.cylinder_measure(gap, F(3, 4), ("0",))
