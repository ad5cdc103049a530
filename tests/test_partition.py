import random
import traceback
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import conftest as oracle
from conftest import (MIXED_SPLIT, mixed_system, no_partition_system, random_system,
                      triadic_system)
from rdsys import graph, partition, systems
from rdsys.cli import run
from rdsys.dynamics import Polynomial, class_frequencies, simulate
from rdsys.measures import (XiParams, cylinder_measure, martingale_discrepancy,
                            tail_mass_exact, xi_estimate)
from rdsys.model import (AffineMap, Edge, InconsistentMerge, Interval,
                         OutOfDomain, PiecewiseConstant, Point,
                         RationalityPredicate, RefinementBudgetExceeded,
                         SystemSpec)
from rdsys.partition import (REFINE_CAP, Analysis, BalancedProduct, Cell, LabeledChain,
                             PartitionParams, ProductGraph, SupportSeparation,
                             UnbalancedProduct, adjoint_discrepancy,
                             classify_point, extract_symbolic_chain,
                             fundamental_partition, lift_check,
                             partition_report, refine_markov_partition,
                             stable_partition, verify_product_certificates,
                             verify_separations)

F = Fraction

STEP = systems.step_system()
STEP27 = systems.step_system(F(1, 27))
POSITIVE = systems.positive_step_system()
SPLIT = systems.rational_split_system()


def small_params(seed=99):
    return PartitionParams(seed=seed)


def support_separation(chain, i, j):
    cert = ProductGraph(chain).certificate(i, j)
    return cert if isinstance(cert, SupportSeparation) else None


def self_loop_chain(rows):
    """A chain whose states each loop back to themselves on every label;
    rows[s] maps label -> probability."""
    labels = tuple(sorted({l for row in rows for l in row}))
    prob = {(s, l): F(p) for s, row in enumerate(rows) for l, p in row.items()}
    return LabeledChain(
        n_states=len(rows), labels=labels, prob=prob,
        target={key: key[0] for key in prob},
        reps={s: Point(F(s, len(rows))) for s in range(len(rows))},
        cells=[Cell(Interval(F(s, len(rows)), F(s, len(rows)))) for s in range(len(rows))])


def chain_partition(chain):
    """The merged classes and certificates of a hand-made chain, in the
    shape `verify_product_certificates` reads."""
    product = ProductGraph(chain)
    certs = {(i, j): product.certificate(i, j)
             for i in range(chain.n_states) for j in range(i + 1, chain.n_states)}
    state_class = {}
    for s in range(chain.n_states):
        state_class[s] = next((state_class[r] for r in range(s)
                               if isinstance(certs[(r, s)], BalancedProduct)), s)
    return SimpleNamespace(certificates=certs, state_class=state_class)


class TestRefinement:
    def test_step_ninth_cells(self):
        part = refine_markov_partition(STEP)
        assert [str(c) for c in part.cells] == ["{0}", "(0,1/9]", "(1/9,1/3]", "(1/3,1]"]
        assert part.breakpoints == [F(0), F(1, 9), F(1, 3)]

    def test_positive_step_cells(self):
        part = refine_markov_partition(POSITIVE)
        assert [str(c) for c in part.cells] == ["[0,1/2]", "(1/2,1]"]

    def test_step_twentyseventh_cells(self):
        part = refine_markov_partition(STEP27)
        assert [str(c) for c in part.cells] == \
            ["{0}", "(0,1/27]", "(1/27,1/9]", "(1/9,1/3]", "(1/3,1]"]
        assert part.breakpoints == [F(0), F(1, 27), F(1, 9), F(1, 3)]

    def test_provenance_separates_origins(self):
        part = refine_markov_partition(STEP)
        origins = {t: o for (t, _s), o in part.provenance.items()}
        assert origins[F(1, 9)] == "probability"
        assert origins[F(1, 3)] == "preimage"
        assert origins[F(0)] == "preimage"

    def test_mixed_system_cells(self):
        # the interval cells of the piecewise edges, crossed with the tag
        part = refine_markov_partition(MIXED_SPLIT)
        assert [str(c) for c in part.cells] == [
            "[0,1/2] rational", "[0,1/2] irrational",
            "(1/2,1] rational", "(1/2,1] irrational"]
        assert part.breakpoints == [F(1, 2)]

    def test_cap_exceeded(self):
        # slope 2/3 doubles breakpoint denominators on preimage, so the
        # closure orbit never stabilizes and the cap must trip
        p0 = PiecewiseConstant((
            (Interval(F(0), F(1, 5), True, True), F(1, 2)),
            (Interval(F(1, 5), F(1), False, True), F(1, 3))))
        p1 = PiecewiseConstant((
            (Interval(F(0), F(1, 5), True, True), F(1, 2)),
            (Interval(F(1, 5), F(1), False, True), F(2, 3))))
        spec = SystemSpec(domain=Interval(F(0), F(1)), edges=(
            Edge("0", AffineMap(F(2, 3), F(0)), p0),
            Edge("1", AffineMap(F(1, 3), F(2, 3)), p1)))
        with pytest.raises(RefinementBudgetExceeded):
            refine_markov_partition(spec, cap=16)

    def test_soundness_every_image_in_one_cell(self):
        for spec in (STEP, STEP27, POSITIVE):
            part = refine_markov_partition(spec)
            for cell in part.cells:
                for e in spec.edges:
                    image = e.map.apply_interval(cell.interval)
                    hits = [c for c in part.cells if c.interval.contains_interval(image)]
                    assert len(hits) == 1

    def test_probability_dichotomy_on_cells(self):
        for spec in (STEP, STEP27, POSITIVE):
            part = refine_markov_partition(spec)
            for cell in part.cells:
                for e in spec.edges:
                    pieces = [iv for iv, _v in e.prob.pieces
                              if iv.contains_interval(cell.interval)]
                    assert len(pieces) == 1


class TestTaggedPartition:
    def test_split_partition(self):
        part = stable_partition(SPLIT)
        assert [c.tag for c in part.cells] == ["rational", "irrational"]

    def test_mixed_system_classes(self):
        fp = fundamental_partition(MIXED_SPLIT)
        assert fp.chain.n_states == 4 and fp.class_count() == 4
        assert graph.stationary_distribution(fp.chain).terminal == [[0, 2], [1, 3]]
        # 1/5 and 4/5 are separated by a word, and so are rational and irrational 1/5
        assert isinstance(partition.pair_certificate(MIXED_SPLIT, "1/5", "4/5"),
                          SupportSeparation)
        assert isinstance(partition.pair_certificate(MIXED_SPLIT, "1/5", "irr:1/5"),
                          SupportSeparation)


def one_point_system():
    """x/3 (1/2 on {0}, 1/4 above), x/3 + 2/3 (0 on {0}, 1/4 above) and x/2
    (1/2 on rationals and on irrationals): {0} is a cell that holds no
    irrational point."""
    zero, rest = Interval(F(0), F(0)), Interval(F(0), F(1), False, True)
    return SystemSpec(domain=Interval(F(0), F(1)), edges=(
        Edge("0", AffineMap(F(1, 3), F(0)),
             PiecewiseConstant(((zero, F(1, 2)), (rest, F(1, 4))))),
        Edge("1", AffineMap(F(1, 3), F(2, 3)),
             PiecewiseConstant(((zero, F(0)), (rest, F(1, 4))))),
        Edge("2", AffineMap(F(1, 2), F(0)), RationalityPredicate(F(1, 2), F(1, 2)))))


class TestOneRoute:
    """The interval cells crossed with the tag, against the two routes it
    replaced (`conftest.two_route_partition`), and on systems that mix
    piecewise edges with edges that read the tag."""

    def test_matches_the_two_routes(self):
        rng = random.Random(0x0E0E)
        specs = [(build(), REFINE_CAP) for build in systems.BUILDERS.values()]
        specs += [(triadic_system(m, random.Random(m), zeros), 2000)
                  for m in (3, 4) for zeros in (False, True)]
        specs += [(random_system(rng), 24) for _ in range(200)]
        refined = exceeded = 0
        for spec, cap in specs:
            try:
                old = oracle.two_route_partition(spec, cap)
            except RefinementBudgetExceeded:
                with pytest.raises(RefinementBudgetExceeded):
                    stable_partition(spec, cap)
                exceeded += 1
                continue
            new = stable_partition(spec, cap)
            assert new.cells == old.cells and new.tagged == old.tagged
            assert list(new.provenance.items()) == list(old.provenance.items())
            refined += 1
        assert refined >= 150 and exceeded >= 10, (refined, exceeded)

    def test_mixed_systems(self):
        """Seeded mixed systems: every certificate re-checks, the exact
        stationary solve re-checks its equations, the lift and one-step
        operator defects are 0 at tagged and untagged points, and no state
        is the empty irrational copy of a one-point cell, whose value
        refuses a tagged point."""
        fs = [Polynomial((F(0), F(1))), lambda q: F(2) if q.irrational_tag else q.value]
        refined = one_point = 0
        for seed in range(150):
            spec = mixed_system(random.Random(seed))
            try:
                fp = fundamental_partition(spec, PartitionParams(refinement_cap=64))
            except RefinementBudgetExceeded:
                continue
            refined += 1
            assert verify_separations(fp, spec) == []
            assert verify_product_certificates(fp.chain, fp) == []
            graph.stationary_distribution(fp.chain)   # raises on a nonzero residual
            cells = fp.chain.cells
            assert not any(c.interval.is_degenerate and c.tag == "irrational" for c in cells)
            singles = {c.interval.lo for c in cells if c.interval.is_degenerate}
            one_point += bool(singles)
            values = set(fp.partition.breakpoints) | {F(k, 6) for k in range(7)}
            for p in [Point(v, tag) for v in sorted(values) for tag in (False, True)]:
                if p.irrational_tag and p.value in singles:
                    with pytest.raises(OutOfDomain):
                        classify_point(fp, p)
                    with pytest.raises(OutOfDomain):
                        lift_check(spec, fp, p, 2)
                    continue
                assert lift_check(spec, fp, p, 3) == 0, (seed, p)
                for f in fs:
                    assert adjoint_discrepancy(spec, fp, p, f) == 0, (seed, p)
        assert refined >= 120 and one_point >= 50, (refined, one_point)

    def test_one_point_cell_has_no_irrational_copy(self):
        spec = one_point_system()
        fp = fundamental_partition(spec)
        assert [str(c) for c in fp.chain.cells] == [
            "{0} rational", "(0,1] rational", "(0,1] irrational"]
        assert graph.stationary_distribution(fp.chain).terminal == [[0], [1], [2]]
        assert fp.partition.states == [0, -1, 1, 2]
        for check in (lambda: classify_point(fp, "irr:0"),
                      lambda: lift_check(spec, fp, "irr:0", 2),
                      lambda: class_frequencies(simulate(spec, "irr:0", 10, seed=1), fp)):
            with pytest.raises(OutOfDomain):
                check()
        assert lift_check(spec, fp, "irr:1/2", 4) == 0
        freqs = class_frequencies(simulate(spec, "irr:1/2", 10, seed=1), fp)
        assert freqs[fp.state_class[2]] == 1


class TestChainExtraction:
    def test_step_matrix_rows(self):
        chain = extract_symbolic_chain(STEP, refine_markov_partition(STEP))
        b = F(1, 2)
        # nondegenerate states 1,2,3 carry the three-row transition structure
        assert chain.prob[(1, "1")] == 1 and chain.target[(1, "1")] == 3
        assert chain.prob[(2, "0")] == b and chain.target[(2, "0")] == 1
        assert chain.prob[(2, "1")] == 1 - b and chain.target[(2, "1")] == 3
        assert chain.prob[(3, "0")] == b and chain.target[(3, "0")] == 2
        assert chain.prob[(3, "1")] == 1 - b and chain.target[(3, "1")] == 3
        assert (1, "0") not in chain.prob

    def test_step27_matrix(self):
        chain = extract_symbolic_chain(STEP27, refine_markov_partition(STEP27))
        b = F(1, 2)
        rows = {}
        for s in range(1, 5):
            rows[s] = {t: F(0) for t in range(5)}
            for label in ("0", "1"):
                if (s, label) in chain.prob:
                    rows[s][chain.target[(s, label)]] += chain.prob[(s, label)]
        assert [rows[1][t] for t in range(1, 5)] == [0, 0, 0, 1]
        assert [rows[2][t] for t in range(1, 5)] == [b, 0, 0, 1 - b]
        assert [rows[3][t] for t in range(1, 5)] == [0, b, 0, 1 - b]
        assert [rows[4][t] for t in range(1, 5)] == [0, 0, b, 1 - b]

    def test_positive_step_transitions(self):
        chain = extract_symbolic_chain(POSITIVE, refine_markov_partition(POSITIVE))
        assert chain.prob[(0, "0")] == F(1, 4) and chain.target[(0, "0")] == 0
        assert chain.prob[(0, "1")] == F(3, 4) and chain.target[(0, "1")] == 0
        assert chain.prob[(1, "0")] == F(1, 3) and chain.target[(1, "0")] == 0
        assert chain.prob[(1, "1")] == F(2, 3) and chain.target[(1, "1")] == 1

    def test_split_chain_self_loops(self):
        chain = extract_symbolic_chain(SPLIT, stable_partition(SPLIT))
        assert chain.target == {(0, "0"): 0, (0, "1"): 0, (1, "0"): 1, (1, "1"): 1}
        assert chain.prob[(0, "0")] == F(1, 4) and chain.prob[(1, "0")] == F(1, 3)


class TestSupportSeparation:
    def test_adjacent_cells_word(self):
        chain = extract_symbolic_chain(STEP, refine_markov_partition(STEP))
        cert = support_separation(chain, 1, 2)
        assert cert.word == ("0",)
        assert (cert.mass_i, cert.mass_j) == (F(0), F(1, 2))

    def test_middle_pair_word(self):
        chain = extract_symbolic_chain(STEP, refine_markov_partition(STEP))
        cert = support_separation(chain, 2, 3)
        assert cert.word == ("0", "0")

    def test_degenerate_cell_word(self):
        chain = extract_symbolic_chain(STEP, refine_markov_partition(STEP))
        cert = support_separation(chain, 0, 1)
        assert cert.word == ("1", "0", "0")
        assert (cert.mass_i, cert.mass_j) == (F(0), F(1, 4))

    def test_positive_step_none(self):
        chain = extract_symbolic_chain(POSITIVE, refine_markov_partition(POSITIVE))
        assert support_separation(chain, 0, 1) is None

    def test_witnesses_reverify_via_cylinder_measure(self):
        chain = extract_symbolic_chain(STEP, refine_markov_partition(STEP))
        for i in range(4):
            for j in range(i + 1, 4):
                cert = support_separation(chain, i, j)
                assert cert is not None
                mi = cylinder_measure(STEP, chain.reps[i], cert.word)
                mj = cylinder_measure(STEP, chain.reps[j], cert.word)
                assert (mi, mj) == (cert.mass_i, cert.mass_j)
                assert (mi == 0) != (mj == 0)


class TestVerifySeparations:
    """`verify_separations` computes each (state, word) mass once: on STEP,
    (0,2) and (0,3) share state 0 and word 0, and (0,3) and (1,3) share
    state 3 and word 0. A forged certificate must still be reported."""

    def _fp(self):
        fp = fundamental_partition(STEP, small_params())
        assert {fp.certificates[pair].word for pair in ((0, 2), (0, 3), (1, 3))} == {("0",)}
        assert verify_separations(fp, STEP) == []
        return fp

    @pytest.mark.parametrize("pair, text", [((0, 2), "0,2"), ((0, 3), "0,3")])
    def test_forged_mass_on_a_shared_state_and_word(self, pair, text):
        fp = self._fp()
        fp.certificates[pair] = replace(fp.certificates[pair], mass_i=F(1, 8))
        assert verify_separations(fp, STEP) == [f"pair ({text}): recomputed masses 0,1/2 differ"]

    def test_forged_word_that_does_not_separate(self):
        # from states 2 and 3, word 0 has mass 1/2 each, both already computed
        fp = self._fp()
        fp.certificates[(2, 3)] = SupportSeparation(word=("0",), mass_i=F(1, 2), mass_j=F(1, 2))
        assert verify_separations(fp, STEP) == ["pair (2,3): word 0 does not separate"]


class TestMeasureEquality:
    """Equal path measures give balanced product certificates."""

    def test_same_state(self):
        chain = extract_symbolic_chain(POSITIVE, refine_markov_partition(POSITIVE))
        assert ProductGraph(chain).certificate(0, 0) == BalancedProduct()

    def test_positive_step_distinguished(self):
        # the measures differ on the word 0, yet the pair is equivalent
        chain = extract_symbolic_chain(POSITIVE, refine_markov_partition(POSITIVE))
        assert (chain.word_mass(0, ("0",)), chain.word_mass(1, ("0",))) == (F(1, 4), F(1, 3))
        assert isinstance(ProductGraph(chain).certificate(0, 1), BalancedProduct)

    def test_duplicated_state_equal(self):
        chain = LabeledChain(
            n_states=2, labels=("a", "b"),
            prob={(0, "a"): F(1, 3), (0, "b"): F(2, 3),
                  (1, "a"): F(1, 3), (1, "b"): F(2, 3)},
            target={(0, "a"): 0, (0, "b"): 1, (1, "a"): 0, (1, "b"): 1},
            reps={0: Point(F(0)), 1: Point(F(1))},
            cells=[Cell(Interval(F(0), F(1, 2))), Cell(Interval(F(1, 2), F(1)))])
        assert ProductGraph(chain).certificate(0, 1) == BalancedProduct()

    def test_same_class_states_equal_in_step(self):
        chain = extract_symbolic_chain(STEP, refine_markov_partition(STEP))
        assert ProductGraph(chain).certificate(3, 3) == BalancedProduct()


class TestCoupling:
    """Diagonal coupling: the balanced case whose reachable terminal
    components all lie on the diagonal."""

    def test_positive_step_couples(self):
        chain = extract_symbolic_chain(POSITIVE, refine_markov_partition(POSITIVE))
        assert ProductGraph(chain).certificate(0, 1) == BalancedProduct()

    def test_diagonal_start_trivial(self):
        chain = extract_symbolic_chain(POSITIVE, refine_markov_partition(POSITIVE))
        assert ProductGraph(chain).certificate(1, 1) == BalancedProduct()


class TestProductCertificates:
    def test_split_unbalanced(self):
        chain = extract_symbolic_chain(SPLIT, stable_partition(SPLIT))
        cert = ProductGraph(chain).certificate(0, 1)
        assert cert == UnbalancedProduct(word=(), vertex=(0, 1), label="0",
                                         p_i=F(1, 4), p_j=F(1, 3))
        assert str(cert) == "unbalanced_product word=- arc=(0,1).0 probabilities 1/4 vs 1/3"

    def test_transient_imbalance_is_balanced(self):
        # the start pair has unequal probabilities but is transient; the
        # terminal pair (2, 3) never meets the diagonal and is balanced
        chain = LabeledChain(
            n_states=4, labels=("a", "b"),
            prob={(0, "a"): F(1, 2), (0, "b"): F(1, 2), (1, "a"): F(1, 3),
                  (1, "b"): F(2, 3), (2, "a"): F(1, 5), (2, "b"): F(4, 5),
                  (3, "a"): F(1, 5), (3, "b"): F(4, 5)},
            target={(0, "a"): 2, (0, "b"): 0, (1, "a"): 3, (1, "b"): 1,
                    (2, "a"): 2, (2, "b"): 2, (3, "a"): 3, (3, "b"): 3},
            reps={s: Point(F(s, 4)) for s in range(4)},
            cells=[Cell(Interval(F(s, 4), F(s, 4))) for s in range(4)])
        product = ProductGraph(chain)
        assert product.certificate(0, 1) == BalancedProduct()
        assert product.certificate(2, 3) == BalancedProduct()

    def test_unbalanced_word_leads_into_component(self):
        # state 0 and 1 share label c into the self-looping states 2 and 3,
        # which give label b different probabilities
        chain = LabeledChain(
            n_states=4, labels=("a", "b", "c"),
            prob={(0, "c"): F(1), (1, "c"): F(1),
                  (2, "a"): F(1, 4), (2, "b"): F(1, 4), (2, "c"): F(1, 2),
                  (3, "a"): F(1, 4), (3, "b"): F(1, 2), (3, "c"): F(1, 4)},
            target={(0, "c"): 2, (1, "c"): 3, (2, "a"): 2, (2, "b"): 2,
                    (2, "c"): 2, (3, "a"): 3, (3, "b"): 3, (3, "c"): 3},
            reps={s: Point(F(s, 4)) for s in range(4)},
            cells=[Cell(Interval(F(s, 4), F(s, 4))) for s in range(4)])
        cert = ProductGraph(chain).certificate(0, 1)
        assert cert == UnbalancedProduct(word=("c",), vertex=(2, 3), label="b",
                                         p_i=F(1, 4), p_j=F(1, 2))
        fp = chain_partition(chain)
        assert verify_product_certificates(chain, fp) == []
        fp.certificates[(0, 1)] = replace(cert, word=())
        assert verify_product_certificates(chain, fp) != []

    def test_verify_accepts_bundled(self):
        for name, build in systems.BUILDERS.items():
            fp = fundamental_partition(build())
            assert verify_product_certificates(fp.chain, fp) == [], name

    @pytest.mark.parametrize("zeros", [False, True])
    def test_verify_accepts_triadic(self, zeros):
        fp = fundamental_partition(triadic_system(3, random.Random(1), zeros))
        assert fp.chain.n_states == 28
        assert verify_product_certificates(fp.chain, fp) == []

    def test_verify_rejects_flipped_balance(self):
        fp = fundamental_partition(POSITIVE)
        fp.certificates[(0, 1)] = UnbalancedProduct(
            word=(), vertex=(0, 1), label="0", p_i=F(1, 4), p_j=F(1, 3))
        assert verify_product_certificates(fp.chain, fp) != []
        fp = fundamental_partition(SPLIT)
        fp.certificates[(0, 1)] = BalancedProduct()
        assert verify_product_certificates(fp.chain, fp) != []

    def test_verify_rejects_balanced_arc(self):
        # label a is balanced in the unbalanced terminal component {(0, 1)}
        chain = self_loop_chain([{"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)},
                                 {"a": F(1, 4), "b": F(1, 2), "c": F(1, 4)}])
        fp = chain_partition(chain)
        cert = fp.certificates[(0, 1)]
        assert cert.label == "b"
        assert verify_product_certificates(chain, fp) == []
        fp.certificates[(0, 1)] = replace(cert, label="a", p_j=F(1, 4))
        assert verify_product_certificates(chain, fp) != []
        fp.certificates[(0, 1)] = replace(cert, label="a")
        assert verify_product_certificates(chain, fp) != []

    def test_verify_rejects_truncated_word(self):
        fp = fundamental_partition(STEP)
        cert = fp.certificates[(0, 1)]
        assert cert.word == ("1", "0", "0")
        fp.certificates[(0, 1)] = replace(cert, word=cert.word[:-1])
        assert verify_product_certificates(fp.chain, fp) != []

    def test_triadic_244_states_one_exact_class(self):
        # after m shared steps of the maps x/3 + e/3 both coordinates lie in
        # one cell of width 3^-m, so every pair couples on the diagonal
        fp = fundamental_partition(triadic_system(5, random.Random(1)))
        assert fp.chain.n_states == 244
        assert fp.class_count() == 1
        n = fp.chain.n_states
        assert {fp.product.certificate(i, j) for i in range(n)
                for j in range(i + 1, n)} == {BalancedProduct()}
        assert fp.certificates == {}
        assert verify_product_certificates(fp.chain, fp) == []

    def test_certificates_are_the_pairs_in_different_classes(self):
        """`fp.certificates` holds exactly the product's certificates of the
        pairs whose states lie in different classes, and re-checks."""
        rng = random.Random(0xCE57)
        specs = [build() for build in systems.BUILDERS.values()]
        specs += [triadic_system(m, random.Random(m), zeros)
                  for m in (3, 4) for zeros in (False, True)]
        specs += [random_system(rng) for _ in range(200)]
        checked = within = 0
        for spec in specs:
            try:
                fp = fundamental_partition(spec)
            except RefinementBudgetExceeded:
                continue
            n, cls = fp.chain.n_states, fp.state_class
            assert fp.certificates == {
                (i, j): fp.product.certificate(i, j)
                for i in range(n) for j in range(i + 1, n) if cls[i] != cls[j]}
            assert verify_product_certificates(fp.chain, fp) == []
            checked += 1
            within += fp.class_count() < n
        assert checked >= 150 and within >= 5, (checked, within)

    @pytest.mark.parametrize("name", ["step_ninth", "step_twentyseventh", "rational_split"])
    def test_verify_reports_a_deleted_certificate(self, name):
        fp = fundamental_partition(systems.BUILDERS[name]())
        certs = fp.certificates
        assert certs
        for (i, j) in certs:
            fp.certificates = {pair: c for pair, c in certs.items() if pair != (i, j)}
            assert f"pair ({i},{j}): no certificate" in \
                verify_product_certificates(fp.chain, fp), (name, i, j)

    @pytest.mark.parametrize("forged", [
        SupportSeparation(word=("0",), mass_i=F(1, 4), mass_j=F(0)),
        UnbalancedProduct(word=(), vertex=(0, 1), label="0", p_i=F(1, 4), p_j=F(1, 3))])
    def test_verify_rejects_a_forged_same_class_entry(self, forged):
        for spec in (POSITIVE, triadic_system(3, random.Random(1)),
                     triadic_system(3, random.Random(1), True)):
            fp = fundamental_partition(spec)
            n = fp.chain.n_states
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if fp.state_class[i] == fp.state_class[j])
            assert (i, j) not in fp.certificates
            fp.certificates[(i, j)] = forged
            assert f"pair ({i},{j}): class membership contradicts the certificate" in \
                verify_product_certificates(fp.chain, fp)


@pytest.mark.parametrize("m, seed, zeros, figures", [
    (3, 3, False, (28, 1, 0)),
    (3, 3, True, (28, 20, 364)),
    (4, 7, True, (82, 61, 3295)),
    (4, 7, False, (82, 1, 0)),
    (5, 3, True, (244, 189, 29583)),
])
def test_triadic_family_figures(m, seed, zeros, figures):
    """(chain states, classes, separated pairs), so a changed draw order shows."""
    fp = fundamental_partition(systems.triadic_system(m, random.Random(seed), zeros))
    separated = sum(isinstance(c, SupportSeparation) for c in fp.certificates.values())
    assert (fp.chain.n_states, fp.class_count(), separated) == figures


# ---------------------------------------------------------------------------
# the per-pair engines that `ProductGraph` replaced, kept as a test oracle:
# a forward breadth-first search for a separating word, the span iteration
# deciding equality of the two measures, and the diagonal-coupling test on
# each pair's own product graph. The oracle stops where the old engine fell
# back to seeded sampling.

def oracle_support_separation(chain, i, j):
    start = (i, j)
    seen = {start}
    queue = [(start, ())]
    while queue:
        (a, b), word = queue.pop(0)
        for label in chain.labels:
            in_a = (a, label) in chain.prob
            in_b = (b, label) in chain.prob
            if in_a != in_b:
                witness = word + (label,)
                return SupportSeparation(word=witness,
                                         mass_i=chain.word_mass(i, witness),
                                         mass_j=chain.word_mass(j, witness))
            if in_a and in_b:
                nxt = (chain.target[(a, label)], chain.target[(b, label)])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, word + (label,)))
    return None


def oracle_measure_equality(chain, i, j) -> bool:
    n = chain.n_states
    if i == j:
        return True

    def times_label(vec, label):
        out = [F(0)] * n
        for s in range(n):
            if vec[s] == 0:
                continue
            p = chain.prob.get((s, label))
            if p is None:
                continue
            out[chain.target[(s, label)]] += vec[s] * p
        return out

    basis = []  # list of (pivot index, vector)

    def reduce(vec):
        v = list(vec)
        for pidx, b in basis:
            if v[pidx] != 0:
                factor = v[pidx] / b[pidx]
                v = [a - factor * c for a, c in zip(v, b)]
        return v

    start = [F(0)] * n
    start[i] = F(1)
    start[j] = start[j] - 1
    queue = [((), start)]
    while queue:
        word, vec = queue.pop(0)
        if sum(vec, F(0)) != 0:
            return False
        residual = reduce(vec)
        pivot = next((k for k, v in enumerate(residual) if v != 0), None)
        if pivot is None:
            continue
        basis.append((pivot, residual))
        for label in chain.labels:
            queue.append((word + (label,), times_label(vec, label)))
    return True


def oracle_product_graph(chain, i, j):
    start = (i, j)
    seen = {start}
    order = [start]
    arcs = []
    queue = [start]
    while queue:
        a, b = queue.pop(0)
        for label in chain.labels:
            in_a = (a, label) in chain.prob
            in_b = (b, label) in chain.prob
            assert in_a == in_b, "support separation exists"
            if not in_a:
                continue
            nxt = (chain.target[(a, label)], chain.target[(b, label)])
            arcs.append((((a, b), label), (a, b), nxt))
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order, arcs


def oracle_coupled(chain, i, j) -> bool:
    states, arcs = oracle_product_graph(chain, i, j)
    g = oracle.Digraph(vertices=tuple(states), arcs=tuple(arcs))
    return all(any(pair[0] == pair[1] for pair in comp)
               for comp in oracle.terminal_components(g))


def oracle_verdicts(chain) -> dict:
    """(i, j) -> a SupportSeparation, "equal", "coupled", or None where the
    old engine would have sampled."""
    out = {}
    for i in range(chain.n_states):
        for j in range(i + 1, chain.n_states):
            sep = oracle_support_separation(chain, i, j)
            if sep is not None:
                out[(i, j)] = sep
            elif oracle_measure_equality(chain, i, j):
                out[(i, j)] = "equal"
            elif oracle_coupled(chain, i, j):
                out[(i, j)] = "coupled"
            else:
                out[(i, j)] = None
    return out


def oracle_classes(chain, verdicts) -> set:
    parent = list(range(chain.n_states))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for (i, j), verdict in verdicts.items():
        if verdict in ("equal", "coupled"):
            parent[max(find(i), find(j))] = min(find(i), find(j))
    groups: dict = {}
    for s in range(chain.n_states):
        groups.setdefault(find(s), set()).add(s)
    return {frozenset(g) for g in groups.values()}


def compare_with_oracle(fp) -> int:
    """Assert agreement with the per-pair engines; returns the number of
    pairs the oracle leaves undecided."""
    verdicts = oracle_verdicts(fp.chain)
    undecided = 0
    for pair, verdict in verdicts.items():
        cert = fp.product.certificate(*pair)
        if isinstance(verdict, SupportSeparation):
            assert cert == verdict, pair
        elif verdict is None:
            undecided += 1
            assert not isinstance(cert, SupportSeparation), pair
        else:
            assert cert == BalancedProduct(), pair
    classes = {frozenset(info.states) for info in fp.classes}
    if undecided == 0:
        assert classes == oracle_classes(fp.chain, verdicts)
    assert verify_product_certificates(fp.chain, fp) == []
    return undecided


def unbalanced_sources_by_oracle(chain, pg) -> set:
    """The unbalanced vertices a * n + b of unbalanced terminal components
    of the separation-free part, from the tuple digraph of `conftest`."""
    n, labels, prob = chain.n_states, chain.labels, chain.prob
    free = pg.sep_dist < 0
    arcs = tuple((k, u, v) for k, (u, v) in enumerate(
        (u, int(pg.succ[l, u])) for l, u in zip(*np.nonzero(pg.succ >= 0))) if free[u])
    g = oracle.Digraph(vertices=tuple(np.flatnonzero(free).tolist()), arcs=arcs)

    def unequal(v) -> bool:
        a, b = divmod(v, n)
        return any(prob.get((a, l)) != prob.get((b, l)) for l in labels)

    return {v for comp in oracle.terminal_components(g) if any(map(unequal, comp))
            for v in comp if unequal(v)}


class TestDifferential:
    def test_product_graph_against_tuple_oracle(self):
        """Every certificate re-checks, and the sources of the unbalanced
        search match the tuple oracle, on seeded random and triadic chains."""
        rng = random.Random(0x9A1B)
        specs = [triadic_system(m, random.Random(m), zeros)
                 for m in (3, 4) for zeros in (False, True)]
        specs += [random_system(rng) for _ in range(200)]
        checked = with_sources = 0
        for spec in specs:
            try:
                fp = fundamental_partition(spec)
            except RefinementBudgetExceeded:
                continue
            assert verify_product_certificates(fp.chain, fp) == []
            pg = ProductGraph(fp.chain)
            expected = unbalanced_sources_by_oracle(fp.chain, pg)
            assert set(np.flatnonzero(pg.unbal_dist == 0).tolist()) == expected
            checked += 1
            with_sources += bool(expected)
        assert checked >= 150 and with_sources >= 5, (checked, with_sources)

    # the oracle costs O(n^4) Fraction work per system, so random systems
    # with more than 24 breakpoints (up to 73 states here) are skipped
    def test_random_systems(self):
        rng = random.Random(0xD1FF)
        compared = undecided = 0
        for _ in range(200):
            spec = random_system(rng)
            try:
                fp = fundamental_partition(spec, PartitionParams(refinement_cap=24))
            except RefinementBudgetExceeded:
                continue
            compared += 1
            undecided += compare_with_oracle(fp)
        assert compared >= 150
        # pairs only the exact engine decides: unbalanced ones, and one
        # balanced pair whose terminal component stays off the diagonal
        assert undecided > 0

    @pytest.mark.parametrize("zeros", [False, True])
    def test_triadic_m3(self, zeros):
        fp = fundamental_partition(triadic_system(3, random.Random(1), zeros))
        assert compare_with_oracle(fp) == 0

    def test_merge_against_union_find(self):
        """The classes read off the balanced matrix equal the union-find
        merge over eagerly built certificates, field by field and in order."""
        rng = random.Random(0x5EED)
        specs = [triadic_system(m, random.Random(m), zeros)
                 for m in (3, 4, 5) for zeros in (False, True)]
        specs += [build() for build in systems.BUILDERS.values()]
        specs += [random_system(rng) for _ in range(200)]
        compared = 0
        for spec in specs:
            try:
                old = oracle.union_find_partition(spec)
            except RefinementBudgetExceeded:
                continue
            fp = fundamental_partition(spec)
            assert fp.classes == old.classes
            assert fp.state_class == old.state_class
            assert fp.fms_edges == old.fms_edges
            assert list(fp.certificates.items()) == [
                ((i, j), cert) for (i, j), cert in old.certificates.items()
                if old.state_class[i] != old.state_class[j]]
            compared += 1
        assert compared >= 161, compared   # the 11 fixed systems, 150 random ones


class TestFundamentalPartition:
    def test_step_four_classes(self):
        fp = fundamental_partition(STEP, small_params())
        assert [info.describe() for info in fp.classes] == \
            ["{0}", "(0,1/9]", "(1/9,1/3]", "(1/3,1]"]

    def test_positive_step_single_class(self):
        fp = fundamental_partition(POSITIVE, small_params())
        assert fp.class_count() == 1
        assert fp.product.certificate(0, 1) == BalancedProduct()
        assert fp.certificates == {}
        assert ("\ncertificates (pairs in different classes; a pair within a class is "
                "balanced_product):\nreduced edges") in partition_report(fp)

    def test_split_two_classes_exact(self):
        fp = fundamental_partition(SPLIT, small_params())
        assert fp.class_count() == 2
        assert isinstance(fp.certificates[(0, 1)], UnbalancedProduct)

    def test_certificate_coherence(self):
        for spec in (STEP, STEP27, POSITIVE):
            fp = fundamental_partition(spec, small_params())
            for (i, j), cert in fp.certificates.items():
                if isinstance(cert, SupportSeparation):
                    assert fp.state_class[i] != fp.state_class[j]
            assert verify_separations(fp, spec) == []

    def test_forward_invariance_of_classes(self):
        for spec in (STEP, STEP27, POSITIVE):
            fp = fundamental_partition(spec, small_params())
            for fe in fp.fms_edges:
                info = fp.classes[fe.class_id]
                for s in info.states:
                    assert fp.state_class[fp.chain.target[(s, fe.label)]] == fe.target

    def test_deterministic_report(self):
        a = partition_report(fundamental_partition(SPLIT, small_params()))
        b = partition_report(fundamental_partition(SPLIT, small_params()))
        assert a == b

    def test_non_transitive_balance_raises(self, monkeypatch):
        """0~1 and 1~2 balanced but (0, 2) unbalanced: no classes exist."""
        class Forged(ProductGraph):
            def __init__(self, chain):
                super().__init__(chain)
                n = self.n
                for v in (0 * n + 2, 2 * n + 0):
                    self.unbal_dist[v], self.unbal_next[v] = 0, 0

        assert fundamental_partition(triadic_system(1, random.Random(1))).class_count() == 1
        monkeypatch.setattr(partition, "ProductGraph", Forged)
        # a new spec: the first one keeps its unforged analysis
        spec = triadic_system(1, random.Random(1))
        with pytest.raises(InconsistentMerge):
            fundamental_partition(spec)

    @pytest.mark.parametrize("pair, message", [
        ((1, 2), "class 1 mixes states with different label supports"),
        ((2, 3), r"label 0 from class 2 lands in several classes \[1, 2\]")])
    def test_state_unlike_its_leader_raises(self, monkeypatch, pair, message):
        """A pair forged balanced whose states differ in the support of label
        0 (state 1 lacks it) or in the class it leads to (1 and 2) cannot
        form one state of the reduced system."""
        class Forged(ProductGraph):
            def __init__(self, chain):
                super().__init__(chain)
                i, j = pair
                for v in (i * self.n + j, j * self.n + i):
                    self.sep_dist[v] = self.unbal_dist[v] = -1

        monkeypatch.setattr(partition, "ProductGraph", Forged)
        spec = systems.step_system()   # STEP may keep an unforged analysis
        with pytest.raises(InconsistentMerge, match=message):
            fundamental_partition(spec)

    def test_certificates_built_on_first_read(self, monkeypatch, capsys):
        calls, built = [], []
        certificate, init = ProductGraph.certificate, ProductGraph.__init__
        monkeypatch.setattr(ProductGraph, "certificate",
                            lambda self, i, j: calls.append((i, j)) or certificate(self, i, j))
        monkeypatch.setattr(ProductGraph, "__init__",
                            lambda self, chain: built.append(chain) or init(self, chain))
        path = str(systems.bundled_path("step_twentyseventh"))
        assert run(["graph", path]) == 0
        assert built == []
        fp = fundamental_partition(STEP27)
        class_frequencies(simulate(STEP27, F(1, 3), 200, 5), fp)
        assert run(["simulate", path, "--x0", "1/3", "--steps", "200", "--seed", "5"]) == 0
        capsys.readouterr()
        assert calls == []
        certs = fp.certificates
        assert len(calls) == len(certs) == 5 * 4 // 2
        assert fp.certificates is certs and len(calls) == 10

    def test_partition_needs_no_seed(self):
        a = partition_report(fundamental_partition(SPLIT, PartitionParams()))
        assert a == partition_report(fundamental_partition(SPLIT, small_params()))


class TestAnalysis:
    """One `partition.analysis` per (spec, cap), kept off the fields."""

    def test_equality_and_hashing_unchanged(self):
        spec, copy = systems.step_system(), systems.step_system()
        assert isinstance(partition.analysis(spec), Analysis)
        partition.pair_certificate(spec, F(1, 4), F(3, 4))
        assert spec == copy and hash(spec) == hash(copy)
        assert [f.name for f in fields(SystemSpec)] == ["domain", "edges"]
        assert list(spec.analyses) == [REFINE_CAP] and copy.analyses == {}

    @pytest.mark.parametrize("make", [
        systems.step_system, lambda: triadic_system(2, random.Random(3), zeros=True),
        no_partition_system], ids=["step_ninth", "triadic2_0to3", "no_partition"])
    def test_one_closure_per_system_and_cap(self, monkeypatch, make):
        calls = []
        refine = partition.refine_markov_partition
        monkeypatch.setattr(partition, "refine_markov_partition",
                            lambda spec, cap: calls.append(cap) or refine(spec, cap))
        spec = make()
        x, y = F(1, 4), F(3, 4)
        params = XiParams(n_exact=3, n_mc=4, num_samples=4, seed=1)
        for _ in range(3):
            partition.pair_certificate(spec, x, y)
            tail_mass_exact(spec, x, y, 4, 2)
            martingale_discrepancy(spec, x, y, 1, 4)
            xi_estimate(spec, x, y, params)
            for cap in (REFINE_CAP, 24):
                try:
                    fundamental_partition(spec, PartitionParams(refinement_cap=cap))
                except partition.NO_STABLE_PARTITION:
                    pass
        assert calls == [REFINE_CAP, 24]

    def test_caps_keep_separate_entries(self):
        spec = triadic_system(4, random.Random(1))
        with pytest.raises(RefinementBudgetExceeded, match="cap 24 "):
            partition.analysis(spec, 24)
        kept = partition.analysis(spec, 256)
        assert kept.chain.n_states == 82
        assert partition.analysis(spec) is kept and spec.analyses[256] is kept
        assert isinstance(spec.analyses[24], RefinementBudgetExceeded)

    def test_kept_error_raised_alike(self):
        spec = no_partition_system()
        raised = []
        for _ in range(3):
            with pytest.raises(RefinementBudgetExceeded) as info:
                partition.analysis(spec)
            raised.append((type(info.value), str(info.value),
                           len(traceback.extract_tb(info.value.__traceback__))))
        assert raised[0][1] == "no finite stable partition found at cap 256 breakpoints"
        assert raised == raised[:1] * 3


class TestClassify:
    def test_threshold_belongs_left(self):
        fp = fundamental_partition(STEP, small_params())
        assert fp.classes[classify_point(fp, F(1, 9))].describe() == "(0,1/9]"

    def test_third_belongs_middle(self):
        fp = fundamental_partition(STEP, small_params())
        assert fp.classes[classify_point(fp, F(1, 3))].describe() == "(1/9,1/3]"

    def test_bisect_lookup_matches_scan(self):
        part = refine_markov_partition(STEP27)
        for k in range(55):
            p = Point(F(k, 54))
            assert part.cell_of_point(p) == next(
                s for s, c in enumerate(part.cells) if c.contains_point(p))
        with pytest.raises(OutOfDomain):
            part.cell_of_point(Point(F(2)))

    def test_tagged_lookup(self):
        part = stable_partition(SPLIT)
        assert part.cell_of_point(Point(F(1, 3))) == 0
        assert part.cell_of_point(Point(F(1, 3), True)) == 1
        assert part.cuts.row_of_interval(Interval(F(1, 4), F(1, 2)), True) == 1

    def test_irrational_tag_classified(self):
        fp = fundamental_partition(SPLIT, small_params())
        cid = classify_point(fp, systems.IRRATIONAL_SAMPLE)
        assert fp.classes[cid].cells[0].tag == "irrational"


class TestLiftAndOperator:
    @pytest.mark.parametrize("x,depth", [(F(1), 4), (F(0), 3), (F(1, 5), 4)])
    def test_step_lift_zero(self, x, depth):
        fp = fundamental_partition(STEP, small_params())
        assert lift_check(STEP, fp, x, depth) == 0

    def test_positive_step_lift_zero(self):
        fp = fundamental_partition(POSITIVE, small_params())
        assert lift_check(POSITIVE, fp, F(2, 3), 5) == 0

    def test_split_lift_zero(self):
        fp = fundamental_partition(SPLIT, small_params())
        assert lift_check(SPLIT, fp, systems.IRRATIONAL_SAMPLE, 5) == 0

    @pytest.mark.parametrize("name", sorted(systems.BUILDERS))
    def test_depth_zero_lift_zero(self, name):
        spec = systems.bundled_spec(name)
        fp = fundamental_partition(spec)
        for x in (F(0), F(1, 2), F(1)):
            assert lift_check(spec, fp, x, 0) == 0

    def test_operator_agreement(self):
        from rdsys.dynamics import Polynomial
        fs = [Polynomial((F(1),)), Polynomial((F(0), F(1))),
              Polynomial((F(0), F(0), F(1)))]
        for spec in (STEP, POSITIVE, SPLIT):
            fp = fundamental_partition(spec, small_params())
            for k in range(1, 8):
                p = Point(F(k, 8), spec.has_rationality_edges and k % 2 == 0)
                for f in fs:
                    assert adjoint_discrepancy(spec, fp, p, f) == 0

    def test_lift_detects_corrupted_tables(self):
        fp = fundamental_partition(STEP, small_params())
        # swap two targets in the reduced edge table: defect must appear
        bad = [fe for fe in fp.fms_edges]
        from rdsys.partition import FmsEdge
        for k, fe in enumerate(bad):
            if fe.class_id == 2 and fe.label == "0":
                bad[k] = FmsEdge(2, "0", 3)
        fp.fms_edges = bad
        assert lift_check(STEP, fp, F(1), 4) > 0
