"""The one-step Markov operator, its adjoint and the reduced-system check
against their earlier forms, kept verbatim in `conftest` as oracles.

Every system is probed at each cut of its cells, the two float neighbours
of each cut (as exact rationals, so some fall outside the domain), each
cell's representative, and with both tags on tagged systems. Results must
be equal, types included, and an out-of-domain point must raise
`OutOfDomain` on both sides.
"""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

import conftest as oracle
from conftest import random_system, triadic_system
from rdsys import systems
from rdsys.dynamics import Polynomial
from rdsys.model import (DiscreteMeasure, OutOfDomain, Point,
                         RefinementBudgetExceeded, common_refinement_cells,
                         markov_operator, push_forward)
from rdsys.partition import (PartitionParams, adjoint_discrepancy,
                             fundamental_partition)

F = Fraction

FUNCTIONS = (Polynomial((F(1),)), Polynomial((F(0), F(1))),
             Polynomial((F(0), F(0), F(1))),
             lambda q: float(q.value),                         # float-valued
             lambda q: F(2) if q.irrational_tag else q.value)  # reads the tag


@functools.lru_cache(maxsize=None)
def probe_systems(group: str) -> list:
    """(spec, fundamental partition or None, probe points) per system."""
    if group == "bundled":
        specs = [systems.bundled_spec(name) for name in sorted(systems.BUILDERS)]
        caps = [None] * len(specs)
    elif group == "triadic":
        specs = [triadic_system(m, random.Random(m), zeros)
                 for m in (3, 4) for zeros in (False, True)]
        caps = [2000] * len(specs)
    else:
        specs = [random_system(random.Random(k)) for k in range(200)]
        caps = [24] * len(specs)
    out = []
    for spec, cap in zip(specs, caps):
        try:
            fp = fundamental_partition(spec, PartitionParams(refinement_cap=cap)
                                       if cap else None)
            cells = [c.interval for c in fp.partition.cells]
        except RefinementBudgetExceeded:
            fp, cells = None, common_refinement_cells(spec)
        out.append((spec, fp, probe_points(spec, cells)))
    return out


def probe_points(spec, cells) -> list:
    ends = {c.lo for c in cells} | {c.hi for c in cells}
    values = set(ends) | {c.interior_point() for c in cells}
    for t in ends:
        for v in (np.nextafter(float(t), -np.inf), np.nextafter(float(t), np.inf)):
            values.add(F(*float(v).as_integer_ratio()))
    tags = (False, True) if spec.has_rationality_edges else (False,)
    return [Point(v, tag) for v in sorted(values) for tag in tags]


def typed(value):
    """`value` with the type of every number in it, for exact comparison."""
    if isinstance(value, DiscreteMeasure):
        return [(typed(p.value), p.irrational_tag, typed(w)) for p, w in value.atoms]
    return type(value).__name__, value


def outcome(call):
    try:
        return typed(call())
    except OutOfDomain:
        return "OutOfDomain"


GROUPS = ("bundled", "triadic", "random")


@pytest.mark.parametrize("group", GROUPS)
def test_markov_operator_matches_the_oracle(group):
    for spec, _fp, points in probe_systems(group):
        for p in points:
            for f in FUNCTIONS:
                seen, want_seen = [], []
                got = outcome(lambda: markov_operator(spec, lambda q: seen.append(q) or f(q), p))
                want = outcome(lambda: oracle.markov_operator(
                    spec, lambda q: want_seen.append(q) or f(q), p))
                assert got == want, (spec, p)
                # f is read at the same images in the same order, none of
                # them the image of a zero-probability edge
                assert seen == want_seen, (spec, p)


@pytest.mark.parametrize("group", GROUPS)
def test_push_forward_matches_the_oracle(group):
    for spec, _fp, points in probe_systems(group):
        for p in points:
            nu = DiscreteMeasure.dirac(p)
            assert outcome(lambda: push_forward(spec, nu)) == \
                outcome(lambda: oracle.push_forward(spec, nu)), (spec, p)
        inside = [p for p in points if spec.domain.contains_value(p.value)]
        mixed = DiscreteMeasure(tuple((p, F(1, len(inside))) for p in inside)
                                + ((inside[0], F(0)),))
        assert typed(push_forward(spec, mixed)) == typed(oracle.push_forward(spec, mixed))
        # the domain is checked before a zero weight is skipped
        outside = DiscreteMeasure(((inside[0], F(1)), (Point(spec.domain.hi + 1), F(0))))
        with pytest.raises(OutOfDomain):
            push_forward(spec, outside)


@pytest.mark.parametrize("group", GROUPS)
def test_adjoint_discrepancy_matches_the_oracle(group):
    checked = 0
    for spec, fp, points in probe_systems(group):
        if fp is None:
            continue
        checked += 1
        for p in points:
            for f in FUNCTIONS:
                got = outcome(lambda: adjoint_discrepancy(spec, fp, p, f))
                assert got == outcome(lambda: oracle.adjoint_discrepancy(spec, fp, p, f)), \
                    (spec, p)
                assert got in ("OutOfDomain", ("Fraction", 0), ("float", 0.0)), (spec, p)
    assert checked >= (100 if group == "random" else 4)


POWER_CASES = {**{name: (systems.bundled_spec(name), None) for name in systems.BUILDERS},
               **{f"triadic3_zeros_{zeros}": (triadic_system(3, random.Random(3), zeros), 2000)
                  for zeros in (False, True)}}


@pytest.mark.parametrize("name", sorted(POWER_CASES))
def test_dropping_a_reduced_edge_shows_a_defect(name):
    """Without one reduced edge of a class, the check finds that edge's
    probability as the defect of f = 1 at a state of the class that has
    the label, so a check ignoring the class's labels fails here."""
    spec, cap = POWER_CASES[name]
    fp = fundamental_partition(spec, PartitionParams(refinement_cap=cap) if cap else None)
    one = Polynomial((F(1),))
    edges = list(fp.fms_edges)
    for fe in edges:
        fp.fms_edges = [g for g in edges if g != fe]
        s = next(s for s in fp.classes[fe.class_id].states
                 if (s, fe.label) in fp.chain.prob)
        p = fp.chain.reps[s]
        defect = adjoint_discrepancy(spec, fp, p, one)
        assert defect == fp.chain.prob[(s, fe.label)] > 0, (name, fe)
        assert defect == oracle.adjoint_discrepancy(spec, fp, p, one)
    fp.fms_edges = edges
    for s, p in fp.chain.reps.items():
        assert adjoint_discrepancy(spec, fp, p, one) == 0


def test_check_reads_the_probability_functions():
    """Against the reduction of `step_ninth`, `positive_step` gives edge 0
    probability 1/4 on [0, 1/9], where the chain has no label 0: the check
    sees it because it reads the functions, not the chain."""
    fp = fundamental_partition(systems.bundled_spec("step_ninth"))
    other = systems.bundled_spec("positive_step")
    one = Polynomial((F(1),))
    assert (fp.chain.prob.get((fp.partition.cell_of_point(Point(F(1, 18))), "0"))
            is None)
    assert adjoint_discrepancy(other, fp, F(1, 18), one) == F(1, 4)
