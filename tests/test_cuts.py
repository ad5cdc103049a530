"""The shared cut table against the lookups it replaced.

Three earlier lookups are kept verbatim as oracles:
- `conftest.PartitionLookup`: `IntervalPartition.locate` and
  `cell_of_point`, bisecting per-tag start and end keys;
- `oracle_class_states` and `oracle_class_frequencies`: the filing of
  `dynamics.class_frequencies`, two `searchsorted` calls against the
  chain's cells, and a separate branch for tagged partitions;
- `oracle_lookup` and `oracle_rows`: `EvalTables.lookup`, the nudged float
  cut table of the system's cell index, and `VectorPaths.rows`, one
  `searchsorted` on it.
They are compared with `Cuts` on the bundled systems, on seeded random
systems that refine within cap 24, and on the triadic systems, at every
cut, its float neighbours, the degenerate cells and each cell's
representative.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import PartitionLookup, random_system, triadic_system
from rdsys import dynamics, systems
from rdsys.model import Interval, OutOfDomain, Point, RefinementBudgetExceeded
from rdsys.partition import fundamental_partition, stable_partition

F = Fraction
BUNDLED = ("step_ninth", "step_twentyseventh", "positive_step",
           "rational_split", "constant_half")


# ---------------------------------------------------------------------------
# oracles

def oracle_class_states(fp, values_f: np.ndarray, tags: list) -> np.ndarray:
    """The chain state of every float position, as `class_frequencies`
    filed it."""
    cells = fp.chain.cells
    n = len(values_f)
    if fp.partition.tagged:
        tags = np.array(tags, dtype=bool)
        irr_state = next(s for s, c in enumerate(cells) if c.tag == "irrational")
        rat_state = next(s for s, c in enumerate(cells) if c.tag == "rational")
        states = np.where(tags, irr_state, rat_state)
    else:
        cuts = np.array([float(c.interval.hi) for c in cells[:-1]], dtype=np.float64)
        owned = np.array([c.interval.own_hi for c in cells[:-1]], dtype=bool)
        states = np.searchsorted(cuts, values_f, side="right")
        if cuts.size:
            eq = np.searchsorted(cuts, values_f, side="left")
            hit = eq < cuts.size
            at = np.zeros(n, dtype=bool)
            at[hit] = cuts[eq[hit]] == values_f[hit]
            own = np.zeros(n, dtype=bool)
            own[hit] = owned[eq[hit]]
            states = states - (at & own)
    return states


def oracle_class_frequencies(trace, fp) -> dict:
    n = len(trace.values)
    values_f = np.array([float(v) for v in trace.values], dtype=np.float64)
    states = oracle_class_states(fp, values_f, trace.tags)
    class_of = np.array([fp.state_class[s] for s in range(len(fp.chain.cells))])
    counts = np.bincount(class_of[states], minlength=len(fp.classes))
    return {info.class_id: Fraction(int(counts[info.class_id]), n)
            for info in fp.classes}


def oracle_lookup(index) -> np.ndarray:
    ends = index.cells[:-1]
    cuts_f = np.array([float(c.hi) for c in ends], dtype=np.float64)
    owned = np.array([c.own_hi for c in ends], dtype=bool)
    first = np.ones(len(cuts_f), dtype=bool)
    first[1:] = cuts_f[1:] != cuts_f[:-1]
    return np.sort(np.where(owned & first, np.nextafter(cuts_f, np.inf), cuts_f))


def oracle_rows(index, positions: np.ndarray, tags: np.ndarray) -> np.ndarray:
    lookup = oracle_lookup(index)
    if not len(lookup):
        return (tags if index.tagged else np.zeros_like(tags)).astype(np.intp)
    rows = np.searchsorted(lookup, positions, side="right")
    if index.tagged:
        rows *= 2
        rows += tags
    return rows


# ---------------------------------------------------------------------------
# systems and probe points

def probe_systems() -> dict:
    """Group name -> [(spec, stable partition)] for every compared system."""
    rng = random.Random(0xC075)
    randoms = []
    while len(randoms) < 200:
        spec = random_system(rng)
        try:
            randoms.append((spec, stable_partition(spec, 24)))
        except RefinementBudgetExceeded:
            continue
    triadic = [triadic_system(m, random.Random(m)) for m in (3, 4)]
    return {"bundled": [(spec, stable_partition(spec))
                        for spec in map(systems.bundled_spec, BUNDLED)],
            "random": randoms,
            "triadic": [(spec, stable_partition(spec, 2000)) for spec in triadic]}


PROBES = probe_systems()


def probe_values(cells) -> list:
    """Every cut and domain end, its float neighbours as exact rationals,
    and each cell's representative."""
    ends = {c.lo for c in cells} | {c.hi for c in cells}
    out = set(ends)
    for t in ends:
        for v in (np.nextafter(float(t), -np.inf), float(t), np.nextafter(float(t), np.inf)):
            out.add(F(*float(v).as_integer_ratio()))
    out |= {c.interior_point() for c in cells}
    return sorted(out)


def probe_intervals(spec, cells) -> list:
    """The cells, their images under every map, and the degenerate
    intervals at the probe values."""
    out = list(cells) + [e.map.apply_interval(c) for c in cells for e in spec.edges]
    return out + [Interval(v, v) for v in probe_values(cells)]


# ---------------------------------------------------------------------------
# comparisons

@pytest.mark.parametrize("group", sorted(PROBES))
def test_partition_lookups_match_the_oracle(group):
    for spec, part in PROBES[group]:
        check_partition_lookups(spec, part)


def check_partition_lookups(spec, part):
    oracle = PartitionLookup(part)
    tags = ("rational", "irrational") if part.tagged else (None,)
    intervals = [c.interval for c in part.cells]
    for iv in probe_intervals(spec, intervals):
        for tag in tags:
            assert (part.cuts.row_of_interval(iv, tag == "irrational")
                    == oracle.locate(iv, tag)), (iv, tag)
    for v in probe_values(intervals):
        for irrational in (False, True) if part.tagged else (False,):
            p = Point(v, irrational)
            try:
                want = oracle.cell_of_point(p)
            except OutOfDomain:
                with pytest.raises(OutOfDomain):
                    part.cell_of_point(p)
                continue
            assert part.cell_of_point(p) == want, p
            assert part.cuts.row_of(v.numerator, v.denominator, irrational) == want, p
    for cell in part.cells:
        assert part.cell_of_point(cell.representative()) == part.cells.index(cell)


@pytest.mark.parametrize("group", sorted(PROBES))
def test_float_filing_matches_the_oracles(group):
    for spec, part in PROBES[group]:
        check_float_filing(spec, part)


def check_float_filing(spec, part):
    index = spec.cell_index
    assert np.array_equal(index.cuts.table, oracle_lookup(index))
    fp = fundamental_partition(spec)
    cells = [c.interval for c in part.cells]
    values = np.array([float(v) for v in probe_values(cells + index.cells)] + [np.nan])
    for tag in (False, True):
        tags = np.full(len(values), tag)
        assert np.array_equal(fp.partition.cuts.rows(values, tags),
                              oracle_class_states(fp, values, list(tags)))
        assert np.array_equal(index.cuts.rows(values, tags), oracle_rows(index, values, tags))


@pytest.mark.parametrize("name", BUNDLED)
def test_class_frequencies_match_the_oracle(name):
    """Over a trace whose positions turn float (after 2,583 steps at slope
    1/3, 4,097 at slope 1/2)."""
    spec = systems.bundled_spec(name)
    fp = fundamental_partition(spec)
    start = systems.IRRATIONAL_SAMPLE if spec.has_rationality_edges else F(1, 3)
    trace = dynamics.simulate(spec, start, 6000, 7)
    assert trace.exact_steps < len(trace)
    assert dynamics.class_frequencies(trace, fp) == oracle_class_frequencies(trace, fp)
    values_f = trace.positions
    want = np.array([float(v) for v in trace.values], dtype=np.float64)
    assert np.array_equal(values_f.view(np.uint64), want.view(np.uint64))
