import heapq
import math
import random
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import settings

from rdsys import systems
from rdsys.model import (AffineMap, DiscreteMeasure, Edge, InconsistentMerge,
                         Interval, OutOfDomain, PiecewiseConstant, Point,
                         PointLike, RationalityPredicate, RdsError,
                         RefinementBudgetExceeded, SingularSystem, SystemSpec,
                         as_point, cells_from_cuts, format_word, usable_cut)
from rdsys.partition import (IRRATIONAL_TAG, RATIONAL_TAG, REFINE_CAP,
                             BalancedProduct, Cell, ClassInfo, FmsEdge,
                             FundamentalPartition, IntervalPartition,
                             PartitionParams, ProductGraph, SupportSeparation,
                             classify_point, extract_symbolic_chain,
                             stable_partition)
from rdsys.sysfile import load_system
from rdsys.systems import triadic_system  # re-exported: the tests import it from here

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

UNIT = Interval(Fraction(0), Fraction(1))
#: the mixed system of maps x/3 + e/3 whose two rationality edges sit beside
#: two piecewise edges cut at 1/2: four states, four classes
MIXED_SPLIT = load_system(systems.bundled_path("mixed_split"))


def random_cells(rng: random.Random, one_point: bool = False) -> list:
    """The cells of [0,1] cut at up to three random rationals, each owned
    by a random side. With `one_point`, a cut may also fall on 0 or 1, and
    a point may be cut on both sides, so the grid can hold one-point cells."""
    n_breaks = rng.randint(0, 3)
    points = set()
    while len(points) < n_breaks:
        den = rng.randint(2, 12)
        points.add(Fraction(rng.randint(1 - one_point, den - 1 + one_point), den))
    sides = ([1], [-1], [1, -1]) if one_point else ([1], [-1])
    return cells_from_cuts(UNIT, [(t, side) for t in sorted(points)
                                  for side in rng.choice(sides)])


def random_weights(rng: random.Random, n: int, total: Fraction = Fraction(1)) -> list:
    """n random nonnegative rationals, not all zero, that sum to total."""
    while True:
        weights = [rng.randint(0, 4) for _ in range(n)]
        if sum(weights) > 0:
            return [total * Fraction(w, sum(weights)) for w in weights]


def random_map(rng: random.Random) -> AffineMap:
    """A random affine map of [0,1] into itself, slope 0 included."""
    sden = rng.randint(1, 6)
    slope = Fraction(rng.randint(-sden, sden), sden)
    if slope >= 0:
        c_lo, c_hi = Fraction(0), 1 - slope
    else:
        c_lo, c_hi = -slope, Fraction(1)
    cden = rng.randint(1, 12)
    return AffineMap(slope, c_lo + (c_hi - c_lo) * Fraction(rng.randint(0, cden), cden))


def random_system(rng: random.Random) -> SystemSpec:
    """A random valid piecewise-constant system on [0,1].

    All edges share one cell grid, so unit sums are exact by construction;
    slopes and intercepts are chosen to keep every image inside [0,1].
    """
    n_edges = rng.choice([2, 2, 2, 3])
    cells = random_cells(rng)
    per_cell = [random_weights(rng, n_edges) for _ in cells]
    return SystemSpec(domain=UNIT, edges=tuple(
        Edge(str(e), random_map(rng),
             PiecewiseConstant(tuple((cell, row[e]) for cell, row in zip(cells, per_cell))))
        for e in range(n_edges)))


def mixed_system(rng: random.Random) -> SystemSpec:
    """A random valid system on [0,1] mixing piecewise edges with edges
    that read the rationality tag.

    The piecewise edges share one cell grid and sum to a constant c on
    every cell; the predicate edges sum to 1 - c on rationals and on
    irrationals, so unit sums are exact by construction. Maps are drawn
    as in `random_system`.
    """
    n_piecewise, n_predicate = rng.randint(1, 2), rng.randint(1, 2)
    c = Fraction(rng.randint(1, 3), 4)
    cells = random_cells(rng, one_point=True)
    per_cell = [random_weights(rng, n_piecewise, c) for _ in cells]
    probs = [PiecewiseConstant(tuple((cell, row[e]) for cell, row in zip(cells, per_cell)))
             for e in range(n_piecewise)]
    probs += map(RationalityPredicate, random_weights(rng, n_predicate, 1 - c),
                 random_weights(rng, n_predicate, 1 - c))
    rng.shuffle(probs)
    return SystemSpec(domain=UNIT, edges=tuple(
        Edge(str(e), random_map(rng), prob) for e, prob in enumerate(probs)))


# ---------------------------------------------------------------------------
# The two routes of `partition.stable_partition` before it crossed the
# interval cells with the tag, kept verbatim with their refusals as the
# oracle: the breakpoint closure refused any system with a rationality edge,
# and the tag-only partition any piecewise edge that is not constant. Its
# call of `PiecewiseConstant.constant_value`, since deleted, is written out
# as the body's test.

class NotPiecewiseConstant(RdsError):
    pass


def refine_markov_partition(spec: SystemSpec, cap: int = REFINE_CAP) -> IntervalPartition:
    """Breakpoint closure of a piecewise-constant system.

    Starting from the probability discontinuities, repeatedly pulls every
    cut back through every invertible map until closed, so each map sends
    each resulting cell into exactly one cell. A cut (t, +1) separates
    points <= t from points > t, and (t, -1) separates < t from >= t;
    increasing maps preserve the side, decreasing maps flip it.
    """
    if spec.has_rationality_edges:
        raise NotPiecewiseConstant(
            "refinement needs piecewise-constant probabilities only")
    domain = spec.domain
    cuts: dict = {}
    worklist = []
    for e in spec.edges:
        for t, side in e.prob.boundary_cuts(domain):
            if (t, side) not in cuts:
                cuts[(t, side)] = "probability"
                worklist.append((t, side))
    points = {t for t, _side in cuts}
    while worklist:
        t, side = worklist.pop()
        for e in spec.edges:
            if e.map.slope == 0:
                continue
            x = e.map.preimage_value(t)
            new_side = side if e.map.slope > 0 else -side
            if not usable_cut(domain, x, new_side):
                continue
            if (x, new_side) not in cuts:
                cuts[(x, new_side)] = "preimage"
                worklist.append((x, new_side))
                points.add(x)
                if len(points) > cap:
                    raise RefinementBudgetExceeded(
                        f"no finite stable partition found at cap {cap} breakpoints")

    cells = [Cell(iv) for iv in cells_from_cuts(domain, cuts.keys())]
    return IntervalPartition(domain=domain, cells=cells, provenance=dict(cuts),
                             tagged=False)


def tagged_partition(spec: SystemSpec) -> IntervalPartition:
    """The rational/irrational two-cell partition for predicate systems.

    Valid because rational map coefficients preserve rationality (a zero
    slope collapses to the rational intercept). Any piecewise edge must be
    globally constant, else no tag-only partition can make probabilities
    constant per cell.
    """
    for e in spec.edges:
        if isinstance(e.prob, PiecewiseConstant) and len({v for _, v in e.prob.pieces}) != 1:
            raise NotPiecewiseConstant(
                f"edge {e.edge_id} mixes interval pieces with rationality "
                "predicates; no tag partition applies")
    dom = Interval(spec.domain.lo, spec.domain.hi, spec.domain.own_lo, spec.domain.own_hi)
    cells = [Cell(dom, RATIONAL_TAG), Cell(dom, IRRATIONAL_TAG)]
    return IntervalPartition(domain=spec.domain, cells=cells, provenance={},
                             tagged=True)


def two_route_partition(spec: SystemSpec, cap: int = REFINE_CAP) -> IntervalPartition:
    # was `stable_partition`
    if spec.has_rationality_edges:
        return tagged_partition(spec)
    return refine_markov_partition(spec, cap)


class PartitionLookup:
    """The cell lookups of an `IntervalPartition` before it read `Cuts`:
    `locate` and `cell_of_point` by bisection on per-tag start and end
    keys, kept verbatim as the oracle."""

    def __init__(self, part):
        self.cells, self.tagged = part.cells, part.tagged
        # per tag: the cells' start keys, end keys and indices, by position
        self._index = {}
        for k, cell in sorted(enumerate(self.cells),
                              key=lambda kc: kc[1].interval.start_key):
            starts, ends, ids = self._index.setdefault(cell.tag, ([], [], []))
            starts.append(cell.interval.start_key)
            ends.append(cell.interval.end_key)
            ids.append(k)

    def locate(self, iv: Interval, tag: Optional[str]) -> Optional[int]:
        """Index of the cell with this tag whose interval contains `iv`,
        by bisection on the exact cell boundaries; None when no cell does."""
        starts, ends, ids = self._index.get(tag, ((), (), ()))
        k = bisect_right(starts, iv.start_key) - 1
        if k >= 0 and iv.end_key <= ends[k]:
            return ids[k]
        return None

    def cell_of_point(self, p: Point) -> int:
        tag = None
        if self.tagged:
            tag = "irrational" if p.irrational_tag else "rational"
        k = self.locate(Interval(p.value, p.value), tag)
        if k is None:
            raise OutOfDomain(f"point {p} not covered by any cell")
        return k


# ---------------------------------------------------------------------------
# The digraph of `rdsys.graph` before it held integer arrays, kept verbatim
# as the oracle: tuple arcs over any hashable vertices, a dict-based Tarjan,
# the flags and terminal components read off it, and an all-pairs
# breadth-first `is_recurrent`.

@dataclass(frozen=True)
class Digraph:
    """A directed multigraph: arcs are (arc_id, initial vertex, terminal vertex)."""

    vertices: tuple
    arcs: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        for arc_id, u, v in self.arcs:
            if u not in vs or v not in vs:
                raise RdsError(f"arc {arc_id} touches unknown vertex")


def strongly_connected_components(g: Digraph) -> list:
    """Tarjan's algorithm; components in reverse topological order."""
    adj = {v: [] for v in g.vertices}
    for _, u, v in g.arcs:
        adj[u].append(v)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    components = []

    def connect(root):
        # iterative DFS to keep deep graphs safe
        work = [(root, iter(adj[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(sorted(comp))

    for v in g.vertices:
        if v not in index:
            connect(v)
    return components


def is_irreducible(g: Digraph) -> bool:
    """True exactly when the digraph is strongly connected."""
    if not g.vertices:
        return False
    return len(strongly_connected_components(g)) == 1


def is_recurrent(g: Digraph) -> bool:
    """Every vertex is reached from any other by a finite path.

    Checked directly by breadth-first reachability from each vertex, which
    doubles as an independent oracle for `is_irreducible` on finite graphs.
    """
    if not g.vertices:
        return False
    adj = {v: set() for v in g.vertices}
    for _, u, v in g.arcs:
        adj[u].add(v)
    targets = set(g.vertices)
    for start in g.vertices:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if seen != targets:
            return False
    return True


def is_aperiodic(g: Digraph) -> bool:
    """True when every strongly connected component with a cycle has
    gcd of its cycle lengths equal to 1."""
    comps = strongly_connected_components(g)
    comp_of = {}
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    adj = {v: [] for v in g.vertices}
    for _, u, v in g.arcs:
        if comp_of[u] == comp_of[v]:
            adj[u].append(v)
    for comp in comps:
        if all(not adj[v] for v in comp):
            continue  # no internal arcs: no cycle through these vertices
        root = comp[0]
        level = {root: 0}
        frontier = [root]
        g_period = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
                    g_period = math.gcd(g_period, level[u] + 1 - level[v])
            frontier = nxt
        if g_period != 1:
            return False
    return True


def terminal_components(g: Digraph) -> list:
    """Strongly connected components without outgoing arcs, sorted."""
    comps = strongly_connected_components(g)
    comp_of = {}
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    has_exit = [False] * len(comps)
    for _, u, v in g.arcs:
        if comp_of[u] != comp_of[v]:
            has_exit[comp_of[u]] = True
    return sorted([comp for k, comp in enumerate(comps) if not has_exit[k]])


# ---------------------------------------------------------------------------
# The merge of `partition.fundamental_partition` before it read the classes
# off the product graph's balanced matrix, kept verbatim as the oracle: every
# pair's certificate built eagerly, a union-find over the balanced pairs and
# a rescan for merged separated pairs. It returns the fields in a namespace.

def union_find_partition(spec: SystemSpec, params=None) -> SimpleNamespace:
    params = params or PartitionParams()
    part = stable_partition(spec, params.refinement_cap)
    chain = extract_symbolic_chain(spec, part)
    product = ProductGraph(chain)

    certificates = {}
    merged = []
    parent = list(range(chain.n_states))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(chain.n_states):
        for j in range(i + 1, chain.n_states):
            cert = product.certificate(i, j)
            certificates[(i, j)] = cert
            if isinstance(cert, BalancedProduct):
                merged.append((i, j, "exact"))
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    # coherence: no separated pair may end up merged
    for (i, j), cert in certificates.items():
        if isinstance(cert, SupportSeparation) and find(i) == find(j):
            raise InconsistentMerge(
                f"states {i},{j} merged transitively but separated by "
                f"word {format_word(cert.word)}")

    groups: dict = {}
    for s in range(chain.n_states):
        groups.setdefault(find(s), []).append(s)
    ordered = [tuple(groups[root]) for root in sorted(groups)]

    state_class = {}
    classes, supports = [], []
    for cid, states in enumerate(ordered):
        for s in states:
            state_class[s] = cid
        support = tuple(l for l in chain.labels if (states[0], l) in chain.prob)
        for s in states[1:]:
            if tuple(l for l in chain.labels if (s, l) in chain.prob) != support:
                raise InconsistentMerge(
                    f"class {cid} mixes states with different label supports")
        classes.append(ClassInfo(
            class_id=cid, states=states,
            cells=tuple(chain.cells[s] for s in states)))
        supports.append(support)

    fms_edges = []
    for info, support in zip(classes, supports):
        for label in support:
            targets = {state_class[chain.target[(s, label)]] for s in info.states}
            if len(targets) != 1:
                raise InconsistentMerge(
                    f"label {label} from class {info.class_id} lands in "
                    f"several classes {sorted(targets)}; evidence incomplete")
            fms_edges.append(FmsEdge(info.class_id, label, targets.pop()))

    return SimpleNamespace(
        partition=part, chain=chain, classes=classes, state_class=state_class,
        fms_edges=fms_edges, certificates=certificates, merged_pairs=merged)


# ---------------------------------------------------------------------------
# The one-step operator, its adjoint and the reduced-system check before they
# shared one pass over a point's edges, kept verbatim as the oracles; the
# check's `fp.edges_from(cid)`, since deleted, is written out as its body.

def markov_operator(spec: SystemSpec, f, x: PointLike):
    """One-step averaging of f: sum of p_e(x) * f(w_e(x)).

    Edges with zero probability at x are skipped, so f is never evaluated
    on images the process cannot reach in one step.
    """
    p = as_point(x)
    spec.require_in_domain(p)
    total = Fraction(0)
    for e in spec.edges:
        pe = e.prob.value_at(p)
        if pe == 0:
            continue
        total = total + pe * f(e.map.apply_point(p))
    return total


def push_forward(spec: SystemSpec, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Adjoint one-step action on a discrete measure, coalescing atoms exactly."""
    acc: dict = {}
    for p, w in nu.atoms:
        spec.require_in_domain(p)
        if w == 0:
            continue
        for e in spec.edges:
            pe = e.prob.value_at(p)
            if pe == 0:
                continue
            q = e.map.apply_point(p)
            acc[q] = acc.get(q, Fraction(0)) + w * pe
    atoms = tuple(sorted(((q, w) for q, w in acc.items() if w != 0),
                         key=lambda item: (item[0].value, item[0].irrational_tag)))
    return DiscreteMeasure(atoms)


def adjoint_discrepancy(spec: SystemSpec, fp: FundamentalPartition,
                        x: PointLike, f) -> Fraction:
    """Exact defect between one-step averaging through the reduced edge
    set and through the original system (zero when the reduction is an
    equivalent system)."""
    p = as_point(x)
    spec.require_in_domain(p)
    cid = classify_point(fp, p)
    reduced = Fraction(0)
    for fe in [fe for fe in fp.fms_edges if fe.class_id == cid]:
        e = spec.edge(fe.label)
        pe = e.prob.value_at(p)
        if pe == 0:
            continue
        reduced = reduced + pe * f(e.map.apply_point(p))
    return abs(reduced - markov_operator(spec, f, p))


# ---------------------------------------------------------------------------
# The sparse elimination of `graph.solve_exact` before primes alone decided
# every system, kept verbatim as the oracle: the same pivots over the
# rationals when p is 0, or modulo the prime p.

def row_items(row):
    return row.items() if isinstance(row, Mapping) else enumerate(row)


def eliminate(active: list, p: int = 0) -> list:
    """Sparse Gaussian elimination of the rows `active` ({column: value}, no
    zeros; consumed) over the integers modulo the prime p, or over the
    rationals when p is 0.

    Each step pivots on the sparsest remaining row (the lowest index on a
    tie) and, within it, on the column that appears in the fewest remaining
    rows (Markowitz-style), which keeps the fill-in of the chain systems
    small. Returns the steps (row, column, inverse pivot, the row's other
    columns and their values, the earlier pivot rows that updated the row
    and their factors) for `substitute`; raises `SingularSystem` when a
    row empties.
    """
    where = [set() for _ in active]     # column -> remaining rows using it
    sources = [([], []) for _ in active]    # row -> pivot rows and factors applied to it
    for r, row in enumerate(active):
        for c in row:
            where[c].add(r)
    queue = [(len(row), r) for r, row in enumerate(active)]     # stale entries skipped
    heapq.heapify(queue)

    steps = []
    while queue:
        size, r = heapq.heappop(queue)
        row = active[r]
        if row is None or len(row) != size:
            continue
        if not row:
            raise SingularSystem(f"singular system: row {r} empties")
        active[r] = None
        col = min(row, key=lambda c: (len(where[c]), c))
        for c in row:
            where[c].discard(r)
        pivot = row.pop(col)
        inv = pow(pivot, -1, p) if p else 1 / pivot
        rest = list(row.items())
        for other in where[col]:
            orow = active[other]
            factor = orow.pop(col) * inv
            if p:
                factor %= p
            for c, v in rest:
                value = orow.get(c, 0) - factor * v
                if p:
                    value %= p
                if value:
                    if c not in orow:
                        where[c].add(other)
                    orow[c] = value
                else:
                    del orow[c]
                    where[c].discard(other)
            sources[other][0].append(r)
            sources[other][1].append(factor)
            heapq.heappush(queue, (len(orow), other))
        steps.append((r, col, inv, tuple(row), tuple(row.values()), *sources[r]))
    return steps


def substitute(steps: list, b: list, p: int = 0) -> list:
    """Solve the eliminated system for the right-hand side b (consumed):
    the row updates of `steps` in order, then back-substitution, modulo p
    or, when p is 0, over the rationals."""
    for r, _col, _inv, _cols, _values, srcs, factors in steps:
        v = b[r] - sum(map(mul, factors, map(b.__getitem__, srcs)))
        b[r] = v % p if p else v
    x = [0] * len(b)
    for r, col, inv, cols, values, _srcs, _factors in reversed(steps):
        v = (b[r] - sum(map(mul, values, map(x.__getitem__, cols)))) * inv
        x[col] = v % p if p else v
    return x


def solve_rational(rows: list, rhs: list) -> list:
    """The sparse elimination in `Fraction` arithmetic: the solution, or
    `SingularSystem` when a row empties."""
    active = [{c: Fraction(v) for c, v in row_items(row) if v} for row in rows]
    return substitute(eliminate(active), [Fraction(v) for v in rhs])



@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
