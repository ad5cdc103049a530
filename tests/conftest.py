import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import settings

from rdsys.model import (AffineMap, DiscreteMeasure, Edge, InconsistentMerge,
                         Interval, OutOfDomain, PiecewiseConstant, Point,
                         PointLike, RdsError, SystemSpec, as_point,
                         cells_from_cuts, format_word)
from rdsys.partition import (BalancedProduct, ClassInfo, FmsEdge,
                             FundamentalPartition, PartitionParams,
                             ProductGraph, SupportSeparation, classify_point,
                             extract_symbolic_chain, stable_partition)
from rdsys.systems import triadic_system  # re-exported: the tests import it from here

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

UNIT = Interval(Fraction(0), Fraction(1))


def random_system(rng: random.Random) -> SystemSpec:
    """A random valid piecewise-constant system on [0,1].

    All edges share one cell grid, so unit sums are exact by construction;
    slopes and intercepts are chosen to keep every image inside [0,1].
    """
    n_edges = rng.choice([2, 2, 2, 3])
    n_breaks = rng.randint(0, 3)
    points = set()
    while len(points) < n_breaks:
        den = rng.randint(2, 12)
        points.add(Fraction(rng.randint(1, den - 1), den))
    cuts = [(t, rng.choice([1, -1])) for t in sorted(points)]
    cells = cells_from_cuts(UNIT, cuts)

    per_cell = []
    for _ in cells:
        while True:
            weights = [rng.randint(0, 4) for _ in range(n_edges)]
            if sum(weights) > 0:
                break
        total = sum(weights)
        per_cell.append([Fraction(w, total) for w in weights])

    edges = []
    for e in range(n_edges):
        pieces = tuple((cells[k], per_cell[k][e]) for k in range(len(cells)))
        sden = rng.randint(1, 6)
        slope = Fraction(rng.randint(-sden, sden), sden)
        if slope >= 0:
            c_lo, c_hi = Fraction(0), 1 - slope
        else:
            c_lo, c_hi = -slope, Fraction(1)
        cden = rng.randint(1, 12)
        intercept = c_lo + (c_hi - c_lo) * Fraction(rng.randint(0, cden), cden)
        edges.append(Edge(str(e), AffineMap(slope, intercept),
                          PiecewiseConstant(pieces)))
    return SystemSpec(domain=UNIT, edges=tuple(edges))


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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
