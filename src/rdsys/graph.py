"""Digraph analysis and exact stationary computations for labeled chains.

The digraph records which cells can follow which under positive-probability
edges. Stationary weights and first moments are solved exactly over the
rationals by sparse elimination on the arcs of each terminal strongly
connected component; transient vertices get weight zero.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import RdsError, SingularSystem, format_rational


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


def digraph_of_chain(chain) -> Digraph:
    arcs = tuple(((s, label), s, chain.target[(s, label)])
                 for (s, label) in sorted(chain.prob.keys()))
    return Digraph(vertices=tuple(range(chain.n_states)), arcs=arcs)


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
# exact linear algebra

def solve_exact(rows: list, rhs: list) -> list:
    """Solve a square rational system by sparse Gaussian elimination.

    A row is a dense sequence or a `{column: value}` mapping; zero entries
    are dropped. Each step pivots on the sparsest remaining row and, within
    it, on the column that appears in the fewest remaining rows
    (Markowitz-style), which keeps the fill-in of the chain systems small;
    back-substitution follows. All arithmetic is in `Fraction`, so the
    solution is exact. Raises `SingularSystem` when a row empties.
    """
    n = len(rows)
    active = {}
    for r, row in enumerate(rows):
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        active[r] = {c: Fraction(v) for c, v in items if v != 0}
    b = [Fraction(v) for v in rhs]
    where = {c: set() for c in range(n)}     # column -> active rows using it
    for r, row in active.items():
        for c in row:
            where[c].add(r)

    eliminated = []
    while active:
        r = min(active, key=lambda k: (len(active[k]), k))
        row = active.pop(r)
        if not row:
            raise SingularSystem(f"singular system: row {r} empties")
        col = min(row, key=lambda c: (len(where[c]), c))
        for c in row:
            where[c].discard(r)
        pivot = row[col]
        for other in where.pop(col):
            orow = active[other]
            factor = orow.pop(col) / pivot
            for c, v in row.items():
                if c == col:
                    continue
                value = orow.get(c, 0) - factor * v
                if value:
                    if c not in orow:
                        where[c].add(other)
                    orow[c] = value
                else:
                    del orow[c]
                    where[c].discard(other)
            b[other] -= factor * b[r]
        eliminated.append((col, row, b[r]))

    x = [Fraction(0)] * n
    for col, row, rhs_r in reversed(eliminated):
        x[col] = (rhs_r - sum(v * x[c] for c, v in row.items() if c != col)) / row[col]
    return x


# ---------------------------------------------------------------------------
# stationary distribution

@dataclass
class StationaryResult:
    pi: Optional[dict]          # vertex -> Fraction (None when non-unique)
    method: str                 # always "exact_solve"
    residual: Fraction          # max |pi A - pi| entry, 0 once checked
    terminal: list              # terminal components
    unique: bool
    component_pis: list         # one pi dict per terminal component

    def as_vector(self, order) -> list:
        return [self.pi[v] for v in order]


def aggregated_matrix(chain) -> list:
    """Per-vertex transition matrix: labels summed onto their target vertex."""
    n = chain.n_states
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (s, label), p in chain.prob.items():
        mat[s][chain.target[(s, label)]] += p
    return mat


def _solve_component(chain, comp) -> dict:
    """Stationary weights of one terminal component, built from its arcs.

    The balance equation of `comp[0]` is implied by the others, so it is
    replaced by fixing that state's weight to 1; the solution is then
    divided by its sum.
    """
    pos = {v: i for i, v in enumerate(comp)}
    rows = [{i: Fraction(-1)} for i in range(len(comp))]
    for (s, label), p in chain.prob.items():
        if s in pos:
            row = rows[pos[chain.target[(s, label)]]]
            row[pos[s]] = row.get(pos[s], 0) + p
    rows[0] = {0: Fraction(1)}
    rhs = [Fraction(1)] + [Fraction(0)] * (len(comp) - 1)
    sol = solve_exact(rows, rhs)
    total = sum(sol)
    return {v: sol[pos[v]] / total for v in comp}


def _residual(chain, pi: dict) -> Fraction:
    """max over vertices of |(pi A)_v - pi_v|, summed over the arcs."""
    flow = dict.fromkeys(pi, Fraction(0))
    for (s, label), p in chain.prob.items():
        flow[chain.target[(s, label)]] += pi[s] * p
    return max((abs(flow[v] - pi[v]) for v in pi), default=Fraction(0))


def stationary_distribution(chain, *, exact_max_states: int = 128,
                            power_tol: float = 1e-12) -> StationaryResult:
    """Exact stationary weights of the aggregated chain, at every size.

    Solved by sparse rational elimination on each terminal strongly
    connected component (transient vertices get weight zero) and checked
    exactly: a nonzero residual raises. When several terminal components
    exist the result is flagged non-unique and carries one exact solution
    each. There is no float fallback; `exact_max_states` and `power_tol`
    are accepted for compatibility and ignored.
    """
    terms = terminal_components(digraph_of_chain(chain))
    component_pis = []
    for comp in terms:
        sol = dict.fromkeys(range(chain.n_states), Fraction(0))
        sol.update(_solve_component(chain, comp))
        if _residual(chain, sol) != 0:
            raise RdsError("exact stationary solve left a nonzero residual")
        component_pis.append(sol)

    unique = len(terms) == 1
    return StationaryResult(pi=component_pis[0] if unique else None,
                            method="exact_solve", residual=Fraction(0),
                            terminal=terms, unique=unique,
                            component_pis=component_pis)


def stationary_from_matrix(rows: list) -> StationaryResult:
    """Stationary weights for an explicit rational transition matrix."""
    class _MatrixChain:
        def __init__(self, rows):
            self.n_states = len(rows)
            self.prob = {}
            self.target = {}
            for i, row in enumerate(rows):
                for j, p in enumerate(row):
                    if p != 0:
                        self.prob[(i, f"{i}->{j}")] = Fraction(p)
                        self.target[(i, f"{i}->{j}")] = j
    return stationary_distribution(_MatrixChain(rows))


# ---------------------------------------------------------------------------
# first moments

@dataclass
class MomentResult:
    per_class: dict      # vertex -> Fraction conditional mean (recurrent only)
    global_mean: Fraction
    identity_residual: Fraction  # exact defect of the invariance identity


def exact_first_moment(spec, chain, stationary: StationaryResult) -> MomentResult:
    """Conditional first moments of the stationary measure per vertex.

    Solves the exact linear system expressing invariance of the measure
    x * 1_{cell j} under one step of the dynamics, then checks the global
    identity mean = sum over arcs of pi * p * (slope * mean + intercept).
    The unknowns are the masses pi_j * mean_j, so the coefficients are the
    small products p * slope and only the right-hand side carries pi.
    """
    if stationary.pi is None:
        raise SingularSystem("stationary weights are not unique")
    pi = stationary.pi
    support = [v for v in range(chain.n_states) if pi[v] > 0]
    pos = {v: i for i, v in enumerate(support)}
    maps = {e.edge_id: e.map for e in spec.edges}

    rows = [{i: Fraction(1)} for i in range(len(support))]
    rhs = [Fraction(0)] * len(support)
    for (s, label), p in chain.prob.items():
        if s not in pos:
            continue
        t = chain.target[(s, label)]
        if t not in pos:
            raise SingularSystem("recurrent class leaks into zero-weight vertex")
        m = maps[label]
        row = rows[pos[t]]
        row[pos[s]] = row.get(pos[s], 0) - p * m.slope
        rhs[pos[t]] += pi[s] * p * m.intercept

    sol = solve_exact(rows, rhs)
    per_class = {v: sol[pos[v]] / pi[v] for v in support}
    global_mean = sum((pi[v] * per_class[v] for v in support), Fraction(0))

    pushed = Fraction(0)
    for (s, label), p in chain.prob.items():
        if s not in pos:
            continue
        m = maps[label]
        pushed += pi[s] * p * (m.slope * per_class[s] + m.intercept)
    residual = abs(global_mean - pushed)
    if residual != 0:
        raise SingularSystem(
            f"moment invariance identity fails: defect {format_rational(residual)}")

    for v in support:
        iv = chain.cells[v].interval
        if not (iv.lo <= per_class[v] <= iv.hi):
            raise SingularSystem(
                f"moment {format_rational(per_class[v])} escapes cell hull {iv}")
    return MomentResult(per_class=per_class, global_mean=global_mean,
                        identity_residual=residual)


def eigenvalue_moduli(chain) -> list:
    """|eigenvalues| of the aggregated matrix (float diagnostic), descending."""
    mat = aggregated_matrix(chain)
    arr = np.array([[float(v) for v in row] for row in mat])
    vals = np.linalg.eigvals(arr)
    return sorted((abs(complex(v)) for v in vals), reverse=True)
