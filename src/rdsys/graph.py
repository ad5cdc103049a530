"""Digraph analysis and exact stationary computations for labeled chains.

A `Digraph` is one integer multigraph: vertices 0..n-1 and int64 arrays of
arc tails and heads, with a compressed-row (CSR) view of the out-arcs. One
iterative Tarjan pass labels every vertex with its strongly connected
component, and every graph question reads those labels: the components,
the terminal ones, irreducibility, recurrence (on a finite graph the same
as strong connectivity) and aperiodicity (the gcd of breadth-first level
differences along each component's internal arcs). `distances` is the one
breadth-first search, run backwards on the reverse digraph by the product
graph of `partition`.

The chain's digraph records which cells can follow which under
positive-probability edges. Stationary weights and first moments are
solved exactly over the rationals by sparse elimination on the arcs of
each terminal strongly connected component; transient vertices get weight
zero.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import RdsError, SingularSystem, format_rational


class Digraph:
    """A directed multigraph on the vertices 0..n-1: arc k runs from
    `src[k]` to `dst[k]`. Parallel arcs and self-loops are allowed."""

    def __init__(self, n: int, src, dst):
        self.n = n
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.ndim != 1 or self.src.shape != self.dst.shape:
            raise RdsError("arc tails and heads must be two lists of one length")
        bad = np.flatnonzero((np.minimum(self.src, self.dst) < 0)
                             | (np.maximum(self.src, self.dst) >= n))
        if bad.size:
            raise RdsError(f"arc {bad[0]} touches unknown vertex")

    @functools.cached_property
    def csr(self) -> tuple:
        """(indptr, heads): the out-arcs of v lead to heads[indptr[v]:indptr[v + 1]],
        in arc order."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.src, minlength=self.n), out=indptr[1:])
        return indptr, self.dst[np.argsort(self.src, kind="stable")]

    def reverse(self) -> Digraph:
        return Digraph(self.n, self.dst, self.src)

    @functools.cached_property
    def components(self) -> np.ndarray:
        """The strongly connected component of every vertex, numbered in the
        order Tarjan's algorithm closes them (reverse topological)."""
        indptr, heads = (a.tolist() for a in self.csr)
        return np.array(_tarjan(self.n, indptr, heads), dtype=np.int64)


def _tarjan(n: int, indptr: list, heads: list) -> list:
    """Iterative Tarjan (1972) over a CSR digraph: component labels."""
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    nxt = indptr[:n]      # per vertex, its next arc to explore
    stack, counter, closed = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        call = [root]
        while call:
            v = call[-1]
            i, end = nxt[v], indptr[v + 1]
            while i < end:
                w = heads[i]
                i += 1
                if index[w] < 0:
                    break
                if comp[w] < 0 and index[w] < low[v]:   # w is on the stack
                    low[v] = index[w]
            else:
                call.pop()
                if call and low[v] < low[call[-1]]:
                    low[call[-1]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = closed
                        if w == v:
                            break
                    closed += 1
                continue
            nxt[v] = i
            index[w] = low[w] = counter
            counter += 1
            stack.append(w)
            call.append(w)
    return comp


def distances(g: Digraph, sources: np.ndarray, allowed: Optional[np.ndarray] = None
              ) -> np.ndarray:
    """Breadth-first distances from the vertices marked in `sources` along
    the arcs of g, entering only vertices marked in `allowed` (default: all);
    -1 where no source reaches."""
    indptr, heads = g.csr
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.flatnonzero(sources)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        lo, hi = indptr[frontier], indptr[frontier + 1]
        lens = hi - lo
        pos = np.arange(lens.sum()) + np.repeat(lo - np.cumsum(lens) + lens, lens)
        cand = heads[pos]
        fresh = dist[cand] < 0
        if allowed is not None:
            fresh &= allowed[cand]
        cand = np.unique(cand[fresh])
        d += 1
        dist[cand] = d
        frontier = cand
    return dist


def digraph_of_chain(chain) -> Digraph:
    """One arc per positive (state, label), sorted by (state, label)."""
    keys = sorted(chain.prob)
    return Digraph(chain.n_states, [s for s, _ in keys], [chain.target[k] for k in keys])


def _count(labels: np.ndarray) -> int:
    return int(labels.max(initial=-1)) + 1


def _members(g: Digraph, wanted: np.ndarray) -> dict:
    """Component label -> its ascending vertex list, for the labels marked
    in `wanted`."""
    labels = g.components
    vertices = np.flatnonzero(wanted[labels])
    comps: dict = {}
    for v, k in zip(vertices.tolist(), labels[vertices].tolist()):
        comps.setdefault(k, []).append(v)
    return comps


def strongly_connected_components(g: Digraph) -> list:
    """The components as sorted vertex lists, in reverse topological order."""
    comps = _members(g, np.ones(_count(g.components), dtype=bool))
    return [comps[k] for k in range(len(comps))]


def is_irreducible(g: Digraph) -> bool:
    """True exactly when the digraph is strongly connected."""
    return g.n > 0 and _count(g.components) == 1


def is_recurrent(g: Digraph) -> bool:
    """Every vertex is reached from any other by a finite path. On a
    finite graph that is strong connectivity."""
    return is_irreducible(g)


def is_aperiodic(g: Digraph) -> bool:
    """True when every strongly connected component with a cycle has
    gcd of its cycle lengths equal to 1.

    That gcd is the gcd, over the component's internal arcs u -> v, of
    level(u) + 1 - level(v), for breadth-first levels from any vertex."""
    labels = g.components
    inside = labels[g.src] == labels[g.dst]
    src, dst = g.src[inside], g.dst[inside]
    roots = np.zeros(g.n, dtype=bool)
    roots[np.unique(labels, return_index=True)[1]] = True
    level = distances(Digraph(g.n, src, dst), roots)
    period = np.zeros(_count(labels), dtype=np.int64)
    np.gcd.at(period, labels[src], level[src] + 1 - level[dst])
    return bool((period[labels[src]] == 1).all())


def terminal_components(g: Digraph) -> list:
    """Strongly connected components without outgoing arcs, sorted."""
    labels = g.components
    tails, heads = labels[g.src], labels[g.dst]
    exits = np.zeros(_count(labels), dtype=bool)
    exits[tails[tails != heads]] = True
    return sorted(_members(g, ~exits).values())


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


def stationary_distribution(chain, *, exact_max_states: int = 128) -> StationaryResult:
    """Exact stationary weights of the aggregated chain, at every size.

    Solved by sparse rational elimination on each terminal strongly
    connected component (transient vertices get weight zero) and checked
    exactly: a nonzero residual raises. When several terminal components
    exist the result is flagged non-unique and carries one exact solution
    each. There is no float fallback; `exact_max_states` is accepted and
    ignored, and retires with the benchmark refresh that stops passing it.
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
    """Stationary weights for an explicit rational transition matrix: the
    chain whose arc from i with label j leads to state j."""
    from .partition import LabeledChain

    n = len(rows)
    prob = {(i, str(j)): Fraction(p) for i, row in enumerate(rows)
            for j, p in enumerate(row) if p != 0}
    return stationary_distribution(LabeledChain(
        n_states=n, labels=tuple(str(j) for j in range(n)), prob=prob,
        target={(i, j): int(j) for i, j in prob}, reps={}, cells=[]))


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
