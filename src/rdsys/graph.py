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
positive-probability edges. Stationary weights and first moments are one
routine's work, `_solve_closed`: it builds the linear equations of one
closed set of states from the chain's arcs, solves them exactly over the
rationals by p-adic lifting modulo a Mersenne prime (`solve_exact`, which
also proves a singular system singular), and checks every equation again
from the arcs. The weights are solved on each terminal strongly
connected component (transient vertices get weight zero), the moments on
the one terminal component of a unique stationary law.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
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

# Dixon's primes: the Mersenne primes 2^e - 1 from 2^127 - 1 on, 159,098 bits
# together; the factorisation is tried modulo each in turn
_PRIMES = tuple(2 ** e - 1 for e in (127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
                                     9689, 9941, 11213, 19937, 21701, 23209, 44497))


def solve_exact(rows: list, rhs: list) -> list:
    """Solve a square rational system exactly by p-adic lifting.

    A row is a dense sequence or a `{column: value}` mapping; zero entries
    are dropped. The method is Dixon's (*Exact solution of linear equations
    using p-adic expansions*, Numer. Math. 40, 1982):

    - each row is scaled to integers, and the right-hand side is put over
      one common denominator;
    - the integer matrix A is factored once modulo a prime p, the first of
      the Mersenne primes 2^127 - 1, 2^521 - 1, 2^607 - 1, ... (`_PRIMES`)
      that factors it, by sparse elimination (`_eliminate`: the sparsest
      row first, then the column used by the fewest remaining rows);
    - each lift solves A y = r modulo p, updates the integer residual
      exactly to (r - A y) / p, and adds y times the next power of p to the
      p-adic solution;
    - after each lift, one rational reconstruction with a shared
      denominator D (von zur Gathen & Gerhard, *Modern Computer Algebra*,
      ch. 5) gives candidate numerators N, returned only when A N = D b
      holds exactly over the integers.

    A factorisation that succeeds modulo p proves det A nonzero, so a
    candidate that passes is the unique solution. The lift bound comes from
    Hadamard's bound on the determinants of Cramer's rule: with c the sum
    of the bit lengths of A's squared column norms, |det A| < 2^(c/2); with
    h = c plus the bit length of |b|^2, D and every |numerator| are at most
    2^(h/2), so after k = ceil((h + 4) / (e - 1)) lifts modulo 2^e - 1,
    p^k exceeds 2 (2^(h/2) + 1)^2 and the reconstruction succeeds.

    A row that empties modulo p proves that p divides det A: elimination
    only adds multiples of rows to other rows, so the matrix is singular
    modulo p. Distinct primes that all divide det A divide it together, so
    once the product of the primes that failed reaches 2^(c/2) > |det A|,
    det A = 0 and `SingularSystem` is raised with the emptied row. Until
    then the next prime is tried; a system whose bound outgrows the whole
    table raises `RdsError`. The certificate of the stationary weights and
    moments stays `_solve_closed`'s separate re-check of every equation
    from the chain.
    """
    matrix, b, den = _integer_system(rows, rhs)
    norms = [0] * len(matrix)
    for row in matrix:
        for c, a in row.items():
            norms[c] += a * a
    bits = sum(v.bit_length() for v in norms)     # |det A| < 2^(bits / 2)
    failed = 1
    for p in _PRIMES:
        try:
            steps = _eliminate([{c: v % p for c, v in row.items() if v % p}
                                for row in matrix], p)
        except SingularSystem:
            failed *= p
            if failed * failed >= 1 << bits:
                raise
            continue
        num, d = _lift(matrix, b, steps, p, bits)
        return [Fraction(v, d * den) for v in num]
    raise RdsError("no prime of the table factors the system, and their product "
                   f"is below its determinant bound 2^({bits}/2)")


def _integer_system(rows: list, rhs: list) -> tuple:
    """(matrix, b, den): every row scaled to integers ({column: value}, no
    zeros) and the right-hand side over one common denominator den, so the
    integer system's solution is den times the rational one."""
    matrix, scaled = [], []
    for row, v in zip(rows, rhs):
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        row = {c: _ratio(a) for c, a in items if a}
        scale = math.lcm(*(d for _n, d in row.values()))
        matrix.append({c: n * (scale // d) for c, (n, d) in row.items()})
        n, d = _ratio(v)
        g = math.gcd(n * scale, d)
        scaled.append((n * scale // g, d // g))
    den = math.lcm(*(d for _n, d in scaled))
    return matrix, [n * (den // d) for n, d in scaled], den


def _ratio(v) -> tuple:
    """(numerator, denominator) of a value `Fraction` accepts."""
    return (v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio()


def _eliminate(active: list, p: int) -> list:
    """Sparse Gaussian elimination of the rows `active` ({column: value}, no
    zeros; consumed) over the integers modulo the prime p.

    Each step pivots on the sparsest remaining row (the lowest index on a
    tie) and, within it, on the column that appears in the fewest remaining
    rows (Markowitz-style), which keeps the fill-in of the chain systems
    small. Returns the steps (row, column, inverse pivot, the row's other
    columns and their values, the earlier pivot rows that updated the row
    and their factors) for `_substitute`; raises `SingularSystem` when a
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
        inv = pow(pivot, -1, p)
        rest = list(row.items())
        for other in where[col]:
            orow = active[other]
            factor = orow.pop(col) * inv % p
            for c, v in rest:
                value = (orow.get(c, 0) - factor * v) % p
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


def _substitute(steps: list, b: list, p: int) -> list:
    """Solve the eliminated system for the right-hand side b (consumed):
    the row updates of `steps` in order, then back-substitution, modulo p."""
    for r, _col, _inv, _cols, _values, srcs, factors in steps:
        b[r] = (b[r] - sum(map(mul, factors, map(b.__getitem__, srcs)))) % p
    x = [0] * len(b)
    for r, col, inv, cols, values, _srcs, _factors in reversed(steps):
        x[col] = (b[r] - sum(map(mul, values, map(x.__getitem__, cols)))) * inv % p
    return x


def _lift(matrix: list, b: list, steps: list, p: int, bits: int) -> tuple:
    """Dixon's lifting for the integer system matrix x = b, whose
    factorisation modulo p is `steps` and whose squared column norms have
    `bits` bit lengths in all: (numerators, common denominator)."""
    rows = [(tuple(row), tuple(row.values())) for row in matrix]
    # Hadamard: by columns, with b's, |det A| and every |det A_i| of
    # Cramer's rule are at most 2^(bits / 2)
    bits += sum(v * v for v in b).bit_length()
    lifts = -(-(bits + 4) // (p.bit_length() - 1))

    x, modulus, residual = [0] * len(rows), 1, b
    for _ in range(lifts):
        digit = _substitute(steps, [v % p for v in residual], p)
        residual = [(v - sum(map(mul, values, map(digit.__getitem__, cols)))) // p
                    for v, (cols, values) in zip(residual, rows)]
        x = [u + modulus * d for u, d in zip(x, digit)]
        modulus *= p
        got = _reconstruct(x, modulus)
        if got and all(sum(map(mul, values, map(got[0].__getitem__, cols))) == got[1] * v
                       for (cols, values), v in zip(rows, b)):
            return got
    raise RdsError("p-adic solve found no solution within its lift bound")


def _reconstruct(x: list, modulus: int) -> Optional[tuple]:
    """Rational reconstruction of x modulo `modulus` with one shared
    denominator: (numerators, d) with each numerator congruent to d * x_i,
    and d and every |numerator| at most sqrt(modulus / 2), or None."""
    bound = math.isqrt((modulus - 1) // 2)
    den, found = 1, []
    for v in x:
        y = den * v % modulus
        if y > bound:
            if modulus - y <= bound:
                y -= modulus
            else:
                # extended Euclid on (modulus, y) down to the first remainder
                # <= bound; the cofactor |t1| only grows
                r0, r1, t0, t1, limit = modulus, y, 0, 1, bound // den
                while r1 > bound:
                    q = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
                    if abs(t1) > limit:
                        return None
                y, t1 = (r1, t1) if t1 > 0 else (-r1, -t1)
                den *= t1
        found.append((y, den))
    return [y * (den // d) for y, d in found], den


def _arcs(chain, states: list):
    """(s, label, p, t) for every positive arc s -> t of the chain out of `states`."""
    inside = set(states)
    for (s, label), p in chain.prob.items():
        if s in inside:
            yield s, label, p, chain.target[(s, label)]


def _solve_closed(chain, states: list, coef=None) -> dict:
    """Solve x_t = sum over the arcs s -> t out of `states` of a * x_s + c
    exactly, with (a, c) = coef(s, label, p); without `coef`, a = p and c = 0.

    An arc that leaves `states` raises `SingularSystem`. Without `coef`
    the equations are the balance of a closed class: they sum to zero, so
    one is redundant, and the first is replaced by x = 1 on `states[0]`.
    The solution is then checked against every equation, the replaced one
    included, each assembled again from the chain's arcs: a nonzero
    residual raises.
    """
    pos = {v: i for i, v in enumerate(states)}
    rows = [{i: Fraction(1)} for i in range(len(states))]
    rhs = [Fraction(0)] * len(states)
    for s, label, p, t in _arcs(chain, states):
        if t not in pos:
            raise SingularSystem("recurrent class leaks into zero-weight vertex")
        a, c = (p, 0) if coef is None else coef(s, label, p)
        row = rows[pos[t]]
        row[pos[s]] = row.get(pos[s], 0) - a
        if c:
            rhs[pos[t]] += c
    if coef is None:
        rows[0], rhs[0] = {0: Fraction(1)}, Fraction(1)
    x = dict(zip(states, solve_exact(rows, rhs)))

    flow = dict.fromkeys(states, Fraction(0))
    for s, label, p, t in _arcs(chain, states):
        a, c = (p, 0) if coef is None else coef(s, label, p)
        flow[t] += (a * x[s] + c) if c else a * x[s]
    defect = max(abs(flow[v] - x[v]) for v in states)
    if defect:
        raise RdsError(f"exact solve left a residual of {format_rational(defect)}")
    return x


# ---------------------------------------------------------------------------
# stationary distribution

@dataclass
class StationaryResult:
    pi: Optional[dict]          # vertex -> Fraction (None when non-unique)
    method: str                 # always "exact_solve"
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


def stationary_distribution(chain, *, exact_max_states: int = 128) -> StationaryResult:
    """Exact stationary weights of the aggregated chain, at every size.

    Solved exactly by `solve_exact` on each terminal strongly
    connected component (transient vertices get weight zero), then
    normalised; every balance equation is checked exactly and a nonzero
    residual raises. When several terminal components exist the result
    is flagged non-unique and carries one exact solution each. There is
    no float fallback; `exact_max_states` is accepted and ignored, and
    retires with the benchmark refresh that stops passing it.
    """
    terms = terminal_components(digraph_of_chain(chain))
    component_pis = []
    for comp in terms:
        weights = _solve_closed(chain, comp)
        total = sum(weights.values())
        pi = dict.fromkeys(range(chain.n_states), Fraction(0))
        pi.update((v, w / total) for v, w in weights.items())
        component_pis.append(pi)

    unique = len(terms) == 1
    return StationaryResult(pi=component_pis[0] if unique else None,
                            method="exact_solve",
                            terminal=terms, unique=unique,
                            component_pis=component_pis)


def stationary_from_matrix(rows: list) -> StationaryResult:
    """Stationary weights for an explicit rational transition matrix: the
    chain whose arc from i with label j leads to state j."""
    from .partition import LabeledChain

    n = len(rows)
    prob = {(i, str(j)): Fraction(p) for i, row in enumerate(rows)
            for j, p in enumerate(row) if p}
    return stationary_distribution(LabeledChain(
        n_states=n, labels=tuple(str(j) for j in range(n)), prob=prob,
        target={(i, j): int(j) for i, j in prob}, reps={}, cells=[]))


# ---------------------------------------------------------------------------
# first moments

@dataclass
class MomentResult:
    per_class: dict      # vertex -> Fraction conditional mean (recurrent only)
    global_mean: Fraction


def exact_first_moment(spec, chain, stationary: StationaryResult) -> MomentResult:
    """Conditional first moments of the stationary measure per vertex.

    Solves, on the terminal component of the unique stationary law, the
    exact linear system expressing invariance of the measure x * 1_{cell j}
    under one step of the dynamics: mass_t = sum over arcs s -> t of
    p * (slope * mass_s + pi_s * intercept). The unknowns are the masses
    pi_j * mean_j, so the coefficients are the small products p * slope and
    only the constant terms carry pi. Every equation is checked exactly
    after the solve (a nonzero defect raises), and each mean must lie in
    its cell's hull.
    """
    if stationary.pi is None:
        raise SingularSystem("stationary weights are not unique")
    pi = stationary.pi
    maps = {e.edge_id: e.map for e in spec.edges}
    mass = _solve_closed(chain, stationary.terminal[0], lambda s, label, p: (
        p * maps[label].slope, pi[s] * p * maps[label].intercept))
    per_class = {v: m / pi[v] for v, m in mass.items()}

    for v, mean in per_class.items():
        iv = chain.cells[v].interval
        if not (iv.lo <= mean <= iv.hi):
            raise SingularSystem(
                f"moment {format_rational(mean)} escapes cell hull {iv}")
    return MomentResult(per_class=per_class, global_mean=sum(mass.values(), Fraction(0)))


def eigenvalue_moduli(chain) -> list:
    """|eigenvalues| of the aggregated matrix (float diagnostic), descending.

    Each entry is summed exactly from the chain's arcs, then rounded once,
    so the float matrix is that of `aggregated_matrix`."""
    entries: dict = {}
    for (s, label), p in chain.prob.items():
        key = (s, chain.target[(s, label)])
        entries[key] = entries.get(key, 0) + p
    arr = np.zeros((chain.n_states, chain.n_states))
    for (s, t), p in entries.items():
        arr[s, t] = float(p)
    vals = np.linalg.eigvals(arr)
    return sorted((abs(complex(v)) for v in vals), reverse=True)
