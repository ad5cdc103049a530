"""Stable interval partitions and their merge into equivalence classes.

The pipeline refines the domain into cells on which every probability
function is constant and every map sends a cell into a single cell, reads
off the finite labeled chain, and then decides exactly, for every pair of
cells, whether the path measures started inside them are mutually
absolutely continuous. The equivalent cells merge into classes, producing
a reduced edge set with a label projection back onto the original edges.

All pairs are decided from one graph, the shared-label product graph of
the chain. Its vertices are the ordered state pairs (a, b); its arc with
label l leads from (a, b) to (target(a, l), target(b, l)) when both states
support l. A vertex is *separating* when exactly one of its two states
supports some label. A terminal strongly connected component of the
separation-free vertices is *balanced* when p(a, l) = p(b, l) for every
vertex (a, b) in it and every label l its states support.

Theorem. For states i and j:
1. if a separating vertex is reachable from (i, j), the measures are not
   equivalent: the word leading there, followed by the separating label,
   has positive mass from one state and zero mass from the other;
2. otherwise they are equivalent exactly when every terminal component
   reachable from (i, j) is balanced.

Proof sketch of 2. Both states support the same labels along every path,
so the likelihood ratio Z_n = P_i(w_1..w_n) / P_j(w_1..w_n) is a finite
product of factors p(a, l) / p(b, l) along the product path. Under either
measure the path leaves the transient components after finitely many
steps almost surely and stays in one reachable terminal component.
- Balanced: every factor from then on is 1, so Z_n freezes at a value in
  (0, inf). The limit is finite and positive almost surely under both
  measures, so each is absolutely continuous with respect to the other.
- Unbalanced component C, entered with positive P_i-probability: under P_i
  the path in C is an irreducible finite Markov chain with stationary law
  pi > 0, and log Z_n is an additive functional whose mean per step is the
  relative-entropy rate sum_v pi(v) KL(p(a_v, .) || p(b_v, .)). It is
  finite because the supports agree and positive because some vertex of C
  is unbalanced. By the strong law of large numbers for finite Markov
  chains, log Z_n / n converges to it, so Z_n diverges almost surely on
  entering C. Absolute continuity of P_i with respect to P_j would make
  the limit of Z_n finite P_i-almost surely, so the measures are not
  equivalent. Kakutani's dichotomy for product measures (1948) is the
  i.i.d. case.

`ProductGraph` computes this once per chain:
- a backward breadth-first search in layers from the separating vertices
  gives every vertex its distance to separation and the next label of its
  lex-least shortest separating word;
- one Tarjan pass (`graph.terminal_components`) finds the terminal
  components of the separation-free part;
- a second backward search, from the unbalanced vertices of unbalanced
  terminal components, marks the pairs that reach one and gives each a
  lex-least shortest word to such a vertex.
Each pair then gets one finite certificate, re-checked by
`verify_product_certificates`: `SupportSeparation` (case 1),
`BalancedProduct` (equivalent; diagonal coupling is the special case in
which every reachable terminal component lies on the diagonal) or
`UnbalancedProduct` (not equivalent, with no support gap).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import graph as graphmod, measures
from .model import (BudgetExceeded, ImageSplitsCells, InconsistentMerge,
                    Interval, NonConstantOnCell, NotPiecewiseConstant,
                    OutOfDomain, PiecewiseConstant, Point, PointLike,
                    RefinementBudgetExceeded, SystemSpec, Word, as_point,
                    cells_from_cuts, format_rational, format_word,
                    markov_operator)

RATIONAL_TAG = "rational"
IRRATIONAL_TAG = "irrational"


# ---------------------------------------------------------------------------
# cells and partitions

@dataclass(frozen=True)
class Cell:
    """An interval cell, optionally restricted to (ir)rational points."""

    interval: Interval
    tag: Optional[str] = None

    def contains_point(self, p: Point) -> bool:
        if self.tag == RATIONAL_TAG and p.irrational_tag:
            return False
        if self.tag == IRRATIONAL_TAG and not p.irrational_tag:
            return False
        return self.interval.contains_value(p.value)

    def representative(self) -> Point:
        return Point(self.interval.interior_point(), self.tag == IRRATIONAL_TAG)

    def __str__(self) -> str:
        if self.tag is None:
            return str(self.interval)
        return f"{self.interval} {self.tag}"


@dataclass
class IntervalPartition:
    """Ordered cells covering the domain exactly."""

    domain: Interval
    cells: list
    provenance: dict   # (breakpoint, side) -> "probability" | "preimage"
    tagged: bool

    def __post_init__(self):
        # per tag: the cells' start keys, end keys and indices, by position
        self._index = {}
        for k, cell in sorted(enumerate(self.cells),
                              key=lambda kc: kc[1].interval.start_key):
            starts, ends, ids = self._index.setdefault(cell.tag, ([], [], []))
            starts.append(cell.interval.start_key)
            ends.append(cell.interval.end_key)
            ids.append(k)

    @property
    def breakpoints(self) -> list:
        return sorted({t for (t, _side) in self.provenance})

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
            tag = IRRATIONAL_TAG if p.irrational_tag else RATIONAL_TAG
        k = self.locate(Interval(p.value, p.value), tag)
        if k is None:
            raise OutOfDomain(f"point {p} not covered by any cell")
        return k


def refine_markov_partition(spec: SystemSpec, cap: int = 256) -> IntervalPartition:
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

    def usable(t, side) -> bool:
        if t < domain.lo or t > domain.hi:
            return False
        if t == domain.lo and side == -1:
            return False
        if t == domain.hi and side == +1:
            return False
        return True

    while worklist:
        t, side = worklist.pop()
        for e in spec.edges:
            if e.map.slope == 0:
                continue
            x = e.map.preimage_value(t)
            new_side = side if e.map.slope > 0 else -side
            if not usable(x, new_side):
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
        if isinstance(e.prob, PiecewiseConstant) and e.prob.constant_value() is None:
            raise NotPiecewiseConstant(
                f"edge {e.edge_id} mixes interval pieces with rationality "
                "predicates; no tag partition applies")
    dom = Interval(spec.domain.lo, spec.domain.hi, spec.domain.own_lo, spec.domain.own_hi)
    cells = [Cell(dom, RATIONAL_TAG), Cell(dom, IRRATIONAL_TAG)]
    return IntervalPartition(domain=spec.domain, cells=cells, provenance={},
                             tagged=True)


def stable_partition(spec: SystemSpec, cap: int = 256) -> IntervalPartition:
    if spec.has_rationality_edges:
        return tagged_partition(spec)
    return refine_markov_partition(spec, cap)


# ---------------------------------------------------------------------------
# the symbolic chain

@dataclass
class LabeledChain:
    """Finite chain with constant per-cell probabilities and labeled arcs."""

    n_states: int
    labels: tuple                     # edge ids, spec order
    prob: dict                        # (state, label) -> Fraction, positive only
    target: dict                      # (state, label) -> state
    reps: dict                        # state -> Point
    cells: list                       # state -> Cell

    def support(self, state: int) -> tuple:
        return tuple(l for l in self.labels if (state, l) in self.prob)

    def word_mass(self, state: int, word: Word) -> Fraction:
        mass = Fraction(1)
        s = state
        for label in word:
            p = self.prob.get((s, label))
            if p is None:
                return Fraction(0)
            mass *= p
            s = self.target[(s, label)]
        return mass


def extract_symbolic_chain(spec: SystemSpec, part: IntervalPartition) -> LabeledChain:
    """Read off per-cell probabilities and single-cell images, verifying
    constancy and image containment exactly."""
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
            hit = part.locate(image, image_tag)
            if hit is None:
                raise ImageSplitsCells(
                    f"edge {e.edge_id} image {image} of cell {cell} "
                    "not inside a single cell")
            prob[(s, e.edge_id)] = value
            target[(s, e.edge_id)] = hit
    return LabeledChain(n_states=len(part.cells), labels=spec.edge_ids,
                        prob=prob, target=target, reps=reps, cells=list(part.cells))


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class SupportSeparation:
    """A word with zero mass from one state and positive mass from the other."""

    kind = "support_separation"
    word: Word
    mass_i: Fraction
    mass_j: Fraction

    def __str__(self) -> str:
        return (f"support_separation word={format_word(self.word)} "
                f"masses {format_rational(self.mass_i)} vs {format_rational(self.mass_j)}")


@dataclass(frozen=True)
class BalancedProduct:
    """No separating vertex and only balanced terminal components are
    reachable from the pair, so the likelihood ratio freezes: the measures
    are equivalent."""

    kind = "balanced_product"

    def __str__(self) -> str:
        return "balanced_product"


@dataclass(frozen=True)
class UnbalancedProduct:
    """No separating vertex, but `word` leads the pair to `vertex` of an
    unbalanced terminal component, where `label` has probabilities p_i and
    p_j != p_i: the measures are not equivalent."""

    kind = "unbalanced_product"
    word: Word
    vertex: tuple
    label: str
    p_i: Fraction
    p_j: Fraction

    def __str__(self) -> str:
        a, b = self.vertex
        return (f"unbalanced_product word={format_word(self.word)} "
                f"arc=({a},{b}).{self.label} probabilities "
                f"{format_rational(self.p_i)} vs {format_rational(self.p_j)}")


def _backward_layers(preds, sources: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Breadth-first distances to `sources` against the arcs, over the
    vertices in `allowed`; -1 where no source is reachable."""
    indptr, rev = preds
    dist = np.full(allowed.size, -1, dtype=np.int64)
    frontier = np.flatnonzero(sources)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        lo, hi = indptr[frontier], indptr[frontier + 1]
        lens = hi - lo
        pos = np.arange(lens.sum()) + np.repeat(lo - np.cumsum(lens) + lens, lens)
        cand = rev[pos]
        cand = np.unique(cand[(dist[cand] < 0) & allowed[cand]])
        d += 1
        dist[cand] = d
        frontier = cand
    return dist


class ProductGraph:
    """The shared-label product graph of a chain and every pair's verdict.

    Vertex a * n + b stands for the ordered pair (a, b). All arrays are
    indexed by vertex; `certificate(i, j)` reads the pair's certificate off
    them without walking the graph again.
    """

    def __init__(self, chain: LabeledChain):
        n = chain.n_states
        labels = chain.labels
        size = n * n
        self.chain, self.n = chain, n

        # per label: target state (-1 unsupported) and a probability id
        tgt = np.full((len(labels), n), -1, dtype=np.int64)
        pid = np.full((len(labels), n), -1, dtype=np.int64)
        ids: dict = {}
        for (s, label), p in chain.prob.items():
            k = labels.index(label)
            tgt[k, s] = chain.target[(s, label)]
            pid[k, s] = ids.setdefault((k, p), len(ids))
        succ = np.full((len(labels), size), -1, dtype=np.int64)
        separating = np.zeros((len(labels), size), dtype=bool)
        unequal = np.zeros((len(labels), size), dtype=bool)
        for k in range(len(labels)):
            has = tgt[k] >= 0
            shared = (has[:, None] & has[None, :]).ravel()
            separating[k] = (has[:, None] != has[None, :]).ravel()
            succ[k] = np.where(shared, (tgt[k][:, None] * n + tgt[k][None, :]).ravel(), -1)
            unequal[k] = shared & (pid[k][:, None] != pid[k][None, :]).ravel()
        self.succ = succ

        # predecessor lists (compressed rows, sorted by arc target)
        label_of, src = np.nonzero(succ >= 0)
        dst = succ[label_of, src]
        order = np.argsort(dst, kind="stable")
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=size), out=indptr[1:])
        preds = (indptr, src[order])

        # 1. separation: distances and the first label of lex-least words
        everywhere = np.ones(size, dtype=bool)
        self.sep_dist = _backward_layers(preds, separating.any(axis=0), everywhere)
        self.sep_next = self._next_labels(self.sep_dist, np.argmax(separating, axis=0))

        # 2. terminal components of the separation-free part
        free = self.sep_dist < 0
        on = free[src]
        terminal = graphmod.terminal_components(graphmod.Digraph(
            vertices=tuple(np.flatnonzero(free).tolist()),
            arcs=tuple(zip(range(int(on.sum())), src[on].tolist(), dst[on].tolist()))))
        unbalanced = unequal.any(axis=0)
        in_unbalanced = np.zeros(size, dtype=bool)
        for members in terminal:
            if unbalanced[members].any():
                in_unbalanced[members] = True
        # 3. the pairs that reach an unbalanced terminal component, with words
        # to its unbalanced vertices
        self.unbal_dist = _backward_layers(preds, in_unbalanced & unbalanced, free)
        self.unbal_next = self._next_labels(self.unbal_dist, np.argmax(unequal, axis=0))
        self._walks: dict = {}

    def _next_labels(self, dist: np.ndarray, last: np.ndarray) -> np.ndarray:
        """The first label of each vertex's lex-least shortest word: the
        smallest label one step closer; `last` at distance 0."""
        nxt = np.where(dist == 0, last, -1)
        for k in reversed(range(self.succ.shape[0])):
            to = self.succ[k]
            ok = (dist > 0) & (to >= 0)
            ok[ok] = dist[to[ok]] == dist[ok] - 1
            nxt[ok] = k
        return nxt

    def _walk(self, v: int, key: str):
        """(word, end vertex, mass from a, mass from b) along `key`'s next
        labels from v = (a, b), built once per vertex from its successor's."""
        dist, nxt = (self.sep_dist, self.sep_next) if key == "sep" else \
            (self.unbal_dist, self.unbal_next)
        labels, prob, n = self.chain.labels, self.chain.prob, self.n
        path = []
        while (key, v) not in self._walks and dist[v] > 0:
            path.append(v)
            v = int(self.succ[nxt[v], v])
        if (key, v) not in self._walks:
            a, b = divmod(v, n)
            if key == "sep":
                label = labels[nxt[v]]
                self._walks[(key, v)] = ((label,), v, prob.get((a, label), Fraction(0)),
                                         prob.get((b, label), Fraction(0)))
            else:
                self._walks[(key, v)] = ((), v, Fraction(1), Fraction(1))
        word, end, ma, mb = self._walks[(key, v)]
        for u in reversed(path):
            a, b = divmod(u, n)
            label = labels[nxt[u]]
            word, ma, mb = (label,) + word, prob[(a, label)] * ma, prob[(b, label)] * mb
            self._walks[(key, u)] = (word, end, ma, mb)
        return word, end, ma, mb

    def certificate(self, i: int, j: int):
        """The certificate of the state pair (i, j)."""
        v = i * self.n + j
        if self.sep_dist[v] >= 0:
            word, _end, mass_i, mass_j = self._walk(v, "sep")
            return SupportSeparation(word=word, mass_i=mass_i, mass_j=mass_j)
        if self.unbal_dist[v] < 0:
            return BalancedProduct()
        word, end, _ma, _mb = self._walk(v, "unbal")
        a, b = divmod(end, self.n)
        label = self.chain.labels[self.unbal_next[end]]
        prob = self.chain.prob
        return UnbalancedProduct(word=word, vertex=(a, b), label=label,
                                 p_i=prob[(a, label)], p_j=prob[(b, label)])


# ---------------------------------------------------------------------------
# the merged partition

@dataclass
class PartitionParams:
    """`seed` is accepted and not read: every pair is decided exactly,
    with no sampling. It stays because the benchmark workloads pass it."""

    refinement_cap: int = 256
    seed: Optional[int] = None


@dataclass
class ClassInfo:
    class_id: int
    states: tuple
    cells: tuple
    rep: Point
    support: tuple

    def describe(self) -> str:
        return " + ".join(str(c) for c in self.cells)


@dataclass(frozen=True)
class FmsEdge:
    """A reduced edge: (class, original label) with its target class.

    The label projection back onto original edges is the `label` field.
    """

    class_id: int
    label: str
    target: int


@dataclass
class FundamentalPartition:
    partition: IntervalPartition
    chain: LabeledChain
    classes: list                   # of ClassInfo
    state_class: dict               # chain state -> class id
    fms_edges: list                 # of FmsEdge
    certificates: dict              # (i, j) state pair, i < j -> certificate
    merged_pairs: list              # (i, j, "exact") actually merged
    statistical: bool               # always False: no merge rests on sampling

    def class_count(self) -> int:
        return len(self.classes)

    def edges_from(self, class_id: int) -> list:
        return [fe for fe in self.fms_edges if fe.class_id == class_id]


def fundamental_partition(spec: SystemSpec,
                          params: Optional[PartitionParams] = None) -> FundamentalPartition:
    """Full pipeline: stable partition, symbolic chain, the exact
    certificate of every pair from one product graph, merge of the
    equivalent pairs, and the reduced labeled system with its label
    projection."""
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
    classes = []
    for cid, states in enumerate(ordered):
        for s in states:
            state_class[s] = cid
        support = chain.support(states[0])
        for s in states[1:]:
            if chain.support(s) != support:
                raise InconsistentMerge(
                    f"class {cid} mixes states with different label supports")
        classes.append(ClassInfo(
            class_id=cid, states=states,
            cells=tuple(chain.cells[s] for s in states),
            rep=chain.reps[states[0]], support=support))

    fms_edges = []
    for info in classes:
        for label in info.support:
            targets = {state_class[chain.target[(s, label)]] for s in info.states}
            if len(targets) != 1:
                raise InconsistentMerge(
                    f"label {label} from class {info.class_id} lands in "
                    f"several classes {sorted(targets)}; evidence incomplete")
            fms_edges.append(FmsEdge(info.class_id, label, targets.pop()))

    return FundamentalPartition(
        partition=part, chain=chain, classes=classes, state_class=state_class,
        fms_edges=fms_edges, certificates=certificates, merged_pairs=merged,
        statistical=False)


def pair_certificate(spec: SystemSpec, x: PointLike, y: PointLike):
    """The certificate of the cells holding x and y, or None when the
    system has no stable partition. The path measure from a point equals
    the chain's measure from its cell, so the certificate decides the pair
    of points exactly."""
    try:
        part = stable_partition(spec)
        chain = extract_symbolic_chain(spec, part)
    except (RefinementBudgetExceeded, NotPiecewiseConstant, NonConstantOnCell,
            ImageSplitsCells):
        return None
    i = part.cell_of_point(as_point(x))
    j = part.cell_of_point(as_point(y))
    return ProductGraph(chain).certificate(i, j)


def classify_point(fp: FundamentalPartition, x: PointLike) -> int:
    p = as_point(x)
    state = fp.partition.cell_of_point(p)
    return fp.state_class[state]


# ---------------------------------------------------------------------------
# consistency checks against the original system

def lift_check(spec: SystemSpec, fp: FundamentalPartition, x: PointLike,
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


def adjoint_discrepancy(spec: SystemSpec, fp: FundamentalPartition,
                        x: PointLike, f) -> Fraction:
    """Exact defect between one-step averaging through the reduced edge
    set and through the original system (zero when the reduction is an
    equivalent system)."""
    p = as_point(x)
    spec.require_in_domain(p)
    cid = classify_point(fp, p)
    reduced = Fraction(0)
    for fe in fp.edges_from(cid):
        e = spec.edge(fe.label)
        pe = e.prob.value_at(p)
        if pe == 0:
            continue
        reduced = reduced + pe * f(e.map.apply_point(p))
    return abs(reduced - markov_operator(spec, f, p))


def verify_separations(fp: FundamentalPartition, spec: SystemSpec) -> list:
    """Re-check every separation witness against exact cylinder masses at
    the representative points; returns human-readable failures."""
    problems = []
    for (i, j), cert in sorted(fp.certificates.items()):
        if not isinstance(cert, SupportSeparation):
            continue
        mi = measures.cylinder_measure(spec, fp.chain.reps[i], cert.word)
        mj = measures.cylinder_measure(spec, fp.chain.reps[j], cert.word)
        if mi != cert.mass_i or mj != cert.mass_j:
            problems.append(f"pair ({i},{j}): recomputed masses "
                            f"{format_rational(mi)},{format_rational(mj)} differ")
        if not ((mi == 0) != (mj == 0)):
            problems.append(f"pair ({i},{j}): word {format_word(cert.word)} "
                            "does not separate")
    return problems


def verify_product_certificates(chain: LabeledChain, fp: FundamentalPartition) -> list:
    """Re-derive every pair's verdict and re-check its certificate against
    the chain's tables; returns human-readable failures.

    Independently of `ProductGraph`, builds the product graph with
    dictionaries, finds the vertices that reach a separating vertex, and
    takes the terminal components of the rest from `graph.terminal_components`.
    A separating word must walk shared labels and end on a separating one,
    with the recorded masses; a balanced pair must reach no unbalanced
    terminal component; an unbalanced pair's word must lead to the recorded vertex,
    which must lie in a terminal component and carry the recorded, unequal
    probabilities. Two states share a class exactly when their pair is
    balanced.
    """
    n, labels, prob, target = chain.n_states, chain.labels, chain.prob, chain.target
    vertices = [(a, b) for a in range(n) for b in range(n)]
    arcs = []
    preds: dict = {}
    separating = set()
    for a, b in vertices:
        for l in labels:
            in_a, in_b = (a, l) in prob, (b, l) in prob
            if in_a != in_b:
                separating.add((a, b))
            elif in_a:
                arcs.append(((a, b), (target[(a, l)], target[(b, l)])))
                preds.setdefault(arcs[-1][1], []).append((a, b))

    def reaching(goal: set, within: set) -> set:
        seen, todo = set(goal), list(goal)
        while todo:
            for u in preds.get(todo.pop(), ()):
                if u not in seen and u in within:
                    seen.add(u)
                    todo.append(u)
        return seen

    def walk(a: int, b: int, word: Word) -> Optional[tuple]:
        """The vertex `word` leads to from (a, b) on shared labels."""
        for l in word:
            if (a, l) not in prob or (b, l) not in prob:
                return None
            a, b = target[(a, l)], target[(b, l)]
        return a, b

    def unbalanced(v) -> bool:
        return any(prob.get((v[0], l)) != prob.get((v[1], l)) for l in labels)

    free = set(vertices) - reaching(separating, set(vertices))
    terminal = graphmod.terminal_components(graphmod.Digraph(
        vertices=tuple(sorted(free)),
        arcs=tuple((k, u, v) for k, (u, v) in enumerate(arcs) if u in free)))
    bad_terminal = set().union(*(c for c in terminal if any(map(unbalanced, c))))
    bad = reaching(bad_terminal, free)

    problems = []
    for i in range(n):
        for j in range(i + 1, n):
            cert = fp.certificates.get((i, j))
            where = f"pair ({i},{j})"
            if isinstance(cert, SupportSeparation):
                end = walk(i, j, cert.word[:-1])
                if (not cert.word or end is None or ((end[0], cert.word[-1]) in prob)
                        == ((end[1], cert.word[-1]) in prob)):
                    problems.append(f"{where}: word {format_word(cert.word)} "
                                    "does not separate")
                if (cert.mass_i, cert.mass_j) != (chain.word_mass(i, cert.word),
                                                  chain.word_mass(j, cert.word)):
                    problems.append(f"{where}: separation masses differ")
            elif isinstance(cert, BalancedProduct):
                if (i, j) not in free or (i, j) in bad:
                    problems.append(f"{where}: not balanced")
            elif isinstance(cert, UnbalancedProduct):
                a, b = cert.vertex
                if (i, j) not in bad:
                    problems.append(f"{where}: reaches no unbalanced terminal component")
                elif walk(i, j, cert.word) != (a, b) or (a, b) not in bad_terminal:
                    problems.append(f"{where}: word {format_word(cert.word)} does not "
                                    "lead to the recorded terminal vertex")
                elif ((prob.get((a, cert.label)), prob.get((b, cert.label)))
                      != (cert.p_i, cert.p_j) or cert.p_i == cert.p_j):
                    problems.append(f"{where}: arc {cert.label} is not unbalanced")
            else:
                problems.append(f"{where}: no certificate")
                continue
            if (fp.state_class[i] == fp.state_class[j]) != isinstance(cert, BalancedProduct):
                problems.append(f"{where}: class membership contradicts the certificate")
    return problems


# ---------------------------------------------------------------------------
# report serialization

def partition_report(fp: FundamentalPartition) -> str:
    lines = []
    bps = fp.partition.breakpoints
    lines.append("breakpoints: " + (", ".join(format_rational(b) for b in bps)
                                    if bps else "(none)"))
    lines.append("cells:")
    for s, cell in enumerate(fp.chain.cells):
        origin = ""
        lines.append(f"  state {s}: {cell}{origin}")
    lines.append("classes:")
    for info in fp.classes:
        lines.append(f"  class {info.class_id}: {info.describe()} "
                     f"(states {','.join(str(s) for s in info.states)})")
    lines.append("certificates:")
    for (i, j), cert in sorted(fp.certificates.items()):
        lines.append(f"  states ({i},{j}): {cert}")
    lines.append("reduced edges (class,label) -> target [projection=label]:")
    for fe in fp.fms_edges:
        lines.append(f"  ({fe.class_id},{fe.label}) -> {fe.target}")
    merges = [f"({i},{j}) {grade}" for i, j, grade in fp.merged_pairs]
    lines.append("merges: " + ("; ".join(merges) if merges else "(none)"))
    lines.append("evidence grade: all certificates exact")
    return "\n".join(lines) + "\n"
