"""Stable interval partitions and their merge into equivalence classes.

The pipeline refines the domain into cells on which every probability
function is constant and every map sends a cell into a single cell, reads
off the finite labeled chain, and then decides exactly, for every pair of
cells, whether the path measures started inside them are mutually
absolutely continuous. The equivalent cells merge into classes, producing
a reduced edge set with a label projection back onto the original edges:
the fundamental Markov system.

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
  (`graph.distances` on the reversed product digraph) gives every vertex
  its distance to separation and the next label of its lex-least shortest
  separating word;
- one Tarjan pass (`graph.terminal_components`) finds the terminal
  components of the separation-free part;
- a second backward search, from the unbalanced vertices of unbalanced
  terminal components, marks the pairs that reach one and gives each a
  lex-least shortest word to such a vertex.
A pair is *balanced* when both searches leave it unreached. The classes
are read off the n x n matrix of balanced pairs (`fundamental_partition`),
which must be an equivalence relation. Mapped to classes, the per-label
target table gives `lands[k, s]`: the class label k takes state s to, or
-1 where s lacks k. A -1 entry is a missing label and any other entry a
target class, so one comparison of each state's column with its class
leader's checks the label supports and the reduced edges together; the
leaders' columns are the fundamental Markov system. Each pair's finite
certificate, built from the same arrays only when asked for and
re-checked by `verify_product_certificates`, is `SupportSeparation`
(case 1), `BalancedProduct` (equivalent; diagonal coupling is the special
case in which every reachable terminal component lies on the diagonal)
or `UnbalancedProduct` (not equivalent, with no support gap). A pair within
a class is balanced, so `fp.certificates` holds only the pairs in different
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import graph as graphmod, measures
from .model import (Cuts, ImageSplitsCells, InconsistentMerge, Interval,
                    NonConstantOnCell, OutOfDomain, PiecewiseConstant, Point, PointLike,
                    RationalityPredicate, RefinementBudgetExceeded,
                    SystemSpec, Word, as_point,
                    _weighted_images, cells_from_cuts, format_rational,
                    format_word, usable_cut)

RATIONAL_TAG = "rational"
IRRATIONAL_TAG = "irrational"
REFINE_CAP = 256   # default breakpoint cap of the refinement


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
    """Ordered cells covering the domain exactly, with the `Cuts` of their
    intervals. A tagged partition lists each interval's rational cell, then
    its irrational cell, which a one-point interval lacks. `states` maps a
    cut row (2*k + tag for the k-th interval when tagged) to its cell
    index, or -1 for the empty irrational row of a one-point interval."""

    domain: Interval
    cells: list
    provenance: dict   # (breakpoint, side) -> "probability" | "preimage"
    tagged: bool

    def __post_init__(self):
        self.states = []   # an irrational cell fills its interval's second row
        for s, cell in enumerate(self.cells):
            if cell.tag == IRRATIONAL_TAG:
                self.states[-1] = s
            else:
                self.states += [s, -1] if self.tagged else [s]
        self.cuts = Cuts([c.interval for c in self.cells if c.tag != IRRATIONAL_TAG],
                         self.tagged)

    @property
    def breakpoints(self) -> list:
        return sorted({t for (t, _side) in self.provenance})

    def cell_of_point(self, p: Point) -> int:
        """The index of the cell holding p; `OutOfDomain` when no cell
        does, as for a tagged point at a one-point cell's value."""
        v = p.value
        if self.cuts.span.contains_value(v):
            state = self.states[self.cuts.row_of(v.numerator, v.denominator, p.irrational_tag)]
            if state >= 0:
                return state
        raise OutOfDomain(f"point {p} not covered by any cell")


def refine_markov_partition(spec: SystemSpec, cap: int = REFINE_CAP) -> IntervalPartition:
    """The stable partition: the breakpoint closure of the piecewise
    edges, crossed with the rational/irrational tag when an edge reads it.

    Starting from the probability discontinuities, repeatedly pulls every
    cut back through every invertible map until closed, so each map sends
    each resulting cell into exactly one cell. A cut (t, +1) separates
    points <= t from points > t, and (t, -1) separates < t from >= t;
    increasing maps preserve the side, decreasing maps flip it.

    Crossing with the tag keeps the partition stable: rational
    coefficients keep a point rational or irrational, and a slope-0 map
    sends every point to its rational intercept. A one-point cell gets
    only its rational copy, since its irrational copy would be empty.
    """
    domain = spec.domain
    cuts: dict = {}
    worklist = []
    for e in spec.edges:
        if isinstance(e.prob, PiecewiseConstant):
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

    tagged = spec.has_rationality_edges
    tags = (RATIONAL_TAG, IRRATIONAL_TAG) if tagged else (None,)
    cells = [Cell(iv, tag) for iv in cells_from_cuts(domain, cuts.keys()) for tag in tags
             if not (tag == IRRATIONAL_TAG and iv.is_degenerate)]
    return IntervalPartition(domain=domain, cells=cells, provenance=dict(cuts),
                             tagged=tagged)


stable_partition = refine_markov_partition


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


def _nonconstant_edge(spec: SystemSpec, cell: Cell) -> Optional[int]:
    """The index of the first piecewise edge none of whose pieces holds
    the cell, by a scan of every piece; None when there is none."""
    return next((k for k, e in enumerate(spec.edges) if isinstance(e.prob, PiecewiseConstant)
                 and not any(iv.contains_interval(cell.interval) for iv, _v in e.prob.pieces)),
                None)


def extract_symbolic_chain(spec: SystemSpec, part: IntervalPartition) -> LabeledChain:
    """Read off per-cell probabilities and single-cell images, verifying
    constancy and image containment exactly.

    Each cell finds its probability row by one bisection on the system's
    `CellIndex`; every edge is constant on the cell exactly when the cell
    lies inside one common-refinement cell. An edge that reads the tag
    needs a tagged cell. Each image finds its cell by one bisection on the
    partition's `Cuts`, read through its `states`."""
    index = spec.cell_index
    reads_tag = [isinstance(e.prob, RationalityPredicate) and e.prob.constant_value() is None
                 for e in spec.edges]
    prob = {}
    target = {}
    reps = {}
    for s, cell in enumerate(part.cells):
        rep = cell.representative()
        reps[s] = rep
        row = index.cuts.row_of_interval(cell.interval, rep.irrational_tag)
        bad = None
        if row is None:
            # the cell crosses a cut: only this error path scans the pieces,
            # for the first edge not constant on the cell; the edges before
            # it are constant on the cell and read at its representative
            bad = _nonconstant_edge(spec, cell)
            row = index.cuts.row_of(rep.value.numerator, rep.value.denominator,
                                    rep.irrational_tag)
        for k, (e, value) in enumerate(zip(spec.edges, index.rows[row])):
            if k == bad:
                raise NonConstantOnCell(f"edge {e.edge_id} not constant on cell {cell}")
            if cell.tag is None and reads_tag[k]:
                raise NonConstantOnCell(
                    f"edge {e.edge_id} reads the tag but cell {cell} has none")
            if value == 0:
                continue
            image = e.map.apply_interval(cell.interval)
            # a constant map sends every point to its rational intercept
            image_irrational = cell.tag == IRRATIONAL_TAG and e.map.slope != 0
            hit = part.cuts.row_of_interval(image, image_irrational)
            hit = -1 if hit is None else part.states[hit]
            if hit < 0:
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


class ProductGraph:
    """The shared-label product graph of a chain and every pair's verdict.

    Vertex a * n + b stands for the ordered pair (a, b). All arrays but
    `tgt` are indexed by vertex; `certificate(i, j)` reads the pair's
    certificate off them without walking the graph again.
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
        self.tgt, self.succ = tgt, succ

        label_of, src = np.nonzero(succ >= 0)
        dst = succ[label_of, src]
        preds = graphmod.Digraph(size, src, dst).reverse()

        # 1. separation: distances and the first label of lex-least words
        self.sep_dist = graphmod.distances(preds, separating.any(axis=0))
        self.sep_next = self._next_labels(self.sep_dist, np.argmax(separating, axis=0))

        # 2. terminal components of the separation-free part, whose arcs stay
        # in it; its vertices are renumbered 0..len(keep)-1 in order
        free = self.sep_dist < 0
        keep = np.flatnonzero(free)
        renumber = np.full(size, -1, dtype=np.int64)
        renumber[keep] = np.arange(keep.size)
        on = free[src]
        terminal = graphmod.terminal_components(
            graphmod.Digraph(keep.size, renumber[src[on]], renumber[dst[on]]))
        unbalanced = unequal.any(axis=0)
        in_unbalanced = np.zeros(size, dtype=bool)
        for members in terminal:
            members = keep[members]
            if unbalanced[members].any():
                in_unbalanced[members] = True
        # 3. the pairs that reach an unbalanced terminal component, with words
        # to its unbalanced vertices
        self.unbal_dist = graphmod.distances(preds, in_unbalanced & unbalanced, free)
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

    refinement_cap: int = REFINE_CAP
    seed: Optional[int] = None


@dataclass
class ClassInfo:
    class_id: int
    states: tuple
    cells: tuple

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
    product: ProductGraph
    classes: list                   # of ClassInfo
    state_class: dict               # chain state -> class id
    fms_edges: list                 # of FmsEdge

    @cached_property
    def certificates(self) -> dict:
        """(i, j) state pair, i < j, in different classes -> certificate,
        read off `product` on first use. A pair within a class is balanced,
        as `state_class` says; `product.certificate(i, j)` gives any pair's."""
        n, cls = self.chain.n_states, self.state_class
        return {(i, j): self.product.certificate(i, j)
                for i in range(n) for j in range(i + 1, n) if cls[i] != cls[j]}

    def class_count(self) -> int:
        return len(self.classes)


def fundamental_partition(spec: SystemSpec,
                          params: Optional[PartitionParams] = None) -> FundamentalPartition:
    """Full pipeline: stable partition, symbolic chain, its product graph,
    the classes of the balanced pairs, and the reduced labeled system with
    its label projection. Each state joins the first state it is balanced
    with, its leader; the balanced pairs must be exactly the pairs sharing
    a class. In `lands != lands[:, root]` a -1 entry is a missing label and
    any other a target class, so it flags a state whose support or whose
    label targets differ from its leader's. Each failure raises
    `InconsistentMerge`. Certificates are built only when read."""
    params = params or PartitionParams()
    part = stable_partition(spec, params.refinement_cap)
    chain = extract_symbolic_chain(spec, part)
    product = ProductGraph(chain)

    n = chain.n_states
    balanced = ((product.sep_dist < 0) & (product.unbal_dist < 0)).reshape(n, n)
    root = np.argmax(balanced, axis=1)
    wrong = np.argwhere(balanced != (root[:, None] == root[None, :]))
    if wrong.size:
        i, j = wrong[0].tolist()
        raise InconsistentMerge(
            f"states {i},{j} are balanced but in different classes" if balanced[i, j]
            else f"states {i},{j} share a class but are not balanced")

    cls = np.unique(root, return_inverse=True)[1]
    lands = np.where(product.tgt >= 0, cls[product.tgt], -1)
    wrong = np.argwhere((lands != lands[:, root]).T)
    if wrong.size:
        s, k = wrong[0].tolist()
        ends = lands[k, [s, root[s]]]
        raise InconsistentMerge(
            f"class {cls[s]} mixes states with different label supports" if ends.min() < 0
            else f"label {chain.labels[k]} from class {cls[s]} lands in several classes "
            f"{sorted(ends.tolist())}; evidence incomplete")

    state_class = dict(enumerate(cls.tolist()))
    groups: dict = {}   # in class order: a class's leader is its least state
    for s, c in state_class.items():
        groups.setdefault(c, []).append(s)
    cols = lands.T.tolist()
    classes, fms_edges = [], []
    for cid, states in enumerate(groups.values()):
        classes.append(ClassInfo(
            class_id=cid, states=tuple(states), cells=tuple(chain.cells[s] for s in states)))
        fms_edges += [FmsEdge(cid, label, t)
                      for label, t in zip(chain.labels, cols[states[0]]) if t >= 0]

    return FundamentalPartition(
        partition=part, chain=chain, product=product, classes=classes,
        state_class=state_class, fms_edges=fms_edges)


def _stable_chain(spec: SystemSpec) -> tuple:
    """The stable partition at `REFINE_CAP` and its chain, or (None, None)
    when the system has none."""
    try:
        part = stable_partition(spec)
        return part, extract_symbolic_chain(spec, part)
    except (RefinementBudgetExceeded, NonConstantOnCell, ImageSplitsCells):
        return None, None


def _pair_certificate(part: Optional[IntervalPartition], chain: Optional[LabeledChain],
                      x: Point, y: Point):
    """The certificate of the cells of `part` holding x and y, read off
    the product graph of `chain`; None when there is no chain."""
    if chain is None:
        return None
    return ProductGraph(chain).certificate(part.cell_of_point(x), part.cell_of_point(y))


def pair_certificate(spec: SystemSpec, x: PointLike, y: PointLike):
    """The certificate of the cells holding x and y, or None when the
    system has no stable partition. The path measure from a point equals
    the chain's measure from its cell, so the certificate decides the pair
    of points exactly. Builds the chain's product graph and merges nothing."""
    return _pair_certificate(*_stable_chain(spec), as_point(x), as_point(y))


def classify_point(fp: FundamentalPartition, x: PointLike) -> int:
    return fp.state_class[fp.partition.cell_of_point(as_point(x))]


# ---------------------------------------------------------------------------
# consistency checks against the original system

def lift_check(spec: SystemSpec, fp: FundamentalPartition, x: PointLike,
               depth: int) -> Fraction:
    """Largest defect between original cylinder masses and the summed
    masses of their path-consistent lifts through the reduced system.

    A lift follows the reduced transition table from some starting class;
    its factors are the original probabilities gated by membership of the
    actual orbit point in the lift's current class, so any wrong entry in
    the reduced tables shows up as a positive defect. Only the lift that
    starts in the class of x can carry mass, and along a word its mass is
    the cylinder mass until it leaves the orbit's classes or the table,
    and zero from then on: a word's defect is its mass if the lift died.
    """
    edge_target = {(fe.class_id, fe.label): fe.target for fe in fp.fms_edges}
    row_of, part = fp.partition.cuts.row_of, fp.partition
    class_of_row = [fp.state_class.get(s) for s in part.states]
    live = {}   # depth -> the lift's class on the current word, None once dead
    scale, nodes = measures._code_walk(spec, x, None, depth, measures.DEFAULT_WORD_BUDGET)
    part.cell_of_point(as_point(x))   # a point no cell holds raises; its orbit stays in cells
    worst = 0   # over scale**depth
    for word, (n, d, tag), _y, px, _py in nodes:
        k = len(word)
        if k == depth and k:
            if edge_target.get((live[k - 1], word[-1])) is None:
                worst = max(worst, px)
            continue
        here = class_of_row[row_of(n, d, tag)]
        cls = edge_target.get((live[k - 1], word[-1])) if k else here
        live[k] = cls if cls is not None and cls == here else None
    return Fraction(worst, scale ** depth)


def adjoint_discrepancy(spec: SystemSpec, fp: FundamentalPartition,
                        x: PointLike, f) -> Fraction:
    """Exact defect between one-step averaging through the reduced edge
    set and through the original system (zero when the reduction is an
    equivalent system). One pass over the edges sums both averages; it reads
    p_e(x) by the piece scan of `value_at`, not from the `CellIndex` the
    chain came from, so it checks the chain's label supports independently."""
    p = as_point(x)
    spec.require_in_domain(p)
    cid = classify_point(fp, p)
    labels = {fe.label for fe in fp.fms_edges if fe.class_id == cid}
    reduced = full = Fraction(0)
    for e, pe, q in _weighted_images(spec, p):
        term = pe * f(q)
        full = full + term
        if e.edge_id in labels:
            reduced = reduced + term
    return abs(reduced - full)


def verify_separations(fp: FundamentalPartition, spec: SystemSpec) -> list:
    """Re-check every separation witness against exact cylinder masses at
    the representative points; returns human-readable failures. Each
    distinct (state, word) mass is computed once."""
    masses: dict = {}

    def mass(state: int, word: Word) -> Fraction:
        if (state, word) not in masses:
            masses[state, word] = measures.cylinder_measure(spec, fp.chain.reps[state], word)
        return masses[state, word]

    problems = []
    for (i, j), cert in sorted(fp.certificates.items()):
        if not isinstance(cert, SupportSeparation):
            continue
        mi, mj = mass(i, cert.word), mass(j, cert.word)
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
    dictionaries over the vertices a * n + b, finds the vertices that reach a
    separating vertex, and takes the terminal components of the rest from
    `graph.terminal_components`.
    A separating word must walk shared labels and end on a separating one,
    with the recorded masses; a balanced pair must reach no unbalanced
    terminal component; an unbalanced pair's word must lead to the recorded vertex,
    which must lie in a terminal component and carry the recorded, unequal
    probabilities. Two states share a class exactly when their pair is
    balanced; a pair missing from `fp.certificates` is checked as balanced
    when its states share a class and reported otherwise.
    """
    n, labels, prob, target = chain.n_states, chain.labels, chain.prob, chain.target
    size = n * n
    src, dst = [], []
    preds: dict = {}
    separating = set()
    for a in range(n):
        for b in range(n):
            for l in labels:
                in_a, in_b = (a, l) in prob, (b, l) in prob
                if in_a != in_b:
                    separating.add(a * n + b)
                elif in_a:
                    src.append(a * n + b)
                    dst.append(target[(a, l)] * n + target[(b, l)])
                    preds.setdefault(dst[-1], []).append(src[-1])

    def reaching(goal: set, within) -> set:
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

    def unbalanced(v: int) -> bool:
        a, b = divmod(v, n)
        return any(prob.get((a, l)) != prob.get((b, l)) for l in labels)

    free = set(range(size)) - reaching(separating, range(size))
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    on = np.isin(src, list(free))
    # the vertices outside `free` keep no arcs, so each is a terminal singleton
    terminal = [c for c in graphmod.terminal_components(
        graphmod.Digraph(size, src[on], dst[on])) if c[0] in free]
    bad_terminal = set().union(*(c for c in terminal if any(map(unbalanced, c))))
    bad = reaching(bad_terminal, free)

    problems = []
    for i in range(n):
        for j in range(i + 1, n):
            same = fp.state_class[i] == fp.state_class[j]
            cert = fp.certificates.get((i, j), BalancedProduct() if same else None)
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
                if i * n + j not in free or i * n + j in bad:
                    problems.append(f"{where}: not balanced")
            elif isinstance(cert, UnbalancedProduct):
                a, b = cert.vertex
                if i * n + j not in bad:
                    problems.append(f"{where}: reaches no unbalanced terminal component")
                elif walk(i, j, cert.word) != (a, b) or a * n + b not in bad_terminal:
                    problems.append(f"{where}: word {format_word(cert.word)} does not "
                                    "lead to the recorded terminal vertex")
                elif ((prob.get((a, cert.label)), prob.get((b, cert.label)))
                      != (cert.p_i, cert.p_j) or cert.p_i == cert.p_j):
                    problems.append(f"{where}: arc {cert.label} is not unbalanced")
            else:
                problems.append(f"{where}: no certificate")
                continue
            if same != isinstance(cert, BalancedProduct):
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
        lines.append(f"  state {s}: {cell}")
    lines.append("classes:")
    for info in fp.classes:
        lines.append(f"  class {info.class_id}: {info.describe()} "
                     f"(states {','.join(str(s) for s in info.states)})")
    lines.append("certificates (pairs in different classes; "
                 "a pair within a class is balanced_product):")
    for (i, j), cert in sorted(fp.certificates.items()):
        lines.append(f"  states ({i},{j}): {cert}")
    lines.append("reduced edges (class,label) -> target [projection=label]:")
    for fe in fp.fms_edges:
        lines.append(f"  ({fe.class_id},{fe.label}) -> {fe.target}")
    lines.append("evidence grade: all certificates exact")
    return "\n".join(lines) + "\n"
