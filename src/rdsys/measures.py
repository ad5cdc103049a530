"""Exact computation on the code space of a system.

Starting the process at x induces a probability measure on infinite edge
sequences whose cylinder masses are telescoping products of one-step
probabilities. This module computes those masses exactly, together with
the martingale defect of the prefix likelihood ratios between two
starting points, exact tail masses, and a graded finite-depth verdict on
whether the two path measures share null sets.

Every fold computes in integers over scale**k, scale the common
denominator of the probabilities (`CellIndex.scale`). There are two ways
to reach the depth-k words:

* The chain. Let the system have a stable partition at
  `partition.REFINE_CAP`: every probability is constant on each cell, and
  every map sends each cell into one cell. Then, by induction on the word,
  a word leads a point to the cell that the chain's arcs lead the point's
  cell to, and the word's mass from the point is the product of the
  chain's probabilities along the way. So the path measure from a point
  is the chain's measure from its cell. `tail_mass_exact` and `xi`'s
  exact tail table (`_exact_tail_scan`) fold over the chain's layers
  (`_pair_layers`), and `martingale_discrepancy` is two dynamic programs
  on cell pairs (`_martingale_on_chain`). A layer never has more keys
  than there are words at its depth, so on no input do the layers cost
  more than a constant factor over the walk. The chain is that of the
  system's `partition.analysis`, kept on the spec: the closure runs once
  per system, also when it finds no stable partition.
* The walk. `_code_walk` visits the words one by one, up to |E|**depth of
  them. `enumerate_cylinders` lists words, so it walks. `partition.lift_check`
  walks, because it must not read the chain it checks. The pair folds walk
  when the system has no stable partition, or when a point lies in no
  cell.

Both ways check their arguments by `_check_walk` first: the depth, the
word budget, then the domain. So `BudgetExceeded` and the word budget
act the same on either way, though the chain would reach deeper.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import partition, sampling
from .model import (BudgetExceeded, DegenerateSampling, OutOfDomain, Point, PointLike,
                    SystemSpec, Word, as_point, format_rational)

DEFAULT_WORD_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# the code-space walk and the chain layers

def _check_walk(spec: SystemSpec, x: PointLike, y: Optional[PointLike], depth: int,
                budget: int):
    """The checks every exact fold makes before it reads a word, in this
    order: the depth, the word budget |E|^depth, then x and y in the
    domain. Returns x and y as points (y None when y is None)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n_edges = len(spec.edges)
    # with two or more edges the power exceeds the budget once the depth
    # passes its bit length, so the power is only ever computed when small
    if (n_edges >= 2 and depth > int(budget).bit_length()) or n_edges ** depth > budget:
        raise BudgetExceeded(
            f"|E|^depth = {n_edges}^{depth} exceeds budget {budget}")
    xp = as_point(x)
    spec.require_in_domain(xp)
    yp = None if y is None else as_point(y)
    if yp is not None:
        spec.require_in_domain(yp)
    return xp, yp


def _code_walk(spec: SystemSpec, x: PointLike, y: Optional[PointLike], depth: int,
               budget: int):
    """Pre-order walk, in `spec.edges` order, over the words of length at
    most `depth` with positive x-mass, in exact integer arithmetic.

    Returns (scale, nodes). `nodes` yields (word, x_state, y_state, px,
    py): a state (n, d, tag) is the point n/d the word leads x or y to,
    unreduced, with its irrationality tag, and px, py are the word's
    cylinder masses from x and y as integer numerators over
    scale**len(word). With `y=None` only x is followed and y_state and py
    are None. On an edge of zero y-probability y's state stays put; a word
    with zero y-mass is yielded but not extended. Each word locates its
    points' rows by one exact bisection each on the system's `CellIndex`.
    `_check_walk` runs when the function is called, not on the first step
    of the walk.

    It visits up to |E|^depth words. `enumerate_cylinders`, which lists
    words, and `lift_check`, which must not read the chain it checks, walk
    it; the pair folds walk it only where the chain layers do not apply
    (`_pair_walk`).
    """
    xp, yp = _check_walk(spec, x, y, depth, budget)
    index = spec.cell_index
    scale, probs, steps, row_of = index.scale, index.numerators, index.steps, index.cuts.row_of

    def state(p: Point):
        return p.value.numerator, p.value.denominator, p.irrational_tag

    def nodes():
        stack = [((), state(xp), None if yp is None else state(yp), 1,
                  None if yp is None else 1)]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            yield node
            word, xs, ys, px, py = node
            if len(word) == depth or py == 0:
                continue
            xn, xd, xt = xs
            out = steps[row_of(xn, xd, xt)]
            if ys is None:
                for _k, eid, w, a, c, m, keep in out:
                    push((word + (eid,), (a * xn + c * xd, m * xd, xt and keep),
                          None, px * w, None))
                continue
            yn, yd, yt = ys
            wy = probs[row_of(yn, yd, yt)]
            for k, eid, w, a, c, m, keep in out:
                v = wy[k]
                push((word + (eid,), (a * xn + c * xd, m * xd, xt and keep),
                      (a * yn + c * yd, m * yd, yt and keep) if v else ys,
                      px * w, py * v))
    return scale, nodes()


def _chain_start(spec: SystemSpec, xp: Point, yp: Point):
    """(arcs, a, b): the integer tables of the chain of the system's
    `partition.analysis` (`_chain_arcs`) and the cells of xp and yp, or
    None when the system has no stable partition at `partition.REFINE_CAP`,
    a point has no cell, or two edges share an id."""
    try:
        kept = partition.analysis(spec)
        a, b = kept.partition.cell_of_point(xp), kept.partition.cell_of_point(yp)
    except (*partition.NO_STABLE_PARTITION, OutOfDomain):
        return None
    if len(set(kept.chain.labels)) < len(kept.chain.labels):
        return None
    return _chain_arcs(spec.cell_index.scale, kept.chain), a, b


def _chain_arcs(scale: int, chain):
    """Per state, its arcs of positive probability in edge order as
    (edge index, edge id, probability numerator over scale, target), and
    every edge's numerator (0 where the state lacks it) and target."""
    n_labels = len(chain.labels)
    num = [[0] * n_labels for _ in range(chain.n_states)]
    tgt = [[-1] * n_labels for _ in range(chain.n_states)]
    for k, label in enumerate(chain.labels):
        for s in range(chain.n_states):
            p = chain.prob.get((s, label))
            if p is not None:
                num[s][k] = p.numerator * (scale // p.denominator)
                tgt[s][k] = chain.target[(s, label)]
    out = [[(k, label, row[k], tgt[s][k]) for k, label in enumerate(chain.labels) if row[k]]
           for s, row in enumerate(num)]
    return out, num, tgt


def _pair_layers(arcs, a: int, b: int, depth: int):
    """The pair walk from the cells a and b, one layer per depth, on the
    chain instead of the words.

    Layer k maps (x's cell, y's cell, exact ratio px/py in lowest terms)
    to the summed masses (sum px, sum py) of the depth-k words that lead
    there with positive y-mass, as integers over scale**k, and to the
    key's lex-least word by edge index. The words that lose their y-mass
    at depth k go to one dead bucket, with their summed x-mass and
    lex-least word. Yields (word, x cell, y cell, px, py) per key and
    (word, None, None, px, 0) per nonempty dead bucket, depth by depth:
    the nodes of `_code_walk`, with the words of a key or of a bucket
    merged into one.

    A fold over the nodes gives the walker's answer because the words of a
    key share their ratio, so a threshold test on the sums answers it for
    each word, and because within a layer the keys come in the order of
    their words: a key's first parent in its layer's order, and its
    smallest edge from there, give its lex-least word. The masses are
    the words' own by the lemma in the module docstring.

    A layer has at most as many keys as the walker has words at its depth,
    and each key costs one pass over its arcs, as a word does.
    """
    out, num, tgt = arcs
    layer = {(a, b, 1, 1): [1, 1, ()]}
    yield (), a, b, 1, 1
    for _k in range(depth):
        nxt = {}
        dead, dead_word = 0, None
        for (s, t, rn, rd), (px, py, word) in layer.items():
            wy, ty = num[t], tgt[t]
            for k, eid, w, s2 in out[s]:
                v = wy[k]
                if not v:
                    dead += px * w
                    if dead_word is None:
                        dead_word = word + (eid,)
                    continue
                n2, d2 = rn * w, rd * v
                g = math.gcd(n2, d2)
                key = (s2, ty[k], n2 // g, d2 // g)
                entry = nxt.get(key)
                if entry is None:
                    nxt[key] = [px * w, py * v, word + (eid,)]
                else:
                    entry[0] += px * w
                    entry[1] += py * v
        for (s, t, _rn, _rd), (px, py, word) in nxt.items():
            yield word, s, t, px, py
        if dead_word is not None:
            yield dead_word, None, None, dead, 0
        layer = nxt


def _pair_walk(spec: SystemSpec, x: PointLike, y: PointLike, depth: int, budget: int):
    """(scale, nodes) of the pair walk to `depth`: `_pair_layers` on the
    chain where `_chain_start` finds one, `_code_walk` otherwise. Both
    check their arguments by `_check_walk` first, so the errors are the
    walker's on either path."""
    xp, yp = _check_walk(spec, x, y, depth, budget)
    start = _chain_start(spec, xp, yp)
    if start is None:
        return _code_walk(spec, xp, yp, depth, budget)
    return spec.cell_index.scale, _pair_layers(*start, depth)


# ---------------------------------------------------------------------------
# cylinder masses

def cylinder_measure(spec: SystemSpec, x: PointLike, word: Word) -> Fraction:
    """Exact mass of the cylinder of all paths starting with `word`.

    Each letter finds the point's row by one exact bisection on the
    system's `CellIndex` and applies the map in integers. The product
    short-circuits at the first zero factor; maps past that point are
    never applied, so edges only need to act where their probability is
    positive, and letters past it are not looked up.
    """
    p = as_point(x)
    spec.require_in_domain(p)
    index = spec.cell_index
    n, d, tag = p.value.numerator, p.value.denominator, p.irrational_tag
    mass = 1   # over scale**len(word)
    for edge_id in word:
        k = index.position.get(edge_id)
        if k is None:
            spec.edge(edge_id)   # raises UnknownEdge
        factor = index.numerators[index.cuts.row_of(n, d, tag)][k]
        if factor == 0:
            return Fraction(0)
        mass *= factor
        a, c, m = index.maps[k]
        n, d, tag = a * n + c * d, m * d, tag and a != 0
    return Fraction(mass, index.scale ** len(word))


def enumerate_cylinders(spec: SystemSpec, x: PointLike, depth: int, *,
                        include_zero: bool = False,
                        budget: int = DEFAULT_WORD_BUDGET) -> list:
    """All depth-n words with their exact masses (zero words optional)."""
    scale, nodes = _code_walk(spec, x, None, depth, budget)
    den = scale ** depth
    rows = [(word, Fraction(px, den)) for word, _x, _y, px, _py in nodes
            if len(word) == depth]
    if not include_zero:
        return rows
    mass = dict(rows)
    return [(word, mass.get(word, Fraction(0)))
            for word in itertools.product(spec.edge_ids, repeat=depth)]


# ---------------------------------------------------------------------------
# martingale defect

def martingale_discrepancy(spec: SystemSpec, x: PointLike, y: PointLike,
                           m: int, n: int) -> Fraction:
    """Largest defect of the prefix-ratio martingale identity.

    For each depth-m word C with positive y-mass, compares the exact
    integral of the depth-n ratio over C against the integral of the
    depth-m ratio (both under the y-measure). The defect is zero whenever
    no positive-x-mass word with zero y-mass appears by depth n, which is
    the regime where the conditional-expectation identity holds.

    C's defect is the x-mass of its depth-n extensions with zero y-mass:
    P_x(C) times the x-probability, from the cells (a, b) that C leads x
    and y to, of meeting an edge of zero y-probability within n - m
    steps. So on the chain the defect is the largest, over the depth-m
    cell pairs (a, b), of the largest depth-m x-mass that reaches (a, b)
    with positive y-mass times that probability from (a, b): two small
    dynamic programs on cell pairs (`_martingale_on_chain`). Without a
    chain the words are walked.
    """
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    if m < 0:
        raise ValueError(f"depth must be >= 0, got {m}")
    xp, yp = _check_walk(spec, x, y, n, DEFAULT_WORD_BUDGET)
    scale = spec.cell_index.scale
    start = _chain_start(spec, xp, yp)
    if start is not None:
        return Fraction(_martingale_on_chain(scale, *start, m, n), scale ** n)
    _scale, nodes = _code_walk(spec, xp, yp, n, DEFAULT_WORD_BUDGET)
    up = scale ** (n - m)   # takes a depth-m mass numerator over to scale**n
    worst = 0
    head = below = 0   # x-masses of a depth-m word and of its depth-n words
    # pre-order: a depth-m word's descendants follow it, before the next one
    for word, _x, _y, px, py in nodes:
        if py == 0:
            # zero y-mass removes the word from the depth-m index set and
            # its descendants from the depth-n integral
            continue
        if len(word) == m:
            worst = max(worst, abs(below - head * up))
            head, below = px, 0
        if len(word) == n:
            below += px
    return Fraction(max(worst, abs(below - head * up)), scale ** n)


def _martingale_on_chain(scale: int, arcs, a: int, b: int, m: int, n: int) -> int:
    """The martingale defect from the cells a and b, over scale**n.

    `best` maps each cell pair reached at depth m with positive y-mass to
    the largest x-mass of a word reaching it, over scale**m. `reach[t]`
    holds the pairs t steps further on, along edges both sides take. Then,
    backwards from t = h - 1 (h = n - m), `lost` maps each pair of
    `reach[t]` to the x-probability of meeting an edge of zero
    y-probability within h - t steps, over scale**(h - t).
    """
    out, num, tgt = arcs
    best = {(a, b): 1}
    for _k in range(m):
        nxt = {}
        for (s, t), px in best.items():
            wy, ty = num[t], tgt[t]
            for k, _eid, w, s2 in out[s]:
                if wy[k]:
                    key = (s2, ty[k])
                    nxt[key] = max(nxt.get(key, 0), px * w)
        best = nxt
    h = n - m
    reach = [best.keys()]
    for _t in range(h - 1):
        reach.append({(s2, tgt[u][k]) for s, u in reach[-1]
                      for k, _eid, _w, s2 in out[s] if num[u][k]})
    lost: dict = {}
    for t in reversed(range(h)):
        gone = scale ** (h - t - 1)   # an edge y lacks loses its whole x-mass
        lost = {(s, u): sum(w * (lost.get((s2, tgt[u][k]), 0) if num[u][k] else gone)
                            for k, _eid, w, s2 in out[s])
                for s, u in reach[t]}
    return max((px * lost.get(key, 0) for key, px in best.items()), default=0)


# ---------------------------------------------------------------------------
# tail masses

def tail_mass_exact(spec: SystemSpec, x: PointLike, y: PointLike, n: int,
                    M) -> Fraction:
    """Exact x-mass of depth-n words whose prefix ratio exceeds M.

    Words with positive x-mass and zero y-mass (infinite ratio) always
    count; once the y-mass dies the whole subtree's x-mass is credited in
    one step via additivity. Folds over the chain layers where the system
    has a stable partition (`_pair_walk`).
    """
    M = Fraction(M)
    a, b = M.numerator, M.denominator
    scale, nodes = _pair_walk(spec, x, y, n, DEFAULT_WORD_BUDGET)
    power = [scale ** k for k in range(n + 1)]
    total = 0   # over scale**n
    for word, _x, _y, px, py in nodes:
        k = len(word)
        if py == 0:
            total += px * power[n - k]
        elif k == n and px * b > a * py:
            total += px
    return Fraction(total, power[n])


# ---------------------------------------------------------------------------
# xi: graded evidence on mutual absolute continuity

DEFAULT_M_GRID = tuple(Fraction(2) ** k for k in range(1, 11))
# a tail mass within this of 1 at every M of a depth makes the scan `persistent`
PERSISTENT_TOL = Fraction(1, 10 ** 6)


@dataclass
class XiParams:
    """Finite-depth and Monte Carlo budgets for the tail-mass scan."""

    n_exact: int = 10
    m_grid: tuple = DEFAULT_M_GRID
    n_mc: int = 2000
    num_samples: int = 4000
    seed: Optional[int] = None
    drift_z: float = 4.0
    budget: int = DEFAULT_WORD_BUDGET


@dataclass
class XiReport:
    """Evidence about whether the path measures from x and y share null sets."""

    x: Point
    y: Point
    exact_tail_table: dict          # (n, M) -> Fraction, combined both directions
    infinity_witness: Optional[Word]
    mc_drift: float                 # mean per-step log-ratio increment, x-direction
    mc_drift_stderr: float
    mc_drift_reverse: float
    mc_drift_reverse_stderr: float
    mc_tail_estimates: dict         # M -> combined sampled tail frequency
    mc_infinity_fraction: float
    verdict: str                    # equivalent | singular_certified |
                                    # singular_statistical | inconclusive
    seed: int
    num_samples: int
    n_mc: int
    pair_certificate: object = None  # exact verdict of the points' cells, if any

    @property
    def exact(self) -> bool:
        """True when the verdict rests on an exact certificate: a witness
        word, or the product-graph proof that the measures are equivalent."""
        return self.verdict == "singular_certified" or (
            self.verdict == "equivalent" and self.pair_certificate is not None
            and self.pair_certificate.kind == "balanced_product")

    def to_csv(self) -> str:
        lines = ["n,M,exact_tail"]
        for (n, M), mass in sorted(self.exact_tail_table.items()):
            lines.append(f"{n},{format_rational(M)},{format_rational(mass)}")
        lines.append("verdict,drift,stderr,samples,seed")
        lines.append(f"{self.verdict},{self.mc_drift!r},{self.mc_drift_stderr!r},"
                     f"{self.num_samples},{self.seed}")
        return "\n".join(lines) + "\n"


def _exact_tail_scan(spec: SystemSpec, x: PointLike, y: PointLike, params: XiParams):
    """One pair walk (`_pair_walk`) collecting x-direction tail masses
    for every depth up to n_exact and every grid threshold, and the
    lex-least by edge index among the shortest words with positive x-mass
    and zero y-mass, or None; the x-masses at each depth must sum to 1."""
    n_exact = params.n_exact
    # called first: it checks n_exact and the budget before the tables are sized
    scale, nodes = _pair_walk(spec, x, y, n_exact, params.budget)
    power = [scale ** k for k in range(n_exact + 1)]
    grid = sorted({Fraction(M) for M in params.m_grid})
    ratios = [(M.numerator, M.denominator) for M in grid]
    # depth n's x-mass and tail masses per threshold, over scale**n
    depth_mass = [0] * (n_exact + 1)
    tails = [[0] * len(grid) for _ in range(n_exact + 1)]
    witness = None
    for word, _x, _y, px, py in nodes:
        k = len(word)
        if py == 0:
            # the whole subtree keeps x-mass px and zero y-mass
            if witness is None or k < len(witness):
                witness = word
            for n in range(k, n_exact + 1):
                mass = px * power[n - k]
                depth_mass[n] += mass
                tails[n] = [t + mass for t in tails[n]]
        elif k:
            depth_mass[k] += px
            row = tails[k]
            for i, (a, b) in enumerate(ratios):
                if px * b > a * py:
                    row[i] += px
                else:
                    break  # grid ascending, larger M cannot be exceeded
    for n in range(1, n_exact + 1):
        if depth_mass[n] != power[n]:
            raise DegenerateSampling(f"depth-{n} masses sum to "
                                     f"{format_rational(Fraction(depth_mass[n], power[n]))}, not 1")
    return {(n, M): Fraction(tails[n][i], power[n])
            for n in range(1, n_exact + 1) for i, M in enumerate(grid)}, witness


def _mc_ensemble(tables, xp: Point, yp: Point, params: XiParams):
    """Both Monte Carlo directions as one lockstep ensemble of 2n lanes.
    Lane i < n samples from x under its own measure and lane n + i from
    y; each tracks the log likelihood ratio against the other point's
    measure, whose path (the shadow) takes the same edge labels. Lane j
    draws from substream j. Returns the final log ratios, the infinity
    mask and, per direction, the first (lane within the direction, step)
    at which a ratio became infinite, or None."""
    n, m = params.num_samples, params.n_mc
    x, y = float(xp.value), float(yp.value)
    positions = np.repeat([[x, y], [y, x]], n, axis=1)
    tags = np.repeat([[xp.irrational_tag, yp.irrational_tag],
                      [yp.irrational_tag, xp.irrational_tag]], n, axis=1)
    paths = sampling.VectorPaths(tables, positions, tags,
                                 sampling.LaneStreams(params.seed, np.arange(2 * n)))
    logp, n_edges = tables.logp_flat, tables.n_edges
    log_ratio = np.zeros(2 * n, dtype=np.float64)
    inf_mask = np.zeros(2 * n, dtype=bool)
    first = [None, None]
    # a ratio turns +inf at its first -inf shadow increment and stays +inf,
    # since the sampled path's own increment is always finite
    can_vanish = bool(np.isneginf(logp).any())

    for k in range(m):
        rows, idx = paths.step()
        lx, ly = logp[rows * n_edges + idx]
        if can_vanish:
            neg = ly == -np.inf
            if None in first and neg.any():
                newly = neg & ~inf_mask
                for h in (0, 1):
                    half = newly[h * n:(h + 1) * n]
                    if first[h] is None and half.any():
                        first[h] = (int(np.argmax(half)), k)
            inf_mask |= neg
        log_ratio += lx
        log_ratio -= ly
    return log_ratio, inf_mask, first


def _drift_stats(per_step: np.ndarray):
    if len(per_step) == 0:
        return 0.0, 0.0, float("inf")
    drift = float(np.mean(per_step))
    if len(per_step) < 2:
        return drift, 0.0, (0.0 if drift == 0 else float("inf"))
    stderr = float(np.std(per_step, ddof=1) / math.sqrt(len(per_step)))
    if stderr == 0.0:
        return drift, 0.0, (0.0 if drift == 0 else float("inf"))
    return drift, stderr, drift / stderr


def xi_estimate(spec: SystemSpec, x: PointLike, y: PointLike,
                params: Optional[XiParams] = None) -> XiReport:
    """Graded verdict on mutual absolute continuity of the path measures.

    Exact phase: tail masses for every depth up to n_exact and every grid
    threshold, in both directions; any positive-mass word whose opposite
    mass is zero is an exact singularity certificate, and nothing else
    is: tail masses near 1 at every threshold only count as statistical
    evidence. Monte Carlo phase: one lockstep ensemble of seeded sample
    paths in both directions (`_mc_ensemble`) estimates the per-step
    log-ratio drift (positive drift means the ratios diverge) and
    large-depth tail frequencies. When the system has a stable partition,
    the exact verdict for the two points' cells (`partition.pair_certificate`)
    comes before the statistical rules: a separating word certifies
    singularity, a balanced product graph gives `equivalent`, and an
    unbalanced one gives `singular_statistical`, since only a word may
    certify. The verdict never claims more than its evidence grade.
    """
    params = params or XiParams()
    if params.seed is None:
        raise ValueError("xi_estimate requires an explicit seed")
    sampling.check_seed(params.seed)
    for name in ("num_samples", "n_mc"):
        if getattr(params, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(params, name)}")
    xp, yp = as_point(x), as_point(y)
    spec.require_in_domain(xp)
    spec.require_in_domain(yp)

    tails_x, witness_x = _exact_tail_scan(spec, xp, yp, params)
    tails_y, witness_y = _exact_tail_scan(spec, yp, xp, params)
    table = {key: tails_x[key] + tails_y[key] for key in tails_x}
    witness = witness_x if witness_x is not None else witness_y

    tables = sampling.EvalTables(spec)
    half = params.num_samples
    log_ratio, inf_mask, first = _mc_ensemble(tables, xp, yp, params)
    fwd, rev = log_ratio[:half], log_ratio[half:]
    drift, stderr, z_fwd = _drift_stats(fwd[~inf_mask[:half]] / params.n_mc)
    drift_rev, stderr_rev, z_rev = _drift_stats(rev[~inf_mask[half:]] / params.n_mc)

    grid = sorted(Fraction(M) for M in params.m_grid)
    mc_tails = {}
    for M in grid:
        logm = math.log(M)
        mc_tails[M] = float(np.mean(fwd > logm)) + float(np.mean(rev > logm))
    inf_fraction = float(np.count_nonzero(inf_mask) / (2 * half))

    # a sampled infinite ratio names a concrete word: replay its lane and
    # verify the word exactly
    if witness is None:
        for h, (start_pt, other_pt) in enumerate(((xp, yp), (yp, xp))):
            if first[h] is None:
                continue
            i, k = first[h]
            word = tuple(tables.edge_ids[j] for j in sampling.replay_lane(
                tables, start_pt.value, start_pt.irrational_tag, params.seed,
                h * half + i, k + 1))
            if (cylinder_measure(spec, start_pt, word) > 0
                    and cylinder_measure(spec, other_pt, word) == 0):
                witness = word
                break

    cert = partition.pair_certificate(spec, xp, yp)
    if witness is None and cert is not None and cert.kind == "support_separation":
        witness = cert.word

    persistent = any(all(table[(n, M)] >= 1 - PERSISTENT_TOL for M in grid)
                     for n in range(1, params.n_exact + 1))
    all_tails_zero = all(mass == 0 for mass in table.values())

    # only an exact witness word certifies: a large likelihood ratio at a
    # finite depth (`persistent`) does not prove singularity
    if witness is not None:
        verdict = "singular_certified"
    elif cert is not None and cert.kind == "balanced_product":
        verdict = "equivalent"
    elif cert is not None and cert.kind == "unbalanced_product":
        verdict = "singular_statistical"
    elif persistent or z_fwd > params.drift_z or z_rev > params.drift_z:
        verdict = "singular_statistical"
    elif all_tails_zero and abs(z_fwd) < params.drift_z and abs(z_rev) < params.drift_z:
        verdict = "equivalent"
    else:
        verdict = "inconclusive"

    return XiReport(
        x=xp, y=yp, exact_tail_table=table, infinity_witness=witness,
        mc_drift=drift, mc_drift_stderr=stderr,
        mc_drift_reverse=drift_rev, mc_drift_reverse_stderr=stderr_rev,
        mc_tail_estimates=mc_tails, mc_infinity_fraction=inf_fraction,
        verdict=verdict, seed=params.seed, num_samples=params.num_samples,
        n_mc=params.n_mc, pair_certificate=cert)
