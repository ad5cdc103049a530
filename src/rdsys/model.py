"""Core types for random dynamical systems on a rational interval.

A system is a finite family of affine maps, each paired with a probability
function, such that the probabilities sum to one at every point of the
domain. All coefficients, breakpoints and probability values are exact
rationals. Irrational points are carried as a boolean tag plus a rational
numeric approximation: arithmetic on them is approximate, but probability
functions that only depend on rationality read the tag exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np


# ---------------------------------------------------------------------------
# errors

class RdsError(Exception):
    """Base class for all errors raised by this package."""


class UnknownEdge(RdsError):
    pass


class OutOfDomain(RdsError):
    pass


class OverlappingPieces(RdsError):
    """Pieces of a piecewise-constant function fail to partition the domain."""


class BudgetExceeded(RdsError):
    pass


class ZeroMassState(RdsError):
    """Probabilities at a reachable point do not sum to one."""


class DegenerateSampling(RdsError):
    """Exact enumeration found a mass deficiency (spec bug)."""


class RefinementBudgetExceeded(BudgetExceeded):
    """No finite stable partition found below the breakpoint cap."""


class NonConstantOnCell(RdsError):
    pass


class ImageSplitsCells(RdsError):
    pass


class InconsistentMerge(RdsError):
    """The balanced pairs are not the same-class pairs, or a class's states
    differ in their label supports or in the classes their labels lead to."""


class SingularSystem(RdsError):
    pass


class EmptyTrace(RdsError):
    pass


class EmptySamples(RdsError):
    pass


class DegenerateCellOnly(RdsError):
    pass


class SpecFileError(RdsError):
    """System file does not conform to the key-value schema."""


# ---------------------------------------------------------------------------
# rationals

def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as `p/q` or `p`."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


Word = tuple  # of edge ids (str)


def format_word(word: Word) -> str:
    return ".".join(word) if word else "-"


# ---------------------------------------------------------------------------
# points and intervals

@dataclass(frozen=True)
class Point:
    """A domain point: exact rational value plus an irrationality tag.

    If the tag is set, `value` is only a numeric stand-in and the point is
    treated as irrational by rationality-predicate probability functions.
    Interval membership always uses `value`.
    """

    value: Fraction
    irrational_tag: bool = False

    def __str__(self) -> str:
        base = format_rational(self.value)
        return f"irr:{base}" if self.irrational_tag else base


PointLike = Union[Point, Fraction, int, str]


def as_point(x: PointLike) -> Point:
    if isinstance(x, Point):
        return x
    if isinstance(x, str):
        s = x.strip()
        if s.startswith("irr:"):
            return Point(parse_rational(s[4:]), irrational_tag=True)
        return Point(parse_rational(s))
    return Point(Fraction(x))


def _start_key(lo: Fraction, own_lo: bool):
    # Position of the interval's left boundary on the split line: an owned
    # endpoint sits at the point itself, an open one just to the right.
    return (lo, 0 if own_lo else 1)


def _end_key(hi: Fraction, own_hi: bool):
    return (hi, 0 if own_hi else -1)


@dataclass(frozen=True)
class Interval:
    """A nonempty subinterval with explicit endpoint ownership.

    `own_lo`/`own_hi` state whether each endpoint belongs to the interval,
    so `(1/9, 1/3]` and `[0, 1/9]` are distinct exact objects. Degenerate
    single-point intervals (lo == hi, both owned) are allowed.
    """

    lo: Fraction
    hi: Fraction
    own_lo: bool = True
    own_hi: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise RdsError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.own_lo and self.own_hi):
            raise RdsError("degenerate interval must own both endpoints")

    @property
    def start_key(self):
        return _start_key(self.lo, self.own_lo)

    @property
    def end_key(self):
        return _end_key(self.hi, self.own_hi)

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains_value(self, v) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.own_lo:
            return False
        if v == self.hi and not self.own_hi:
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        return (self.start_key <= other.start_key
                and other.end_key <= self.end_key)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def interior_point(self) -> Fraction:
        """A rational strictly inside (the point itself if degenerate)."""
        if self.is_degenerate:
            return self.lo
        return self.midpoint()

    def __str__(self) -> str:
        if self.is_degenerate:
            return "{%s}" % format_rational(self.lo)
        left = "[" if self.own_lo else "("
        right = "]" if self.own_hi else ")"
        return f"{left}{format_rational(self.lo)},{format_rational(self.hi)}{right}"


# ---------------------------------------------------------------------------
# maps

@dataclass(frozen=True)
class AffineMap:
    """x -> slope*x + intercept with exact rational coefficients."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "intercept", Fraction(self.intercept))

    def apply_value(self, v):
        return self.slope * v + self.intercept

    def apply_point(self, p: Point) -> Point:
        # rational coefficients: an irrational input stays irrational unless
        # the slope collapses everything to the intercept
        tag = p.irrational_tag and self.slope != 0
        return Point(self.slope * p.value + self.intercept, tag)

    def apply_interval(self, iv: Interval) -> Interval:
        a = self.apply_value(iv.lo)
        b = self.apply_value(iv.hi)
        if self.slope > 0:
            return Interval(a, b, iv.own_lo, iv.own_hi)
        if self.slope < 0:
            return Interval(b, a, iv.own_hi, iv.own_lo)
        return Interval(self.intercept, self.intercept)

    def preimage_value(self, t: Fraction) -> Fraction:
        if self.slope == 0:
            raise RdsError("constant map has no pointwise preimage")
        return (Fraction(t) - self.intercept) / self.slope

    def inverse(self) -> "AffineMap":
        if self.slope == 0:
            raise RdsError("constant map is not invertible")
        return AffineMap(1 / self.slope, -self.intercept / self.slope)

    def __str__(self) -> str:
        return f"x -> {format_rational(self.slope)}*x + {format_rational(self.intercept)}"


# ---------------------------------------------------------------------------
# probability functions

@dataclass(frozen=True)
class PiecewiseConstant:
    """A probability function constant on finitely many interval pieces."""

    pieces: tuple  # of (Interval, Fraction)

    def __post_init__(self):
        norm = tuple((iv, Fraction(val)) for iv, val in self.pieces)
        object.__setattr__(self, "pieces", norm)

    def value_at(self, p: Point) -> Fraction:
        for iv, val in self.pieces:
            if iv.contains_value(p.value):
                return val
        raise OverlappingPieces(f"no piece covers x={p.value}")

    def coverage_problems(self, domain: Interval) -> list:
        """Exact gap/overlap/ownership defects against the domain."""
        problems = []
        if not self.pieces:
            return ["no pieces"]
        ivs = sorted((iv for iv, _ in self.pieces), key=lambda iv: iv.start_key)
        if ivs[0].start_key != domain.start_key:
            problems.append(f"first piece starts at {ivs[0]} not domain start")
        for left, right in zip(ivs, ivs[1:]):
            if left.hi != right.lo or left.own_hi == right.own_lo:
                problems.append(f"pieces {left} and {right} do not abut exactly")
        if ivs[-1].end_key != domain.end_key:
            problems.append(f"last piece ends at {ivs[-1]} not domain end")
        for iv, val in self.pieces:
            if not (0 <= val <= 1):
                problems.append(f"value {format_rational(val)} outside [0,1] on {iv}")
        return problems

    def boundary_cuts(self, domain: Interval) -> list:
        """Interior discontinuity cuts as (point, side) with side +1 when the
        point belongs to the left piece and -1 when it belongs to the right."""
        cuts = []
        ivs = sorted((iv for iv, _ in self.pieces), key=lambda iv: iv.start_key)
        for left, right in zip(ivs, ivs[1:]):
            t = left.hi
            if domain.lo < t < domain.hi or t in (domain.lo, domain.hi):
                cuts.append((t, +1 if left.own_hi else -1))
        return cuts


@dataclass(frozen=True)
class RationalityPredicate:
    """A probability function that depends only on rationality of the point."""

    value_on_rationals: Fraction
    value_on_irrationals: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value_on_rationals", Fraction(self.value_on_rationals))
        object.__setattr__(self, "value_on_irrationals", Fraction(self.value_on_irrationals))

    def value_at(self, p: Point) -> Fraction:
        return self.value_on_irrationals if p.irrational_tag else self.value_on_rationals

    def constant_value(self):
        if self.value_on_rationals == self.value_on_irrationals:
            return self.value_on_rationals
        return None


ProbabilityFunction = Union[PiecewiseConstant, RationalityPredicate]


# ---------------------------------------------------------------------------
# system

@dataclass(frozen=True)
class Edge:
    edge_id: str
    map: AffineMap
    prob: ProbabilityFunction


@dataclass(frozen=True)
class SystemSpec:
    """A random dynamical system on a rational interval."""

    domain: Interval
    edges: tuple  # of Edge

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    @property
    def edge_ids(self) -> tuple:
        return tuple(e.edge_id for e in self.edges)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.edge_id == edge_id:
                return e
        raise UnknownEdge(f"no edge {edge_id!r}; have {list(self.edge_ids)}")

    @property
    def has_rationality_edges(self) -> bool:
        return any(isinstance(e.prob, RationalityPredicate) for e in self.edges)

    def require_in_domain(self, p: Point) -> None:
        if not self.domain.contains_value(p.value):
            raise OutOfDomain(f"point {p} outside domain {self.domain}")

    @functools.cached_property
    def cell_index(self) -> "CellIndex":
        """The system's `CellIndex`, built on first use and kept. It is
        not a field, so it takes no part in equality or hashing."""
        return CellIndex(self)


# ---------------------------------------------------------------------------
# discrete measures

@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure on the domain."""

    atoms: tuple  # of (Point, Fraction)

    def __post_init__(self):
        norm = tuple((p, Fraction(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", norm)
        for p, w in norm:
            if w < 0:
                raise RdsError(f"negative weight {w} at {p}")
        if sum((w for _, w in norm), Fraction(0)) != 1:
            raise RdsError("atom weights must sum to exactly 1")

    @staticmethod
    def dirac(x: PointLike) -> "DiscreteMeasure":
        return DiscreteMeasure(((as_point(x), Fraction(1)),))

    @property
    def total_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))


# ---------------------------------------------------------------------------
# pointwise operations

def prob(spec: SystemSpec, edge_id: str, x: PointLike) -> Fraction:
    """Exact probability of drawing `edge_id` at x."""
    p = as_point(x)
    spec.require_in_domain(p)
    return spec.edge(edge_id).prob.value_at(p)


def apply_map(spec: SystemSpec, edge_id: str, x: PointLike) -> Point:
    """Exact image of x under the edge's affine map."""
    p = as_point(x)
    spec.require_in_domain(p)
    return spec.edge(edge_id).map.apply_point(p)


def _weighted_images(spec: SystemSpec, p: Point):
    """(edge, p_e(p), w_e(p)) for each edge of positive probability at the
    domain point p, in edge order, reading each p_e(p) once by `value_at`.
    The operator, its adjoint and the reduced-system check fold over it."""
    for e in spec.edges:
        pe = e.prob.value_at(p)
        if pe != 0:
            yield e, pe, e.map.apply_point(p)


def markov_operator(spec: SystemSpec, f: Callable[[Point], object], x: PointLike):
    """One-step averaging of f: sum of p_e(x) * f(w_e(x)).

    Edges with zero probability at x are skipped, so f is never evaluated
    on images the process cannot reach in one step.
    """
    p = as_point(x)
    spec.require_in_domain(p)
    return sum((pe * f(q) for _e, pe, q in _weighted_images(spec, p)), Fraction(0))


def push_forward(spec: SystemSpec, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Adjoint one-step action on a discrete measure, coalescing atoms exactly."""
    acc: dict = {}
    for p, w in nu.atoms:
        spec.require_in_domain(p)
        if w == 0:
            continue
        for _e, pe, q in _weighted_images(spec, p):
            acc[q] = acc.get(q, Fraction(0)) + w * pe
    atoms = tuple(sorted(((q, w) for q, w in acc.items() if w != 0),
                         key=lambda item: (item[0].value, item[0].irrational_tag)))
    return DiscreteMeasure(atoms)


# ---------------------------------------------------------------------------
# validation

@dataclass
class ValidationIssue:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class ValidationReport:
    ok: bool
    cell_sums: list        # of (cell description, Fraction sum)
    issues: list           # of ValidationIssue

    def __str__(self) -> str:
        lines = [f"status: {'OK' if self.ok else 'INVALID'}"]
        for desc, total in self.cell_sums:
            lines.append(f"sum on {desc} = {format_rational(total)}")
        for issue in self.issues:
            lines.append(str(issue))
        return "\n".join(lines)


def common_refinement_cells(spec: SystemSpec) -> list:
    """Cells of the coarsest interval partition on which every piecewise
    probability function is constant."""
    cuts = set()
    for e in spec.edges:
        if isinstance(e.prob, PiecewiseConstant):
            for t, side in e.prob.boundary_cuts(spec.domain):
                cuts.add((t, side))
    return cells_from_cuts(spec.domain, cuts)


def cell_probability_rows(spec: SystemSpec) -> tuple:
    """The common refinement cells and, per row, the exact probability of
    every edge in edge order. The rows are the cells, crossed with the
    rational/irrational tag (row 2*cell + tag) when any edge reads it.
    A piecewise function is read in one sweep of its pieces in order,
    since every cell lies inside one piece and the cells are ordered; a
    cell that no piece holds (a gap between pieces) raises
    `OverlappingPieces`."""
    cells = common_refinement_cells(spec)
    tags = (False, True) if spec.has_rationality_edges else (False,)
    columns = []
    for e in spec.edges:
        if isinstance(e.prob, RationalityPredicate):
            columns.append([e.prob.value_on_irrationals if tag
                            else e.prob.value_on_rationals
                            for _cell in cells for tag in tags])
            continue
        pieces = sorted(e.prob.pieces, key=lambda piece: piece[0].start_key)
        column, i = [], 0
        for cell in cells:
            while i < len(pieces) and not pieces[i][0].contains_interval(cell):
                i += 1
            if i == len(pieces):
                raise OverlappingPieces(f"edge {e.edge_id}: no piece holds cell {cell}")
            column += [pieces[i][1]] * len(tags)
        columns.append(column)
    return cells, [[column[r] for column in columns]
                   for r in range(len(cells) * len(tags))]


class Cuts:
    """The cut table of an ordered list of cells: which row holds a point,
    exactly or in float64. Every cell lookup reads one.

    * exact: (p, q, owned by the left cell) for each cut p/q between
      neighbouring cells;
    * table: the cut values in float64, where the first cut of each float
      value that its left cell owns moves up to the next float, so that
      the number of entries at or below a float position is its cell. Only
      a position within rounding of a cut can be misfiled, and two cuts
      that round to one float file it by the first cut's ownership;
    * tagged: whether the rows are the cells crossed with the
      rational/irrational tag (row 2*cell + tag);
    * span: the interval the cells cover.
    """

    def __init__(self, cells: Sequence[Interval], tagged: bool):
        ends = cells[:-1]
        self.exact = [(c.hi.numerator, c.hi.denominator, c.own_hi) for c in ends]
        values = np.array([float(c.hi) for c in ends], dtype=np.float64)
        nudge = np.array([c.own_hi for c in ends], dtype=bool)
        nudge[1:] &= values[1:] != values[:-1]
        self.table = np.sort(np.where(nudge, np.nextafter(values, np.inf), values))
        self.tagged = tagged
        self.span = Interval(cells[0].lo, cells[-1].hi, cells[0].own_lo, cells[-1].own_hi)

    def row_of(self, n: int, d: int, tag: bool, closed: bool = True) -> int:
        """The row of the point n/d (d > 0) with its tag, by one exact
        bisection on the cuts: the cell before the first cut p/q with
        n/d < p/q, or equal to it and owned by the left cell. With
        `closed` false, the row of the points just right of n/d. The
        point is not checked against `span`."""
        cuts = self.exact
        lo, hi = 0, len(cuts)
        while lo < hi:
            mid = (lo + hi) // 2
            p, q, owned_left = cuts[mid]
            if n * q < p * d or (closed and owned_left and n * q == p * d):
                hi = mid
            else:
                lo = mid + 1
        return 2 * lo + tag if self.tagged else lo

    def row_of_interval(self, iv: Interval, tag: bool) -> Optional[int]:
        """The row of the cell that holds all of `iv`, with the tag; None
        when `iv` crosses a cut or reaches outside `span`."""
        if not self.span.contains_interval(iv):
            return None
        row = self.row_of(iv.lo.numerator, iv.lo.denominator, tag, iv.own_lo)
        k = row // 2 if self.tagged else row
        if k < len(self.exact):
            p, q, owned_left = self.exact[k]
            left, right = iv.hi.numerator * q, p * iv.hi.denominator
            if left > right or (left == right and iv.own_hi and not owned_left):
                return None
        return row

    def rows(self, positions: np.ndarray, tags) -> np.ndarray:
        """The row of every float position, with its tag (ignored unless
        `tagged`), by one `searchsorted` on `table`."""
        if not self.exact:
            # one cell: a search on no cuts costs about as much as on many
            if self.tagged:
                return np.asarray(tags, dtype=bool).astype(np.intp)
            return np.zeros(np.shape(positions), dtype=np.intp)
        rows = self.table.searchsorted(positions, side="right")
        if self.tagged:
            rows *= 2
            rows += tags
        return rows


class CellIndex:
    """Every per-cell quantity of a system, read from its common-refinement
    cells, for exact and float lookups of a point's probability row.

    * cells, rows: the cells and their probability rows, as
      `cell_probability_rows` gives them, and `tagged`: whether rows are
      crossed with the rational/irrational tag;
    * cuts: the cells' `Cuts`, whose rows are these rows;
    * scale: the common denominator of every probability; numerators: the
      rows as integer numerators over scale;
    * maps: (a, c, m) per edge for the map x -> (a*x + c)/m;
    * steps: per row, the edges of positive probability, last edge first,
      as (edge index, edge id, probability numerator, a, c, m, a != 0);
    * position: edge id -> edge index.
    """

    def __init__(self, spec: SystemSpec):
        self.cells, self.rows = cell_probability_rows(spec)
        self.tagged = spec.has_rationality_edges
        self.cuts = Cuts(self.cells, self.tagged)
        self.scale = math.lcm(*(v.denominator for row in self.rows for v in row))
        self.numerators = [[v.numerator * (self.scale // v.denominator) for v in row]
                           for row in self.rows]
        self.maps = []
        for e in spec.edges:
            s, c = e.map.slope, e.map.intercept
            m = math.lcm(s.denominator, c.denominator)
            self.maps.append((s.numerator * (m // s.denominator),
                              c.numerator * (m // c.denominator), m))
        self.steps = [tuple((k, spec.edges[k].edge_id, row[k], *self.maps[k],
                             self.maps[k][0] != 0)
                            for k in reversed(range(len(row))) if row[k] > 0)
                      for row in self.numerators]
        self.position = {}
        for k, e in enumerate(spec.edges):
            self.position.setdefault(e.edge_id, k)


def usable_cut(domain: Interval, t: Fraction, side: int) -> bool:
    """Whether the cut (t, side) bounds a cell of `domain`: it lies in the
    domain and leaves no empty cell at a domain boundary."""
    if t < domain.lo or t > domain.hi:
        return False
    if t == domain.lo and side == -1:
        return False
    return not (t == domain.hi and side == +1)


def cells_from_cuts(domain: Interval, cuts: Iterable) -> list:
    """Build the ordered interval cells determined by a set of cuts.

    A cut (t, +1) separates points <= t from points > t; a cut (t, -1)
    separates points < t from points >= t. Cuts at or beyond the domain
    boundary that would create nothing are dropped.
    """
    usable = sorted((t, side) for t, side in set(cuts) if usable_cut(domain, t, side))
    cells = []
    cur_lo, cur_own = domain.lo, domain.own_lo
    for t, side in usable:
        if side == +1:
            cells.append(Interval(cur_lo, t, cur_own, True))
            cur_lo, cur_own = t, False
        else:
            cells.append(Interval(cur_lo, t, cur_own, False))
            cur_lo, cur_own = t, True
    cells.append(Interval(cur_lo, domain.hi, cur_own, domain.own_hi))
    return cells


def validate_system(spec: SystemSpec) -> ValidationReport:
    """Check the exact unit-sum and domain-invariance requirements.

    The probability sum is evaluated piece-by-piece on every cell of the
    common breakpoint refinement (crossed with the rational/irrational tag
    when any edge uses a rationality predicate), so the verdict is exact.
    """
    issues: list = []

    seen = set()
    for e in spec.edges:
        if e.edge_id in seen:
            issues.append(ValidationIssue("DuplicateEdgeId", e.edge_id))
        seen.add(e.edge_id)

    for e in spec.edges:
        if isinstance(e.prob, PiecewiseConstant):
            for problem in e.prob.coverage_problems(spec.domain):
                issues.append(ValidationIssue("OverlappingPieces", f"edge {e.edge_id}: {problem}"))
        else:
            for val in (e.prob.value_on_rationals, e.prob.value_on_irrationals):
                if not (0 <= val <= 1):
                    issues.append(ValidationIssue(
                        "OverlappingPieces",
                        f"edge {e.edge_id}: value {format_rational(val)} outside [0,1]"))

    for e in spec.edges:
        image = e.map.apply_interval(Interval(spec.domain.lo, spec.domain.hi,
                                              spec.domain.own_lo, spec.domain.own_hi))
        if not spec.domain.contains_interval(image):
            issues.append(ValidationIssue(
                "MapEscapesDomain", f"edge {e.edge_id}: image {image} not inside {spec.domain}"))

    cell_sums = []
    coverage_broken = any(i.kind == "OverlappingPieces" for i in issues)
    if not coverage_broken:
        # with coverage intact the rows exist; the index keeps them for later
        cells, rows = spec.cell_index.cells, spec.cell_index.rows
        tags = (False, True) if spec.has_rationality_edges else (False,)
        for (cell, tag), values in zip(((c, t) for c in cells for t in tags), rows):
            total = sum(values, Fraction(0))
            desc = str(cell) + (" (irrational)" if tag else
                                (" (rational)" if len(tags) == 2 else ""))
            cell_sums.append((desc, total))
            if total != 1:
                issues.append(ValidationIssue(
                    "NonUnitSum", f"cell {desc}: sum = {format_rational(total)}"))

    return ValidationReport(ok=not issues, cell_sums=cell_sums, issues=issues)
