"""Path simulation, ergodic averages, and empirical convergence rates.

Trace positions stay exact rationals until their denominators exceed a
bit cap, then continue in float64; probabilities and edge draws remain
exact throughout. An exact position finds its cell by exact bisection on
the cuts, a float one on the float cut table of the same `Cuts`, so only
a float position within rounding of a cut can be misfiled. Test
functions are restricted to polynomials and interval indicators with
rational data so averages over exact prefixes stay exact.

A `Trace` keeps its path in arrays: every position in one float64 array
(the exact prefix rounded to nearest), the drawn edges as small unsigned
edge indexes, the exact prefix as integer pairs (n, d) advanced map by
map as the code-space walker advances them, and the tags as one count of
leading tagged positions, since a tag once lost never returns. Its
`labels`, `values` and `tags` are lazy sequence views of these, and
`ergodic_average`, `class_frequencies` and `write_csv` read the arrays in
place.

The exact prefix is drawn a `CHUNK` of draws at a time and walked one
step at a time. The float phase is drawn a `BLOCK` at a time and cut into
`SEGMENT`-step segments that `sampling.VectorPaths` advances together,
writing straight into the trace arrays; each segment is kept only if it
starts bit for bit where the sequential orbit stands, and is otherwise
redone by the scalar loop (see `simulate`), so the trace is the
sequential one whatever the system. Simulating a 10^6-step trace of
`step_ninth` raises the peak RSS of a process by 17 MiB: 8.6 MiB of
arrays, about 3 MiB of the exact prefix's integer pairs and 2.6 MiB for
its chunk of draws as Python ints. The two averages over it raise the
peak by 3.2 MiB more.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import sampling
from .model import (DegenerateCellOnly, EmptySamples, EmptyTrace, Interval,
                    NonConstantOnCell, OutOfDomain, Point, PointLike, RdsError,
                    SystemSpec, as_point, format_rational, parse_rational)

DENOMINATOR_BIT_CAP = 4096
BOOTSTRAP = 32   # reference resample pairs behind `convergence_rate`'s noise floor


# ---------------------------------------------------------------------------
# test functions

@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple  # of Fraction, ascending degree

    def __call__(self, x):
        value = x.value if isinstance(x, Point) else x
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        return "poly:" + ",".join(format_rational(c) for c in self.coeffs)


@dataclass(frozen=True)
class Indicator:
    interval: Interval

    def __call__(self, x):
        value = x.value if isinstance(x, Point) else x
        return Fraction(1) if self.interval.contains_value(value) else Fraction(0)

    def __str__(self) -> str:
        iv = self.interval
        return "ind:%s,%s,%s,%s" % (format_rational(iv.lo), format_rational(iv.hi),
                                    str(iv.own_lo).lower(), str(iv.own_hi).lower())


TestFunction = Union[Polynomial, Indicator]


def parse_test_function(text: str) -> TestFunction:
    """`poly:c0,c1,...` or `ind:lo,hi,own_lo,own_hi` with rational data."""
    kind, _, body = text.partition(":")
    if kind == "poly":
        coeffs = tuple(parse_rational(c) for c in body.split(","))
        return Polynomial(coeffs)
    if kind == "ind":
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 4:
            raise RdsError("indicator needs lo,hi,own_lo,own_hi")
        return Indicator(Interval(parse_rational(parts[0]), parse_rational(parts[1]),
                                  parts[2].lower() == "true", parts[3].lower() == "true"))
    raise RdsError(f"unknown test function {text!r} (use poly:/ind:)")


# ---------------------------------------------------------------------------
# traces

CHUNK = 1 << 16      # draws per generator call of the exact prefix; positions per pass
VIEW_BLOCK = 1 << 12  # elements a view makes at a time when iterated
BLOCK = 1 << 18      # draws per generator call of the float phase
SEGMENT = 1 << 10    # steps of one lockstep segment of a float block
WARM_UP = 64         # fewest steps a segment runs from its guess before its first index
MIN_LANES = 32       # segments a float block needs to run in lockstep: below it
                     # the scalar loop is faster (one lockstep step costs ~30 scalar ones)


class _Column(Sequence):
    """A read-only view of one column of a `Trace` over a range of its
    indexes. Slicing gives another view and copies nothing; elements are
    made when read, `VIEW_BLOCK` at a time when iterated. Views compare with
    `==` against any sequence, views included, element by element."""

    __slots__ = ("trace", "_range")
    __hash__ = None

    def __init__(self, trace: "Trace", indexes: range):
        self.trace = trace
        self._range = indexes

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return type(self)(self.trace, self._range[key])
        k = self._range[key]
        return self._read(k, k + 1)[0]

    def __iter__(self):
        r = self._range
        if r.step != 1:
            return (self._read(k, k + 1)[0] for k in r)
        return itertools.chain.from_iterable(
            self._read(lo, min(lo + VIEW_BLOCK, r.stop))
            for lo in range(r.start, r.stop, VIEW_BLOCK))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def _read(self, lo: int, hi: int) -> list:
        """The elements at trace indexes lo..hi-1, as a list."""
        raise NotImplementedError


class Labels(_Column):
    """The edge id drawn at each step."""

    __slots__ = ()

    def _read(self, lo, hi):
        return list(map(self.trace.edge_ids.__getitem__, self.trace.edges[lo:hi].tolist()))


class Values(_Column):
    """Every position: a Fraction while exact, then a float."""

    __slots__ = ()

    def _read(self, lo, hi):
        trace = self.trace
        out = [Fraction(n, d) for n, d in trace.exact[lo:hi]]
        return out + trace.positions[max(lo, len(trace.exact)):hi].tolist()


class Tags(_Column):
    """The irrationality tag of every position."""

    __slots__ = ()

    def _read(self, lo, hi):
        k = min(max(self.trace.n_tagged - lo, 0), hi - lo)
        return [True] * k + [False] * (hi - lo - k)


@dataclass(eq=False)
class Trace:
    """A simulated path: labels drawn at exact probabilities, positions
    exact up to `exact_steps` and float64 afterwards.

    * edge_ids: the system's edge ids; edges: per step, the index in
      `edge_ids` of the edge drawn (unsigned integers);
    * positions: x_0..x_n in float64, the exact prefix rounded to nearest;
    * exact: x_0..x_{exact_steps} as integer pairs (n, d), d > 0, worth
      n/d and not always in lowest terms;
    * n_tagged: how many leading positions carry the irrationality tag,
      which a position loses for good once a map of slope 0 fires.

    `labels`, `values` and `tags` are read-only sequence views of these
    (`Labels`, `Values`, `Tags`). Two traces are equal when their seeds,
    starts, exact_steps and these three views are; a trace is unhashable.
    """

    seed: int
    x0: Point
    edge_ids: list
    edges: np.ndarray
    positions: np.ndarray
    exact: list = field(repr=False)
    n_tagged: int

    @property
    def exact_steps(self) -> int:
        """The index of the last exact position."""
        return len(self.exact) - 1

    @property
    def labels(self) -> Labels:
        return Labels(self, range(len(self.edges)))

    @property
    def values(self) -> Values:
        return Values(self, range(len(self.positions)))

    @property
    def tags(self) -> Tags:
        return Tags(self, range(len(self.positions)))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.seed == other.seed and self.x0 == other.x0
                and self.exact_steps == other.exact_steps and self.labels == other.labels
                and self.values == other.values and self.tags == other.tags)

    def __len__(self) -> int:
        return len(self.edges)

    def point(self, k: int) -> Point:
        v = self.values[k]
        if isinstance(v, Fraction):
            return Point(v, self.tags[k])
        return Point(Fraction(*v.as_integer_ratio()), self.tags[k])

    def write_csv(self, fh) -> None:
        """One line per position (step, the label that led to it, the
        position and its precision), written a chunk at a time."""
        fh.write("step,label,point,precision\n")
        labels, values, n_exact = self.labels, self.values, len(self.exact)
        for lo in range(0, len(values), CHUNK):
            hi = min(lo + CHUNK, len(values))
            led = labels[lo - 1:hi - 1] if lo else ["-", *labels[:hi - 1]]
            fh.write("".join(
                f"{k},{label},{format_rational(v)},exact\n" if k < n_exact
                else f"{k},{label},{v!r},float64\n"
                for k, label, v in zip(range(lo, hi), led, values[lo:hi])))


def simulate(spec: SystemSpec, x0: PointLike, steps: int, seed: int, *,
             bit_cap: int = DENOMINATOR_BIT_CAP) -> Trace:
    """Simulate the chain from x0, drawing each edge at its exact
    probability via 64-bit thresholds from substream 0 of the seed.

    While exact, the position is an integer pair (n, d) advanced as the
    code-space walker does, to (a*n + c*d, m*d) for the map
    x -> (a*x + c)/m, and filed by one exact bisection on the cuts. When
    d passes the bit cap the pair is reduced by its gcd, and the position
    turns float if the reduced denominator still passes it.

    The float phase runs in blocks of at most `BLOCK` draws, each cut into
    segments of `SEGMENT` steps that advance in lockstep. Segment j > 0
    starts from a guess, the block's first state, run W steps on the
    draws before it, W read from the largest slope (`_warm_up`). It is
    accepted only if its state at its first index, position and tag,
    equals the true one bit for bit: the last position of segment j - 1,
    and the tag the accepted edges leave. A step is a function of the
    state and the draw alone, computed as the scalar loop computes it
    (one bisection on the same float cut table, the same thresholds, the
    same two float64 roundings), so an accepted segment is the
    sequential orbit throughout. A rejected one is
    recomputed by the scalar loop from the true state, up to the first
    step whose state equals the segment's. The trace is thus the
    sequential one bit for bit; contraction, which makes orbits on shared
    draws meet, decides only how few steps the scalar loop takes. A block
    of fewer than `MIN_LANES` segments, or a system with no warm-up (a
    slope of modulus 1 or more, or one so near 1 that W reaches
    `SEGMENT`), runs the scalar loop throughout."""
    if steps < 0:
        raise RdsError("steps must be >= 0")
    start = as_point(x0)
    spec.require_in_domain(start)
    tables = sampling.EvalTables(spec)
    rng = sampling.substream(seed, 0)

    def draw(size):
        return rng.integers(0, sampling.TWO64 - 1, endpoint=True, dtype=np.uint64, size=size)

    index = tables.index
    maps = index.maps
    slope_nonzero = tables.slope_nonzero.tolist()
    selectors = tables.row_selectors
    row_of = index.cuts.row_of

    edges = np.empty(steps, dtype=np.min_scalar_type(len(maps) - 1))
    positions = np.empty(steps + 1, dtype=np.float64)
    n, d = start.value.numerator, start.value.denominator
    tag = start.irrational_tag
    exact = [(n, d)]
    rest = None   # the draws of the chunk left when the exact prefix ends
    done = 0
    while rest is None and done < steps:
        draws = draw(min(CHUNK, steps - done))
        picks = []
        for u in draws.tolist():
            idx = bisect_right(selectors[row_of(n, d, tag)], u)
            picks.append(idx)
            a, c, m = maps[idx]
            n, d = a * n + c * d, m * d
            tag = tag and slope_nonzero[idx]
            if d.bit_length() > bit_cap:
                g = math.gcd(n, d)
                n, d = n // g, d // g
                if d.bit_length() > bit_cap:
                    rest = draws[len(picks):]
                    break
            exact.append((n, d))
        edges[done:done + len(picks)] = picks
        done += len(picks)
    positions[:len(exact)] = [n / d for n, d in exact]
    if rest is not None:
        positions[done] = n / d
        loop = _ScalarLoop(tables)
        warm = _warm_up(spec)
        while done < steps:
            # one generator call per block, the first topping up what the
            # exact prefix left of its chunk; zeros pad the last segment
            size = min(BLOCK, steps - done)
            flat = np.zeros(-(-size // SEGMENT) * SEGMENT, dtype=np.uint64)
            flat[:len(rest)] = rest
            flat[len(rest):size] = draw(size - len(rest))
            rest = rest[:0]
            tag = _float_block(tables, loop, flat.reshape(-1, SEGMENT), tag, warm,
                               edges[done:done + size], positions[done:done + size + 1])
            done += size

    n_tagged = 0
    if start.irrational_tag:
        cleared = np.flatnonzero(~tables.slope_nonzero[edges])
        n_tagged = int(cleared[0]) + 1 if cleared.size else steps + 1
    return Trace(seed=seed, x0=start, edge_ids=tables.edge_ids, edges=edges,
                 positions=positions, exact=exact, n_tagged=n_tagged)


class _ScalarLoop:
    """One float step at a time: the sequential definition of the float
    phase, run on the rows of `EvalTables` as Python lists."""

    def __init__(self, tables: sampling.EvalTables):
        cuts = tables.index.cuts
        self.floats, self.tagged = cuts.table.tolist(), cuts.tagged
        self.selectors = tables.row_selectors
        self.slopes_f = tables.slopes_f.tolist()
        self.intercepts_f = tables.intercepts_f.tolist()
        self.slope_nonzero = tables.slope_nonzero.tolist()

    def run(self, x: float, tag: bool, draws: list, stored=None, stored_tags=None):
        """The edge indexes and positions of the steps from (x, tag) on
        `draws`. With `stored` and `stored_tags`, the positions and tags of
        another orbit on the same draws, stop after the first step whose
        state equals that orbit's bit for bit: from there on they agree."""
        floats, tagged, selectors = self.floats, self.tagged, self.selectors
        slopes_f, intercepts_f, slope_nonzero = self.slopes_f, self.intercepts_f, self.slope_nonzero
        picks, xs = [], []
        for i, u in enumerate(draws):
            pos = bisect_right(floats, x)
            idx = bisect_right(selectors[pos * 2 + tag if tagged else pos], u)
            picks.append(idx)
            x = slopes_f[idx] * x + intercepts_f[idx]
            tag = tag and slope_nonzero[idx]
            xs.append(x)
            # the cheap comparison first: most steps do not meet
            if stored is not None and x == stored[i] and _same_state(x, tag, stored[i],
                                                                     stored_tags[i]):
                break
        return picks, xs


def _same_state(x, tag, y, y_tag) -> bool:
    """Whether two float states agree bit for bit (a position is never NaN)."""
    return x == y and tag == y_tag and math.copysign(1.0, x) == math.copysign(1.0, y)


def _warm_up(spec: SystemSpec) -> Optional[int]:
    """The warm-up of a lockstep segment: the least W >= `WARM_UP` with
    rho**W <= 2**-64, rho the largest |slope| of the system's maps (rho = 0
    keeps `WARM_UP`). Two orbits that take the same edges draw together by
    a factor of at most rho a step, so after W steps they are within the
    rounding of float64, and a segment's guess most likely meets the true
    orbit; the bitwise check decides either way. None when rho >= 1 or W
    would reach `SEGMENT`: the float phase then runs the scalar loop.
    For rho = 9/10, W = 422; for slopes of 1/2 or less, W = 64."""
    rho = max(abs(e.map.slope) for e in spec.edges)
    if rho >= 1:
        return None
    if rho == 0:
        return WARM_UP
    p, q = rho.numerator, rho.denominator
    w = max(WARM_UP, math.ceil(64 * math.log(2) / math.log(q / p)))
    if w > SEGMENT:   # the float estimate is off by at most one step
        return None
    # the exact least W at or above WARM_UP
    while q ** w < p ** w << 64:
        w += 1
    while w > WARM_UP and q ** (w - 1) >= p ** (w - 1) << 64:
        w -= 1
    return w if w < SEGMENT else None


def _float_block(tables, loop: _ScalarLoop, grid: np.ndarray, tag: bool,
                 warm: Optional[int], edges: np.ndarray, positions: np.ndarray) -> bool:
    """Steps 0..n-1 of the float phase, n = len(edges), from positions[0]
    with `tag`: writes edges[k] and positions[k + 1] and returns the tag
    after the last step. Row j of `grid` holds the draws of segment j,
    steps j*SEGMENT.. (the last row padded). From `MIN_LANES` segments on,
    and when the warm-up `warm` (`_warm_up`) is not None, they run in
    lockstep through `sampling.VectorPaths` (see `simulate`); every
    segment not accepted is run by the scalar loop, in order."""
    lanes, n = len(grid), len(edges)
    lockstep = warm is not None and lanes >= MIN_LANES
    if lockstep:
        # every lane starts from the block's first state; lane j warms up on
        # the last draws of segment j - 1, and lane 0, whose start is known,
        # on those of the last segment before it is reset
        paths = sampling.VectorPaths(tables, np.full(lanes, positions[0]), tag, None)
        for u in np.roll(grid[:, SEGMENT - warm:], 1, axis=0).T:
            paths.apply(paths.select(paths.rows()[0], u))
        paths.positions[0, 0], paths.tags[0, 0] = positions[0], tag
        lead = paths.positions[0]   # a view that `apply` updates in place
        starts, start_tags = lead.copy(), paths.tags[0].copy()
        tail = n - (lanes - 1) * SEGMENT   # steps of the last segment
        for t in range(SEGMENT):
            idx = paths.select(paths.rows()[0], grid[:, t])
            paths.apply(idx)
            k = lanes if t < tail else lanes - 1
            edges[t::SEGMENT] = idx[:k]
            positions[t + 1::SEGMENT] = lead[:k]

    for j in range(lanes):
        lo, hi = j * SEGMENT, min((j + 1) * SEGMENT, n)
        if not lockstep or (j and not _same_state(positions[lo], tag, starts[j], start_tags[j])):
            stored = stored_tags = None
            if lockstep:   # run until the segment's orbit meets the lane's
                stored = positions[lo + 1:hi + 1].tolist()
                stored_tags = (np.logical_and.accumulate(tables.slope_nonzero[edges[lo:hi]])
                               & start_tags[j]).tolist()
            picks, xs = loop.run(float(positions[lo]), tag, grid[j, :hi - lo].tolist(),
                                 stored, stored_tags)
            edges[lo:lo + len(picks)] = picks
            positions[lo + 1:lo + 1 + len(xs)] = xs
        if tag and tables.tags_fall:   # the true tag after segment j
            tag = bool(tables.slope_nonzero[edges[lo:hi]].all())
    return tag


def ergodic_average(trace: Trace, f: TestFunction):
    """Mean of f over the trace positions.

    Exact rational arithmetic while every position is exact; once the
    trace has degraded to float64 the average is computed in float64
    (vectorized, on `trace.positions` in place), since exactness of the
    summation cannot recover the positions' rounding anyway.
    """
    if not trace.values:
        raise EmptyTrace("trace has no positions")
    x = trace.positions
    n = len(x)
    if trace.exact_steps + 1 >= n:
        return sum((Fraction(f(v)) for v in trace.values), Fraction(0)) / n

    if isinstance(f, Polynomial):
        acc = np.zeros(n, dtype=np.float64)
        for c in reversed(f.coeffs):
            acc *= x
            acc += float(c)
        return float(np.mean(acc))
    iv = f.interval
    lo, hi = float(iv.lo), float(iv.hi)
    above = (x > lo) | ((x == lo) & iv.own_lo)
    below = (x < hi) | ((x == hi) & iv.own_hi)
    return float(np.mean(above & below))


def class_frequencies(trace: Trace, fp) -> dict:
    """Visit frequency of each merged class along the trace (sums to 1).

    Positions are filed by the stable partition's `Cuts`: the exact prefix
    by exact bisection, the float positions in chunks of `CHUNK` by one
    `searchsorted` each, so only a float position within rounding of a cut
    can be misfiled. The partition's `states` map rows to cells; a position
    in a one-point cell's empty irrational row raises `OutOfDomain`.
    """
    cuts, states = fp.partition.cuts, fp.partition.states
    n_rows = len(states)
    n, n_exact, n_tagged = len(trace.positions), len(trace.exact), trace.n_tagged
    counts = np.bincount(np.array([cuts.row_of(p, q, k < n_tagged)
                                   for k, (p, q) in enumerate(trace.exact)], dtype=np.intp),
                         minlength=n_rows)
    for lo in range(n_exact, n, CHUNK):
        hi = min(lo + CHUNK, n)
        counts += np.bincount(cuts.rows(trace.positions[lo:hi], np.arange(lo, hi) < n_tagged),
                              minlength=n_rows)
    by_class = dict.fromkeys((info.class_id for info in fp.classes), 0)
    for state, count in zip(states, counts.tolist()):
        if state >= 0:
            by_class[fp.state_class[state]] += count
        elif count:
            raise OutOfDomain("the trace visits the irrational copy of a one-point cell")
    return {cid: Fraction(count, n) for cid, count in by_class.items()}


# ---------------------------------------------------------------------------
# contraction on average

def contraction_estimate(spec: SystemSpec, part) -> Fraction:
    """Largest one-step average contraction quotient, exactly.

    In a cell of a stable partition every p_e is constant, so for a != b
    in the cell sum_e p_e(a) |w_e(a) - w_e(b)| / |a - b| equals
    sum_e p_e(cell) |slope_e| for affine maps: every pair in a cell has
    the same quotient. The result is the largest of these sums over the
    nondegenerate cells of `part`, read with their tags from the system's
    `CellIndex`.
    """
    cells = [c for c in part.cells if not c.interval.is_degenerate]
    if not cells:
        raise DegenerateCellOnly("no nondegenerate cell to take pairs from")
    index = spec.cell_index
    slopes = [abs(e.map.slope) for e in spec.edges]
    worst = Fraction(0)
    for cell in cells:
        row = index.cuts.row_of_interval(cell.interval, cell.representative().irrational_tag)
        if row is None:
            raise NonConstantOnCell(f"probabilities are not constant on cell {cell}")
        worst = max(worst, sum((p * s for p, s in zip(index.rows[row], slopes)),
                               Fraction(0)))
    return worst


# ---------------------------------------------------------------------------
# one-dimensional transport distance

def w1_distance(samples_a, samples_b) -> float:
    """Exact transport distance between two equal-size empirical measures:
    mean absolute difference of the sorted samples. Unequal sizes are
    compared through quantile interpolation on the larger grid."""
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptySamples("need nonempty sample sets")
    if a.size == b.size:
        return float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    n = max(a.size, b.size)
    q = (np.arange(n) + 0.5) / n
    qa = np.quantile(a, q, method="inverted_cdf")
    qb = np.quantile(b, q, method="inverted_cdf")
    return float(np.mean(np.abs(qa - qb)))


# ---------------------------------------------------------------------------
# cloud dynamics and rate measurement

def push_cloud(spec: SystemSpec, cloud: np.ndarray, steps: int, seed: int, *,
               record: bool = False):
    """Advance every atom `steps` steps; atom i consumes the first draws of
    substream i, so scheduling cannot change the result. An atom outside
    the domain, or NaN, raises `OutOfDomain`. Atoms are untagged floats,
    so on a system whose probabilities read the rationality tag the cloud
    moves as rational points do, through the rational cells only."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    positions = np.asarray(cloud, dtype=np.float64)
    if positions.size:
        if np.isnan(positions).any():
            raise OutOfDomain(f"cloud atom nan outside domain {spec.domain}")
        for atom in (positions.min(), positions.max()):
            if not spec.domain.contains_value(float(atom)):
                raise OutOfDomain(f"cloud atom {float(atom)!r} outside domain {spec.domain}")
    tables = sampling.EvalTables(spec)
    paths = sampling.VectorPaths(tables, positions, False,
                                 sampling.LaneStreams(seed, np.arange(len(positions))))
    history = [paths.positions[0].copy()] if record else None
    for _ in range(steps):
        paths.step()
        if record:
            history.append(paths.positions[0].copy())
    return history if record else paths.positions[0]


def stationary_cloud(spec: SystemSpec, size: int, burn: int, seed: int) -> np.ndarray:
    """Reference sample: a uniform grid cloud pushed `burn` steps."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    grid = (np.arange(size) + 0.5) / size
    lo, hi = float(spec.domain.lo), float(spec.domain.hi)
    return push_cloud(spec, lo + (hi - lo) * grid, burn, seed)


@dataclass
class RateReport:
    distances: list          # d_0 .. d_{n_max}
    ratios: list             # (n, d_{n+1}/d_n) while d_n above the noise floor
    noise_floor: float
    geometric_mean_ratio: Optional[float]
    bound: Optional[float]

    def to_csv(self) -> str:
        ratio_at = dict(self.ratios)
        lines = ["n,d_n,ratio"]
        for n, d in enumerate(self.distances):
            r = ratio_at.get(n)
            lines.append(f"{n},{d!r},{'' if r is None else repr(r)}")
        gm = "" if self.geometric_mean_ratio is None else repr(self.geometric_mean_ratio)
        bd = "" if self.bound is None else repr(self.bound)
        lines.append(f"summary,geometric_mean_ratio={gm},bound={bd},"
                     f"noise_floor={self.noise_floor!r},precision=float64")
        return "\n".join(lines) + "\n"


def convergence_rate(spec: SystemSpec, start_cloud, reference_cloud,
                     n_max: int, seed: int, *, bound: Optional[float] = None) -> RateReport:
    """Transport distance to the reference cloud after each push step.

    Step ratios are reported only while the distance stays above a noise
    floor of three times the bootstrap error scale of the transport
    distance at this cloud size (the mean distance between independent
    resamples of the reference), and stop at a zero distance. A zero
    ratio makes the geometric mean 0.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    ref = np.asarray(reference_cloud, dtype=np.float64)
    start = np.asarray(start_cloud, dtype=np.float64)
    if ref.size == 0 or start.size == 0:
        raise EmptySamples("need nonempty clouds")

    boot_rng = sampling.substream(seed, 1 << 40)
    scales = []
    for _ in range(BOOTSTRAP):
        ra = ref[boot_rng.integers(0, ref.size, size=ref.size)]
        rb = ref[boot_rng.integers(0, ref.size, size=ref.size)]
        scales.append(w1_distance(ra, rb))
    noise_floor = 3.0 * float(np.mean(scales))

    history = push_cloud(spec, start, n_max, seed, record=True)
    distances = [w1_distance(cloud, ref) for cloud in history]

    ratios = []
    for n in range(len(distances) - 1):
        if distances[n] < noise_floor or distances[n] == 0:
            break
        ratios.append((n, distances[n + 1] / distances[n]))
    gm = None
    if any(r == 0 for _, r in ratios):
        gm = 0.0   # the geometric mean of factors one of which is zero
    elif ratios:
        gm = float(np.exp(np.mean([math.log(r) for _, r in ratios])))
    return RateReport(distances=distances, ratios=ratios,
                      noise_floor=noise_floor, geometric_mean_ratio=gm,
                      bound=bound)
