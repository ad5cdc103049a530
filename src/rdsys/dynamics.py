"""Path simulation, ergodic averages, and empirical convergence rates.

Trace positions stay exact rationals until their denominators exceed a
bit cap, then continue in float64; probabilities and edge draws remain
exact throughout. An exact position finds its cell by exact bisection on
the cuts, a float one on the float cut table of the same `Cuts`, so only
a float position within rounding of a cut can be misfiled. Test
functions are restricted to polynomials and interval indicators with
rational data so averages over exact prefixes stay exact.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import sampling
from .model import (DegenerateCellOnly, EmptySamples, EmptyTrace, Interval,
                    NonConstantOnCell, OutOfDomain, Point, PointLike, RdsError,
                    SystemSpec, as_point, format_rational, parse_rational)

DENOMINATOR_BIT_CAP = 4096


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

@dataclass
class Trace:
    """A simulated path: labels drawn at exact probabilities, positions
    exact up to `exact_steps` and float64 afterwards."""

    seed: int
    x0: Point
    labels: list          # edge ids per step
    values: list          # positions x_0..x_n (Fraction while exact, then float)
    tags: list            # irrationality tag per position
    exact_steps: int      # index of the last exact position

    def __len__(self) -> int:
        return len(self.labels)

    def point(self, k: int) -> Point:
        v = self.values[k]
        if isinstance(v, Fraction):
            return Point(v, self.tags[k])
        return Point(Fraction(*v.as_integer_ratio()), self.tags[k])

    def write_csv(self, fh) -> None:
        fh.write("step,label,point,precision\n")
        for k, v in enumerate(self.values):
            label = self.labels[k - 1] if k > 0 else "-"
            if isinstance(v, Fraction):
                fh.write(f"{k},{label},{format_rational(v)},exact\n")
            else:
                fh.write(f"{k},{label},{v!r},float64\n")


def simulate(spec: SystemSpec, x0: PointLike, steps: int, seed: int, *,
             bit_cap: int = DENOMINATOR_BIT_CAP) -> Trace:
    """Simulate the chain from x0, drawing each edge at its exact
    probability via 64-bit thresholds from substream 0 of the seed."""
    if steps < 0:
        raise RdsError("steps must be >= 0")
    start = as_point(x0)
    spec.require_in_domain(start)
    tables = sampling.EvalTables(spec)
    rng = sampling.substream(seed, 0)

    x = start.value
    tag = start.irrational_tag
    labels = []
    values = [x]
    tags = [tag]
    exact_steps = 0
    exact = True

    slopes = tables.slopes
    intercepts = tables.intercepts
    slopes_f = [float(s) for s in slopes]
    intercepts_f = [float(c) for c in intercepts]
    slope_nonzero = [s != 0 for s in slopes]
    edge_ids = tables.edge_ids
    selectors = tables.row_selectors
    cuts = tables.index.cuts
    row_of, floats, tagged = cuts.row_of, cuts.table.tolist(), cuts.tagged

    done = 0
    while done < steps:
        chunk = rng.integers(0, sampling.TWO64 - 1, endpoint=True,
                             dtype=np.uint64, size=min(1 << 16, steps - done)).tolist()
        done += len(chunk)
        for u in chunk:
            if exact:
                # exact cell lookup against rational breakpoints
                row = row_of(x.numerator, x.denominator, tag)
            else:
                pos = bisect_right(floats, x)
                row = pos * 2 + tag if tagged else pos
            idx = 0
            for k, threshold in selectors[row]:
                if u >= threshold:
                    idx = k
                else:
                    break
            labels.append(edge_ids[idx])
            if exact:
                x = slopes[idx] * x + intercepts[idx]
                if x.denominator.bit_length() > bit_cap:
                    x = float(x)
                    exact = False
                else:
                    exact_steps += 1
            else:
                x = slopes_f[idx] * x + intercepts_f[idx]
            tag = tag and slope_nonzero[idx]
            values.append(x)
            tags.append(tag)
    return Trace(seed=seed, x0=start, labels=labels, values=values,
                 tags=tags, exact_steps=exact_steps)


def _float_values(trace: Trace) -> np.ndarray:
    """The trace positions in float64, in one pass with no list of the
    whole trace: the exact prefix converted value by value, the float
    suffix as it is."""
    k = trace.exact_steps + 1
    return np.fromiter(itertools.chain(map(float, trace.values[:k]),
                                       itertools.islice(trace.values, k, None)),
                       dtype=np.float64, count=len(trace.values))


def ergodic_average(trace: Trace, f: TestFunction):
    """Mean of f over the trace positions.

    Exact rational arithmetic while every position is exact; once the
    trace has degraded to float64 the average is computed in float64
    (vectorized), since exactness of the summation cannot recover the
    positions' rounding anyway.
    """
    if not trace.values:
        raise EmptyTrace("trace has no positions")
    n = len(trace.values)
    if trace.exact_steps + 1 >= n:
        return sum((Fraction(f(v)) for v in trace.values), Fraction(0)) / n

    values_f = _float_values(trace)
    if isinstance(f, Polynomial):
        acc = np.zeros(n, dtype=np.float64)
        for c in reversed(f.coeffs):
            acc = acc * values_f + float(c)
        return float(np.mean(acc))
    iv = f.interval
    lo, hi = float(iv.lo), float(iv.hi)
    above = (values_f > lo) | ((values_f == lo) & iv.own_lo)
    below = (values_f < hi) | ((values_f == hi) & iv.own_hi)
    return float(np.mean(above & below))


def class_frequencies(trace: Trace, fp) -> dict:
    """Visit frequency of each merged class along the trace (sums to 1).

    Positions are filed in bulk, in float64, by the stable partition's
    `Cuts`; a position can only be misfiled within rounding error of a cut.
    """
    n = len(trace.values)
    states = fp.partition.cuts.rows(_float_values(trace), trace.tags)
    class_of = np.array([fp.state_class[s] for s in range(len(fp.chain.cells))])
    counts = np.bincount(class_of[states], minlength=len(fp.classes))
    return {info.class_id: Fraction(int(counts[info.class_id]), n)
            for info in fp.classes}


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
        row = index.cuts.row_of_interval(cell.interval, cell.tag == "irrational")
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
    the domain, or NaN, raises `OutOfDomain`."""
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
                     n_max: int, seed: int, *, bound: Optional[float] = None,
                     bootstrap: int = 32) -> RateReport:
    """Transport distance to the reference cloud after each push step.

    Step ratios are reported only while the distance stays above a noise
    floor of three times the bootstrap error scale of the transport
    distance at this cloud size (the mean distance between independent
    resamples of the reference), and stop at a zero distance. A zero
    ratio makes the geometric mean 0.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if bootstrap < 1:
        raise ValueError(f"bootstrap must be >= 1, got {bootstrap}")
    ref = np.asarray(reference_cloud, dtype=np.float64)
    start = np.asarray(start_cloud, dtype=np.float64)
    if ref.size == 0 or start.size == 0:
        raise EmptySamples("need nonempty clouds")

    boot_rng = sampling.substream(seed, 1 << 40)
    scales = []
    for _ in range(bootstrap):
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
