import functools
import io
import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MIXED_SPLIT, UNIT, mixed_system, random_system
from rdsys import dynamics, sampling, systems
from rdsys.dynamics import (DENOMINATOR_BIT_CAP, DegenerateCellOnly,
                            EmptySamples, Indicator, Polynomial,
                            class_frequencies, contraction_estimate,
                            convergence_rate, ergodic_average,
                            parse_test_function, push_cloud, simulate,
                            stationary_cloud, w1_distance)
from rdsys.model import (AffineMap, Edge, EmptyTrace, Interval, PiecewiseConstant,
                         Point, RationalityPredicate, RdsError, RefinementBudgetExceeded,
                         SystemSpec, as_point, cells_from_cuts, format_rational)
from rdsys.partition import (PartitionParams, classify_point, fundamental_partition,
                             stable_partition)

F = Fraction
STEP = systems.step_system()
POSITIVE = systems.positive_step_system()
SPLIT = systems.rational_split_system()


def small_params(seed=99):
    return PartitionParams(seed=seed)


class TestSimulate:
    def test_zero_steps(self):
        tr = simulate(STEP, F(1, 2), 0, seed=1)
        assert tr.labels == [] and tr.values == [F(1, 2)]

    def test_forced_first_step_from_zero(self):
        tr = simulate(STEP, 0, 3, seed=9)
        assert tr.labels[0] == "1"
        assert tr.values[1] == F(1, 3)

    def test_exact_recursion_on_prefix(self):
        tr = simulate(STEP, 1, 200, seed=4)
        maps = {e.edge_id: e.map for e in STEP.edges}
        for k in range(min(tr.exact_steps, len(tr.labels))):
            assert tr.values[k + 1] == maps[tr.labels[k]].apply_value(tr.values[k])

    def test_split_label_frequency(self):
        # rational start: edge 0 fires with exact probability 1/4
        tr = simulate(SPLIT, 0, 100_000, seed=5)
        freq = tr.labels.count("0") / len(tr.labels)
        sigma = math.sqrt(0.25 * 0.75 / len(tr.labels))
        assert abs(freq - 0.25) < 3 * sigma

    def test_one_step_frequencies_match_probabilities(self):
        # 4-sigma binomial agreement of one-step draws from a fixed point
        n = 20_000
        tr = simulate(STEP, 1, n, seed=12)
        first_labels = []
        for seed in range(200):
            t = simulate(STEP, 1, 1, seed=seed)
            first_labels.append(t.labels[0])
        freq = first_labels.count("0") / len(first_labels)
        sigma = math.sqrt(0.25 / len(first_labels))
        assert abs(freq - 0.5) < 4 * sigma
        # along one long trace the drawn labels at points in (1/3,1] fire
        # edge 0 half the time
        at_top = [lab for x, lab in zip(tr.values[:-1], tr.labels) if x > F(1, 3)]
        freq2 = at_top.count("0") / len(at_top)
        assert abs(freq2 - 0.5) < 4 * math.sqrt(0.25 / len(at_top))

    def test_reproducible(self):
        a = simulate(STEP, 1, 500, seed=77)
        b = simulate(STEP, 1, 500, seed=77)
        assert a.labels == b.labels and a.values == b.values

    def test_tag_propagates(self):
        tr = simulate(SPLIT, systems.IRRATIONAL_SAMPLE, 50, seed=3)
        assert all(tr.tags)


class TestErgodicAverage:
    def test_constant_function_exact(self):
        tr = simulate(STEP, 1, 100, seed=2)
        assert ergodic_average(tr, Polynomial((F(3, 7),))) == F(3, 7)

    def test_indicator_of_domain_is_one(self):
        tr = simulate(STEP, 1, 100, seed=2)
        assert ergodic_average(tr, Indicator(Interval(F(0), F(1)))) == 1

    def test_exact_short_trace(self):
        tr = simulate(STEP, 1, 10, seed=2)
        avg = ergodic_average(tr, Polynomial((F(0), F(1))))
        assert isinstance(avg, Fraction)
        assert avg == sum(tr.values, F(0)) / 11

    def test_long_run_mean(self):
        tr = simulate(STEP, 1, 200_000, seed=8)
        avg = ergodic_average(tr, Polynomial((F(0), F(1))))
        assert abs(float(avg) - 2 / 7) < 0.004

    def test_parse_test_function(self):
        f = parse_test_function("poly:0,1")
        assert f(Point(F(1, 3))) == F(1, 3)
        g = parse_test_function("ind:1/3,1,false,true")
        assert g(Point(F(1, 3))) == 0 and g(Point(F(1, 2))) == 1


class TestClassFrequencies:
    def test_positive_step_single_class(self):
        fp = fundamental_partition(POSITIVE, small_params())
        tr = simulate(POSITIVE, F(1, 4), 500, seed=3)
        assert class_frequencies(tr, fp) == {0: F(1)}

    def test_step_frequencies_near_stationary(self):
        fp = fundamental_partition(STEP, small_params())
        tr = simulate(STEP, 1, 200_000, seed=21)
        freqs = class_frequencies(tr, fp)
        assert sum(freqs.values()) == 1
        for cid, target in ((0, 0.0), (1, 1 / 7), (2, 2 / 7), (3, 4 / 7)):
            assert abs(float(freqs[cid]) - target) < 0.01

    def test_split_frequencies_by_tag(self):
        fp = fundamental_partition(SPLIT, small_params())
        tr = simulate(SPLIT, 0, 300, seed=2)
        freqs = class_frequencies(tr, fp)
        assert freqs[0] == 1 and freqs[1] == 0

    def test_exact_prefix_filed_exactly(self):
        # cuts 1/3 (owned left) and 1/3 + 10^-40 share a float: the exact
        # start 1/3 lies in the class classify_point gives, while its float
        # is filed right of both cuts
        a, b = F(1, 3), F(1, 3) + F(1, 10 ** 40)
        assert float(a) == float(b)
        cells = cells_from_cuts(UNIT, [(a, 1), (b, 1), (F(2, 3), 1)])
        p0 = (F(1), F(0), F(1, 2), F(1, 3))
        spec = SystemSpec(domain=UNIT, edges=(
            Edge("0", AffineMap(F(1, 3), F(0)), PiecewiseConstant(tuple(zip(cells, p0)))),
            Edge("1", AffineMap(F(1, 3), F(2, 3)),
                 PiecewiseConstant(tuple((c, 1 - p) for c, p in zip(cells, p0))))))
        fp = fundamental_partition(spec)
        assert classify_point(fp, a) == 0
        assert class_frequencies(simulate(spec, a, 0, 1), fp) == {0: 1, 1: 0, 2: 0}


class TestContraction:
    def test_exact_values(self):
        assert contraction_estimate(STEP, stable_partition(STEP)) == F(1, 3)
        assert contraction_estimate(POSITIVE, stable_partition(POSITIVE)) == F(1, 3)
        assert contraction_estimate(SPLIT, stable_partition(SPLIT)) == F(1, 2)

    def test_identity_maps_not_contractive(self):
        unit = Interval(F(0), F(1))
        spec = SystemSpec(domain=unit, edges=(
            Edge("0", AffineMap(F(1), F(0)), PiecewiseConstant(((unit, F(1, 2)),))),
            Edge("1", AffineMap(F(1), F(0)), PiecewiseConstant(((unit, F(1, 2)),))),
        ))
        assert contraction_estimate(spec, stable_partition(spec)) == 1

    @pytest.mark.parametrize("seed, maximum", [(13, F(19, 40)), (21, F(19, 40)),
                                               (33, F(9, 20))])
    def test_every_cell_counts(self, seed, maximum):
        # maps x/4 and x/2 + 1/2, p0 from {1..9}/10 on 16 dyadic cells: the
        # quotient on a cell is p0/4 + (1 - p0)/2, largest where p0 is least,
        # and a sampler that visits 12 cells in turn misses the last ones
        rng = random.Random(seed)
        cells = [Interval(F(0), F(1, 16))] + [
            Interval(F(j, 16), F(j + 1, 16), False, True) for j in range(1, 16)]
        p0 = [F(rng.randint(1, 9), 10) for _ in cells]
        spec = SystemSpec(domain=Interval(F(0), F(1)), edges=(
            Edge("0", AffineMap(F(1, 4), F(0)), PiecewiseConstant(tuple(zip(cells, p0)))),
            Edge("1", AffineMap(F(1, 2), F(1, 2)),
                 PiecewiseConstant(tuple((c, 1 - p) for c, p in zip(cells, p0))))))
        assert maximum == F(1, 2) - min(p0) / 4
        assert contraction_estimate(spec, stable_partition(spec)) == maximum

    def test_degenerate_only_raises(self):
        from rdsys.partition import Cell, IntervalPartition
        part = IntervalPartition(domain=Interval(F(0), F(1)),
                                 cells=[Cell(Interval(F(1, 2), F(1, 2)))],
                                 provenance={}, tagged=False)
        with pytest.raises(DegenerateCellOnly):
            contraction_estimate(STEP, part)


class TestW1:
    def test_identical_sets_zero(self):
        assert w1_distance([0.2, 0.5, 0.9], [0.9, 0.2, 0.5]) == 0

    def test_two_atoms(self):
        assert w1_distance([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_half_move(self):
        assert w1_distance([0.0, 1.0], [0.0, 0.0]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(EmptySamples):
            w1_distance([], [1.0])

    samples = st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                       min_size=4, max_size=4)

    @given(samples, samples, samples)
    @settings(max_examples=200)
    def test_metric_axioms(self, a, b, c):
        dab = w1_distance(a, b)
        assert dab >= 0
        assert dab == w1_distance(b, a)
        assert w1_distance(a, a) == 0
        assert w1_distance(a, c) <= dab + w1_distance(b, c) + 1e-12


class TestCloudsAndRates:
    def test_push_cloud_deterministic(self):
        cloud = np.linspace(0, 1, 64)
        a = push_cloud(STEP, cloud, 5, seed=3)
        b = push_cloud(STEP, cloud, 5, seed=3)
        assert np.array_equal(a, b)

    def test_stationary_start_shows_no_trend(self):
        ref = stationary_cloud(STEP, 1500, burn=64, seed=41)
        report = convergence_rate(STEP, ref, ref, 24, seed=42)
        # regression slope of log d_n against n is statistically flat
        logs = np.log(np.array(report.distances[1:]))
        n = np.arange(len(logs))
        slope, intercept = np.polyfit(n, logs, 1)
        resid = logs - (slope * n + intercept)
        se = np.sqrt(np.sum(resid ** 2) / max(len(logs) - 2, 1)
                     / np.sum((n - n.mean()) ** 2))
        assert abs(slope) < 4 * se + 0.02

    def test_contracting_start_decays(self):
        ref = stationary_cloud(STEP, 2000, burn=64, seed=51)
        report = convergence_rate(STEP, np.full(2000, 1.0), ref, 30, seed=52,
                                  bound=math.sqrt(0.5))
        assert report.ratios, "distances never exceeded the noise floor"
        assert report.geometric_mean_ratio < math.sqrt(0.5) + 0.1
        assert report.distances[0] > report.noise_floor

    def test_rate_csv_format(self):
        ref = stationary_cloud(STEP, 200, burn=32, seed=61)
        report = convergence_rate(STEP, np.full(200, 1.0), ref, 5, seed=62)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "n,d_n,ratio"
        assert lines[-1].startswith("summary,")
        assert "precision=float64" in lines[-1]

    def test_collapse_to_reference_reads_zero(self):
        # x -> 1/2 lands every point on the reference in one step: the noise
        # floor is 0, d_1 = 0, and the ratios stop there with mean 0
        unit = Interval(Fraction(0), Fraction(1))
        const = SystemSpec(domain=unit, edges=(Edge(
            "0", AffineMap(Fraction(0), Fraction(1, 2)),
            PiecewiseConstant(((unit, Fraction(1)),))),))
        report = convergence_rate(const, np.linspace(0, 1, 100), [0.5] * 100, 4, seed=1)
        assert report.noise_floor == 0.0
        assert report.distances[1:] == [0.0] * 4
        assert report.ratios == [(0, 0.0)]
        assert report.geometric_mean_ratio == 0.0


# ---------------------------------------------------------------------------
# differential: array-backed traces against the list-based simulate

@dataclass
class OracleTrace:
    """The list-based `Trace` before traces moved into arrays, kept
    verbatim with `oracle_simulate`, `oracle_float_values` and
    `oracle_ergodic_average` as the oracle."""

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


def oracle_simulate(spec, x0, steps, seed, *, bit_cap=DENOMINATOR_BIT_CAP):
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
    # the (k + 1, threshold) pairs of each row's reachable thresholds
    selectors = [[(k + 1, int(tables.thresholds[row, k]))
                  for k in range(tables.n_edges - 1) if not tables.never[row, k]]
                 for row in range(len(tables.thresholds))]
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
    return OracleTrace(seed=seed, x0=start, labels=labels, values=values,
                       tags=tags, exact_steps=exact_steps)


def oracle_float_values(trace) -> np.ndarray:
    k = trace.exact_steps + 1
    return np.fromiter(itertools.chain(map(float, trace.values[:k]),
                                       itertools.islice(trace.values, k, None)),
                       dtype=np.float64, count=len(trace.values))


def oracle_ergodic_average(trace, f):
    if not trace.values:
        raise EmptyTrace("trace has no positions")
    n = len(trace.values)
    if trace.exact_steps + 1 >= n:
        return sum((Fraction(f(v)) for v in trace.values), Fraction(0)) / n

    values_f = oracle_float_values(trace)
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


def oracle_class_frequencies(trace, fp) -> dict:
    """Exact positions filed one by one by `classify_point`, float ones by
    the float cut table of the stable partition."""
    counts = dict.fromkeys((info.class_id for info in fp.classes), 0)
    floats, float_tags = [], []
    for v, tag in zip(trace.values, trace.tags):
        if isinstance(v, Fraction):
            counts[classify_point(fp, Point(v, tag))] += 1
        else:
            floats.append(v)
            float_tags.append(tag)
    if floats:
        for row in fp.partition.cuts.rows(np.array(floats), np.array(float_tags)).tolist():
            counts[fp.state_class[row]] += 1
    return {cid: Fraction(c, len(trace.values)) for cid, c in counts.items()}


TEST_FUNCTIONS = (Polynomial((F(0), F(1))), Polynomial((F(1, 3), F(-2), F(5, 4))),
                  Polynomial(()), Indicator(Interval(F(1, 3), F(2, 3), False, True)),
                  Indicator(Interval(F(0), F(1, 9))))


def same_items(a, b) -> bool:
    """Equal element by element and of the same type (a float equal to a
    Fraction does not count)."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(type(x) is type(y) and x == y for x, y in zip(a, b))


def assert_same_trace(new, old, fp=None):
    n = len(old)
    assert len(new) == n and new.exact_steps == old.exact_steps
    assert same_items(new.labels, old.labels)
    assert same_items(new.values, old.values)
    assert same_items(new.tags, old.tags)
    for column in ("labels", "values", "tags"):
        view, oracle = getattr(new, column), getattr(old, column)
        assert view == oracle and oracle == view and not view != oracle
        for key in (slice(None, old.exact_steps + 2), slice(old.exact_steps, None),
                    slice(n // 3, -1), slice(None, None, 7), slice(None, None, -5), -1):
            if isinstance(key, int) and not oracle:
                continue
            got, want = view[key], oracle[key]
            assert (same_items(got, want) if isinstance(key, slice)
                    else type(got) is type(want) and got == want)
        if column != "values":   # counting a Fraction among floats is slow
            for value in {*oracle[:2], "?"}:
                assert view.count(value) == oracle.count(value)
    for k in {0, n // 2, n, -1, old.exact_steps, min(old.exact_steps + 1, n)}:
        assert new.point(k) == old.point(k)
    got, want = io.StringIO(), io.StringIO()
    new.write_csv(got)
    old.write_csv(want)
    assert got.getvalue() == want.getvalue()
    for f in TEST_FUNCTIONS:
        avg, oracle = ergodic_average(new, f), oracle_ergodic_average(old, f)
        assert type(avg) is type(oracle) and avg == oracle, f
    if fp is not None:
        assert class_frequencies(new, fp) == oracle_class_frequencies(old, fp)


def tag_clearing_system(clear: Fraction = F(1, 100),
                        rational_clear: Fraction = F(1, 4)) -> SystemSpec:
    """Rationality-dependent halving maps plus a constant map, whose
    firing, at probability `clear` on irrationals and `rational_clear` on
    rationals, clears the irrationality tag."""
    half = F(1, 2)
    return SystemSpec(domain=UNIT, edges=(
        Edge("0", AffineMap(half, F(0)), RationalityPredicate(half, half)),
        Edge("1", AffineMap(half, half), RationalityPredicate(half - rational_clear, half - clear)),
        Edge("c", AffineMap(F(0), F(1, 3)), RationalityPredicate(rational_clear, clear))))


def slow_contraction_system() -> SystemSpec:
    """Maps 9x/10 and 9x/10 + 1/10, at probabilities 1/3 and 2/3 below
    1/2 and 2/3 and 1/3 above: orbits on shared draws come together too
    slowly to meet within `dynamics.WARM_UP` steps, and `dynamics._warm_up`
    gives them 422."""
    low, high = Interval(F(0), F(1, 2), True, True), Interval(F(1, 2), F(1), False, True)
    return SystemSpec(domain=UNIT, edges=(
        Edge("0", AffineMap(F(9, 10), F(0)),
             PiecewiseConstant(((low, F(1, 3)), (high, F(2, 3))))),
        Edge("1", AffineMap(F(9, 10), F(1, 10)),
             PiecewiseConstant(((low, F(2, 3)), (high, F(1, 3)))))))


@dataclass
class OracleArrays:
    """`oracle_simulate` in the arrays of a `Trace`."""

    edges: np.ndarray       # edge index per step
    positions: np.ndarray   # float64, the exact prefix rounded to nearest
    exact: list             # the exact prefix, as Fractions
    n_tagged: int

    def assert_prefix_of(self, new) -> None:
        """`new` is this trace's first len(new) steps, bit for bit."""
        steps = len(new)
        assert np.array_equal(new.edges, self.edges[:steps])
        assert np.array_equal(new.positions.view(np.uint64),
                              self.positions[:steps + 1].view(np.uint64))
        assert [F(n, d) for n, d in new.exact] == self.exact[:steps + 1]
        assert new.n_tagged == min(self.n_tagged, steps + 1)


def oracle_arrays(spec, x0, steps, seed, *, bit_cap=DENOMINATOR_BIT_CAP) -> OracleArrays:
    old = oracle_simulate(spec, x0, steps, seed, bit_cap=bit_cap)
    index = {edge_id: k for k, edge_id in enumerate(spec.edge_ids)}
    return OracleArrays(edges=np.array([index[label] for label in old.labels], dtype=np.intp),
                        positions=oracle_float_values(old),
                        exact=old.values[:old.exact_steps + 1], n_tagged=old.tags.count(True))


@functools.cache
def slow_contraction_oracle() -> OracleArrays:
    return oracle_arrays(slow_contraction_system(), F(1, 3), 100_000, seed=5)


@functools.cache
def bundled_partition(name: str):
    return fundamental_partition(systems.bundled_spec(name))


class TestAgainstListTraces:

    @pytest.mark.parametrize("steps", [0, 1 << 16, (1 << 16) + 1])
    @pytest.mark.parametrize("name", sorted(systems.BUILDERS))
    def test_bundled_across_the_chunk_boundary(self, name, steps):
        spec = systems.bundled_spec(name)
        new = simulate(spec, F(1, 3), steps, seed=3)
        assert_same_trace(new, oracle_simulate(spec, F(1, 3), steps, seed=3),
                          bundled_partition(name))

    def test_irrational_start_turns_float(self):
        new = simulate(SPLIT, "irr:1/5", 20_000, seed=7)
        assert new.exact_steps < len(new) and all(new.tags)
        assert_same_trace(new, oracle_simulate(SPLIT, "irr:1/5", 20_000, seed=7),
                          bundled_partition("rational_split"))

    @pytest.mark.parametrize("seed, bit_cap", [(4, DENOMINATOR_BIT_CAP), (0, 64)])
    def test_constant_map_clears_the_tag(self, seed, bit_cap):
        # at seed 4 the tag clears while the positions are exact, at seed 0
        # with a 64-bit cap after they turned float
        spec = tag_clearing_system()
        new = simulate(spec, "irr:1/5", 5000, seed, bit_cap=bit_cap)
        assert 1 < new.n_tagged < len(new.values)
        assert (new.n_tagged > new.exact_steps + 1) == (bit_cap == 64)
        assert_same_trace(new, oracle_simulate(spec, "irr:1/5", 5000, seed, bit_cap=bit_cap),
                          fundamental_partition(spec))

    @pytest.mark.parametrize("bit_cap", [0, 8, 64])
    def test_small_bit_caps(self, bit_cap):
        # the gcd reduction decides the switch step: 5/7 -> (5 + 7c)/63 ...
        new = simulate(STEP, F(5, 7), 3000, seed=11, bit_cap=bit_cap)
        assert 0 < new.exact_steps < 3000 or bit_cap == 0
        assert_same_trace(new, oracle_simulate(STEP, F(5, 7), 3000, seed=11, bit_cap=bit_cap),
                          bundled_partition("step_ninth"))

    def test_random_systems(self):
        rng = random.Random(0x7ACE)
        checked = 0
        while checked < 20:
            spec = random_system(rng)
            try:
                fp = fundamental_partition(spec, PartitionParams(refinement_cap=24))
            except RefinementBudgetExceeded:
                continue
            x0 = F(rng.randint(0, 12), 12)
            # these stay exact at the default cap; a third turn float at 16 bits
            for start, cap in ((x0, DENOMINATOR_BIT_CAP), (Point(x0, True), 16)):
                seed = rng.randrange(1 << 20)
                assert_same_trace(simulate(spec, start, 400, seed, bit_cap=cap),
                                  oracle_simulate(spec, start, 400, seed, bit_cap=cap), fp)
            checked += 1

    # the float phase in lockstep segments, bit for bit, with
    # `dynamics.MIN_LANES` at its value and lowered so that short float
    # phases run in lockstep too

    @pytest.mark.parametrize("name, x0", [
        *(pytest.param(name, "1/3", id=name) for name in sorted(systems.BUILDERS)),
        pytest.param("mixed_split", "1/3", id="mixed_split"),
        pytest.param("rational_split", "irr:1/5", id="rational_split-irr"),
        pytest.param("mixed_split", "irr:1/5", id="mixed_split-irr")])
    def test_bundled_around_the_segments(self, name, x0, monkeypatch):
        spec = MIXED_SPLIT if name == "mixed_split" else systems.bundled_spec(name)
        longest = (1 << 18) + 1
        want = oracle_arrays(spec, x0, longest, seed=3)
        e = len(want.exact) - 1
        assert e < longest
        for steps in sorted({0, 1, e, e + 1, e + 63, e + 64, e + 65, longest - 2, longest,
                             10 ** 5}):
            want.assert_prefix_of(simulate(spec, x0, steps, seed=3))
        # the float phase starts at step e + 1; short ones in lockstep too
        monkeypatch.setattr(dynamics, "MIN_LANES", 1)
        seg, warm = dynamics.SEGMENT, dynamics.WARM_UP
        for floats in (1, warm, seg - 1, seg, seg + 1, seg + warm, 2 * seg + warm + 1):
            want.assert_prefix_of(simulate(spec, x0, e + 1 + floats, seed=3))

    def test_random_systems_long_float_phase(self, monkeypatch):
        # every block of two segments or more runs in lockstep
        monkeypatch.setattr(dynamics, "MIN_LANES", 2)
        rng = random.Random(0x5E6)
        for k in range(100):
            spec = (random_system if k % 2 else mixed_system)(rng)
            start = Point(F(rng.randint(1, 11), 12), rng.random() < 0.5)
            seed = rng.randrange(1 << 20)
            new = simulate(spec, start, 20_000, seed, bit_cap=16)
            oracle_arrays(spec, start, 20_000, seed, bit_cap=16).assert_prefix_of(new)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tag_falls_in_a_later_segment(self, seed):
        # the rows of the two tags differ only for draws above 1 - 1/1000, so
        # a later segment still tagged by its guess reaches the true position
        # bit for bit, and only its tag tells it apart
        spec = tag_clearing_system(F(1, 5000), F(1, 1000))
        new = simulate(spec, "irr:1/5", 40_000, seed, bit_cap=64)
        assert len(new) - new.exact_steps >= dynamics.MIN_LANES * dynamics.SEGMENT
        assert new.exact_steps + 1 + dynamics.SEGMENT < new.n_tagged < len(new)
        oracle_arrays(spec, "irr:1/5", 40_000, seed, bit_cap=64).assert_prefix_of(new)

    @staticmethod
    def count_scalar_runs(monkeypatch) -> tuple:
        """Lists that collect the steps of each scalar repair and of each
        scalar run from a known state."""
        run, repairs, plain = dynamics._ScalarLoop.run, [], []

        def spy(loop, x, tag, draws, stored=None, stored_tags=None):
            picks, xs = run(loop, x, tag, draws, stored, stored_tags)
            (plain if stored is None else repairs).append(len(picks))
            return picks, xs
        monkeypatch.setattr(dynamics._ScalarLoop, "run", spy)
        return repairs, plain

    def test_slow_contraction_repairs_segments(self, monkeypatch):
        # with the least warm-up most segments miss the true orbit, which
        # runs the repair path
        monkeypatch.setattr(dynamics, "_warm_up", lambda spec: dynamics.WARM_UP)
        repairs, _plain = self.count_scalar_runs(monkeypatch)
        new = simulate(slow_contraction_system(), F(1, 3), 100_000, seed=5)
        slow_contraction_oracle().assert_prefix_of(new)
        # most segments are repaired, each in fewer steps than a segment has
        assert len(repairs) > 50 and max(repairs) < dynamics.SEGMENT

    def test_the_warm_up_follows_the_largest_slope(self, monkeypatch):
        spec = slow_contraction_system()
        assert dynamics._warm_up(spec) == 422
        assert F(9, 10) ** 422 <= F(1, 2 ** 64) < F(9, 10) ** 421
        assert dynamics._warm_up(STEP) == dynamics.WARM_UP
        # 2^-64 needs 64 halvings; slope 0 keeps the least warm-up
        assert dynamics._warm_up(tag_clearing_system()) == dynamics.WARM_UP
        # no warm-up at slope 1 or at one so near 1 that it fills a segment
        near = replace(spec, edges=tuple(replace(e, map=AffineMap(F(-1), F(1)))
                                         if e.edge_id == "1" else e for e in spec.edges))
        assert dynamics._warm_up(near) is None
        flat = replace(spec, edges=tuple(
            replace(e, map=AffineMap(F(999, 1000), e.map.intercept / 100))
            for e in spec.edges))
        assert dynamics._warm_up(flat) is None
        # at 422 steps the lockstep segments meet the true orbit
        repairs, plain = self.count_scalar_runs(monkeypatch)
        new = simulate(spec, F(1, 3), 100_000, seed=5)
        slow_contraction_oracle().assert_prefix_of(new)
        assert len(repairs) <= 2 and not plain

    def test_no_warm_up_runs_the_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_warm_up", lambda spec: None)
        repairs, plain = self.count_scalar_runs(monkeypatch)
        new = simulate(slow_contraction_system(), F(1, 3), 100_000, seed=5)
        slow_contraction_oracle().assert_prefix_of(new)
        segments = -(-(len(new) - new.exact_steps) // dynamics.SEGMENT)
        assert not repairs and len(plain) == segments

    def test_the_boundary_check_makes_the_trace_exact(self, monkeypatch):
        # accepting every segment unchecked leaves guessed orbits in the
        # trace; with the least warm-up most of them are off the true orbit
        monkeypatch.setattr(dynamics, "_warm_up", lambda spec: dynamics.WARM_UP)
        monkeypatch.setattr(dynamics, "_same_state", lambda *states: True)
        new = simulate(slow_contraction_system(), F(1, 3), 100_000, seed=5)
        want = slow_contraction_oracle()
        assert not np.array_equal(new.positions.view(np.uint64), want.positions.view(np.uint64))


class TestTraceViews:
    def test_prefix_of_a_longer_trace(self):
        long, short = simulate(STEP, 1, 5000, seed=5), simulate(STEP, 1, 300, seed=5)
        n = len(short)
        assert short.values == long.values[:n + 1] and short.labels == long.labels[:n]
        assert short.tags == long.tags[:n + 1]
        assert short.values != long.values[:n] and short.values != long.values[1:n + 2]
        other = simulate(STEP, 1, 300, seed=6)
        assert other.values != long.values[:n + 1] or other.labels != long.labels[:n]

    def test_fraction_and_float_positions_compare_by_value(self):
        # dyadic positions are exact in float64 too: a trace that turns float
        # early equals one that stays exact, as the lists did
        for cap in (0, 2, 8):
            a = simulate(SPLIT, F(1, 2), 30, seed=9, bit_cap=cap)
            b = simulate(SPLIT, F(1, 2), 30, seed=9)
            want = (oracle_simulate(SPLIT, F(1, 2), 30, seed=9, bit_cap=cap).values
                    == oracle_simulate(SPLIT, F(1, 2), 30, seed=9).values)
            assert want and a.exact_steps != b.exact_steps
            assert (a.values == b.values) == want and (b.values[3:] == a.values[3:]) == want
        c, d = simulate(STEP, F(1, 2), 50, seed=5, bit_cap=0), simulate(STEP, F(1, 2), 50, seed=5)
        assert c.values != d.values and c.labels == d.labels

    def test_sequence_behaviour(self):
        tr = simulate(STEP, 0, 10, seed=9)
        assert len(tr.values) == 11 and tr.values[-1] == tr.values[10]
        assert list(reversed(tr.labels)) == list(tr.labels)[::-1]
        assert tr.values[1] in tr.values and tr.labels.index("1") == 0
        assert tr.values[2:5][1] == tr.values[3] and len(tr.values[20:]) == 0
        assert tr.labels != "1" * 10 and tr.labels != 3
        with pytest.raises(IndexError):
            tr.values[11]
        with pytest.raises(TypeError):
            hash(tr.labels)

    def test_traces_compare_by_their_fields(self):
        # as the list-based dataclass did: seed, start, exact_steps and the
        # three columns, and no hash
        a, b = simulate(STEP, F(5, 7), 300, seed=4), simulate(STEP, F(5, 7), 300, seed=4)
        assert a == b and not a != b
        assert a != simulate(STEP, F(5, 7), 300, seed=5)
        assert a != simulate(STEP, F(5, 7), 301, seed=4)
        assert a != simulate(STEP, F(5, 7), 300, seed=4, bit_cap=8)
        assert a != simulate(STEP, "irr:5/7", 300, seed=4) and a != a.values
        with pytest.raises(TypeError):
            hash(a)


def test_trace_memory_stays_near_its_arrays():
    """A 2*10^5-step trace of step_ninth, both averages over it and one
    prefix comparison peak below 7 times the bytes of the trace's
    arrays. Here the peak is 8.5 MiB against 1.7 MiB of arrays (the rest:
    the exact prefix's integer pairs and its chunk of draws as Python
    ints); a trace of Python lists peaked at 15.4 MiB."""
    fp = fundamental_partition(STEP)
    steps = 200_000
    simulate(STEP, F(5, 7), 10, seed=3)
    tracemalloc.start()
    try:
        a = simulate(STEP, F(5, 7), steps, seed=3)
        ergodic_average(a, Polynomial((F(0), F(1))))
        class_frequencies(a, fp)
        b = simulate(STEP, F(5, 7), steps // 10, seed=3)
        n = len(b)
        assert not a.values[:n + 1] != b.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = a.positions.nbytes + a.edges.nbytes
    assert arrays == 9 * steps + 8
    assert peak < 7 * arrays, (peak, arrays)
