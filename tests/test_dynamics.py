import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdsys import systems
from rdsys.dynamics import (DegenerateCellOnly, EmptySamples, Indicator,
                            Polynomial, Trace, class_frequencies,
                            contraction_estimate, convergence_rate,
                            ergodic_average, parse_test_function, push_cloud,
                            simulate, stationary_cloud, w1_distance)
from rdsys.model import AffineMap, Edge, Interval, PiecewiseConstant, Point, SystemSpec
from rdsys.partition import PartitionParams, fundamental_partition, stable_partition

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
