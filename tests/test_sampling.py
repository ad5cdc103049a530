"""The lockstep Monte Carlo kernel against the per-lane sampler it replaced.

The oracles below are the earlier sampler, kept verbatim: one generator
per lane filling a (lanes, steps) draw matrix, two `searchsorted` calls
per cell lookup, one direction of `xi_estimate` at a time with a
(lanes, steps) label matrix, and the cloud push over the draw matrix.
Every `XiReport` field and every cloud history must be bitwise equal.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import PCG64, SeedSequence

from rdsys import dynamics, measures, partition, sampling, systems
from rdsys.measures import XiParams, XiReport
from rdsys.model import (AffineMap, Edge, OutOfDomain, PiecewiseConstant, Point,
                         SystemSpec, as_point, cells_from_cuts, validate_system)

from conftest import UNIT, random_system

BUNDLED = ("step_ninth", "step_twentyseventh", "positive_step",
           "rational_split", "constant_half")
# (x, y) per bundled system; "irr:" marks an irrational-tagged point
PAIRS = {
    "step_ninth": (("1/2", "2/3"), ("1/4", "3/4"), ("1", "1/4"), ("0", "1/9")),
    "step_twentyseventh": (("1/2", "2/3"), ("1/20", "1/9"), ("1", "1/4")),
    "positive_step": (("1/4", "1/3"), ("1/4", "3/4"), ("0", "1")),
    "rational_split": (("0", "1/3"), ("0", "irr:1/2"), ("irr:1/5", "irr:9/10"),
                       ("irr:1/3", "1/3")),
    "constant_half": (("1/4", "3/4"), ("0", "1"), ("1/2", "1/2")),
}


# ---------------------------------------------------------------------------
# oracles: the earlier sampler

TWO64 = 1 << 64


def substream(seed, index):
    return np.random.Generator(PCG64(SeedSequence(seed, spawn_key=(index,))))


def draw_matrix(seed: int, n_streams: int, n_draws: int, base: int = 0) -> np.ndarray:
    """uint64 draws, row i = the first n_draws outputs of substream base+i."""
    out = np.empty((n_streams, n_draws), dtype=np.uint64)
    for i in range(n_streams):
        out[i] = substream(seed, base + i).integers(0, TWO64 - 1, endpoint=True,
                                                    dtype=np.uint64, size=n_draws)
    return out


def rows_vector(self, positions: np.ndarray, tags: np.ndarray) -> np.ndarray:
    ends = self.index.cells[:-1]
    cuts_f = np.array([float(c.hi) for c in ends], dtype=np.float64)
    owned_left = np.array([c.own_hi for c in ends], dtype=bool)
    if len(cuts_f) == 0:
        base = np.zeros(len(positions), dtype=np.int64)
    else:
        base = np.searchsorted(cuts_f, positions, side="right")
        eq = np.searchsorted(cuts_f, positions, side="left")
        hit = eq < len(cuts_f)
        at_cut = np.zeros(len(positions), dtype=bool)
        at_cut[hit] = cuts_f[eq[hit]] == positions[hit]
        owned = np.zeros(len(positions), dtype=bool)
        owned[hit] = owned_left[eq[hit]]
        base = base - (at_cut & owned)
    if self.index.tagged:
        return base * 2 + tags.astype(np.int64)
    return base


class VectorPaths:
    """Lockstep ensemble of sample paths driven by precomputed uint64 draws."""

    def __init__(self, tables, positions: np.ndarray, tags: np.ndarray):
        self.tables = tables
        self.positions = positions.astype(np.float64).copy()
        self.tags = tags.astype(bool).copy()

    def rows(self) -> np.ndarray:
        return rows_vector(self.tables, self.positions, self.tags)

    def select(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Edge index per path for draws u at the given probability rows."""
        t = self.tables
        idx = np.zeros(len(self.positions), dtype=np.int64)
        for k in range(t.n_edges - 1):
            chosen = (u >= t.thresholds[rows, k]) & ~t.never[rows, k]
            idx = np.where(chosen, k + 1, idx)
        return idx

    def apply(self, idx: np.ndarray) -> None:
        t = self.tables
        self.positions = t.slopes_f[idx] * self.positions + t.intercepts_f[idx]
        self.tags &= t.slope_nonzero[idx]

    def step(self, u: np.ndarray) -> np.ndarray:
        """Advance every path one step with its draw; returns edge indexes."""
        idx = self.select(self.rows(), u)
        self.apply(idx)
        return idx


def start_arrays(point_value, point_tag: bool, n: int):
    positions = np.full(n, float(point_value), dtype=np.float64)
    tags = np.full(n, bool(point_tag), dtype=bool)
    return positions, tags


def _mc_direction(spec, tables, start: Point, other: Point,
                  params: XiParams, stream_base: int):
    """Sample paths from `start` under its own measure, tracking the log
    likelihood ratio against the measure from `other` driven by the same
    edge labels. Returns per-path mean increments, the infinity mask, the
    final log ratios, and the label history."""
    n, m = params.num_samples, params.n_mc
    draws = draw_matrix(params.seed, n, m, base=stream_base)

    px_paths = VectorPaths(tables, *start_arrays(start.value, start.irrational_tag, n))
    py_paths = VectorPaths(tables, *start_arrays(other.value, other.irrational_tag, n))
    log_ratio = np.zeros(n, dtype=np.float64)
    inf_mask = np.zeros(n, dtype=bool)
    labels = np.zeros((n, m), dtype=np.uint8)
    first_inf = None  # (sample, step)

    for k in range(m):
        u = draws[:, k]
        rows_x = px_paths.rows()
        idx = px_paths.select(rows_x, u)
        rows_y = py_paths.rows()
        labels[:, k] = idx
        lx = tables.logp[rows_x, idx]
        ly = tables.logp[rows_y, idx]
        newly_inf = np.isneginf(ly) & ~inf_mask
        if newly_inf.any() and first_inf is None:
            first_inf = (int(np.argmax(newly_inf)), k)
        inf_mask |= np.isneginf(ly)
        with np.errstate(invalid="ignore"):
            log_ratio = np.where(inf_mask, np.inf, log_ratio + lx - ly)
        px_paths.apply(idx)
        py_paths.apply(idx)

    finite = ~inf_mask
    per_step = log_ratio[finite] / m if finite.any() else np.empty(0)
    return per_step, inf_mask, log_ratio, labels, first_inf


def oracle_xi(spec, x, y, params: XiParams):
    """The earlier `xi_estimate`, running one direction at a time."""
    xp, yp = as_point(x), as_point(y)
    tails_x, witness_x = measures._exact_tail_scan(spec, xp, yp, params)
    tails_y, witness_y = measures._exact_tail_scan(spec, yp, xp, params)
    table = {key: tails_x[key] + tails_y[key] for key in tails_x}
    witness = witness_x if witness_x is not None else witness_y

    tables = sampling.EvalTables(spec)
    fwd, inf_fwd, logr_fwd, labels_fwd, first_fwd = _mc_direction(
        spec, tables, xp, yp, params, 0)
    rev, inf_rev, logr_rev, labels_rev, first_rev = _mc_direction(
        spec, tables, yp, xp, params, params.num_samples)

    drift, stderr, z_fwd = measures._drift_stats(fwd)
    drift_rev, stderr_rev, z_rev = measures._drift_stats(rev)

    grid = sorted(Fraction(M) for M in params.m_grid)
    mc_tails = {}
    for M in grid:
        logm = math.log(M)
        mc_tails[M] = (float(np.mean(logr_fwd > logm))
                       + float(np.mean(logr_rev > logm)))
    inf_fraction = float((np.sum(inf_fwd) + np.sum(inf_rev))
                         / (2 * params.num_samples))

    sampled = None
    if witness is None:
        for (first, start_pt, other_pt, labels) in (
                (first_fwd, xp, yp, labels_fwd), (first_rev, yp, xp, labels_rev)):
            if first is None:
                continue
            i, k = first
            word = tuple(tables.edge_ids[j] for j in labels[i, :k + 1])
            if (measures.cylinder_measure(spec, start_pt, word) > 0
                    and measures.cylinder_measure(spec, other_pt, word) == 0):
                witness = sampled = word
                break

    cert = partition.pair_certificate(spec, xp, yp)
    if witness is None and cert is not None and cert.kind == "support_separation":
        witness = cert.word

    persistent = any(all(table[(n, M)] >= 1 - measures.PERSISTENT_TOL for M in grid)
                     for n in range(1, params.n_exact + 1))
    all_tails_zero = all(mass == 0 for mass in table.values())

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

    report = XiReport(
        x=xp, y=yp, exact_tail_table=table, infinity_witness=witness,
        mc_drift=drift, mc_drift_stderr=stderr,
        mc_drift_reverse=drift_rev, mc_drift_reverse_stderr=stderr_rev,
        mc_tail_estimates=mc_tails, mc_infinity_fraction=inf_fraction,
        verdict=verdict, seed=params.seed, num_samples=params.num_samples,
        n_mc=params.n_mc, pair_certificate=cert)
    return report, sampled


def push_cloud(spec, cloud: np.ndarray, steps: int, seed: int, *,
               record: bool = False):
    """Advance every atom `steps` steps; atom i consumes the first draws of
    substream i, so scheduling cannot change the result."""
    tables = sampling.EvalTables(spec)
    positions = np.asarray(cloud, dtype=np.float64)
    paths = VectorPaths(tables, positions, np.zeros(len(positions), dtype=bool))
    draws = draw_matrix(seed, len(positions), steps)
    history = [paths.positions.copy()] if record else None
    for k in range(steps):
        paths.step(draws[:, k])
        if record:
            history.append(paths.positions.copy())
    return history if record else paths.positions


# ---------------------------------------------------------------------------
# comparison helpers

def report_fields(r: XiReport):
    """Every field, with floats by repr so that equality is bitwise."""
    return (r.x, r.y, r.exact_tail_table, r.infinity_witness,
            repr(r.mc_drift), repr(r.mc_drift_stderr),
            repr(r.mc_drift_reverse), repr(r.mc_drift_reverse_stderr),
            sorted((M, repr(v)) for M, v in r.mc_tail_estimates.items()),
            repr(r.mc_infinity_fraction), r.verdict, r.seed, r.num_samples,
            r.n_mc, r.pair_certificate)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_points(rng, spec, count):
    """Points on the system's cut values and on small grids."""
    cuts = [Fraction(p, q) for p, q, _owned in spec.cell_index.cuts.exact]
    grid = [Fraction(rng.randint(0, d), d) for d in (2, 3, 5, 7, 12) for _ in range(2)]
    return [rng.choice(cuts + grid) for _ in range(count)]


# ---------------------------------------------------------------------------
# lane seeding

@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1, 2 ** 70 + 3])
def test_lane_seeding_matches_seed_sequence(seed):
    keys = list(range(4096)) + [2 ** 32 - 1]
    streams = sampling.LaneStreams(seed, keys)
    got = np.array([streams.draw().copy() for _ in range(3)])
    want = np.array([PCG64(SeedSequence(seed, spawn_key=(k,))).random_raw(3)
                     for k in keys]).T
    assert np.array_equal(got, want)


def test_lane_draws_match_the_generator_words():
    keys = [0, 1, 77, 2 ** 32 - 1]
    streams = sampling.LaneStreams(11, keys)
    got = np.array([streams.draw().copy() for _ in range(1000)]).T
    want = np.array([draw_matrix(11, 1, 1000, base=k)[0] for k in keys])
    assert np.array_equal(got, want)


def test_lane_keys_and_seeds_checked():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sampling.LaneStreams(-1, [0])
    with pytest.raises(ValueError, match="lane keys"):
        sampling.LaneStreams(1, [2 ** 32])
    assert sampling.LaneStreams(1, []).draw().shape == (0,)


# ---------------------------------------------------------------------------
# cell lookup and edge selection

def close_cut_systems():
    """Systems whose two distinct rational cuts round to the same float,
    with every ownership of the two cuts."""
    a = Fraction(1, 3)
    b = a + Fraction(1, 10 ** 40)
    assert float(a) == float(b)
    out = []
    for side_a in (1, -1):
        for side_b in (1, -1):
            cells = cells_from_cuts(UNIT, [(a, side_a), (b, side_b), (Fraction(1, 2), 1)])
            probs = [Fraction(k + 1, len(cells) + 2) for k in range(len(cells))]
            edges = (Edge("0", AffineMap(Fraction(1, 2), Fraction(0)),
                          PiecewiseConstant(tuple((c, p) for c, p in zip(cells, probs)))),
                     Edge("1", AffineMap(Fraction(1, 2), Fraction(1, 2)),
                          PiecewiseConstant(tuple((c, 1 - p) for c, p in zip(cells, probs)))))
            out.append(SystemSpec(domain=UNIT, edges=edges))
    return out


def lookup_systems():
    rng = random.Random(5)
    return ([systems.bundled_spec(n) for n in BUNDLED] + close_cut_systems()
            + [random_system(rng) for _ in range(200)])


def test_cell_lookup_at_every_cut_and_its_float_neighbours():
    for spec in lookup_systems():
        tables = sampling.EvalTables(spec)
        cuts = np.array([float(c.hi) for c in tables.index.cells[:-1]])
        values = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
                                 [float(spec.domain.lo), float(spec.domain.hi), np.nan]])
        for tag in (False, True):
            tags = np.full(len(values), tag)
            paths = sampling.VectorPaths(tables, values, tags, sampling.LaneStreams(0, []))
            assert np.array_equal(paths.rows()[0], rows_vector(tables, values, tags)), spec


def test_simulate_and_the_kernel_file_close_cuts_alike():
    """Once its positions turn float, `simulate` draws the edges lane 0 of
    the lockstep kernel draws from the same substream, also where two
    rational cuts round to one float (1/3 is reached in one step)."""
    for spec in close_cut_systems():
        tables = sampling.EvalTables(spec)
        for seed in range(200):
            trace = dynamics.simulate(spec, Fraction(2, 3), 3, seed, bit_cap=0)
            lane = sampling.replay_lane(tables, Fraction(2, 3), False, seed, 0, 3)
            assert trace.labels == [tables.edge_ids[k] for k in lane], (spec, seed)


def test_edge_selection_at_the_thresholds():
    u_max = np.uint64(TWO64 - 1)
    for spec in lookup_systems():
        tables = sampling.EvalTables(spec)
        for row in range(len(tables.thresholds)):
            u = [np.uint64(0), np.uint64(1), u_max, u_max - np.uint64(1)]
            for t in tables.thresholds[row]:
                u += [t, t - np.uint64(1) if t else t, t + np.uint64(1) if t < u_max else t]
            u = np.array(u, dtype=np.uint64)
            rows = np.full(len(u), row)
            old = VectorPaths(tables, np.zeros(len(u)), np.zeros(len(u), dtype=bool))
            new = sampling.VectorPaths(tables, np.zeros(len(u)), False,
                                       sampling.LaneStreams(0, []))
            assert np.array_equal(new.select(rows, u), old.select(rows, u)), spec


# ---------------------------------------------------------------------------
# xi_estimate and push_cloud against the oracles

def test_xi_matches_oracle_on_random_systems():
    rng = random.Random(8)
    for k in range(200):
        spec = random_system(rng)
        x, y = random_points(rng, spec, 2)
        params = XiParams(n_exact=2, num_samples=12, n_mc=16, seed=k)
        want, _sampled = oracle_xi(spec, x, y, params)
        got = measures.xi_estimate(spec, x, y, params)
        assert report_fields(got) == report_fields(want), (k, x, y)


@pytest.mark.parametrize("name", BUNDLED)
def test_xi_matches_oracle_on_bundled_systems(name):
    spec = systems.bundled_spec(name)
    for x, y in PAIRS[name]:
        params = XiParams(n_exact=4, num_samples=150, n_mc=120, seed=7)
        want, _sampled = oracle_xi(spec, x, y, params)
        got = measures.xi_estimate(spec, x, y, params)
        assert report_fields(got) == report_fields(want), (x, y)


def test_witness_from_a_replayed_lane():
    """With a depth-1 exact scan on step_ninth, 1/4 and 3/4 have no
    separating word yet; the sampled paths find (0, 0), whose lane is
    replayed to name it."""
    spec = systems.bundled_spec("step_ninth")
    params = XiParams(n_exact=1, num_samples=50, n_mc=20, seed=3)
    x, y = Point(Fraction(1, 4)), Point(Fraction(3, 4))
    assert measures._exact_tail_scan(spec, x, y, params)[1] is None
    assert measures._exact_tail_scan(spec, y, x, params)[1] is None
    want, sampled = oracle_xi(spec, x, y, params)
    assert sampled is not None
    got = measures.xi_estimate(spec, x, y, params)
    assert got.infinity_witness == sampled
    assert report_fields(got) == report_fields(want)


def test_witness_from_a_replayed_reverse_lane():
    """A pair whose only sampled infinite ratio is in the y-direction, at
    step 4 of lane 23: the word comes from lane n + 23, substream n + 23."""
    rng = random.Random(4)
    for _ in range(7):
        spec = random_system(rng)
        x, y = random_points(rng, spec, 2)
    assert (x, y) == (Fraction(1, 4), Fraction(0))
    params = XiParams(n_exact=1, num_samples=30, n_mc=20, seed=6)
    tables = sampling.EvalTables(spec)
    assert _mc_direction(spec, tables, as_point(x), as_point(y), params, 0)[4] is None
    assert _mc_direction(spec, tables, as_point(y), as_point(x), params, 30)[4] == (23, 4)
    want, sampled = oracle_xi(spec, x, y, params)
    assert sampled == ("0", "1", "0", "0", "1")
    got = measures.xi_estimate(spec, x, y, params)
    assert got.infinity_witness == sampled
    assert report_fields(got) == report_fields(want)


def test_push_cloud_matches_oracle_on_random_systems():
    rng = random.Random(9)
    for k in range(200):
        spec = random_system(rng)
        cloud = [float(p) for p in random_points(rng, spec, 24)]
        want = push_cloud(spec, cloud, 12, k, record=True)
        got = dynamics.push_cloud(spec, cloud, 12, k, record=True)
        assert len(got) == len(want) and all(map(same_bits, got, want)), k


@pytest.mark.parametrize("name", BUNDLED)
def test_push_cloud_matches_oracle_on_bundled_systems(name):
    spec = systems.bundled_spec(name)
    cloud = (np.arange(300) + 0.5) / 300
    want = push_cloud(spec, cloud, 30, 5, record=True)
    got = dynamics.push_cloud(spec, cloud, 30, 5, record=True)
    assert all(map(same_bits, got, want))
    assert same_bits(dynamics.push_cloud(spec, cloud, 30, 5), want[-1])


# ---------------------------------------------------------------------------
# argument checks

def test_push_cloud_rejects_atoms_outside_the_domain():
    spec = systems.bundled_spec("step_ninth")
    for cloud in ([5.0, -2.0], [0.5, np.nan], [0.5, -1e-300]):
        with pytest.raises(OutOfDomain):
            dynamics.push_cloud(spec, cloud, 3, 3)
    with pytest.raises(OutOfDomain):
        dynamics.convergence_rate(spec, [2.0], [0.5], 3, 3)
    assert len(dynamics.push_cloud(spec, [0.0, 1.0], 3, 3)) == 2


@pytest.mark.parametrize("kwargs, name", [
    ({"num_samples": 0}, "num_samples"), ({"num_samples": -2}, "num_samples"),
    ({"n_mc": 0}, "n_mc"), ({"seed": -1}, "seed")])
def test_xi_rejects_bad_sampler_sizes(kwargs, name):
    spec = systems.bundled_spec("step_ninth")
    params = XiParams(**{"seed": 1, **kwargs})
    with pytest.raises(ValueError, match=name):
        measures.xi_estimate(spec, Fraction(1, 4), Fraction(3, 4), params)


def test_cloud_and_rate_reject_bad_sizes():
    spec = systems.bundled_spec("step_ninth")
    with pytest.raises(ValueError, match="steps"):
        dynamics.push_cloud(spec, [0.5], -1, 3)
    with pytest.raises(ValueError, match="seed"):
        dynamics.push_cloud(spec, [0.5], 2, -3)
    with pytest.raises(ValueError, match="size"):
        dynamics.stationary_cloud(spec, 0, 3, 3)
    with pytest.raises(ValueError, match="n_max"):
        dynamics.convergence_rate(spec, [0.5], [0.5], -1, 3)
    with pytest.raises(ValueError, match="seed"):
        dynamics.simulate(spec, Fraction(1, 2), 5, -1)


def test_validation_reads_the_cell_index():
    spec = systems.bundled_spec("rational_split")
    assert "cell_index" not in vars(spec)
    assert validate_system(spec).ok
    assert "cell_index" in vars(spec)
