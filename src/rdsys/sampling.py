"""Seeded sampling machinery shared by simulation and Monte Carlo.

Reproducibility contract (also documented in the README):

* substream i of seed s is `PCG64(SeedSequence(s, spawn_key=(i,)))`;
* each path consumes one uniform 64-bit integer per step, the raw PCG64
  output (the word `Generator.integers(0, 2**64 - 1, endpoint=True,
  dtype=uint64)` returns);
* edge k is selected at a point with cumulative probabilities c_1 <= ...
  <= c_m exactly when u/2^64 lands in [c_{k-1}, c_k), implemented with the
  precomputed integer thresholds T_k = ceil(c_k * 2^64).

Probability values and thresholds are exact rationals. Path positions are
tracked in float64 inside the vectorized sampler and filed by the float
cut table of the system's `Cuts`, the one `dynamics.simulate` reads once
its positions turn float. Only that lookup can be off near a breakpoint
(within rounding of the orbit), never the probabilities attached to the
cell, and never the rationality tag, which propagates exactly.

The Monte Carlo kernel is one lockstep ensemble of lanes:

* `LaneStreams` seeds every lane of a call at once. The lanes share the
  seed and differ only in the spawn key, so the `SeedSequence` hash runs
  once over numpy arrays of keys, and the 128-bit PCG64 states of all
  lanes then advance together, one word per lane per step. No per-lane
  generator object and no (lanes, steps) draw matrix is made.
* `VectorPaths` holds positions of shape (k, lanes). Row 0 leads: its
  cell and the lane's draw pick the edge. Further rows shadow it: they
  take the same edge from their own positions (the likelihood-ratio
  partner of `measures.xi_estimate`). Rows come from one `searchsorted`
  on that float cut table.
* `VectorPaths` also runs the lockstep segments of `dynamics.simulate`'s
  float phase. There the lanes are segments of one trace, and their
  draws come from the trace's own substream: the caller passes each
  step's words to `select` and no `LaneStreams` is made.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .model import SystemSpec, ZeroMassState

TWO64 = 1 << 64
U64_MAX = np.uint64(TWO64 - 1)


def check_seed(seed) -> int:
    """The seed as an int; a negative seed raises ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def substream(seed: int, index: int) -> Generator:
    return Generator(PCG64(SeedSequence(check_seed(seed), spawn_key=(index,))))


# ---------------------------------------------------------------------------
# lane streams: SeedSequence and PCG64 over arrays of lanes

# numpy's SeedSequence hash constants (pool of four 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit words
_MUL_HI, _MUL_LO = 2549297995355413924, 4865540595714422341


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _spawn_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """Shape (4, lanes): `SeedSequence(seed, spawn_key=(k,))
    .generate_state(4, uint64)` for every key k (0 <= k < 2^32)."""
    seed = check_seed(seed)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("lane keys must lie in [0, 2^32)")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # a spawn key pads the seed's words to the pool size, then follows them
    entropy += [0] * (_POOL - len(entropy))
    lanes = np.ones(len(keys), dtype=np.uint32)
    words = [lanes * w for w in entropy] + [keys.astype(np.uint32)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.array([state[2 * j] | (state[2 * j + 1] << np.uint64(32))
                     for j in range(_POOL)], dtype=np.uint64)


class LaneStreams:
    """Substreams `keys` of `seed`, advanced in lockstep: each `draw()`
    returns the next word of every lane, the word `substream(seed, k)`
    gives at the same position.

    The state of lane k is PCG64's 128-bit LCG state, held as high and
    low uint64 words, seeded from `_spawn_words` as `PCG64` seeds itself.
    Each draw steps the LCG and applies PCG64's XSL-RR output function.
    """

    def __init__(self, seed: int, keys):
        w0, w1, w2, w3 = _spawn_words(seed, keys)
        one = np.uint64(1)
        self.inc_hi = (w2 << one) | (w3 >> np.uint64(63))
        self.inc_lo = (w3 << one) | one
        # state = (inc + seed) * MUL + inc, where seed = w0:w1
        self.lo = w1 + self.inc_lo
        self.hi = w0 + self.inc_hi + (self.lo < w1)
        n = len(w0)
        self._a0, self._a1, self._p, self._q, self._r, self._out = (
            np.empty(n, dtype=np.uint64) for _ in range(6))
        self._step()

    def _step(self) -> None:
        """state = state * MUL + inc (mod 2^128), in place."""
        hi, lo = self.hi, self.lo
        a0, a1, p, q, r = self._a0, self._a1, self._p, self._q, self._r
        mul, add, shr = np.multiply, np.add, np.right_shift
        m32, s32 = np.uint64(_MASK32), np.uint64(32)
        b0, b1 = np.uint64(_MUL_LO & _MASK32), np.uint64(_MUL_LO >> 32)
        # q = high word of lo * MUL_LO, from 32-bit halves
        np.bitwise_and(lo, m32, out=a0)
        shr(lo, s32, out=a1)
        mul(a0, b0, out=p)
        shr(p, s32, out=p)
        mul(a1, b0, out=q)
        add(q, p, out=q)              # a1*b0 + (a0*b0 >> 32) < 2^64
        np.bitwise_and(q, m32, out=r)
        mul(a0, b1, out=p)
        add(r, p, out=r)              # (q & m32) + a0*b1 < 2^64
        shr(q, s32, out=q)
        shr(r, s32, out=r)
        add(q, r, out=q)
        mul(a1, b1, out=p)
        add(q, p, out=q)
        # hi = q + lo*MUL_HI + hi*MUL_LO + inc_hi + carry; lo = lo*MUL_LO + inc_lo
        mul(hi, np.uint64(_MUL_LO), out=hi)
        add(hi, q, out=hi)
        mul(lo, np.uint64(_MUL_HI), out=p)
        add(hi, p, out=hi)
        add(hi, self.inc_hi, out=hi)
        mul(lo, np.uint64(_MUL_LO), out=lo)
        add(lo, self.inc_lo, out=lo)
        add(hi, lo < self.inc_lo, out=hi, casting="unsafe")

    def draw(self) -> np.ndarray:
        """The next word of every lane, in a buffer the next call reuses."""
        self._step()
        x, rot, out = self._p, self._q, self._out
        np.bitwise_xor(self.hi, self.lo, out=x)
        np.right_shift(self.hi, np.uint64(58), out=rot)
        np.right_shift(x, rot, out=out)
        np.negative(rot, out=rot)
        np.bitwise_and(rot, np.uint64(63), out=rot)
        np.left_shift(x, rot, out=x)
        np.bitwise_or(out, x, out=out)
        return out


# ---------------------------------------------------------------------------
# tables and the lockstep kernel

class EvalTables:
    """Per-cell probability tables for a validated system.

    Cells, rows and cuts are the system's `CellIndex`: the common
    probability refinement crossed with the rational/irrational tag when
    any edge reads it, so the edge probability is a constant on every
    cell. `thresholds[c]` holds the integer edge
    selection thresholds for cell c; a threshold of 2^64 (unreachable) is
    stored saturated with `never[c, k]` set, and `cap[c]` counts the
    thresholds that are not. Unreachable thresholds form a suffix of each
    row, so with `row_selectors[c]` the list of the reachable ones, the
    edge index of draw u is `bisect_right(row_selectors[c], u)`.
    `logp_flat[row * n_edges + k]` is log p_k.
    """

    def __init__(self, spec: SystemSpec):
        self.edge_ids = list(spec.edge_ids)
        n_edges = len(self.edge_ids)

        self.index = spec.cell_index

        rows = self.index.rows        # row -> list of Fraction per edge
        n_rows = len(rows)
        self.thresholds = np.zeros((n_rows, max(n_edges - 1, 1)), dtype=np.uint64)
        self.never = np.zeros_like(self.thresholds, dtype=bool)
        self.logp = np.full((n_rows, n_edges), -np.inf, dtype=np.float64)

        for row, values in enumerate(rows):
            total = sum(values, Fraction(0))
            if total != 1:
                cell, tag = divmod(row, 2) if self.index.tagged else (row, 0)
                raise ZeroMassState(
                    f"probabilities sum to {total} on cell {self.index.cells[cell]}"
                    + (" (irrational)" if tag else ""))
            cum = Fraction(0)
            for k in range(n_edges - 1):
                cum += values[k]
                t = -((-cum.numerator * TWO64) // cum.denominator)  # ceil
                if t >= TWO64:
                    self.thresholds[row, k] = U64_MAX
                    self.never[row, k] = True
                else:
                    self.thresholds[row, k] = t
            for k, v in enumerate(values):
                if v > 0:
                    self.logp[row, k] = math.log(v)

        self.slopes = [e.map.slope for e in spec.edges]
        self.intercepts = [e.map.intercept for e in spec.edges]
        self.slopes_f = np.array([float(s) for s in self.slopes], dtype=np.float64)
        self.intercepts_f = np.array([float(c) for c in self.intercepts], dtype=np.float64)
        self.slope_nonzero = np.array([s != 0 for s in self.slopes], dtype=bool)
        self.tags_fall = not self.slope_nonzero.all()   # a constant map drops the tag
        self.n_edges = n_edges

        # vector kernel: threshold columns, the cap where a threshold is
        # unreachable and flat log-probabilities
        self.threshold_columns = [np.ascontiguousarray(self.thresholds[:, k])
                                  for k in range(n_edges - 1)]
        self.cap = np.count_nonzero(~self.never, axis=1)
        self.capped = bool(self.never.any())
        self.logp_flat = self.logp.ravel()

        # scalar loop: each row's reachable thresholds, for one bisect_right
        reachable = ~self.never[:, :n_edges - 1]
        self.row_selectors = [row[keep].tolist() for row, keep
                              in zip(self.thresholds[:, :n_edges - 1], reachable)]


class VectorPaths:
    """Lockstep ensemble of sample paths: positions and tags of shape
    (k, lanes), where row 0 leads with the draws of `streams` and the
    other rows take the edges it takes. With `streams` None, `step` is
    unavailable and the caller feeds `select` the draws."""

    def __init__(self, tables: EvalTables, positions, tags, streams: LaneStreams):
        self.tables = tables
        self.positions = np.array(positions, dtype=np.float64, ndmin=2)
        self.tags = np.broadcast_to(np.asarray(tags, dtype=bool),
                                    self.positions.shape).copy()
        self.streams = streams

    def rows(self) -> np.ndarray:
        """The probability row of every position."""
        return self.tables.index.cuts.rows(self.positions, self.tags)

    def select(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Edge index per lane for draws u at the leading rows: the number
        of reachable thresholds at or below u."""
        t = self.tables
        idx = np.zeros(len(u), dtype=np.intp)
        for column in t.threshold_columns:
            idx += u >= column[rows]
        if t.capped:
            np.minimum(idx, t.cap[rows], out=idx)
        return idx

    def apply(self, idx: np.ndarray) -> None:
        t = self.tables
        self.positions *= t.slopes_f[idx]
        self.positions += t.intercepts_f[idx]
        if t.tags_fall:
            self.tags &= t.slope_nonzero[idx]

    def step(self):
        """Advance every lane one step with its next draw; returns the rows
        of the positions before the step and the edge index per lane."""
        rows = self.rows()
        idx = self.select(rows[0], self.streams.draw())
        self.apply(idx)
        return rows, idx


def replay_lane(tables: EvalTables, point_value, point_tag: bool, seed: int,
                key: int, steps: int) -> list:
    """The edge indexes of the first `steps` steps of the path from the
    point on substream `key`: the labels lane `key` of a lockstep ensemble
    draws, recomputed alone."""
    paths = VectorPaths(tables, [float(point_value)], point_tag,
                        LaneStreams(seed, [key]))
    return [int(paths.step()[1][0]) for _ in range(steps)]
