"""Seeded sampling machinery shared by simulation and Monte Carlo.

Reproducibility contract (also documented in the README):

* substream i of seed s is `PCG64(SeedSequence(s, spawn_key=(i,)))`;
* each path consumes one uniform 64-bit integer per step;
* edge k is selected at a point with cumulative probabilities c_1 <= ...
  <= c_m exactly when u/2^64 lands in [c_{k-1}, c_k), implemented with the
  precomputed integer thresholds T_k = ceil(c_k * 2^64).

Probability values and thresholds are exact rationals. Path positions are
tracked in float64 inside the vectorized sampler; only the interval-cell
lookup of a position can be off near a breakpoint (within rounding of the
orbit), never the probabilities attached to the cell, and never the
rationality tag, which propagates exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .model import SystemSpec, ZeroMassState

TWO64 = 1 << 64
U64_MAX = np.uint64(TWO64 - 1)


def substream(seed: int, index: int) -> Generator:
    return Generator(PCG64(SeedSequence(seed, spawn_key=(index,))))


def draw_matrix(seed: int, n_streams: int, n_draws: int, base: int = 0) -> np.ndarray:
    """uint64 draws, row i = the first n_draws outputs of substream base+i."""
    out = np.empty((n_streams, n_draws), dtype=np.uint64)
    for i in range(n_streams):
        out[i] = substream(seed, base + i).integers(0, TWO64 - 1, endpoint=True,
                                                    dtype=np.uint64, size=n_draws)
    return out


class EvalTables:
    """Per-cell probability tables for a validated system.

    Cells, rows and cuts are the system's `CellIndex`: the common
    probability refinement crossed with the rational/irrational tag when
    any edge reads it, so the edge probability is a constant on every
    cell. `thresholds[c]` holds the integer edge
    selection thresholds for cell c; a threshold of 2^64 (unreachable) is
    stored saturated with `never[c, k]` set.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.edge_ids = list(spec.edge_ids)
        n_edges = len(self.edge_ids)

        self.index = spec.cell_index
        self.tagged = self.index.tagged

        rows = self.index.rows        # row -> list of Fraction per edge
        n_rows = len(rows)
        self.thresholds = np.zeros((n_rows, max(n_edges - 1, 1)), dtype=np.uint64)
        self.never = np.zeros_like(self.thresholds, dtype=bool)
        self.logp = np.full((n_rows, n_edges), -np.inf, dtype=np.float64)

        for row, values in enumerate(rows):
            total = sum(values, Fraction(0))
            if total != 1:
                cell, tag = divmod(row, 2) if self.tagged else (row, 0)
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
        self.n_edges = n_edges

        # plain-Python selectors for the scalar hot loop
        self.row_selectors = []
        for row in range(n_rows):
            sel = [(k + 1, int(self.thresholds[row, k]))
                   for k in range(n_edges - 1) if not self.never[row, k]]
            self.row_selectors.append(sel)

    # -- vector access (float positions) -------------------------------------

    def rows_vector(self, positions: np.ndarray, tags: np.ndarray) -> np.ndarray:
        cuts_f, owned_left = self.index.cuts_f, self.index.cuts_owned
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
        if self.tagged:
            return base * 2 + tags.astype(np.int64)
        return base


class VectorPaths:
    """Lockstep ensemble of sample paths driven by precomputed uint64 draws."""

    def __init__(self, tables: EvalTables, positions: np.ndarray, tags: np.ndarray):
        self.tables = tables
        self.positions = positions.astype(np.float64).copy()
        self.tags = tags.astype(bool).copy()

    def rows(self) -> np.ndarray:
        return self.tables.rows_vector(self.positions, self.tags)

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
