import random
from fractions import Fraction

import pytest
from hypothesis import settings

from rdsys.model import (AffineMap, Edge, Interval, PiecewiseConstant,
                         SystemSpec, cells_from_cuts)

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

UNIT = Interval(Fraction(0), Fraction(1))


def random_system(rng: random.Random) -> SystemSpec:
    """A random valid piecewise-constant system on [0,1].

    All edges share one cell grid, so unit sums are exact by construction;
    slopes and intercepts are chosen to keep every image inside [0,1].
    """
    n_edges = rng.choice([2, 2, 2, 3])
    n_breaks = rng.randint(0, 3)
    points = set()
    while len(points) < n_breaks:
        den = rng.randint(2, 12)
        points.add(Fraction(rng.randint(1, den - 1), den))
    cuts = [(t, rng.choice([1, -1])) for t in sorted(points)]
    cells = cells_from_cuts(UNIT, cuts)

    per_cell = []
    for _ in cells:
        while True:
            weights = [rng.randint(0, 4) for _ in range(n_edges)]
            if sum(weights) > 0:
                break
        total = sum(weights)
        per_cell.append([Fraction(w, total) for w in weights])

    edges = []
    for e in range(n_edges):
        pieces = tuple((cells[k], per_cell[k][e]) for k in range(len(cells)))
        sden = rng.randint(1, 6)
        slope = Fraction(rng.randint(-sden, sden), sden)
        if slope >= 0:
            c_lo, c_hi = Fraction(0), 1 - slope
        else:
            c_lo, c_hi = -slope, Fraction(1)
        cden = rng.randint(1, 12)
        intercept = c_lo + (c_hi - c_lo) * Fraction(rng.randint(0, cden), cden)
        edges.append(Edge(str(e), AffineMap(slope, intercept),
                          PiecewiseConstant(pieces)))
    return SystemSpec(domain=UNIT, edges=tuple(edges))


def triadic_system(m: int, rng: random.Random, zeros: bool = False) -> SystemSpec:
    """Maps x/3 + e/3 (e = 0, 1, 2) on [0,1]; probabilities constant on the
    cells cut at (j/3^m, +1), from seeded weights 1..4 per edge, or 0..3
    when `zeros`. The stable partition has 3^m + 1 cells."""
    n = 3 ** m
    cells = [Interval(Fraction(0), Fraction(1, n))] + [
        Interval(Fraction(j, n), Fraction(j + 1, n), False, True) for j in range(1, n)]
    probs = []
    for _cell in cells:
        while True:
            w = [rng.randint(0, 3) if zeros else rng.randint(1, 4) for _ in range(3)]
            if sum(w) > 0:
                break
        probs.append([Fraction(v, sum(w)) for v in w])
    return SystemSpec(domain=UNIT, edges=tuple(
        Edge(str(e), AffineMap(Fraction(1, 3), Fraction(e, 3)),
             PiecewiseConstant(tuple((c, p[e]) for c, p in zip(cells, probs))))
        for e in range(3)))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
