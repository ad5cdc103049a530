"""Bundled specimen systems used by the test suite and the CLI docs.

All of them live on [0,1] and use two edges labeled "0" and "1":

* step_system(threshold, b): contractions x/3 and x/3 + 1/3; edge 0 has
  probability 0 at or below the threshold and b above it. The default
  threshold 1/9 produces a four-cell stable partition with one degenerate
  cell {0}; threshold 1/27 produces five cells.
* positive_step_system(): same maps, edge-0 probability steps from 1/4 to
  1/3 at 1/2; both edges are supported everywhere, and all starting points
  share one mutual-absolute-continuity class.
* rational_split_system(): halving maps x/2 and x/2 + 1/2; probabilities
  depend only on whether the point is rational (1/4 vs 1/3 for edge 0),
  which the maps preserve, so paths from rational and irrational starts
  follow two different product measures.
* constant_system(b): step_system's maps with position-independent
  probabilities (b, 1-b).

triadic_system(m, rng, zeros) is the one seeded family for scale: its chain
has 3^m + 1 states (28, 82, 244, 730 for m = 3..6), one class with weights
1..4 and many with weights 0..3.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from .model import (AffineMap, Edge, Interval, PiecewiseConstant, Point,
                    RationalityPredicate, SystemSpec)

#: a tagged stand-in for sqrt(2)/2, used as an irrational representative
IRRATIONAL_SAMPLE = Point(Fraction(*(0.5 ** 0.5).as_integer_ratio()), irrational_tag=True)

_THIRD = Fraction(1, 3)
_UNIT = Interval(Fraction(0), Fraction(1))


def step_system(threshold: Fraction = Fraction(1, 9), b: Fraction = Fraction(1, 2)) -> SystemSpec:
    threshold = Fraction(threshold)
    b = Fraction(b)
    p0 = PiecewiseConstant((
        (Interval(Fraction(0), threshold, True, True), Fraction(0)),
        (Interval(threshold, Fraction(1), False, True), b),
    ))
    p1 = PiecewiseConstant((
        (Interval(Fraction(0), threshold, True, True), Fraction(1)),
        (Interval(threshold, Fraction(1), False, True), 1 - b),
    ))
    return SystemSpec(domain=_UNIT, edges=(
        Edge("0", AffineMap(_THIRD, Fraction(0)), p0),
        Edge("1", AffineMap(_THIRD, _THIRD), p1),
    ))


def positive_step_system() -> SystemSpec:
    half = Fraction(1, 2)
    p0 = PiecewiseConstant((
        (Interval(Fraction(0), half, True, True), Fraction(1, 4)),
        (Interval(half, Fraction(1), False, True), Fraction(1, 3)),
    ))
    p1 = PiecewiseConstant((
        (Interval(Fraction(0), half, True, True), Fraction(3, 4)),
        (Interval(half, Fraction(1), False, True), Fraction(2, 3)),
    ))
    return SystemSpec(domain=_UNIT, edges=(
        Edge("0", AffineMap(_THIRD, Fraction(0)), p0),
        Edge("1", AffineMap(_THIRD, _THIRD), p1),
    ))


def rational_split_system() -> SystemSpec:
    half = Fraction(1, 2)
    return SystemSpec(domain=_UNIT, edges=(
        Edge("0", AffineMap(half, Fraction(0)),
             RationalityPredicate(Fraction(1, 4), Fraction(1, 3))),
        Edge("1", AffineMap(half, half),
             RationalityPredicate(Fraction(3, 4), Fraction(2, 3))),
    ))


def constant_system(b: Fraction = Fraction(1, 2)) -> SystemSpec:
    b = Fraction(b)
    p0 = PiecewiseConstant(((_UNIT, b),))
    p1 = PiecewiseConstant(((_UNIT, 1 - b),))
    return SystemSpec(domain=_UNIT, edges=(
        Edge("0", AffineMap(_THIRD, Fraction(0)), p0),
        Edge("1", AffineMap(_THIRD, _THIRD), p1),
    ))


def triadic_system(m: int, rng: random.Random, zeros: bool = False) -> SystemSpec:
    """Maps x/3 + e/3 (e = 0, 1, 2) on [0,1]; probabilities constant on the
    cells cut at (j/3^m, +1), from weights 1..4 per edge drawn from `rng`
    cell by cell, or 0..3 when `zeros` (an all-zero draw is redrawn)."""
    n = 3 ** m
    cells = [Interval(Fraction(0), Fraction(1, n))] + [
        Interval(Fraction(j, n), Fraction(j + 1, n), False, True) for j in range(1, n)]
    probs = []
    for _cell in cells:
        w = [0, 0, 0]
        while sum(w) == 0:
            w = [rng.randint(0, 3) if zeros else rng.randint(1, 4) for _ in range(3)]
        probs.append([Fraction(v, sum(w)) for v in w])
    return SystemSpec(domain=_UNIT, edges=tuple(
        Edge(str(e), AffineMap(_THIRD, Fraction(e, 3)),
             PiecewiseConstant(tuple((c, p[e]) for c, p in zip(cells, probs))))
        for e in range(3)))


BUILDERS = {
    "step_ninth": lambda: step_system(Fraction(1, 9)),
    "step_twentyseventh": lambda: step_system(Fraction(1, 27)),
    "positive_step": positive_step_system,
    "rational_split": rational_split_system,
    "constant_half": lambda: constant_system(Fraction(1, 2)),
}


def bundled_spec(name: str) -> SystemSpec:
    return BUILDERS[name]()


def bundled_text(name: str) -> str:
    return resources.files("rdsys.data").joinpath(f"{name}.txt").read_text(encoding="utf-8")


def bundled_path(name: str):
    """Filesystem path of a bundled system file (for CLI invocation)."""
    return resources.files("rdsys.data").joinpath(f"{name}.txt")
