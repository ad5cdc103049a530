"""Exact computation on the code space of a system.

Starting the process at x induces a probability measure on infinite edge
sequences whose cylinder masses are telescoping products of one-step
probabilities. This module computes those masses exactly, together with
the prefix likelihood ratios between two starting points, their martingale
defect, exact tail masses, and a graded finite-depth verdict on whether
the two path measures share null sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import partition, sampling
from .model import (BudgetExceeded, DegenerateSampling, Point, PointLike,
                    SystemSpec, Word, as_point, format_rational)

DEFAULT_WORD_BUDGET = 1 << 20


def _check_budget(spec: SystemSpec, depth: int, budget: int) -> None:
    if len(spec.edges) ** depth > budget:
        raise BudgetExceeded(
            f"|E|^depth = {len(spec.edges)}^{depth} exceeds budget {budget}")


# ---------------------------------------------------------------------------
# cylinder masses

def cylinder_measure(spec: SystemSpec, x: PointLike, word: Word) -> Fraction:
    """Exact mass of the cylinder of all paths starting with `word`.

    The product short-circuits at the first zero factor; maps past that
    point are never applied, so edges only need to act where their
    probability is positive.
    """
    p = as_point(x)
    spec.require_in_domain(p)
    mass = Fraction(1)
    for edge_id in word:
        e = spec.edge(edge_id)
        factor = e.prob.value_at(p)
        if factor == 0:
            return Fraction(0)
        mass *= factor
        p = e.map.apply_point(p)
    return mass


def enumerate_cylinders(spec: SystemSpec, x: PointLike, depth: int, *,
                        include_zero: bool = False,
                        budget: int = DEFAULT_WORD_BUDGET) -> list:
    """All depth-n words with their exact masses (zero words optional)."""
    _check_budget(spec, depth, budget)
    start = as_point(x)
    spec.require_in_domain(start)
    out = []

    def walk(point: Point, mass: Fraction, word: tuple, k: int) -> None:
        if k == depth:
            out.append((word, mass))
            return
        for e in spec.edges:
            factor = e.prob.value_at(point) if mass > 0 else Fraction(0)
            sub = mass * factor
            if sub == 0 and not include_zero:
                continue
            nxt = e.map.apply_point(point) if sub > 0 else point
            walk(nxt, sub, word + (e.edge_id,), k + 1)

    walk(start, Fraction(1), (), 0)
    return out


# ---------------------------------------------------------------------------
# likelihood ratios

@dataclass(frozen=True)
class ExtendedRatio:
    """A nonnegative rational or the infinite value."""

    finite_value: Optional[Fraction]  # None encodes infinity

    @staticmethod
    def finite(q) -> "ExtendedRatio":
        return ExtendedRatio(Fraction(q))

    @staticmethod
    def infinite() -> "ExtendedRatio":
        return ExtendedRatio(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite_value is None

    def __str__(self) -> str:
        return "inf" if self.is_infinite else format_rational(self.finite_value)


def likelihood_ratio(spec: SystemSpec, x: PointLike, y: PointLike,
                     word: Word) -> ExtendedRatio:
    """Prefix ratio of the two cylinder masses, with the exact case split:
    the ratio when the denominator is positive, zero when the numerator
    vanishes, infinity when only the denominator vanishes."""
    num = cylinder_measure(spec, x, word)
    den = cylinder_measure(spec, y, word)
    if den > 0:
        return ExtendedRatio.finite(num / den)
    if num == 0:
        return ExtendedRatio.finite(0)
    return ExtendedRatio.infinite()


# ---------------------------------------------------------------------------
# martingale defect

def martingale_discrepancy(spec: SystemSpec, x: PointLike, y: PointLike,
                           m: int, n: int, *,
                           budget: int = DEFAULT_WORD_BUDGET) -> Fraction:
    """Largest defect of the prefix-ratio martingale identity.

    For each depth-m word C with positive y-mass, compares the exact
    integral of the depth-n ratio over C against the integral of the
    depth-m ratio (both under the y-measure). The defect is zero whenever
    no positive-x-mass word with zero y-mass appears by depth n, which is
    the regime where the conditional-expectation identity holds.
    """
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    _check_budget(spec, n, budget)
    xp, yp = as_point(x), as_point(y)
    spec.require_in_domain(xp)
    spec.require_in_domain(yp)
    worst = Fraction(0)

    def mass_below(px_pt, py_pt, px, py, k) -> Fraction:
        # sum of x-masses over depth-n descendants with positive y-mass
        if k == n:
            return px
        total = Fraction(0)
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            fy = e.prob.value_at(py_pt)
            if fx == 0 or fy == 0:
                continue
            total += mass_below(e.map.apply_point(px_pt), e.map.apply_point(py_pt),
                                px * fx, py * fy, k + 1)
        return total

    def walk(px_pt, py_pt, px, py, k) -> None:
        nonlocal worst
        if k == m:
            defect = abs(mass_below(px_pt, py_pt, px, py, k) - px)
            if defect > worst:
                worst = defect
            return
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            fy = e.prob.value_at(py_pt)
            if fy == 0 or fx == 0:
                # zero y-mass removes the word from the depth-m index set;
                # zero x-mass makes both integrals vanish
                continue
            walk(e.map.apply_point(px_pt), e.map.apply_point(py_pt),
                 px * fx, py * fy, k + 1)

    walk(xp, yp, Fraction(1), Fraction(1), 0)
    return worst


# ---------------------------------------------------------------------------
# tail masses

def tail_mass_exact(spec: SystemSpec, x: PointLike, y: PointLike, n: int,
                    M, *, budget: int = DEFAULT_WORD_BUDGET) -> Fraction:
    """Exact x-mass of depth-n words whose prefix ratio exceeds M.

    Words with positive x-mass and zero y-mass (infinite ratio) always
    count; once the y-mass dies the whole subtree's x-mass is credited in
    one step via additivity.
    """
    _check_budget(spec, n, budget)
    M = Fraction(M)
    xp, yp = as_point(x), as_point(y)
    spec.require_in_domain(xp)
    spec.require_in_domain(yp)
    total = Fraction(0)

    def walk(px_pt, py_pt, px, py, k) -> None:
        nonlocal total
        if px == 0:
            return
        if py == 0:
            total += px
            return
        if k == n:
            if px > M * py:
                total += px
            return
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            if fx == 0:
                continue
            fy = e.prob.value_at(py_pt)
            walk(e.map.apply_point(px_pt),
                 e.map.apply_point(py_pt) if fy > 0 else py_pt,
                 px * fx, py * fy, k + 1)

    walk(xp, yp, Fraction(1), Fraction(1), 0)
    return total


# ---------------------------------------------------------------------------
# xi: graded evidence on mutual absolute continuity

DEFAULT_M_GRID = tuple(Fraction(2) ** k for k in range(1, 11))


@dataclass
class XiParams:
    """Finite-depth and Monte Carlo budgets for the tail-mass scan."""

    n_exact: int = 10
    m_grid: tuple = DEFAULT_M_GRID
    n_mc: int = 2000
    num_samples: int = 4000
    seed: Optional[int] = None
    drift_z: float = 4.0
    tol: Fraction = Fraction(1, 10 ** 6)
    budget: int = DEFAULT_WORD_BUDGET


@dataclass
class XiReport:
    """Evidence about whether the path measures from x and y share null sets."""

    x: Point
    y: Point
    exact_tail_table: dict          # (n, M) -> Fraction, combined both directions
    infinity_witness: Optional[Word]
    mc_drift: float                 # mean per-step log-ratio increment, x-direction
    mc_drift_stderr: float
    mc_drift_reverse: float
    mc_drift_reverse_stderr: float
    mc_tail_estimates: dict         # M -> combined sampled tail frequency
    mc_infinity_fraction: float
    verdict: str                    # equivalent | singular_certified |
                                    # singular_statistical | inconclusive
    seed: int
    num_samples: int
    n_mc: int
    pair_certificate: object = None  # exact verdict of the points' cells, if any

    @property
    def exact(self) -> bool:
        """True when the verdict rests on an exact certificate: a witness
        word, or the product-graph proof that the measures are equivalent."""
        return self.verdict == "singular_certified" or (
            self.verdict == "equivalent" and self.pair_certificate is not None
            and self.pair_certificate.kind == "balanced_product")

    def to_csv(self) -> str:
        lines = ["n,M,exact_tail"]
        for (n, M), mass in sorted(self.exact_tail_table.items()):
            lines.append(f"{n},{format_rational(M)},{format_rational(mass)}")
        lines.append("verdict,drift,stderr,samples,seed")
        lines.append(f"{self.verdict},{self.mc_drift!r},{self.mc_drift_stderr!r},"
                     f"{self.num_samples},{self.seed}")
        return "\n".join(lines) + "\n"


def _exact_tail_scan(spec: SystemSpec, x: Point, y: Point, params: XiParams):
    """One-pass DFS collecting x-direction tail masses for every depth and
    every grid threshold, plus per-depth total mass and an infinity witness."""
    n_exact = params.n_exact
    grid = sorted(Fraction(M) for M in params.m_grid)
    tails = {(n, M): Fraction(0) for n in range(1, n_exact + 1) for M in grid}
    depth_mass = [Fraction(0)] * (n_exact + 1)
    witness = None

    def walk(px_pt, py_pt, px, py, word, k) -> None:
        nonlocal witness
        if px == 0:
            return
        if py == 0:
            # the whole subtree keeps x-mass px and zero y-mass
            if witness is None or len(word) < len(witness):
                witness = word
            for n in range(k, n_exact + 1):
                depth_mass[n] += px
                if n >= 1:
                    for M in grid:
                        tails[(n, M)] += px
            return
        depth_mass[k] += px
        if k >= 1:
            for M in grid:
                if px > M * py:
                    tails[(k, M)] += px
                else:
                    break  # grid ascending, larger M cannot be exceeded
        if k == n_exact:
            return
        for e in spec.edges:
            fx = e.prob.value_at(px_pt)
            if fx == 0:
                continue
            fy = e.prob.value_at(py_pt)
            walk(e.map.apply_point(px_pt),
                 e.map.apply_point(py_pt) if fy > 0 else py_pt,
                 px * fx, py * fy, word + (e.edge_id,), k + 1)

    walk(x, y, Fraction(1), Fraction(1), (), 0)
    for n, mass in enumerate(depth_mass):
        if mass != 1:
            raise DegenerateSampling(
                f"depth-{n} masses sum to {format_rational(mass)}, not 1")
    return tails, witness


def _mc_direction(spec: SystemSpec, tables, start: Point, other: Point,
                  params: XiParams, stream_base: int):
    """Sample paths from `start` under its own measure, tracking the log
    likelihood ratio against the measure from `other` driven by the same
    edge labels. Returns per-path mean increments, the infinity mask, the
    final log ratios, and the label history."""
    n, m = params.num_samples, params.n_mc
    draws = sampling.draw_matrix(params.seed, n, m, base=stream_base)

    px_paths = sampling.VectorPaths(tables, *sampling.start_arrays(start.value, start.irrational_tag, n))
    py_paths = sampling.VectorPaths(tables, *sampling.start_arrays(other.value, other.irrational_tag, n))
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


def _drift_stats(per_step: np.ndarray):
    if len(per_step) == 0:
        return 0.0, 0.0, float("inf")
    drift = float(np.mean(per_step))
    if len(per_step) < 2:
        return drift, 0.0, (0.0 if drift == 0 else float("inf"))
    stderr = float(np.std(per_step, ddof=1) / math.sqrt(len(per_step)))
    if stderr == 0.0:
        return drift, 0.0, (0.0 if drift == 0 else float("inf"))
    return drift, stderr, drift / stderr


def xi_estimate(spec: SystemSpec, x: PointLike, y: PointLike,
                params: Optional[XiParams] = None, *,
                external_certificate: bool = False) -> XiReport:
    """Graded verdict on mutual absolute continuity of the path measures.

    Exact phase: tail masses for every depth up to n_exact and every grid
    threshold, in both directions; any positive-mass word whose opposite
    mass is zero is an exact singularity certificate, and nothing else
    is: tail masses near 1 at every threshold only count as statistical
    evidence. Monte Carlo phase: seeded per-sample substreams estimate the
    per-step log-ratio drift (positive drift means the ratios diverge) and
    large-depth tail frequencies. When the system has a stable partition,
    the exact verdict for the two points' cells (`partition.pair_certificate`)
    comes before the statistical rules: a separating word certifies
    singularity, a balanced product graph gives `equivalent`, and an
    unbalanced one gives `singular_statistical`, since only a word may
    certify. The verdict never claims more than its evidence grade.
    """
    params = params or XiParams()
    if params.seed is None:
        raise ValueError("xi_estimate requires an explicit seed")
    xp, yp = as_point(x), as_point(y)
    spec.require_in_domain(xp)
    spec.require_in_domain(yp)
    _check_budget(spec, params.n_exact, params.budget)

    tails_x, witness_x = _exact_tail_scan(spec, xp, yp, params)
    tails_y, witness_y = _exact_tail_scan(spec, yp, xp, params)
    table = {key: tails_x[key] + tails_y[key] for key in tails_x}
    witness = witness_x if witness_x is not None else witness_y

    tables = sampling.EvalTables(spec)
    fwd, inf_fwd, logr_fwd, labels_fwd, first_fwd = _mc_direction(
        spec, tables, xp, yp, params, 0)
    rev, inf_rev, logr_rev, labels_rev, first_rev = _mc_direction(
        spec, tables, yp, xp, params, params.num_samples)

    drift, stderr, z_fwd = _drift_stats(fwd)
    drift_rev, stderr_rev, z_rev = _drift_stats(rev)

    grid = sorted(Fraction(M) for M in params.m_grid)
    mc_tails = {}
    for M in grid:
        logm = math.log(M)
        mc_tails[M] = (float(np.mean(logr_fwd > logm))
                       + float(np.mean(logr_rev > logm)))
    inf_fraction = float((np.sum(inf_fwd) + np.sum(inf_rev))
                         / (2 * params.num_samples))

    # a sampled infinite ratio names a concrete word; verify it exactly
    if witness is None:
        for (first, start_pt, other_pt, labels) in (
                (first_fwd, xp, yp, labels_fwd), (first_rev, yp, xp, labels_rev)):
            if first is None:
                continue
            i, k = first
            word = tuple(tables.edge_ids[j] for j in labels[i, :k + 1])
            if (cylinder_measure(spec, start_pt, word) > 0
                    and cylinder_measure(spec, other_pt, word) == 0):
                witness = word
                break

    cert = partition.pair_certificate(spec, xp, yp)
    if witness is None and cert is not None and cert.kind == "support_separation":
        witness = cert.word

    persistent = any(all(table[(n, M)] >= 1 - params.tol for M in grid)
                     for n in range(1, params.n_exact + 1))
    all_tails_zero = all(mass == 0 for mass in table.values())

    # only an exact witness word certifies: a large likelihood ratio at a
    # finite depth (`persistent`) does not prove singularity
    if witness is not None:
        verdict = "singular_certified"
    elif cert is not None and cert.kind == "balanced_product":
        verdict = "equivalent"
    elif cert is not None and cert.kind == "unbalanced_product":
        verdict = "singular_statistical"
    elif persistent or z_fwd > params.drift_z or z_rev > params.drift_z:
        verdict = "singular_statistical"
    elif external_certificate:
        verdict = "equivalent"
    elif all_tails_zero and abs(z_fwd) < params.drift_z and abs(z_rev) < params.drift_z:
        verdict = "equivalent"
    else:
        verdict = "inconclusive"

    return XiReport(
        x=xp, y=yp, exact_tail_table=table, infinity_witness=witness,
        mc_drift=drift, mc_drift_stderr=stderr,
        mc_drift_reverse=drift_rev, mc_drift_reverse_stderr=stderr_rev,
        mc_tail_estimates=mc_tails, mc_infinity_fraction=inf_fraction,
        verdict=verdict, seed=params.seed, num_samples=params.num_samples,
        n_mc=params.n_mc, pair_certificate=cert)
