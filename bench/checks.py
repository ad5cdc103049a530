"""Output checks made apart from rdsys.

Every check either recomputes a result with the benchmark's own Fraction
arithmetic over the system's data (maps, probability pieces, the chain's
tables) or tests a property every correct answer must have. Each checker
returns a list of problems; an empty list means the output passed. No
checker compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

# support words compared between the states of one class, up to this length
SUPPORT_DEPTH = 5
# |simulated mean - exact mean| and |visit frequency - pi| after 10^6 steps
# of step_ninth: about ten times the spread measured over 20 seeds
# (standard deviation 1.4e-4 for the mean, about 3e-4 per class frequency)
TOL_MEAN = 0.0015
TOL_FREQ = 0.003
# drift tolerance in standard errors of the Monte Carlo mean
DRIFT_Z = 5.0
SPLIT_DRIFT = 0.25 * math.log(3 / 4) + 0.75 * math.log(9 / 8)


# ---------------------------------------------------------------------------
# own evaluation of a system

def inside(iv, v) -> bool:
    """Membership in an interval with explicit endpoint ownership."""
    if v < iv.lo or v > iv.hi:
        return False
    if v == iv.lo and not iv.own_lo:
        return False
    if v == iv.hi and not iv.own_hi:
        return False
    return True


class OwnSystem:
    """A system's maps and probabilities, evaluated without rdsys code."""

    def __init__(self, spec):
        self.labels = [e.edge_id for e in spec.edges]
        self.maps = {e.edge_id: (e.map.slope, e.map.intercept) for e in spec.edges}
        self.pieces = {}
        self.tagged = {}
        for e in spec.edges:
            if hasattr(e.prob, "pieces"):
                pieces = sorted(e.prob.pieces, key=lambda p: (p[0].lo, not p[0].own_lo))
                self.pieces[e.edge_id] = ([p[0].lo for p in pieces], pieces)
            else:
                self.tagged[e.edge_id] = (e.prob.value_on_rationals,
                                          e.prob.value_on_irrationals)

    def prob(self, label, value, irrational) -> Fraction:
        if label in self.tagged:
            return self.tagged[label][1 if irrational else 0]
        los, pieces = self.pieces[label]
        k = bisect.bisect_right(los, value)
        for iv, val in pieces[max(k - 2, 0):k + 1]:
            if inside(iv, value):
                return val
        raise ValueError(f"no piece of edge {label} holds {value}")

    def step(self, label, value, irrational):
        slope, intercept = self.maps[label]
        return slope * value + intercept, irrational and slope != 0

    def word_mass(self, value, irrational, word) -> Fraction:
        mass = Fraction(1)
        for label in word:
            p = self.prob(label, value, irrational)
            if p == 0:
                return Fraction(0)
            mass *= p
            value, irrational = self.step(label, value, irrational)
        return mass

    def support_words(self, value, irrational, depth) -> frozenset:
        """Every word up to `depth` with positive mass from the point."""
        out = []

        def walk(v, irr, word):
            out.append(word)
            if len(word) == depth:
                return
            for label in self.labels:
                if self.prob(label, v, irr) > 0:
                    walk(*self.step(label, v, irr), word + (label,))

        walk(value, irrational, ())
        return frozenset(out)

    def all_positive(self) -> bool:
        return (all(v > 0 for _los, pieces in self.pieces.values() for _iv, v in pieces)
                and all(min(v) > 0 for v in self.tagged.values()))


def cell_point(cell):
    """An own point of a chain cell: its midpoint, or the point itself."""
    iv = cell.interval
    value = iv.lo if iv.lo == iv.hi else (iv.lo + iv.hi) / 2
    return value, cell.tag == "irrational"


def state_of(chain, value) -> int:
    """The state of an untagged chain whose cell holds the point."""
    hits = [s for s, c in enumerate(chain.cells) if inside(c.interval, value)]
    if len(hits) != 1:
        raise ValueError(f"{value} lies in {len(hits)} cells")
    return hits[0]


# ---------------------------------------------------------------------------
# certify

def partition_problems(spec, fp) -> list:
    """Separation witnesses recomputed; one support inside each class."""
    own = OwnSystem(spec)
    points = [cell_point(c) for c in fp.chain.cells]
    problems = []
    for (i, j), cert in sorted(fp.certificates.items()):
        if cert.kind != "support_separation":
            continue
        mi = own.word_mass(*points[i], cert.word)
        mj = own.word_mass(*points[j], cert.word)
        if (mi, mj) != (cert.mass_i, cert.mass_j) or (mi == 0) == (mj == 0):
            problems.append(f"pair ({i},{j}): word {cert.word} gives {mi}, {mj}")
        if fp.state_class[i] == fp.state_class[j]:
            problems.append(f"pair ({i},{j}) separated but in one class")
    for info in fp.classes:
        if len(info.states) < 2:
            continue
        supports = {own.support_words(*points[s], SUPPORT_DEPTH) for s in info.states}
        if len(supports) > 1:
            problems.append(f"class {info.class_id}: a word up to length "
                            f"{SUPPORT_DEPTH} separates two of its states")
    if sorted(s for info in fp.classes for s in info.states) != list(range(fp.chain.n_states)):
        problems.append("classes do not partition the states")
    return problems


def report_classes(text: str) -> int:
    """Number of classes in an `rdsys partition` report."""
    lines = text.splitlines()
    start = lines.index("classes:") + 1
    count = 0
    while start + count < len(lines) and lines[start + count].startswith("  class "):
        count += 1
    return count


# ---------------------------------------------------------------------------
# solve

def reach_sets(n, arcs) -> list:
    succ = [set() for _ in range(n)]
    for u, v in arcs:
        succ[u].add(v)
    out = []
    for s in range(n):
        seen = {s}
        todo = [s]
        while todo:
            for v in succ[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        out.append(seen)
    return out


def chain_arcs(chain) -> list:
    return [(s, chain.target[(s, label)]) for (s, label) in chain.prob]


def terminal_classes(chain) -> list:
    """Closed communicating classes: v is in one when v is reachable back
    from everything v reaches."""
    reach = reach_sets(chain.n_states, chain_arcs(chain))
    closed = {v for v in range(chain.n_states) if all(v in reach[u] for u in reach[v])}
    return sorted({frozenset(reach[v]) for v in closed}, key=min)


def stationary_problems(chain, pi) -> list:
    """pi P = pi exactly, pi >= 0, sum 1, zero off the terminal states."""
    if pi is None:
        return ["no unique stationary vector"]
    n = chain.n_states
    exact = {v: Fraction(pi[v]) for v in range(n)}
    problems = []
    if any(w < 0 for w in exact.values()):
        problems.append("negative weight")
    if sum(exact.values()) != 1:
        problems.append(f"weights sum to {float(sum(exact.values()))}")
    flow = {v: Fraction(0) for v in range(n)}
    for (s, label), p in chain.prob.items():
        flow[chain.target[(s, label)]] += exact[s] * p
    bad = [v for v in range(n) if flow[v] != exact[v]]
    if bad:
        v = bad[0]
        problems.append(f"pi P != pi at {len(bad)} states, e.g. state {v}: "
                        f"{float(flow[v])} vs {float(exact[v])}")
    terminal = set().union(*terminal_classes(chain))
    if any(exact[v] != 0 for v in range(n) if v not in terminal):
        problems.append("positive weight off the terminal states")
    return problems


def moment_problems(spec, chain, pi, per_class) -> list:
    """pi_j m_j = sum over arcs s->j of pi_s p (slope m_s + intercept),
    and each m_j inside its cell's hull."""
    maps = {e.edge_id: (e.map.slope, e.map.intercept) for e in spec.edges}
    support = {v for v in range(chain.n_states) if pi[v] > 0}
    if set(per_class) != support:
        return ["moments not given exactly on the weighted states"]
    pushed = {v: Fraction(0) for v in support}
    for (s, label), p in chain.prob.items():
        if s not in support:
            continue
        t = chain.target[(s, label)]
        if t not in support:
            return [f"arc {s}->{t} leaves the weighted states"]
        slope, intercept = maps[label]
        pushed[t] += pi[s] * p * (slope * per_class[s] + intercept)
    problems = [f"state {v}: invariance fails" for v in sorted(support)
                if pi[v] * per_class[v] != pushed[v]]
    for v in sorted(support):
        iv = chain.cells[v].interval
        if not iv.lo <= per_class[v] <= iv.hi:
            problems.append(f"state {v}: moment outside {iv}")
    return problems


def own_flags(chain) -> tuple:
    """(irreducible, aperiodic, recurrent) from reach sets and matrix powers.

    A strongly connected component with an internal arc is aperiodic
    exactly when its adjacency matrix is primitive, i.e. some power of
    order at least (k-1)^2 + 1 (Wielandt) is positive."""
    n = chain.n_states
    arcs = chain_arcs(chain)
    reach = reach_sets(n, arcs)
    irreducible = all(len(r) == n for r in reach)
    seen = set()
    aperiodic = True
    for v in range(n):
        if v in seen:
            continue
        comp = sorted(u for u in reach[v] if v in reach[u])
        seen.update(comp)
        pos = {u: i for i, u in enumerate(comp)}
        k = len(comp)
        adj = np.zeros((k, k), dtype=np.int64)
        for a, b in arcs:
            if a in pos and b in pos:
                adj[pos[a], pos[b]] = 1
        if not adj.any():
            continue
        power, order = adj, 1
        while order < (k - 1) ** 2 + 1:
            power = (power @ power > 0).astype(np.int64)
            order *= 2
        aperiodic = aperiodic and bool(power.all())
    return irreducible, aperiodic, irreducible


def graph_report_pi(text: str) -> dict:
    """cell text -> weight from an `rdsys graph` report."""
    lines = text.splitlines()
    start = lines.index("stationary weights (exact):") + 1
    out = {}
    for line in lines[start:]:
        if not line.startswith("  state "):
            break
        cell, _, value = line.split(" ", 4)[4].rpartition(": ")
        num, _, den = value.partition("/")
        out[cell] = Fraction(int(num), int(den or 1))
    return out


def step_ninth_pi() -> dict:
    """Closed form (b^2, b, 1)/(1+b+b^2), b = 1/2, and 0 on {0}."""
    b = Fraction(1, 2)
    z = 1 + b + b * b
    return {"{0}": Fraction(0), "(0,1/9]": b * b / z, "(1/9,1/3]": b / z,
            "(1/3,1]": 1 / z}


# ---------------------------------------------------------------------------
# paths

def chain_words(chain, state, depth) -> dict:
    """Every positive-mass word of length `depth` from a chain state, with
    its mass as the product along the chain's tables."""
    out = {}

    def walk(s, mass, word):
        if len(word) == depth:
            out[word] = mass
            return
        for label in chain.labels:
            p = chain.prob.get((s, label))
            if p is not None:
                walk(chain.target[(s, label)], mass * p, word + (label,))

    walk(state, Fraction(1), ())
    return out


def cylinder_problems(rows, chain, value, depth) -> list:
    problems = []
    if sum(m for _w, m in rows) != 1:
        problems.append("cylinder masses do not sum to 1")
    if dict(rows) != chain_words(chain, state_of(chain, value), depth):
        problems.append("cylinder masses differ from the chain's products")
    return problems


def tail_problems(tails) -> list:
    """tails: [(M, mass)] in increasing M."""
    masses = [m for _M, m in tails]
    if any(not 0 <= m <= 1 for m in masses):
        return ["tail mass outside [0,1]"]
    if any(a < b for a, b in zip(masses, masses[1:])):
        return ["tail mass increases with M"]
    return []


def xi_problems(spec, report) -> list:
    """A certified singular verdict needs a word that separates exactly;
    the exact tail table may not increase with M."""
    problems = []
    if report.verdict == "singular_certified":
        word = report.infinity_witness
        own = OwnSystem(spec)
        masses = None if word is None else (
            own.word_mass(report.x.value, report.x.irrational_tag, word),
            own.word_mass(report.y.value, report.y.irrational_tag, word))
        if masses is None or (masses[0] == 0) == (masses[1] == 0):
            problems.append(f"singular_certified without a separating word "
                            f"(witness {word})")
    table = report.exact_tail_table
    for n in sorted({n for n, _M in table}):
        row = [table[key] for key in sorted(k for k in table if k[0] == n)]
        if any(a < b for a, b in zip(row, row[1:])):
            problems.append(f"depth {n}: exact tail increases with M")
    return problems


def drift_problems(report) -> list:
    if abs(report.mc_drift - SPLIT_DRIFT) > DRIFT_Z * report.mc_drift_stderr:
        return [f"drift {report.mc_drift} not within {DRIFT_Z} stderr "
                f"{report.mc_drift_stderr} of {SPLIT_DRIFT}"]
    return []


def ergodic_problems(average, freqs, mean, pi_by_class) -> list:
    problems = []
    if abs(float(average) - float(mean)) > TOL_MEAN:
        problems.append(f"average {float(average)} vs exact mean {float(mean)}")
    if sum(freqs.values()) != 1:
        problems.append("class frequencies do not sum to 1")
    for cid, target in pi_by_class.items():
        if abs(float(freqs[cid]) - float(target)) > TOL_FREQ:
            problems.append(f"class {cid}: frequency {float(freqs[cid])} vs {target}")
    return problems


def prefix_problems(short, long) -> list:
    n = len(short)
    if short.labels != long.labels[:n] or short.values != long.values[:n + 1]:
        return ["repeated seeded trace differs from the first"]
    return []


def rate_problems(report) -> list:
    d = report.distances
    if not all(math.isfinite(x) and x >= 0 for x in d):
        return ["transport distance not finite and >= 0"]
    if not (math.isfinite(report.noise_floor) and report.noise_floor > 0):
        return ["noise floor not positive"]
    if any(r != d[n + 1] / d[n] for n, r in report.ratios):
        return ["step ratio differs from d_{n+1}/d_n"]
    return []
