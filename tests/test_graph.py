import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import conftest as oracle
from rdsys import graph, systems
from rdsys.graph import (Digraph, MomentResult, StationaryResult, aggregated_matrix,
                         digraph_of_chain, eigenvalue_moduli,
                         exact_first_moment, is_aperiodic, is_irreducible,
                         is_recurrent, solve_exact, stationary_distribution,
                         stationary_from_matrix, strongly_connected_components,
                         terminal_components)
from rdsys.model import (AffineMap, Edge, Interval, PiecewiseConstant,
                         RdsError, RefinementBudgetExceeded, SingularSystem, SystemSpec)
from rdsys.partition import (extract_symbolic_chain, refine_markov_partition,
                             stable_partition)

F = Fraction


def matrix_a2(b):
    return [[F(0), F(0), F(1)],
            [b, F(0), 1 - b],
            [F(0), b, 1 - b]]


def matrix_a3(b):
    return [[F(0), F(0), F(0), F(1)],
            [b, F(0), F(0), 1 - b],
            [F(0), b, F(0), 1 - b],
            [F(0), F(0), b, 1 - b]]


def graph_of_matrix(rows):
    arcs = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v != 0]
    return Digraph(len(rows), [i for i, _ in arcs], [j for _, j in arcs])


def random_digraph(rng, n, p):
    arcs = [(i, j) for i in range(n) for j in range(n) if rng.random() < p]
    return Digraph(n, [i for i, _ in arcs], [j for _, j in arcs])


class TestStructuralFlags:
    def test_three_state_support_graph_irreducible(self):
        g = graph_of_matrix(matrix_a2(F(1, 2)))
        assert is_irreducible(g)
        assert is_recurrent(g)
        assert is_aperiodic(g)

    def test_full_step_graph_not_irreducible(self):
        chain = extract_symbolic_chain(systems.step_system(),
                                       refine_markov_partition(systems.step_system()))
        g = digraph_of_chain(chain)
        assert not is_irreducible(g)
        assert not is_recurrent(g)
        terms = terminal_components(g)
        assert terms == [[1, 2, 3]]
        pos = {v: k for k, v in enumerate(terms[0])}
        sub_arcs = [(pos[u], pos[v]) for u, v in zip(g.src.tolist(), g.dst.tolist())
                    if u in pos and v in pos]
        sub = Digraph(len(pos), [u for u, _ in sub_arcs], [v for _, v in sub_arcs])
        assert is_recurrent(sub)

    def test_single_loop_vertex(self):
        g = Digraph(1, [0], [0])
        assert is_irreducible(g) and is_aperiodic(g) and is_recurrent(g)

    def test_two_cycle_periodic(self):
        g = Digraph(2, [0, 1], [1, 0])
        assert is_irreducible(g)
        assert not is_aperiodic(g)

    def test_a3_support_graph_aperiodic(self):
        assert is_aperiodic(graph_of_matrix(matrix_a3(F(1, 2))))

    def test_absorbing_unreachable_vertex(self):
        g = Digraph(2, [0, 1], [0, 1])
        assert not is_recurrent(g)

    def test_recurrent_iff_irreducible_on_random_graphs(self, rng):
        for _ in range(60):
            g = random_digraph(rng, rng.randint(1, 7), rng.random())
            assert is_recurrent(g) == is_irreducible(g)

    def test_scc_partition(self, rng):
        for _ in range(30):
            g = random_digraph(rng, rng.randint(1, 8), 0.3)
            comps = strongly_connected_components(g)
            flat = sorted(v for comp in comps for v in comp)
            assert flat == list(range(g.n))

    def test_arc_outside_vertices_rejected(self):
        with pytest.raises(RdsError, match="arc 1 touches unknown vertex"):
            Digraph(2, [0, 2], [1, 0])
        with pytest.raises(RdsError, match="arc 0 touches unknown vertex"):
            Digraph(0, [0], [0])


def test_integer_digraph_matches_tuple_oracle():
    """Components, terminal components and the three flags against the
    tuple digraph and dict-based Tarjan of `conftest`, on 200 seeded
    digraphs with n = 0, self-loops and parallel arcs."""
    rng = random.Random(0x6A9)
    seen = {"loops": 0, "parallel": 0, "empty": 0, "flags": set()}
    for trial in range(200):
        n = trial if trial < 4 else rng.randint(1, 12)
        m = rng.randint(0, 3 * n) if n else 0
        src = [rng.randrange(n) for _ in range(m)]
        dst = [rng.randrange(n) for _ in range(m)]
        g = Digraph(n, src, dst)
        old = oracle.Digraph(vertices=tuple(range(n)), arcs=tuple(zip(range(m), src, dst)))
        assert strongly_connected_components(g) == oracle.strongly_connected_components(old)
        assert terminal_components(g) == oracle.terminal_components(old)
        flags = (is_irreducible(g), is_aperiodic(g), is_recurrent(g))
        assert flags == (oracle.is_irreducible(old), oracle.is_aperiodic(old),
                         oracle.is_recurrent(old))
        seen["flags"].add(flags)
        seen["loops"] += any(u == v for u, v in zip(src, dst))
        seen["parallel"] += len(set(zip(src, dst))) < m
        seen["empty"] += n == 0
    assert seen["loops"] and seen["parallel"] and seen["empty"], seen
    assert {f[0] for f in seen["flags"]} == {f[1] for f in seen["flags"]} == {False, True}


class TestStationary:
    @pytest.mark.parametrize("b", [F(1, 4), F(1, 3), F(1, 2), F(2, 3)])
    def test_three_state_formula(self, b):
        res = stationary_from_matrix(matrix_a2(b))
        z = 1 + b + b * b
        assert res.as_vector(range(3)) == [b * b / z, b / z, 1 / z]
        assert res.method == "exact_solve"

    @pytest.mark.parametrize("b", [F(1, 4), F(1, 3), F(1, 2), F(2, 3)])
    def test_four_state_formula(self, b):
        res = stationary_from_matrix(matrix_a3(b))
        z = 1 + b + b * b + b ** 3
        assert res.as_vector(range(4)) == [b ** 3 / z, b * b / z, b / z, 1 / z]

    def test_half_values(self):
        assert stationary_from_matrix(matrix_a2(F(1, 2))).as_vector(range(3)) == \
            [F(1, 7), F(2, 7), F(4, 7)]
        assert stationary_from_matrix(matrix_a3(F(1, 2))).as_vector(range(4)) == \
            [F(1, 15), F(2, 15), F(4, 15), F(8, 15)]

    def test_identity_chain(self):
        res = stationary_from_matrix([[F(1)]])
        assert res.as_vector([0]) == [F(1)]

    def test_step_chain_transient_weight_zero(self):
        spec = systems.step_system()
        chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
        res = stationary_distribution(chain)
        assert res.as_vector(range(4)) == [F(0), F(1, 7), F(2, 7), F(4, 7)]
        assert res.unique

    def test_multiple_terminal_components_flagged(self):
        res = stationary_from_matrix([[F(1), F(0)], [F(0), F(1)]])
        assert not res.unique
        assert res.pi is None
        assert len(res.component_pis) == 2

    def test_float_matrix_agrees_with_exact(self):
        # independent numeric route: eigenvector of the aggregated matrix
        mat = matrix_a2(F(1, 2))
        arr = np.array([[float(v) for v in row] for row in mat]).T
        vals, vecs = np.linalg.eig(arr)
        k = int(np.argmax(vals.real))
        vec = np.abs(vecs[:, k].real)
        vec /= vec.sum()
        exact = stationary_from_matrix(mat).as_vector(range(3))
        assert np.allclose(vec, [float(v) for v in exact], atol=1e-10)


class TestMoments:
    def test_step_moments(self):
        spec = systems.step_system()
        chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
        res = stationary_distribution(chain)
        mom = exact_first_moment(spec, chain, res)
        assert mom.per_class == {1: F(2, 43), 2: F(6, 43), 3: F(18, 43)}
        assert mom.global_mean == F(2, 7)

    def test_step_mean_scalar_identity(self):
        # independent oracle: m = m/3 + (1/3)(1 - integral of p0)
        spec = systems.step_system()
        chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
        res = stationary_distribution(chain)
        mom = exact_first_moment(spec, chain, res)
        p0_mass = F(1, 2) * (res.pi[2] + res.pi[3])
        assert mom.global_mean == mom.global_mean / 3 + F(1, 3) * (1 - p0_mass)

    def test_step_mean_fixed_point_iteration(self):
        # independent numeric oracle: iterate the moment map to its fixed point
        spec = systems.step_system()
        chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
        res = stationary_distribution(chain)
        pi = {v: float(p) for v, p in res.pi.items()}
        maps = {e.edge_id: (float(e.map.slope), float(e.map.intercept))
                for e in spec.edges}
        m = {v: 0.5 for v in range(chain.n_states) if pi[v] > 0}
        for _ in range(200):
            nxt = {v: 0.0 for v in m}
            for (s, label), p in chain.prob.items():
                if s not in m:
                    continue
                t = chain.target[(s, label)]
                slope, icpt = maps[label]
                nxt[t] += pi[s] * float(p) * (slope * m[s] + icpt)
            m = {v: nxt[v] / pi[v] for v in nxt}
        mom = exact_first_moment(spec, chain, res)
        for v, exact in mom.per_class.items():
            assert abs(m[v] - float(exact)) < 1e-12

    def _single_map_chain(self, slope, intercept):
        unit = Interval(F(0), F(1))
        spec = SystemSpec(domain=unit, edges=(
            Edge("0", AffineMap(slope, intercept),
                 PiecewiseConstant(((unit, F(1)),))),))
        chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
        return spec, chain

    def test_halving_map_mean_zero(self):
        spec, chain = self._single_map_chain(F(1, 2), F(0))
        mom = exact_first_moment(spec, chain, stationary_distribution(chain))
        assert mom.global_mean == 0

    def test_halving_map_with_shift_mean_one(self):
        spec, chain = self._single_map_chain(F(1, 2), F(1, 2))
        mom = exact_first_moment(spec, chain, stationary_distribution(chain))
        assert mom.global_mean == 1

    def test_moment_in_cell_hull(self):
        spec = systems.step_system(F(1, 27))
        chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
        mom = exact_first_moment(spec, chain, stationary_distribution(chain))
        for v, m in mom.per_class.items():
            iv = chain.cells[v].interval
            assert iv.lo <= m <= iv.hi


class TestClosedSolveChecks:
    def _step(self):
        spec = systems.step_system()
        return spec, extract_symbolic_chain(spec, refine_markov_partition(spec))

    def test_moment_class_with_a_leaving_arc_raises(self):
        # states 2 and 3 carry all the forged weight, but 2 -> 1 leaves them
        spec, chain = self._step()
        pi = {0: F(0), 1: F(0), 2: F(1, 2), 3: F(1, 2)}
        forged = StationaryResult(pi=pi, method="exact_solve", terminal=[[2, 3]],
                                  unique=True, component_pis=[pi])
        assert forged.terminal[0] == [v for v in range(chain.n_states) if pi[v] > 0]
        with pytest.raises(SingularSystem, match="leaks"):
            exact_first_moment(spec, chain, forged)

    def test_wrong_solution_raises(self, monkeypatch):
        spec, chain = self._step()
        res = stationary_distribution(chain)
        solve = graph.solve_exact

        def off_by_one(rows, rhs):
            x = solve(rows, rhs)
            x[-1] += 1
            return x

        monkeypatch.setattr(graph, "solve_exact", off_by_one)
        # the residual check itself must catch it, not the moments' hull check
        with pytest.raises(RdsError, match="residual|defect"):
            stationary_distribution(chain)
        with pytest.raises(RdsError, match="residual|defect"):
            exact_first_moment(spec, chain, res)


class TestEigenDiagnostic:
    def test_subdominant_moduli_equal_b(self):
        for b in (F(1, 4), F(1, 2)):
            spec = systems.step_system(b=b)
            chain = extract_symbolic_chain(spec, refine_markov_partition(spec))
            moduli = eigenvalue_moduli(chain)
            assert abs(moduli[0] - 1.0) < 1e-9
            assert abs(moduli[1] - float(b)) < 1e-9


class TestSolver:
    def test_solve_exact_roundtrip(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            rows = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
            x = [F(rng.randint(-3, 3)) for _ in range(n)]
            rhs = [sum((rows[i][j] * x[j] for j in range(n)), F(0)) for i in range(n)]
            try:
                sol = solve_exact(rows, rhs)
            except Exception:
                continue  # singular draw
            assert sol == x


# ---------------------------------------------------------------------------
# dense reference path: the Gauss-Jordan solver and the dense stationary and
# moment systems that the sparse solves replaced, kept as the test oracle

def dense_gauss_jordan(rows, rhs):
    n = len(rows)
    aug = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"singular system at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def dense_component_pis(chain):
    mat = aggregated_matrix(chain)
    pis = []
    for comp in terminal_components(digraph_of_chain(chain)):
        k = len(comp)
        pos = {v: i for i, v in enumerate(comp)}
        rows, rhs = [], []
        for j in comp[:-1]:
            row = [F(0)] * k
            for i in comp:
                row[pos[i]] += mat[i][j]
            row[pos[j]] -= 1
            rows.append(row)
            rhs.append(F(0))
        rows.append([F(1)] * k)
        rhs.append(F(1))
        sol = dense_gauss_jordan(rows, rhs)
        pi = {v: F(0) for v in range(chain.n_states)}
        pi.update({v: sol[pos[v]] for v in comp})
        pis.append(pi)
    return pis


def dense_moments(spec, chain, pi):
    support = [v for v in range(chain.n_states) if pi[v] > 0]
    pos = {v: i for i, v in enumerate(support)}
    maps = {e.edge_id: e.map for e in spec.edges}
    k = len(support)
    rows = [[F(0)] * k for _ in range(k)]
    rhs = [F(0)] * k
    for j in support:
        rows[pos[j]][pos[j]] += pi[j]
    for (s, label), p in chain.prob.items():
        if s in pos:
            t, m = chain.target[(s, label)], maps[label]
            rows[pos[t]][pos[s]] -= pi[s] * p * m.slope
            rhs[pos[t]] += pi[s] * p * m.intercept
    sol = dense_gauss_jordan(rows, rhs)
    return {v: sol[pos[v]] for v in support}


def random_rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 6))


class TestSparseSolverAgainstDenseOracle:
    def test_random_dense_sparse_and_singular_systems(self, rng):
        outcomes = {"solved": 0, "singular": 0}
        for trial in range(400):
            n = rng.randint(1, 9)
            density = rng.choice([1.0, 0.5, 0.25])
            rows = [[random_rational(rng) if rng.random() < density else F(0)
                     for _ in range(n)] for _ in range(n)]
            if trial % 4 == 3 and n > 1:
                # one row a combination of two others: singular by construction
                i, k = rng.sample(range(n), 2)
                j = rng.choice([c for c in range(n) if c != k])
                a, b = random_rational(rng), random_rational(rng)
                rows[k] = [a * u + b * w for u, w in zip(rows[i], rows[j])]
            rhs = [random_rational(rng) for _ in range(n)]
            # half the draws go in as {column: value} mappings, zeros kept
            given = [dict(enumerate(r)) for r in rows] if trial % 2 else rows
            try:
                expected = dense_gauss_jordan(rows, rhs)
            except SingularSystem:
                outcomes["singular"] += 1
                with pytest.raises(SingularSystem):
                    solve_exact(given, rhs)
                continue
            outcomes["solved"] += 1
            assert solve_exact(given, rhs) == expected
        assert min(outcomes.values()) >= 50, outcomes

    def test_stationary_and_moments_on_random_systems(self):
        rng = random.Random(0x5EED)
        seen = {"unique": 0, "several": 0, "moments": 0, "singular": 0}
        specs = [systems.bundled_spec(name) for name in systems.BUILDERS] + [
            oracle.triadic_system(m, random.Random(3), zeros)
            for m in (3, 4) for zeros in (False, True)]
        for spec in itertools.chain(specs, (oracle.random_system(rng) for _ in range(200))):
            try:
                chain = extract_symbolic_chain(spec, stable_partition(spec))
            except RefinementBudgetExceeded:
                continue
            res = stationary_distribution(chain)
            assert res.method == "exact_solve"
            assert res.component_pis == dense_component_pis(chain)
            if not res.unique:
                seen["several"] += 1
                continue
            seen["unique"] += 1
            try:
                expected = dense_moments(spec, chain, res.pi)
            except SingularSystem:
                seen["singular"] += 1
                with pytest.raises(SingularSystem):
                    exact_first_moment(spec, chain, res)
                continue
            seen["moments"] += 1
            assert exact_first_moment(spec, chain, res).per_class == expected
        assert all(seen.values()), seen


class TestPadicSolver:
    """`solve_exact` lifts modulo a Mersenne prime and proves singularity by
    the primes that lose a pivot; the `Fraction` elimination
    `conftest.solve_rational` and the dense Gauss-Jordan above are its
    oracles."""

    @staticmethod
    def watch_primes(monkeypatch) -> list:
        """The primes at which `solve_exact` runs a factorisation, in order."""
        tried = []
        eliminate = graph._eliminate
        monkeypatch.setattr(graph, "_eliminate",
                            lambda active, p: tried.append(p) or eliminate(active, p))
        return tried

    def test_agrees_with_rational_elimination_on_triadic_m5(self, monkeypatch):
        solved = []
        solve = graph.solve_exact
        monkeypatch.setattr(graph, "solve_exact",
                            lambda rows, rhs: solved.append((rows, rhs, solve(rows, rhs)))
                            or solved[-1][2])
        for seed in (1, 3):
            for zeros in (False, True):
                spec = oracle.triadic_system(5, random.Random(seed), zeros)
                chain = extract_symbolic_chain(spec, stable_partition(spec))
                res = stationary_distribution(chain)
                if res.unique:
                    exact_first_moment(spec, chain, res)
        assert max(len(rows) for rows, _rhs, _x in solved) >= 237
        for rows, rhs, x in solved:
            assert x == oracle.solve_rational(rows, rhs)

    def test_small_primes_lose_pivots_but_stay_exact(self, monkeypatch):
        small = [p for p in range(5, 398) if all(p % q for q in range(2, p))]
        monkeypatch.setattr(graph, "_PRIMES", tuple(small))
        tried = self.watch_primes(monkeypatch)
        rng = random.Random(0x5A11)
        seen = {"first prime": 0, "retried": 0, "singular": 0, "singular after several": 0}
        for trial in range(400):
            n = rng.randint(1, 7)
            rows = [[random_rational(rng) if rng.random() < 0.6 else F(0) for _ in range(n)]
                    for _ in range(n)]
            if trial % 5 == 4 and n > 1:
                rows[0] = [2 * v for v in rows[-1]]
            rhs = [random_rational(rng) for _ in range(n)]
            tried.clear()
            try:
                expected = dense_gauss_jordan(rows, rhs)
            except SingularSystem:
                with pytest.raises(SingularSystem, match="empties"):
                    solve_exact(rows, rhs)
                seen["singular"] += 1
                seen["singular after several"] += len(tried) > 1
            else:
                assert solve_exact(rows, rhs) == expected
                seen["first prime" if len(tried) == 1 else "retried"] += 1
            assert tried == small[:len(tried)]
        assert min(seen.values()) >= 10, seen

        for spec in [systems.bundled_spec(name) for name in systems.BUILDERS] + [
                oracle.triadic_system(3, random.Random(3), zeros) for zeros in (False, True)]:
            chain = extract_symbolic_chain(spec, stable_partition(spec))
            res = stationary_distribution(chain)
            assert res.component_pis == dense_component_pis(chain)
            if res.unique:
                assert exact_first_moment(spec, chain, res).per_class == \
                    dense_moments(spec, chain, res.pi)

    def test_singular_40_by_40_system_needs_three_mersenne_primes(self, monkeypatch):
        # Hadamard's bound is about 2^850 here: two failed primes (648 bits)
        # prove nothing, a third (1,255 bits) proves the system singular
        rng = random.Random(0x40)
        n = 40
        rows = [[F(rng.randint(-10 ** 6, 10 ** 6), 9) if rng.random() < 0.3 else F(0)
                 for _ in range(n)] for _ in range(n)]
        i, j, k = rng.sample(range(n), 3)
        rows[k] = [u + 2 * w for u, w in zip(rows[i], rows[j])]
        tried = self.watch_primes(monkeypatch)
        with pytest.raises(SingularSystem, match="empties"):
            solve_exact(rows, [F(1)] * n)
        assert tried == [2 ** 127 - 1, 2 ** 521 - 1, 2 ** 607 - 1]

    def test_a_2000_bit_right_hand_side_takes_many_lifts(self, monkeypatch):
        rng = random.Random(0x2000)
        n = 12
        rows = [[F(0)] * n for _ in range(n)]
        for r in range(n):
            for c in rng.sample(range(n), 3):
                rows[r][c] = random_rational(rng)
            rows[r][r] = F(rng.randint(30, 40), rng.randint(1, 6))
        rhs = [F(rng.getrandbits(2000) - 2 ** 1999) for _ in range(n)]
        lifts = []
        substitute = graph._substitute
        monkeypatch.setattr(graph, "_substitute",
                            lambda steps, b, p: lifts.append(p) or substitute(steps, b, p))
        assert solve_exact(rows, rhs) == dense_gauss_jordan(rows, rhs)
        assert len(lifts) >= 2 * 2000 // 127 and set(lifts) == {graph._PRIMES[0]}


def test_triadic_244_states_exact_weights_and_moments():
    spec = oracle.triadic_system(5, random.Random(1))
    chain = extract_symbolic_chain(spec, stable_partition(spec))
    assert chain.n_states == 244
    res = stationary_distribution(chain)
    assert res.unique and res.method == "exact_solve"
    pi = res.pi
    assert all(isinstance(w, Fraction) and w >= 0 for w in pi.values())
    assert sum(pi.values()) == 1
    flow = {v: F(0) for v in pi}
    for (s, label), p in chain.prob.items():
        flow[chain.target[(s, label)]] += pi[s] * p
    assert flow == pi

    mom = exact_first_moment(spec, chain, res)
    maps = {e.edge_id: e.map for e in spec.edges}
    mass = {v: F(0) for v in mom.per_class}
    for (s, label), p in chain.prob.items():
        if s in mom.per_class:
            m = maps[label]
            mass[chain.target[(s, label)]] += pi[s] * p * (m.slope * mom.per_class[s]
                                                         + m.intercept)
    assert all(mass[v] == pi[v] * mom.per_class[v] for v in mom.per_class)
