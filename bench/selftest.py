"""Tests of the benchmark's own output checks.

Each checker must accept a correct output and reject a wrong one, so a
check that accepts everything (or nothing) cannot get in. Run from the
root of a checkout:

    PYTHONPATH=src python3 bench/selftest.py
"""

import copy
import dataclasses
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rdsys  # noqa: E402
from rdsys import graph, partition, systems  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def step_ninth():
    spec = systems.step_system()
    fp = partition.fundamental_partition(spec, partition.PartitionParams(seed=1))
    return spec, fp


def test_stationary_rejects_perturbed_pi():
    spec, fp = step_ninth()
    pi = graph.stationary_distribution(fp.chain).pi
    assert checks.stationary_problems(fp.chain, pi) == []
    moved = dict(pi)
    a, b = [v for v in moved if moved[v] > 0][:2]
    moved[a] += F(1, 1000)
    moved[b] -= F(1, 1000)         # still sums to 1
    assert checks.stationary_problems(fp.chain, moved)
    leaked = {v: F(1, fp.chain.n_states) for v in pi}   # weight on the transient {0}
    assert checks.stationary_problems(fp.chain, leaked)


def test_stationary_rejects_periodic_float_weights():
    rows = workloads.periodic_rows(6)
    chain = workloads.matrix_chain(rows)
    exact = {0: F(1, 2), **{v: F(1, 10) for v in range(1, 6)}}
    assert checks.stationary_problems(chain, exact) == []
    # float weights near the answer, as the power-iteration fallback gives
    assert checks.stationary_problems(chain, {v: float(w) for v, w in exact.items()})
    assert checks.stationary_problems(chain, {v: F(1, 6) for v in range(6)})


def test_moments_reject_shift():
    spec, fp = step_ninth()
    st = graph.stationary_distribution(fp.chain)
    mo = graph.exact_first_moment(spec, fp.chain, st)
    assert checks.moment_problems(spec, fp.chain, st.pi, mo.per_class) == []
    v = next(iter(mo.per_class))
    shifted = dict(mo.per_class)
    shifted[v] += F(1, 10 ** 6)
    assert checks.moment_problems(spec, fp.chain, st.pi, shifted)
    outside = {s: m + 1 for s, m in mo.per_class.items()}
    assert checks.moment_problems(spec, fp.chain, st.pi, outside)


def test_partition_rejects_non_separating_word():
    spec, fp = step_ninth()
    assert checks.partition_problems(spec, fp) == []
    pair, cert = next((k, c) for k, c in fp.certificates.items()
                      if c.kind == "support_separation")
    bad = copy.copy(fp)
    bad.certificates = dict(fp.certificates)
    bad.certificates[pair] = dataclasses.replace(cert, word=("1",), mass_i=F(1), mass_j=F(1))
    assert checks.partition_problems(spec, bad)


def test_partition_rejects_merged_separable_states():
    spec, fp = step_ninth()
    merged = copy.copy(fp)
    merged.state_class = {s: 0 for s in fp.state_class}
    merged.classes = [dataclasses.replace(fp.classes[0],
                                          states=tuple(range(fp.chain.n_states)))]
    assert checks.partition_problems(spec, merged)


def test_class_count_rejects_wrong_count():
    text = partition.partition_report(step_ninth()[1])
    assert workloads.class_count_problems(text, 4) == []
    assert workloads.class_count_problems(text, 3)


def test_step_ninth_pi_closed_form():
    assert checks.step_ninth_pi() == {"{0}": 0, "(0,1/9]": F(1, 7),
                                      "(1/9,1/3]": F(2, 7), "(1/3,1]": F(4, 7)}
    text = "stationary weights (exact):\n  state 0 {0}: 0\n  state 1 (0,1/9]: 1/7\n" \
           "  state 2 (1/9,1/3]: 2/7\n  state 3 (1/3,1]: 4/7\nresidual: 0\n"
    assert workloads.step_ninth_problems(text) == []
    assert workloads.step_ninth_problems(text.replace("2/7", "3/7"))


def test_flags_match_program_and_detect_period():
    _spec, fp = step_ninth()
    g = graph.digraph_of_chain(fp.chain)
    assert checks.own_flags(fp.chain) == (graph.is_irreducible(g), graph.is_aperiodic(g),
                                          graph.is_recurrent(g))
    assert checks.own_flags(workloads.matrix_chain(workloads.periodic_rows(5))) == \
        (True, False, True)


def test_cylinders_reject_wrong_mass():
    spec, fp = step_ninth()
    rows = rdsys.enumerate_cylinders(spec, F(1, 2), 6)
    assert checks.cylinder_problems(rows, fp.chain, F(1, 2), 6) == []
    (w0, m0), (w1, m1) = rows[0], rows[1]
    swapped = [(w0, m1), (w1, m0)] + rows[2:]
    assert m0 == m1 or checks.cylinder_problems(swapped, fp.chain, F(1, 2), 6)
    assert checks.cylinder_problems(rows[1:], fp.chain, F(1, 2), 6)


def test_xi_rejects_certified_verdict_without_witness():
    spec = systems.positive_step_system()
    rep = rdsys.xi_estimate(spec, F(1, 4), F(3, 4),
                            rdsys.XiParams(n_exact=6, num_samples=50, n_mc=50, seed=3))
    assert checks.xi_problems(spec, rep) == []
    assert checks.xi_problems(spec, dataclasses.replace(rep, verdict="singular_certified"))
    s9 = systems.step_system()
    sep = rdsys.xi_estimate(s9, F(1, 2), F(1, 27),
                            rdsys.XiParams(n_exact=6, num_samples=50, n_mc=50, seed=3))
    assert sep.verdict == "singular_certified" and checks.xi_problems(s9, sep) == []
    assert checks.xi_problems(s9, dataclasses.replace(sep, infinity_witness=("1",)))


def test_tails_and_drift_and_ergodic_tolerances():
    assert checks.tail_problems([(2, F(1, 3)), (8, F(1, 5))]) == []
    assert checks.tail_problems([(2, F(1, 5)), (8, F(1, 3))])
    assert checks.tail_problems([(2, F(3, 2))])

    class Drift:
        mc_drift, mc_drift_stderr = checks.SPLIT_DRIFT + 1e-4, 1e-4
    assert checks.drift_problems(Drift) == []
    Drift.mc_drift = checks.SPLIT_DRIFT + 1e-3
    assert checks.drift_problems(Drift)

    freqs = {0: F(1, 4), 1: F(3, 4)}
    assert checks.ergodic_problems(0.3, freqs, F(3, 10), {0: F(1, 4), 1: F(3, 4)}) == []
    assert checks.ergodic_problems(0.3 + 2 * checks.TOL_MEAN, freqs, F(3, 10),
                                   {0: F(1, 4), 1: F(3, 4)})
    assert checks.ergodic_problems(0.3, freqs, F(3, 10), {0: F(1, 5), 1: F(4, 5)})


def test_prefix_rejects_changed_trace():
    spec = systems.step_system()
    long = rdsys.simulate(spec, F(1, 2), 200, 5)
    short = rdsys.simulate(spec, F(1, 2), 50, 5)
    assert checks.prefix_problems(short, long) == []
    other = rdsys.simulate(spec, F(1, 2), 50, 6)
    assert checks.prefix_problems(other, long)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
