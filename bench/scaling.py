"""Per-layer times on the triadic family, m = 2..5 (10 to 244 states).

Prints the reference figures recorded in bench/README.md. For each m it
traces one triadic system with weights 1..4 (nearly every pair falls
through to the coupling test) through the partition and graph layers and
prints one JSON line of per-layer seconds and counts.
Run from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/scaling.py [M ...]

Above 128 states `stationary_distribution` switches to float power
iteration and `exact_first_moment` cannot finish on its answer, so for
those sizes the stationary layer is timed with `exact_max_states` raised
to the chain size; the switch itself is timed apart as `power_s`.
"""

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rdsys  # noqa: E402
# every module the tracer wraps, as attributes of rdsys
from rdsys import (cli, dynamics, graph, measures, model,  # noqa: E402,F401
                   partition, sampling, sysfile)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

KEYS = ("partition.refine_s", "partition.extract_s", "partition.fundamental_s",
        "partition.separation_s", "partition.equality_s", "partition.coupling_s",
        "graph.terminal_s", "graph.stationary_s", "graph.solve_exact_s",
        "graph.moment_s", "graph.flags_s", "graph.eigen_s",
        "partition.states", "partition.product_vertices", "graph.pi_bits")


def measure(m: int) -> dict:
    spec = workloads.triadic(rdsys, m, random.Random(1), zeros=False)
    t = tracing.Tracer()
    t.install(rdsys)
    try:
        start = time.perf_counter()
        fp = partition.fundamental_partition(spec, partition.PartitionParams(seed=1))
        chain = fp.chain
        st = graph.stationary_distribution(chain, exact_max_states=chain.n_states)
        graph.exact_first_moment(spec, chain, st)
        g = graph.digraph_of_chain(chain)
        graph.is_irreducible(g), graph.is_aperiodic(g), graph.is_recurrent(g)
        graph.eigenvalue_moduli(chain)
        total = time.perf_counter() - start
        layers = tracing.layer_totals(*t.take())
    finally:
        t.uninstall()
    out = {"m": m, "total_s": round(total, 3)}
    out.update({k: round(layers[k], 4) if k.endswith("_s") else layers[k] for k in KEYS})
    if chain.n_states > 128:
        start = time.perf_counter()
        graph.stationary_distribution(chain)
        out["power_s"] = round(time.perf_counter() - start, 3)
    return out


if __name__ == "__main__":
    for m in [int(a) for a in sys.argv[1:]] or [2, 3, 4, 5]:
        print(json.dumps(measure(m)), flush=True)
