#!/usr/bin/env python3
"""Benchmark of rdsys: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify|solve|paths --seed N \
        --seconds S --trace 0|1

Each workload runs in its own worker process (bench/worker.py) with one
OpenBLAS/OpenMP thread. With --trace 0 the run first starts SETUP_PROBES
fresh processes that only set up, then the worker, which sets up once
more, runs whole rounds of the workload's operations, checks every
output after each round, and goes on while the next round with its
checks is expected to end within S seconds (at least one round). The last line printed
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {"setup_s": ..., "job_s": ..., "peak_rss_mib": ...}}

setup_s is the median set-up time over all set-ups of the run, job_s one
round's time (each operation's median over the rounds, summed),
peak_rss_mib the worker's peak resident memory. With
--trace 1 no probes run, the worker records spans around every public
rdsys function, and the metrics are the per-layer ones (see README.md);
the spans go to bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
DEADLINE_S = 170          # the whole run, probes included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker(root, argv, deadline):
    """Run bench/worker.py; return its last stdout line parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               **{name: "1" for name in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "solve", "paths"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "rdsys" / "__init__.py").is_file():
        sys.stderr.write("no src/rdsys here: run from the root of an rdsys checkout\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        if args.trace:
            res = worker(root, common + ["--trace", "1"], deadline)
            metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                       for name, value in res["layers"].items()}
            sys.stderr.write(f"traced job_s {res['job_s']:.4f}; rounds "
                             + " ".join(f"{t:.3f}" for t in res["round_s"]) + "\n")
        else:
            setups = [worker(root, common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = worker(root, common, deadline)
            setups.append(res["setup_s"])
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "job_s": {"value": res["job_s"], "unit": "s"},
                "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
            }
            sys.stderr.write("rounds " + " ".join(f"{t:.3f}" for t in res["round_s"])
                             + "; set-ups " + " ".join(f"{s:.3f}" for s in setups) + "\n")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
