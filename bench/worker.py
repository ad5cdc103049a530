"""One workload in one process: set up, run whole rounds, check outputs.

Started by run.py with OpenBLAS and OpenMP pinned to one thread and with
`src` first on PYTHONPATH. Prints one JSON object as its last line:

    {"setup_s": ...}                          with --setup-only
    {"setup_s", "job_s", "round_s", "peak_rss_mib", "attempted", "failed",
     "correct", "layers"}                     otherwise ("layers" with --trace 1)

With --trace 1 the spans of the set-up and the first round also go to
bench/out/trace-<workload>-<seed>.jsonl.
"""

import time

T0 = time.perf_counter()   # set-up is timed from here: imports count

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

import rdsys
# every module the tracer wraps or the workloads call, as attributes of rdsys
from rdsys import (cli, dynamics, graph, measures, model, partition,  # noqa: F401
                   sampling, sysfile, systems)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(os.getcwd()) / "src"
    if src not in Path(rdsys.__file__).resolve().parents:
        sys.stderr.write(f"rdsys imported from {rdsys.__file__}, not from {src}\n")
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(rdsys)
    wl = workloads.WORKLOADS[args.workload](rdsys, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_record = tracer.take() if tracer else None

    round_times, round_layers = [], []
    attempted = failed = 0
    correct = True
    reported = set()
    peak_rss = 0.0
    first_spans = None
    op_times = {op.name: [] for op in wl.ops}
    loop_start = time.perf_counter()
    # whole rounds, each with its checks, while the next one is expected
    # to end within --seconds (at least one)
    while not round_times or (time.perf_counter() - loop_start) * (
            len(round_times) + 1) / len(round_times) <= args.seconds:
        gc.collect()
        if tracer:
            tracer.take()   # drop what the previous round's checks recorded
        got = {}
        start = time.perf_counter()
        for op in wl.ops:
            t = time.perf_counter()
            try:
                got[op.name] = op.run(got)
            except Exception as exc:   # recorded and counted as a failed operation
                got[op.name] = exc
            op_times[op.name].append(time.perf_counter() - t)
        round_times.append(time.perf_counter() - start)
        peak_rss = max(peak_rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            spans, counts = tracer.take()
            round_layers.append(tracing.layer_totals(spans, counts))
            if first_spans is None:
                first_spans = spans
        for op in wl.ops:
            result = got[op.name]
            attempted += 1
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            else:
                problems = op.check(result, got)
            if not problems:
                continue
            failed += 1
            if op.fault is None:
                correct = False
            if op.name not in reported:
                reported.add(op.name)
                tag = f"known fault {op.fault}" if op.fault else "FAILED"
                sys.stderr.write(f"{op.name}: {tag}: {'; '.join(problems[:3])}\n")
        del got

    # one round's time: each operation's median over the rounds, summed
    job_s = sum(statistics.median(times) for times in op_times.values())
    out = {"setup_s": setup_s, "job_s": job_s,
           "round_s": round_times, "peak_rss_mib": peak_rss,
           "attempted": attempted, "failed": failed, "correct": correct}
    if tracer:
        tracer.uninstall()
        setup_layers = tracing.layer_totals(*setup_record)
        out["layers"] = tracing.combine(setup_layers, round_layers)
        write_trace(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl",
                    setup_record[0], first_spans, out)
    print(json.dumps(out))
    return 0


def write_trace(path, setup_spans, round_spans, summary) -> None:
    """Spans of the set-up and the first round as JSON lines, then the summary."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for phase, spans in (("setup", setup_spans), ("round1", round_spans)):
            for k, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"phase": phase, "id": k, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
