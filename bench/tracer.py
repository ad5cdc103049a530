"""Spans and counts around the public functions of every rdsys module.

The tracer wraps each public function from the benchmark's side: it
replaces the function object under every name that refers to it in any
rdsys module, so calls between modules (`partition` calling the
`xi_estimate` it imported from `measures`) and calls through a module
attribute (`graphmod.terminal_components`) are both recorded. Nothing in
`src/` is edited; `uninstall` puts the original objects back.

A span is (name, start_ns, end_ns, parent_index). Counts are recorded
from the wrapped functions' arguments and results. `take()` hands over
everything recorded since the last call, so the caller can split the
record into the set-up and each round.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter

MODULES = ("sysfile", "model", "partition", "graph", "measures", "sampling",
           "dynamics", "cli")
CLASS_METHODS = {"sampling": ("EvalTables", "VectorPaths")}

# metric -> span names; the outermost span among the names counts, so a
# layer that calls itself through another listed name is not counted twice
INCLUSIVE = {
    "sysfile.load_s": ("sysfile.load_system",),
    "model.validate_s": ("model.validate_system",),
    "partition.refine_s": ("partition.refine_markov_partition",
                           "partition.tagged_partition"),
    "partition.extract_s": ("partition.extract_symbolic_chain",),
    "partition.fundamental_s": ("partition.fundamental_partition",),
    "partition.separation_s": ("partition.support_separation",),
    "partition.equality_s": ("partition.measure_equality",),
    "partition.coupling_s": ("partition.coupling_merge_test",),
    "partition.lift_check_s": ("partition.lift_check",),
    "partition.adjoint_s": ("partition.adjoint_discrepancy",),
    "partition.verify_s": ("partition.verify_separations",),
    "graph.terminal_s": ("graph.terminal_components",),
    "graph.stationary_s": ("graph.stationary_distribution",),
    "graph.solve_exact_s": ("graph.solve_exact",),
    "graph.moment_s": ("graph.exact_first_moment",),
    "graph.flags_s": ("graph.is_irreducible", "graph.is_aperiodic",
                      "graph.is_recurrent"),
    "graph.eigen_s": ("graph.eigenvalue_moduli",),
    "measures.enumerate_s": ("measures.enumerate_cylinders",),
    "measures.tail_mass_s": ("measures.tail_mass_exact",),
    "measures.martingale_s": ("measures.martingale_discrepancy",),
    "sampling.draw_matrix_s": ("sampling.draw_matrix",),
    "sampling.eval_tables_s": ("sampling.EvalTables.__init__",),
    "sampling.vector_paths_s": tuple(
        f"sampling.VectorPaths.{m}"
        for m in ("__init__", "rows", "select", "apply", "step")),
    "dynamics.simulate_s": ("dynamics.simulate",),
    "dynamics.averages_s": ("dynamics.ergodic_average",
                            "dynamics.class_frequencies"),
    "dynamics.cloud_s": ("dynamics.push_cloud", "dynamics.stationary_cloud"),
    "dynamics.rate_s": ("dynamics.convergence_rate",),
}
# metric -> span name whose self time (duration minus its child spans) counts
SELF = {
    "measures.xi_s": "measures.xi_estimate",
    "cli.self_s": "cli.run",
}
COUNTS = (
    "partition.breakpoints", "partition.states", "partition.arcs",
    "partition.separation_calls", "partition.separated_pairs",
    "partition.equality_calls", "partition.equal_pairs",
    "partition.coupling_calls", "partition.coupled_pairs",
    "partition.product_vertices", "partition.statistical_pairs",
    "graph.solve_exact_calls", "graph.solve_rows", "graph.pi_bits",
    "graph.power_iteration_calls",
    "measures.words", "measures.xi_calls", "measures.cylinder_calls",
    "sampling.draws", "dynamics.steps", "dynamics.exact_steps", "cli.runs",
)
MAX_COUNTS = {"graph.pi_bits"}   # a largest value, not a sum
LAYER_METRICS = tuple(INCLUSIVE) + tuple(SELF) + COUNTS


def _stationary(c: Counter, args, result) -> None:
    c["graph.power_iteration_calls"] += result.method == "power_iteration"
    if result.method == "exact_solve" and result.pi is not None:
        bits = max(v.denominator.bit_length() for v in result.pi.values())
        c["graph.pi_bits"] = max(c["graph.pi_bits"], bits)


# span name -> update of the counts after each call (Counter.update adds)
COUNT = {
    "partition.refine_markov_partition": lambda c, a, r: c.update(
        {"partition.breakpoints": len(r.breakpoints)}),
    "partition.extract_symbolic_chain": lambda c, a, r: c.update(
        {"partition.states": r.n_states, "partition.arcs": len(r.prob)}),
    "partition.support_separation": lambda c, a, r: c.update(
        {"partition.separation_calls": 1, "partition.separated_pairs": r is not None}),
    "partition.measure_equality": lambda c, a, r: c.update(
        {"partition.equality_calls": 1, "partition.equal_pairs": r.equal}),
    "partition.coupling_merge_test": lambda c, a, r: c.update({
        "partition.coupling_calls": 1,
        "partition.coupled_pairs": r.kind == "coupling_merge",
        "partition.product_vertices":
            len(r.product_states) if r.kind == "coupling_merge" else 0,
        "partition.statistical_pairs": r.kind == "statistical"}),
    "graph.solve_exact": lambda c, a, r: c.update(
        {"graph.solve_exact_calls": 1, "graph.solve_rows": len(a[0])}),
    "graph.stationary_distribution": _stationary,
    "measures.enumerate_cylinders": lambda c, a, r: c.update({"measures.words": len(r)}),
    "measures.xi_estimate": lambda c, a, r: c.update({"measures.xi_calls": 1}),
    "measures.cylinder_measure": lambda c, a, r: c.update({"measures.cylinder_calls": 1}),
    "sampling.draw_matrix": lambda c, a, r: c.update({"sampling.draws": r.size}),
    "dynamics.simulate": lambda c, a, r: c.update(
        {"dynamics.steps": len(r), "dynamics.exact_steps": r.exact_steps}),
    "cli.run": lambda c, a, r: c.update({"cli.runs": 1}),
}


class Tracer:
    """Spans kept in four parallel lists (name, start, end, parent index),
    so recording a span creates no object the garbage collector tracks."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self._stack = []
        self._patches = []   # (namespace, name, original)

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        clock = time.perf_counter_ns
        hook = COUNT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every public function of the modules in MODULES and the
        methods of the classes in CLASS_METHODS."""
        modules = [getattr(package, m) for m in MODULES]
        namespaces = [package] + modules
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{short}.{name}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.append((ns, key, obj))
                            setattr(ns, key, wrapped)
            for cls_name in CLASS_METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj) or (
                            name.startswith("_") and name != "__init__"):
                        continue
                    self._patches.append((cls, name, obj))
                    setattr(cls, name, self._wrap(f"{short}.{cls_name}.{name}", obj))

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._patches):
            setattr(ns, key, obj)
        self._patches.clear()

    def take(self):
        """(spans, counts) recorded since the last call; spans is a list of
        (name, start_ns, end_ns, parent_index)."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        counts = Counter(self.counts)
        # cleared in place: the wrappers hold these objects
        for record in (self.names, self.starts, self.ends, self.parents, self.counts):
            record.clear()
        return spans, counts


def layer_totals(spans, counts) -> dict:
    """Per-layer seconds and counts for one record from `Tracer.take`."""
    out = {}
    for metric, names in INCLUSIVE.items():
        names = set(names)
        total = 0
        for name, start, end, parent in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        out[metric] = total / 1e9
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for metric, span_name in SELF.items():
        out[metric] = sum(end - start - child_ns[k]
                          for k, (name, start, end, _parent) in enumerate(spans)
                          if name == span_name) / 1e9
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    return out


def combine(setup: dict, rounds: list) -> dict:
    """One set-up plus the median round: times add the set-up to the
    median round's value, counts add the set-up's to the first round's
    (every round repeats the same operations, so its counts are equal)."""
    out = {}
    for key in LAYER_METRICS:
        if key in COUNTS:
            merge = max if key in MAX_COUNTS else (lambda a, b: a + b)
            out[key] = merge(setup[key], rounds[0][key])
        else:
            out[key] = setup[key] + statistics.median(r[key] for r in rounds)
    return out
