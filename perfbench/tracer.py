"""Per-layer tracing of one psmaca CLI run.

Run as a script, this is the traced entry point: it wraps every public layer
function listed in LAYERS with a timing wrapper, calls
``psmaca.cli.run_cli`` with the remaining arguments, and writes the spans
and counters to SPANS (a NumPy ``.npz`` file) when the run ends::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS -- train --data ...

Imported, it provides the wrapper installer and the span arithmetic that
turns a spans file into the metrics of `per_layer_specs`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions traced, by psmaca module.  `maca.basin_signature` is
# left out on purpose: it runs about a million times per training run, so
# a wrapper would dominate what it measures.  Its work is counted as the
# patterns `distribute` receives instead.
LAYERS = {
    "codec": ("window_patterns", "hydropathy_encode", "structure_decode"),
    "maca": ("build_tree", "distribute", "classify"),
    "ga": ("evolve_maca", "fitness", "crossover", "mutate"),
    "pipeline": ("predict_structure", "select_base", "similarity",
                 "kmer_counts", "deconvolve", "convolve"),
    "dataio": ("parse_paired", "parse_fasta", "load_model", "save_model",
               "format_paired", "q3"),
    "cli": ("run_cli",),
}
FUNCTIONS = tuple(f"{layer}.{func}"
                  for layer, funcs in LAYERS.items() for func in funcs)

# Metrics derived from spans and counters: name -> (unit, better).
DERIVED = {
    "maca.distribute.patterns": ("count", "lower"),
    "ga.fitness.ns_per_pattern": ("ns", "lower"),
    "ga.generation_s": ("s", "lower"),
    "ga.fitness.distinct_ratio": ("ratio", "higher"),
    "maca.build_tree.nodes": ("count", "lower"),
    "maca.build_tree.ga_runs_per_split": ("ratio", "lower"),
    "maca.classify.us_per_window": ("us", "lower"),
    "codec.window_patterns.windows": ("count", "lower"),
    "pipeline.kmer_counts.recount_ratio": ("ratio", "lower"),
    "process.startup_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def per_layer_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json form."""
    specs = []
    for name in FUNCTIONS:
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.total_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def _count_nodes(node) -> tuple[int, int]:
    """(nodes, internal nodes) of a psmaca tree node."""
    nodes, internal = 1, 0 if node.is_leaf else 1
    for child in node.children.values():
        n, i = _count_nodes(child)
        nodes, internal = nodes + n, internal + i
    return nodes, internal


# Counters taken at a layer boundary from the call's arguments and result.
def _on_distribute(tracer, args, result):
    tracer.add("maca.distribute.patterns", sum(map(len, result.values())))


def _on_window_patterns(tracer, args, result):
    tracer.add("codec.window_patterns.windows", len(result))


def _on_fitness(tracer, args, result):
    tracer.add("ga.fitness.patterns", len(args[1]))
    # the caller is the evolve_maca run whose population this chromosome is in
    tracer.distinct("ga.fitness.distinct", tracer.caller(), args[0])


def _on_evolve_maca(tracer, args, result):
    tracer.add("ga.evolve_maca.generations", len(result[1].best))


def _on_build_tree(tracer, args, result):
    nodes, internal = _count_nodes(result.root)
    tracer.add("maca.build_tree.nodes", nodes)
    tracer.add("maca.build_tree.internal", internal)


def _on_kmer_counts(tracer, args, result):
    tracer.distinct("pipeline.kmer_counts.sequences", 0, args[0])


HOOKS = {
    "maca.distribute": _on_distribute,
    "codec.window_patterns": _on_window_patterns,
    "ga.fitness": _on_fitness,
    "ga.evolve_maca": _on_evolve_maca,
    "maca.build_tree": _on_build_tree,
    "pipeline.kmer_counts": _on_kmer_counts,
}


class Tracer:
    """Records one span per wrapped call, kept in memory until `save`."""

    def __init__(self):
        self.spans: list = []  # (function index, start, end, parent slot)
        self.counters: dict[str, int] = defaultdict(int)
        self._distinct: dict[tuple, set] = defaultdict(set)
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (module, attribute, original)

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def distinct(self, counter: str, scope, value) -> None:
        self._distinct[counter, scope].add(value)

    def caller(self) -> int:
        """Slot of the innermost open span (-1 outside any)."""
        return self._stack[-1] if self._stack else -1

    def _wrap(self, index: int, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each function in FUNCTIONS, in every psmaca module that
        binds it (matched by identity, so name imports are reached too)."""
        for layer in LAYERS:
            importlib.import_module(f"psmaca.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "psmaca" or name.startswith("psmaca."))]
        for index, name in enumerate(FUNCTIONS):
            layer, func = name.split(".")
            fn = getattr(sys.modules[f"psmaca.{layer}"], func, None)
            if fn is None:  # reported with zero calls
                continue
            wrapper = self._wrap(index, fn, HOOKS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, fn))

    def restore(self) -> None:
        """Put every original function back."""
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def finished_counters(self) -> dict[str, int]:
        counters = dict(self.counters)
        for (counter, _), values in self._distinct.items():
            counters[counter] = counters.get(counter, 0) + len(values)
        return counters

    def save(self, path: str) -> None:
        columns = list(zip(*self.spans))
        np.savez(
            path,
            fn=np.array(columns[0], dtype=np.int32),
            start=np.array(columns[1], dtype=np.float64),
            end=np.array(columns[2], dtype=np.float64),
            parent=np.array(columns[3], dtype=np.int64),
            names=np.array(FUNCTIONS),
            counters=np.array(json.dumps(self.finished_counters())),
        )


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  `spans` holds (start, end, parent index)
    with parent -1 for a root."""
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(path, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, except `trace_overhead`, which
    needs untraced runs to compare with."""
    with np.load(path, allow_pickle=False) as data:
        names = [str(n) for n in data["names"]]
        fn = data["fn"].tolist()
        spans = list(zip(data["start"].tolist(), data["end"].tolist(),
                         data["parent"].tolist()))
        counters = json.loads(str(data["counters"]))
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for index, (start, end, _), self_s in zip(fn, spans, self_times(spans)):
        calls[names[index]] += 1
        total[names[index]] += end - start
        own[names[index]] += self_s

    m: dict[str, float] = {}
    for name in FUNCTIONS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.total_s"] = total[name]
        m[f"{name}.self_s"] = own[name]
    c = counters.get
    m["maca.distribute.patterns"] = c("maca.distribute.patterns", 0)
    m["ga.fitness.ns_per_pattern"] = 1e9 * _ratio(
        total["ga.fitness"], c("ga.fitness.patterns", 0))
    m["ga.generation_s"] = _ratio(total["ga.evolve_maca"],
                                  c("ga.evolve_maca.generations", 0))
    m["ga.fitness.distinct_ratio"] = _ratio(c("ga.fitness.distinct", 0),
                                            calls["ga.fitness"])
    m["maca.build_tree.nodes"] = c("maca.build_tree.nodes", 0)
    m["maca.build_tree.ga_runs_per_split"] = _ratio(
        calls["ga.evolve_maca"], c("maca.build_tree.internal", 0))
    m["maca.classify.us_per_window"] = 1e6 * _ratio(total["maca.classify"],
                                                    calls["maca.classify"])
    m["codec.window_patterns.windows"] = c("codec.window_patterns.windows", 0)
    m["pipeline.kmer_counts.recount_ratio"] = _ratio(
        calls["pipeline.kmer_counts"], c("pipeline.kmer_counts.sequences", 0))
    m["process.startup_s"] = traced_wall_s - total["cli.run_cli"]
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS -- PSMACA_ARGS...", file=sys.stderr)
        return 1
    import psmaca.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = psmaca.cli.run_cli(argv[2:])
    finally:
        tracer.restore()
    tracer.save(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
