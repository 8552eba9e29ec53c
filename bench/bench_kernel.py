"""Layer timings of psmaca's kernels: `python3 bench/bench_kernel.py`.

LAYERS lists every layer.  A builder makes the layer's input (a timed lambda
takes it as default arguments), runs its check once and returns the timed
call and the items one call covers.  PROCESSES fresh interpreters in turn
build every layer, each from further round the table, and time each with
`timeit` (GC on): autorange, then one round in each of REPEAT passes over
the table (a slow build: the first only).  After each, IMPORTS more
interpreters read the `-X importtime` layer.  The median of each layer's
per-process medians and their IQR, in seconds per item, go to OUT.
"""

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import timeit
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from psmaca import ca, cli, codec, dataio, ga, maca, pipeline  # noqa: E402

OUT = ROOT / "BENCH_38.json"
PROCESSES = 5
REPEAT = 5
IMPORTS = 5  # after each process: 25 interpreters in all
IMPORT = "cli import [-X importtime, cumulative]"
WINDOW = 5
N_BITS = codec.RESIDUE_BITS * WINDOW
POPULATION = 30
FILTER_LENGTH = 9
MUTATION_RATE = maca.TreeConfig._field_defaults["mutation_rate"]
# the GA settings of the benchmark's `train` workload
TRAIN_GA = maca.TreeConfig(population_size=10, generations=10, max_depth=8)


class Layer(NamedTuple):
    name: str
    build: Callable[[], tuple[Callable[[], object], int]]
    slow: bool = False  # a build of seconds or more: one round a process


def pairs(records) -> list[tuple[int, str]]:
    """The (code, label) training pairs of records' width-5 windows."""
    return [pair for r in records for pair in
            zip(codec.window_patterns(r.sequence, WINDOW), r.structure)]


# at seed 1: `train`'s input and tree, `evaluate_pipeline`'s, `predict_tree`'s
records = cache(lambda: dataio.make_toy_dataset(40, 60, seed=1).records)
windows = cache(lambda: pairs(records()))
tree = cache(lambda: maca.build_tree(windows(), N_BITS, TRAIN_GA, rng_seed=1))
bases = cache(lambda: dataio.make_toy_dataset(150, 150, seed=3).records)
many_bases = cache(lambda: dataio.make_toy_dataset(1000, 150, seed=3).records)
targets = cache(lambda: [
    r.sequence for r in dataio.make_toy_dataset(100, 300, seed=4).records])
prepared = cache(lambda: pipeline.prepare_bases(bases()))
many_prepared = cache(lambda: pipeline.prepare_bases(many_bases()))
predicted = cache(lambda: dataio.make_toy_dataset(500, 200, seed=2).records)
deconvolve_args = cache(lambda: (
    codec.structure_encode(bases()[0].structure),
    codec.hydropathy_encode(bases()[0].sequence), FILTER_LENGTH,
    pipeline.RIDGE))


def population(m: int, seed: int) -> list[ga.Chromosome]:
    rng = random.Random(seed)
    return [ga.random_chromosome(N_BITS, m, rng) for _ in range(POPULATION)]


def once(call, check, per: int = 1):
    """Run `call` once, assert `check` of its result, and hand it on."""
    assert check(call())
    return call, per


def warm(call, per: int):
    """`call` after one untimed pass, checked to repeat that pass."""
    return once(call, call().__eq__, per)


def default_build(count: int, length: int):
    training = pairs(dataio.make_toy_dataset(count, length, seed=1).records)
    assert len(training) == count * length
    def call():  # checked every round: a round is one build
        assert not maca.build_tree(training, N_BITS).root.is_leaf
    return call, 1


def evolve_at_root():
    # all windows, m for their 3 classes, build_tree's first seed at rng_seed 1
    training = maca.pattern_set(windows(), N_BITS)
    assert len(maca.label_counts(training)) == 3
    seed = random.Random(1).getrandbits(32)
    return once(partial(ga.evolve_maca, training, 2, TRAIN_GA, seed),
                lambda run: maca.DependencyString(run[0].bits, run[0].widths)
                == tree().root.ds)


def breed(operator, m: int):
    # one generator per 30 calls, as seeding one costs about as much as a call
    pop = population(m, m)
    args = ([(ch, MUTATION_RATE) for ch in pop] if operator is ga.mutate
            else list(zip(pop, pop[1:] + pop[:1])))
    def call():
        rng = random.Random(1)
        return [operator(a, b, rng) for a, b in args]
    return once(call, lambda chs: all(
        maca.DependencyString(ch.bits, ch.widths).n == N_BITS for ch in chs),
        len(args))


def load_model():
    tmp = tempfile.TemporaryDirectory()
    data, model = Path(tmp.name, "train.txt"), Path(tmp.name, "model.json")
    data.write_text(dataio.dataset_to_paired_text(
        dataio.make_toy_dataset(10, 60, seed=0)))
    assert cli.run_cli(["train", "--data", str(data), "--out", str(model),
                        "--seed", "0", "--population", "10",
                        "--generations", "10", "--max-depth", "8"]) == 0
    def call():  # holds `tmp`, so the directory lasts as long as the call
        return dataio.load_model(os.path.join(tmp.name, "model.json"))
    return once(call, lambda loaded: loaded.window == WINDOW)


def importtime_s() -> float:
    """The cumulative `-X importtime` seconds of `import psmaca.cli` in a
    fresh interpreter with this environment: with PYTHONDONTWRITEBYTECODE
    set, as perfbench's ops may run, psmaca compiles from source each time."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import psmaca.cli"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=60)
    # "import time: self [us] | cumulative | name"; its own line comes last
    _, cumulative, name = done.stderr.splitlines()[-1].split("|")
    assert name.strip() == "psmaca.cli", name
    return int(cumulative) * 1e-6


LAYERS = [
    # one m = 2 chromosome on the first N `train` windows, as a pattern set;
    # each call builds the chromosome's dependency string
    *(Layer(f"ga.fitness[N={n}]", lambda n=n: once(
        partial(ga.fitness, ga.random_chromosome(N_BITS, 2, random.Random(0)),
                maca.pattern_set(windows()[:n], N_BITS)),
        lambda f: 0 < f <= 1)) for n in (2400, 300, 34, 8)),
    # all `train` windows, and the mean node size of the tree built on them
    *(Layer(f"maca.pattern_set[N={n}]", lambda n=n: once(
        partial(maca.pattern_set, windows()[:n], N_BITS),
        lambda built: len(built) == n)) for n in (2400, 30)),
    # all `train` windows at the `train` workload's GA settings
    Layer("maca.build_tree[train input]", lambda: once(
        partial(maca.build_tree, windows(), N_BITS, TRAIN_GA, rng_seed=1),
        lambda built: not built.root.is_leaf)),
    # make_toy_dataset(40, 120, seed=1), the default TreeConfig
    Layer("maca.build_tree[4,800 windows, default TreeConfig]",
          partial(default_build, 40, 120), slow=True),
    # make_toy_dataset(126, 185, seed=1): RS126's size, the default TreeConfig
    Layer("maca.build_tree[23,310 windows, default TreeConfig]",
          partial(default_build, 126, 185), slow=True),
    # the one GA run (10 generations) of the `train` build at its root
    Layer("ga.evolve_maca[train root]", evolve_at_root),
    # per call, 30 from one generator (m = 1: every two-class node asks for
    # it); the GA operators build no dependency string
    *(Layer(f"ga.random_chromosome[n={N_BITS}, m={m}]", lambda m=m: once(
        partial(population, m, 0),
        lambda chs: all(maca.DependencyString(c.bits, c.widths).m == m
                        for c in chs), POPULATION))
      for m in (1, 2)),
    # per call over a seeded population of 30, the default mutation rate
    *(Layer(f"ga.mutate[n={N_BITS}, m={m}]", partial(breed, ga.mutate, m))
      for m in (2, 4)),
    # per call over the 30 neighbouring pairs of a seeded population
    *(Layer(f"ga.crossover[n={N_BITS}, m={m}]", partial(breed, ga.crossover, m))
      for m in (2, 4)),
    # per object, over the (bits, widths) of a seeded population of 30
    Layer(f"maca.DependencyString[construct, n={N_BITS}]", lambda: once(
        lambda fields=[(c.bits, c.widths) for c in population(2, 2)]:
        [maca.DependencyString(bits, widths) for bits, widths in fields],
        lambda built: [(ds.bits, ds.widths) for ds in built] ==
        [(c.bits, c.widths) for c in population(2, 2)], POPULATION)),
    # the 500 x 200 residues `predict_tree` predicts at seed 1
    Layer("dataio.make_toy_dataset[500x200]", lambda: once(
        partial(dataio.make_toy_dataset, 500, 200, 2),
        lambda dataset: dataset.records == predicted())),
    # per record, over the fields of those 500 records
    Layer("dataio.ProteinRecord[construct]", lambda: once(
        lambda fields=list(map(tuple, predicted())):
        [dataio.ProteinRecord(*values) for values in fields],
        lambda built: built == list(predicted()), len(predicted()))),
    # the `predict_tree` workload's model, trained on its own toy data
    Layer("dataio.load_model[predict_tree model]", load_model),
    # per `train` window, on the tree the `train` build makes
    Layer("maca.classify[per window]", lambda: once(
        lambda t=tree(), codes=[code for code, _ in windows()]:
        [maca.classify(t, c) for c in codes],
        lambda labels: len(labels) == len(windows()), len(windows()))),
    # per `train` record
    Layer("codec.window_patterns[per record]", lambda: once(
        lambda sequences=[r.sequence for r in records()]:
        [codec.window_patterns(s, WINDOW) for s in sequences],
        lambda patterns: sum(map(len, patterns)) == 2400, len(records()))),
    # rule 30 at width 8, with each boundary
    *(Layer(f"ca.state_transition_graph[rule 30, n=8, {b}]", lambda b=b: once(
        partial(ca.state_transition_graph, 30, 8, b),
        lambda graph: len(graph.successor) == 256)) for b in ca.BOUNDARIES),
    # per prepared value: `evaluate_pipeline`'s 150 bases, and 1,000
    *(Layer(f"pipeline.prepare_bases[{name}]", lambda records=records: once(
        partial(pipeline.prepare_bases, records()),
        lambda built: len(built.records) == len(records())))
      for name, records in (("150 bases", bases),
                            ("1,000 bases", many_bases))),
    # `evaluate_pipeline`'s 100 targets against its 150 bases, prepared
    # outside the timed call, as the CLI prepares them once
    Layer("pipeline.select_base[per target]", lambda: warm(
        lambda ts=targets(), bs=prepared():
        [pipeline.select_base(t, bs)[0].id for t in ts], len(targets()))),
    # those targets against 1,000 prepared bases
    Layer("pipeline.select_base[per target, 1,000 bases]", lambda: warm(
        lambda ts=targets(), bs=many_prepared():
        [pipeline.select_base(t, bs)[0].id for t in ts], len(targets()))),
    # every target-base pair of k-mer counts, counted outside the timed
    # call; off the hot path, as `select_base` scores every base from its
    # index and calls this once per target
    Layer("pipeline.similarity[per pair]", lambda: warm(
        lambda both=[(pipeline.kmer_counts(t, pipeline.KMER_SIZE), b)
                     for t in targets() for b in prepared().counts]:
        [pipeline.similarity(a, b) for a, b in both],
        len(targets()) * len(bases()))),
    # the first base's filter, fitted from its 150 residues
    Layer(f"pipeline.deconvolve[L={FILTER_LENGTH}, 150 residues]",
          lambda: warm(partial(pipeline.deconvolve, *deconvolve_args()), 1)),
    # that filter over each target's hydropathy signal
    Layer(f"pipeline.convolve[L={FILTER_LENGTH}, per target]", lambda: once(
        lambda f=pipeline.deconvolve(*deconvolve_args()),
        signals=list(map(codec.hydropathy_encode, targets())):
        [pipeline.convolve(s, f) for s in signals],
        lambda traces: list(map(len, traces)) == list(map(len, targets())),
        len(targets()))),
    # the import alone, without interpreter start-up and `site`
    Layer(IMPORT, lambda: once(importtime_s, lambda s: s > 0)),
]


def time_layers(start: int) -> dict[str, tuple[float, int]]:
    """Each layer's median s per item here, and rounds, over REPEAT passes."""
    timers, rounds = {}, {}
    for name, build, slow in LAYERS[start:] + LAYERS[:start]:
        if name != IMPORT:
            call, per = build()
            timer = timeit.Timer(call, "gc.enable()")
            number = 1 if slow else timer.autorange()[0]
            timers[name], rounds[name] = (timer, number, per, slow), []
    for i in range(REPEAT):
        for name, (timer, number, per, slow) in timers.items():
            if i == 0 or not slow:  # a slow build: the first pass only
                rounds[name].append(timer.timeit(number) / number / per)
    return {name: (statistics.median(r), len(r)) for name, r in rounds.items()}


def summary(runs: list[tuple[float, int]]) -> dict:
    """The median and IQR of per-process medians, given with their rounds."""
    q1, median, q3 = statistics.quantiles([m for m, _ in runs], n=4)
    return {"median_s": median, "iqr_s": q3 - q1, "processes": len(runs),
            "rounds": sum(rounds for _, rounds in runs)}


def main() -> None:
    runs, imports = [], []
    for i in range(PROCESSES):  # a fresh interpreter each
        with ProcessPoolExecutor(1, get_context("spawn")) as pool:
            runs.append(pool.submit(time_layers,
                                    i * len(LAYERS) // PROCESSES).result())
        imports += [(importtime_s(), 1) for _ in range(IMPORTS)]
    layers = {name: summary([run[name] for run in runs]) for name in runs[0]}
    layers[IMPORT] = summary(imports)
    OUT.write_text(json.dumps({
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "windows": "make_toy_dataset(40, 60, seed=1), window 5, n=25; "
                   "default-config builds: (40, 120) and (126, 185), seed 1",
        "pipeline": "targets make_toy_dataset(100, 300, seed=4), "
                    "bases make_toy_dataset(150, 150, seed=3) and "
                    "make_toy_dataset(1000, 150, seed=3)",
        "layers": layers,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
