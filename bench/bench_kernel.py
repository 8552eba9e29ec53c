"""Layer timings of the MACA signature kernel, measured with pytest-benchmark.

Run from the repository root:

    python -m pytest bench/bench_kernel.py

It times `ga.fitness` of one chromosome on the first N training windows
(N = 2400, 300, 34 and 8), as a `maca.pattern_set` built once, outside the
timed call; `maca.pattern_set` of the first N windows (N = 2400, and 30,
the mean node size of the `train` tree); `maca.build_tree` on all 2,400
windows with the `train` workload's GA settings (BUILD_ROUNDS rounds), and
on the 4,800 width-5 windows of `make_toy_dataset(40, 120, seed=1)` with
the default `TreeConfig` (BUILD_ROUNDS rounds); `ga.evolve_maca`, the GA
run that the 2,400-window `build_tree` makes at its root, with the same
settings, node patterns, m and seed (one GA run of `generations` generations,
EVOLVE_ROUNDS rounds); `ga.random_chromosome` per call (n = 25, m = 1,
which every two-class node asks for, and m = 2);
`ga.mutate` and `ga.crossover` per call on a seeded population of 30
chromosomes (n = 25, m = 2 and 4, the default mutation rate; each of these
layers seeds one generator per 30 calls, as seeding one costs about
as much as a call), `dataio.load_model` of the model the benchmark's
`predict_tree` workload reads, `maca.classify` per window,
`codec.window_patterns` per record, `ca.state_transition_graph` of rule 30
at width 8 with each boundary, `pipeline.select_base` and
`pipeline.convolve` per target, `pipeline.similarity` per (target, base)
pair on a warm k-mer memo, `pipeline._kmer_vector` per sequence on a cold
one (the memo is cleared before each of VECTOR_ROUNDS rounds over the 250
sequences; the process-wide k-mer numbering stays), `pipeline.deconvolve`
(L = 9) on one base,
`maca.DependencyString` construction per object over the (bits, widths)
of a seeded population of 30 (n = 25, m = 2), `dataio.make_toy_dataset`
of the 500 200-residue records that the benchmark's `predict_tree`
workload predicts at seed 1 (`make_toy_dataset(500, 200, seed=2)`), two
fresh-interpreter probes, one subprocess per round for PROBE_ROUNDS
rounds: `import psmaca.cli` alone, and that import plus one
`pipeline.predict_structure` call, which shows whether either route pulls
in numpy, and the import of `psmaca.cli` alone as `python -X importtime`
reports it (the cumulative time of the `psmaca.cli` line, which leaves
out interpreter start-up and `site`), one fresh interpreter per round for
IMPORT_ROUNDS rounds, in the environment the benchmark runs in: with
PYTHONDONTWRITEBYTECODE set or stale `__pycache__` files, psmaca is
compiled from source each round.  The windows are
the 2,400 width-5 windows (25-bit patterns) of the 40 records of
`make_toy_dataset(40, 60, seed=1)`, the input of the benchmark's `train`
workload at seed 1; the classified tree is trained on them with that
workload's GA settings.  Base selection runs on the `evaluate_pipeline`
inputs at seed 1: the 100 targets of `make_toy_dataset(100, 300, seed=4)`
against the 150 bases of `make_toy_dataset(150, 150, seed=3)`, after one
untimed pass over every target, so a k-mer memo is warm.  The
deconvolved base is the first of those bases (150 residues), and its
filter is the one convolved with each target's hydropathy signal.  The
median and interquartile range of each layer, in seconds, go to
BENCH_29.json at the repository root, with the Python version and core
count.  The file is not named test_*.py, so the test suite does not
collect it; `tests/test_bench.py` runs every layer but the default-config
build once, with timing disabled, which writes no file.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from psmaca import ca, cli, codec, dataio, ga, maca, pipeline
from psmaca.codec import RESIDUE_BITS, window_patterns

OUT = Path(__file__).resolve().parents[1] / "BENCH_29.json"
WINDOW = 5
N_BITS = RESIDUE_BITS * WINDOW
FITNESS_SIZES = (2400, 300, 34, 8)
# all the `train` windows, and the mean node size of the tree built on them
PATTERN_SET_SIZES = (2400, 30)
POPULATION = 30
FILTER_LENGTH = 9
RIDGE = pipeline.PipelineConfig._field_defaults["ridge"]
PROBE_ROUNDS = 15
IMPORT_ROUNDS = 25
BUILD_ROUNDS = 3
EVOLVE_ROUNDS = 15
# the GA settings of the benchmark's `train` workload
TRAIN_CONFIG = maca.TreeConfig(population_size=10, generations=10, max_depth=8)
VECTOR_ROUNDS = 20
# the predict probe: one target against a few toy bases
PREDICT_PROBE = ("import psmaca.cli; from psmaca import dataio, pipeline; "
                 "bases = dataio.make_toy_dataset(20, 150, seed=3).records; "
                 "pipeline.predict_structure(bases[0].sequence, bases)")


@pytest.fixture(scope="module")
def records():
    return dataio.make_toy_dataset(40, 60, seed=1).records


def labeled_windows(records):
    return [maca.LabeledPattern(code, label)
            for r in records
            for code, label in zip(window_patterns(r.sequence, WINDOW),
                                   r.structure)]


@pytest.fixture(scope="module")
def windows(records):
    return labeled_windows(records)


@pytest.fixture(scope="module")
def bases():
    return dataio.make_toy_dataset(150, 150, seed=3).records


@pytest.fixture(scope="module")
def targets():
    return [r.sequence for r in
            dataio.make_toy_dataset(100, 300, seed=4).records]


@pytest.fixture(scope="module")
def layers():
    results: dict[str, dict] = {}
    yield results
    if results:
        OUT.write_text(json.dumps({
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "windows": "make_toy_dataset(40, 60, seed=1), window 5, n=25; "
                       "the default-config build: make_toy_dataset(40, 120, "
                       "seed=1)",
            "pipeline": "targets make_toy_dataset(100, 300, seed=4), "
                        "bases make_toy_dataset(150, 150, seed=3)",
            "layers": results,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def record(layers, benchmark, name: str, per: int = 1) -> None:
    """Keep the median and IQR of one timed layer, divided by `per` items."""
    if benchmark.stats is None:  # timing disabled
        return
    stats = benchmark.stats.stats
    layers[name] = {"median_s": stats.median / per, "iqr_s": stats.iqr / per,
                    "rounds": stats.rounds}


@pytest.mark.parametrize("size", FITNESS_SIZES)
def test_fitness(benchmark, windows, layers, size):
    ch = ga.random_chromosome(N_BITS, 2, random.Random(0))
    training = maca.pattern_set(windows[:size], N_BITS)
    assert 0 < benchmark(ga.fitness, ch, training) <= 1
    record(layers, benchmark, f"ga.fitness[N={size}]")


@pytest.mark.parametrize("size", PATTERN_SET_SIZES)
def test_pattern_set(benchmark, windows, layers, size):
    training = benchmark(maca.pattern_set, windows[:size], N_BITS)
    assert len(training) == size
    record(layers, benchmark, f"maca.pattern_set[N={size}]")


def test_build_tree(benchmark, windows, layers):
    tree = benchmark.pedantic(maca.build_tree, (windows, N_BITS, TRAIN_CONFIG),
                              {"rng_seed": 1}, rounds=BUILD_ROUNDS,
                              iterations=1)
    assert not tree.root.is_leaf
    record(layers, benchmark, "maca.build_tree[train input]")


def test_build_tree_default_config(benchmark, layers):
    # ROADMAP item 1's slow layer: a default-config build, 5-7 s a round
    windows = labeled_windows(
        dataio.make_toy_dataset(40, 120, seed=1).records)
    assert len(windows) == 4800
    tree = benchmark.pedantic(maca.build_tree, (windows, N_BITS),
                              rounds=BUILD_ROUNDS, iterations=1)
    assert not tree.root.is_leaf
    record(layers, benchmark,
           "maca.build_tree[4,800 windows, default TreeConfig]")


def test_evolve_maca_at_root(benchmark, windows, layers):
    # the root's GA run in test_build_tree: all windows, m for their three
    # classes, and the first seed build_tree draws from rng_seed 1
    training = maca.pattern_set(windows, N_BITS)
    assert len(maca.label_counts(training)) == 3
    seed = random.Random(1).getrandbits(32)
    best, history = benchmark.pedantic(
        ga.evolve_maca, (training, 2, TRAIN_CONFIG, seed),
        rounds=EVOLVE_ROUNDS, iterations=1, warmup_rounds=1)
    tree = maca.build_tree(windows, N_BITS, TRAIN_CONFIG, rng_seed=1)
    assert best.classifier1 == tree.root.ds
    record(layers, benchmark, "ga.evolve_maca[train root]")


@pytest.mark.parametrize("m", (1, 2))
def test_random_chromosome(benchmark, layers, m):
    def draw():
        rng = random.Random(0)
        return [ga.random_chromosome(N_BITS, m, rng)
                for _ in range(POPULATION)]

    chromosomes = benchmark(draw)
    assert all(ch.classifier1.m == m for ch in chromosomes)
    record(layers, benchmark, f"ga.random_chromosome[n={N_BITS}, m={m}]",
           per=POPULATION)


def population(m: int) -> list[ga.Chromosome]:
    rng = random.Random(m)
    return [ga.random_chromosome(N_BITS, m, rng) for _ in range(POPULATION)]


@pytest.mark.parametrize("m", (2, 4))
def test_mutate(benchmark, layers, m):
    pop = population(m)
    rate = maca.TreeConfig._field_defaults["mutation_rate"]
    def breed():
        rng = random.Random(1)
        return [ga.mutate(ch, rate, rng) for ch in pop]

    children = benchmark(breed)
    assert all(ch.classifier1.n == N_BITS for ch in children)
    record(layers, benchmark, f"ga.mutate[n={N_BITS}, m={m}]", per=POPULATION)


def test_dependency_string_construct(benchmark, layers):
    pairs = [(ch.classifier1.bits, ch.classifier1.widths)
             for ch in population(2)]
    built = benchmark(
        lambda: [maca.DependencyString(bits, widths) for bits, widths in pairs])
    assert [(ds.bits, ds.widths) for ds in built] == pairs
    record(layers, benchmark, f"maca.DependencyString[construct, n={N_BITS}]",
           per=len(pairs))


@pytest.mark.parametrize("m", (2, 4))
def test_crossover(benchmark, layers, m):
    pop = population(m)
    pairs = list(zip(pop, pop[1:] + pop[:1]))
    def breed():
        rng = random.Random(1)
        return [ga.crossover(a, b, rng) for a, b in pairs]

    children = benchmark(breed)
    assert all(ch.classifier1.n == N_BITS for ch in children)
    record(layers, benchmark, f"ga.crossover[n={N_BITS}, m={m}]",
           per=len(pairs))


def test_make_toy_dataset(benchmark, layers):
    # the predict_tree workload's targets at seed 1
    dataset = benchmark(dataio.make_toy_dataset, 500, 200, 2)
    assert len(dataset.records) == 500
    record(layers, benchmark, "dataio.make_toy_dataset[500x200]")


def test_load_model(benchmark, layers, tmp_path):
    # the predict_tree workload's model: make_toy_dataset(10, 60, seed=0)
    # trained with seed 0 at its GA settings
    data, model = tmp_path / "train.txt", tmp_path / "model.json"
    data.write_text(dataio.dataset_to_paired_text(
        dataio.make_toy_dataset(10, 60, seed=0)))
    assert cli.run_cli(["train", "--data", str(data), "--out", str(model),
                        "--seed", "0", "--population", "10",
                        "--generations", "10", "--max-depth", "8"]) == 0
    loaded = benchmark(dataio.load_model, str(model))
    assert loaded.window == WINDOW
    record(layers, benchmark, "dataio.load_model[predict_tree model]")


def test_classify_per_window(benchmark, windows, layers):
    tree = maca.build_tree(windows, N_BITS, TRAIN_CONFIG, rng_seed=1)
    codes = [w.code for w in windows]
    labels = benchmark(lambda: [maca.classify(tree, c) for c in codes])
    assert len(labels) == len(windows)
    record(layers, benchmark, "maca.classify[per window]", per=len(windows))


def test_window_patterns_per_record(benchmark, records, layers):
    sequences = [r.sequence for r in records]
    patterns = benchmark(lambda: [window_patterns(s, WINDOW) for s in sequences])
    assert sum(map(len, patterns)) == 2400
    record(layers, benchmark, "codec.window_patterns[per record]",
           per=len(sequences))


@pytest.mark.parametrize("boundary", ca.BOUNDARIES)
def test_state_transition_graph(benchmark, layers, boundary):
    graph = benchmark(ca.state_transition_graph, 30, 8, boundary)
    assert len(graph.successor) == 256
    record(layers, benchmark,
           f"ca.state_transition_graph[rule 30, n=8, {boundary}]")


def test_select_base_per_target(benchmark, bases, targets, layers):
    warm = [pipeline.select_base(t, bases)[0].id for t in targets]
    chosen = benchmark(lambda: [pipeline.select_base(t, bases)[0].id
                                for t in targets])
    assert chosen == warm
    record(layers, benchmark, "pipeline.select_base[per target]",
           per=len(targets))


def test_similarity_per_pair(benchmark, bases, targets, layers):
    pairs = [(t, b.sequence) for t in targets for b in bases]
    warm = [pipeline.similarity(a, b) for a, b in pairs]
    scores = benchmark(lambda: [pipeline.similarity(a, b) for a, b in pairs])
    assert scores == warm
    record(layers, benchmark, "pipeline.similarity[per pair]", per=len(pairs))


def test_kmer_vector_cold(benchmark, bases, targets, layers):
    sequences = [b.sequence for b in bases] + targets
    built = benchmark.pedantic(
        lambda: [pipeline._kmer_vector(s, 3) for s in sequences],
        setup=pipeline._kmer_vector.cache_clear, rounds=VECTOR_ROUNDS,
        iterations=1, warmup_rounds=1)
    assert len(built) == len(sequences)
    record(layers, benchmark, "pipeline._kmer_vector[per sequence, cold]",
           per=len(sequences))


@pytest.fixture(scope="module")
def response(bases):
    base = bases[0]
    return pipeline.deconvolve(codec.structure_encode(base.structure),
                               codec.hydropathy_encode(base.sequence),
                               FILTER_LENGTH, RIDGE)


def test_deconvolve(benchmark, bases, layers, response):
    base = bases[0]
    output = codec.structure_encode(base.structure)
    signal = codec.hydropathy_encode(base.sequence)
    fitted = benchmark(pipeline.deconvolve, output, signal, FILTER_LENGTH,
                       RIDGE)
    assert fitted == response
    record(layers, benchmark,
           f"pipeline.deconvolve[L={FILTER_LENGTH}, {len(signal)} residues]")


def test_convolve_per_target(benchmark, layers, response):
    signals = [codec.hydropathy_encode(r.sequence) for r in
               dataio.make_toy_dataset(100, 300, seed=4).records]
    traces = benchmark(lambda: [pipeline.convolve(s, response)
                                for s in signals])
    assert list(map(len, traces)) == list(map(len, signals))
    record(layers, benchmark,
           f"pipeline.convolve[L={FILTER_LENGTH}, per target]",
           per=len(signals))


@pytest.mark.parametrize("name, code", [
    ("cli import [fresh process]", "import psmaca.cli"),
    ("cli import + predict_structure [fresh process]", PREDICT_PROBE),
], ids=["import", "import-predict"])
def test_fresh_process(benchmark, layers, name, code):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def probe():
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)

    benchmark.pedantic(probe, rounds=PROBE_ROUNDS, iterations=1,
                       warmup_rounds=1)
    record(layers, benchmark, name)


def importtime_s(module: str, env: dict) -> float:
    """The cumulative `-X importtime` seconds of `module`, imported alone
    in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    # "import time: self [us] | cumulative | imported package"; the
    # module's own line comes after those of everything it imports
    for line in reversed(done.stderr.splitlines()):
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) * 1e-6
    raise AssertionError(f"no -X importtime line for {module}")


def test_cli_importtime(benchmark, layers):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    samples = []
    # the rounds' wall times include interpreter start-up; keep the
    # import's own reading instead
    benchmark.pedantic(
        lambda: samples.append(importtime_s("psmaca.cli", env)),
        rounds=IMPORT_ROUNDS, iterations=1)
    assert all(sample > 0 for sample in samples)
    if benchmark.stats is None:  # timing disabled: one untimed round
        return
    q1, median, q3 = statistics.quantiles(samples, n=4)
    layers["cli import [-X importtime, cumulative]"] = {
        "median_s": median, "iqr_s": q3 - q1, "rounds": len(samples)}
