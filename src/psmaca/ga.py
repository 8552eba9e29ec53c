"""Genetic algorithm over MACA chromosomes.

A chromosome is a plain `NamedTuple` of ints: a dependency string over n
bits (classifier #1, the part that actually classifies) as its `bits` and
`widths`, plus an m-bit dependency vector (classifier #2, carried through
evolution but with no assigned role).  The operators compute on those ints
and keep every segment and `classifier2` nonzero and within its width;
`fitness` builds the dependency string, and so checks it where it is
scored.  No file or flag holds a chromosome.
Fitness is training-set accuracy under majority-labeled basins, on a
`maca.PatternSet`.  Nothing in psmaca builds a `maca.LabeledPattern` or
passes `fitness` a list: its branch for (code, label) pairs, like that
type, stays only for `perfbench/test_perfbench.py::TestWrappers`, which
scores a list of them, until the benchmark drops that call.  It reads
only classifier #1, so `evolve_maca` memoizes it per run: a dict from
(bits, widths) to score means each distinct dependency string is built
and scored once, however often selection, elitism or a no-op mutation
brings it back.  The memo changes no RNG draw, score or history.

Every integer draw goes through `maca._below`, which calls `getrandbits`
as `randrange` does, without its argument handling: the same draws, so
model bytes depend on `getrandbits`, `random` and `sample`, not on
`randrange`.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .maca import (DependencyString, PatternSet, TreeConfig, _below,
                   _check_seed, distribute, pattern_set)


class Chromosome(NamedTuple):
    bits: int
    widths: tuple[int, ...]
    classifier2: int


class FitnessHistory(NamedTuple):
    best: list[float]
    mean: list[float]


def random_partition(n: int, m: int, rng: random.Random) -> list[int]:
    """m positive parts summing to n; uniform over compositions."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if m == 1:  # sample(..., 0) would draw nothing
        return [n]
    cuts = sorted(rng.sample(range(1, n), m - 1))
    edges = [0] + cuts + [n]
    return [b - a for a, b in zip(edges, edges[1:])]


def random_chromosome(n: int, m: int, rng: random.Random) -> Chromosome:
    widths = tuple(random_partition(n, m, rng))
    bits = 0
    for width in widths:
        bits = bits << width | 1 + _below(rng, (1 << width) - 1)
    return Chromosome(bits, widths, 1 + _below(rng, (1 << m) - 1))


def fitness(ch: Chromosome, training) -> float:
    """Training accuracy when each basin predicts its majority class, on a
    pattern set or on (code, label) pairs, which are made a set first.
    Building the dependency string checks it: a bad one raises here."""
    ds = DependencyString(ch.bits, ch.widths)
    if not isinstance(training, PatternSet):
        training = pattern_set(training, ds.n)
    total = len(training)
    if not total:
        raise ValueError("training set must be non-empty")
    label_masks = training.labels.values()
    correct = 0
    for bucket in distribute(ds, training).values():
        # the majority class's count: the most members under one label
        correct += max(map(int.bit_count, map(bucket.members.__and__,
                                              label_masks)))
    return correct / total


def crossover(a: Chromosome, b: Chromosome, rng: random.Random) -> Chromosome:
    """Recombine at segment boundaries: a prefix of a's segments plus a
    suffix of b's, with the straddling gap re-randomized to a fresh DV, and
    a fresh `classifier2`."""
    n = sum(a.widths)
    if sum(b.widths) != n:
        raise ValueError("parents must cover the same pattern length")
    k = _below(rng, len(a.widths) + 1)
    low = n - sum(a.widths[:k])  # the bits below a's prefix
    j, tail = len(b.widths), 0  # b's segments j.. fit in the low `tail` bits
    while j and tail + b.widths[j - 1] <= low:
        j -= 1
        tail += b.widths[j]
    bits = a.bits >> low << low | b.bits & ((1 << tail) - 1)
    widths = a.widths[:k] + b.widths[j:]
    gap = low - tail
    if gap:  # a fresh DV fills the bits between prefix and suffix
        bits |= (1 + _below(rng, (1 << gap) - 1)) << tail
        widths = a.widths[:k] + (gap,) + b.widths[j:]
    return Chromosome(bits, widths, 1 + _below(rng, (1 << len(widths)) - 1))


def _repair(bits: int, low: int, width: int, rng: random.Random) -> int:
    # set one random bit (draw 0 is the top one) of an all-zero segment
    if bits >> low & ((1 << width) - 1):
        return bits
    return bits | 1 << (low + width - 1 - _below(rng, width))


def mutate(ch: Chromosome, rate: float, rng: random.Random) -> Chromosome:
    """Independent bit flips at `rate`, zero-DV repair, and (with
    probability `rate`) a +-1 shift of one segment boundary, then the same
    flips and repair on `classifier2`."""
    if not 0 <= rate <= 1:
        raise ValueError("mutation rate must lie in [0, 1]")
    random_ = rng.random
    bits, widths, classifier2 = ch
    n = low = sum(widths)
    for width in widths:
        # flip each bit of the segment at `rate`, top bit first
        top, low = low - 1, low - width
        for i in range(top, low - 1, -1):
            if random_() < rate:
                bits ^= 1 << i
        bits = _repair(bits, low, width, rng)

    m = len(widths)
    if m >= 2 and random_() < rate:
        widths = list(widths)
        i = _below(rng, m - 1)  # boundary between i and i+1
        # segment i gives its last bit (the boundary moves left), or
        # segment i+1 its first; a 1-bit segment gives none
        giver = i if random_() < 0.5 else i + 1
        if widths[giver] >= 2:
            widths[giver] -= 1
            widths[2 * i + 1 - giver] += 1
        low = n - sum(widths[:i + 2])  # the bottom of segment i+1
        bits = _repair(bits, low + widths[i + 1], widths[i], rng)
        bits = _repair(bits, low, widths[i + 1], rng)
        widths = tuple(widths)

    for i in range(m - 1, -1, -1):
        if random_() < rate:
            classifier2 ^= 1 << i
    return Chromosome(bits, widths, _repair(classifier2, 0, m, rng))


def evolve_maca(training: PatternSet, m: int, config: TreeConfig,
                rng_seed: int) -> tuple[Chromosome, FitnessHistory]:
    """Tournament(2) selection with elitism under `config`'s GA settings;
    returns the best individual ever seen plus the per-generation history."""
    rng = random.Random(_check_seed(rng_seed))
    n = training.n
    memo: dict[tuple[int, tuple[int, ...]], float] = {}

    def score(ch: Chromosome) -> float:
        key = ch.bits, ch.widths
        value = memo.get(key)
        if value is None:
            value = memo[key] = fitness(ch, training)
        return value

    population = [random_chromosome(n, m, rng)
                  for _ in range(config.population_size)]
    scores = [score(ch) for ch in population]

    history = FitnessHistory(best=[], mean=[])
    best_ch, best_fit = None, -1.0

    size = config.population_size  # every generation's population size

    def tournament() -> Chromosome:
        i, j = _below(rng, size), _below(rng, size)
        return population[i] if scores[i] >= scores[j] else population[j]

    for generation in range(config.generations + 1):
        # best first; a stable sort keeps equal scores in population order
        order = sorted(range(len(population)), key=scores.__getitem__,
                       reverse=True)
        if scores[order[0]] > best_fit:
            best_fit, best_ch = scores[order[0]], population[order[0]]
        if generation == config.generations:  # the last population only
            break  # counts toward the best ever: no history, no children
        history.best.append(best_fit)
        history.mean.append(sum(scores) / len(scores))
        if best_fit >= 1.0:  # nothing left to optimize
            break

        next_pop = [population[i] for i in order[:config.elitism_count]]
        while len(next_pop) < config.population_size:
            p1, p2 = tournament(), tournament()
            child = (crossover(p1, p2, rng)
                     if rng.random() < config.crossover_rate else p1)
            next_pop.append(mutate(child, config.mutation_rate, rng))
        population = next_pop
        scores = [score(ch) for ch in population]
    return best_ch, history
