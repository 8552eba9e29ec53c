"""Genetic algorithm over MACA chromosomes.

A chromosome pairs a dependency string over n bits (classifier #1, the part
that actually classifies) with an m-bit dependency vector (classifier #2,
carried through evolution but with no assigned role).
Fitness is training-set accuracy under majority-labeled basins.  It reads
only classifier #1, so `evolve_maca` memoizes it per run: a dict from
dependency string to score means each distinct dependency string is scored
once, however often selection, elitism or a no-op mutation brings it back.
The memo changes no RNG draw, score or history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .maca import DependencyString, TreeConfig, distribute, pattern_set


@dataclass(frozen=True)
class Chromosome:
    classifier1: DependencyString
    classifier2: int

    def __post_init__(self):
        if not 0 < self.classifier2 < 1 << self.classifier1.m:
            raise ValueError("classifier2 must be a nonzero m-bit vector")


@dataclass
class FitnessHistory:
    best: list[float]
    mean: list[float]


def random_partition(n: int, m: int, rng: random.Random) -> list[int]:
    """m positive parts summing to n; uniform over compositions."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    cuts = sorted(rng.sample(range(1, n), m - 1))
    edges = [0] + cuts + [n]
    return [b - a for a, b in zip(edges, edges[1:])]


def random_chromosome(n: int, m: int, rng: random.Random) -> Chromosome:
    widths = tuple(random_partition(n, m, rng))
    bits = 0
    for width in widths:
        bits = bits << width | rng.randrange(1, 1 << width)
    return Chromosome(DependencyString(bits, widths), rng.randrange(1, 1 << m))


def fitness(ch: Chromosome, training) -> float:
    """Training accuracy when each basin predicts its majority class."""
    training = pattern_set(training, ch.classifier1.n)
    total = len(training)
    if not total:
        raise ValueError("training set must be non-empty")
    label_masks = training.slices.labels.values()
    correct = 0
    for bucket in distribute(ch.classifier1, training).values():
        # the majority class's count: the most members under one label
        correct += max(map(int.bit_count, map(bucket.members.__and__,
                                              label_masks)))
    return correct / total


def crossover(a: Chromosome, b: Chromosome, rng: random.Random) -> Chromosome:
    """Recombine at segment boundaries: a prefix of a's segments plus a
    suffix of b's, with the straddling gap re-randomized to a fresh DV."""
    ds_a, ds_b = a.classifier1, b.classifier1
    if ds_b.n != ds_a.n:
        raise ValueError("parents must cover the same pattern length")
    k = rng.randrange(ds_a.m + 1)
    low = ds_a.n - sum(ds_a.widths[:k])  # the bits below a's prefix
    j, tail = ds_b.m, 0  # b's segments j.. fit in the low `tail` bits
    while j and tail + ds_b.widths[j - 1] <= low:
        j -= 1
        tail += ds_b.widths[j]
    bits = ds_a.bits >> low << low | ds_b.bits & ((1 << tail) - 1)
    widths = ds_a.widths[:k] + ds_b.widths[j:]
    gap = low - tail
    if gap:  # a fresh DV fills the bits between prefix and suffix
        bits |= rng.randrange(1, 1 << gap) << tail
        widths = ds_a.widths[:k] + (gap,) + ds_b.widths[j:]
    return Chromosome(DependencyString(bits, widths),
                      rng.randrange(1, 1 << len(widths)))


def _repair(bits: int, low: int, width: int, rng: random.Random) -> int:
    # set one random bit (draw 0 is the top one) of an all-zero segment
    if bits >> low & ((1 << width) - 1):
        return bits
    return bits | 1 << (low + width - 1 - rng.randrange(width))


def _mutate_segment(bits: int, low: int, width: int, rate: float,
                    rng: random.Random) -> int:
    # flip each bit of bits[low:low + width] at `rate`, top bit first
    for i in reversed(range(low, low + width)):
        if rng.random() < rate:
            bits ^= 1 << i
    return _repair(bits, low, width, rng)


def mutate(ch: Chromosome, rate: float, rng: random.Random) -> Chromosome:
    """Independent bit flips at `rate`, zero-DV repair, and (with
    probability `rate`) a +-1 shift of one segment boundary."""
    if not 0 <= rate <= 1:
        raise ValueError("mutation rate must lie in [0, 1]")
    ds = ch.classifier1
    bits, widths, low = ds.bits, list(ds.widths), ds.n
    for width in widths:
        low -= width
        bits = _mutate_segment(bits, low, width, rate, rng)

    if len(widths) >= 2 and rng.random() < rate:
        i = rng.randrange(len(widths) - 1)  # boundary between i and i+1
        # segment i gives its last bit (the boundary moves left), or
        # segment i+1 its first; a 1-bit segment gives none
        giver = i if rng.random() < 0.5 else i + 1
        if widths[giver] >= 2:
            widths[giver] -= 1
            widths[2 * i + 1 - giver] += 1
        low = ds.n - sum(widths[:i + 2])  # the bottom of segment i+1
        bits = _repair(bits, low + widths[i + 1], widths[i], rng)
        bits = _repair(bits, low, widths[i + 1], rng)

    classifier2 = _mutate_segment(ch.classifier2, 0, ds.m, rate, rng)
    return Chromosome(DependencyString(bits, tuple(widths)), classifier2)


def evolve_maca(training, n: int, m: int, config: TreeConfig,
                rng_seed: int) -> tuple[Chromosome, FitnessHistory]:
    """Tournament(2) selection with elitism under `config`'s GA settings;
    returns the best individual ever seen plus the per-generation history."""
    training = pattern_set(training, n)
    rng = random.Random(rng_seed)
    memo: dict[DependencyString, float] = {}

    def score(ch: Chromosome) -> float:
        value = memo.get(ch.classifier1)
        if value is None:
            value = memo[ch.classifier1] = fitness(ch, training)
        return value

    population = [random_chromosome(n, m, rng)
                  for _ in range(config.population_size)]
    scores = [score(ch) for ch in population]

    history = FitnessHistory(best=[], mean=[])
    best_ch, best_fit = None, -1.0

    def tournament() -> Chromosome:
        i, j = rng.randrange(len(population)), rng.randrange(len(population))
        return population[i] if scores[i] >= scores[j] else population[j]

    for generation in range(config.generations + 1):
        order = sorted(range(len(population)), key=lambda i: -scores[i])
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
