"""Genetic algorithm over MACA chromosomes.

A chromosome pairs a dependency string over n bits (classifier #1, the part
that actually classifies) with an m-bit dependency vector (classifier #2,
carried through evolution and serialization but with no assigned role).
Fitness is training-set accuracy under majority-labeled basins.  It reads
only classifier #1, so `evolve_maca` memoizes it per run: a dict from
dependency string to score means each distinct dependency string is scored
once, however often selection, elitism or a no-op mutation brings it back.
The memo changes no RNG draw, score or history.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .maca import (Bits, DependencyString, TreeConfig, bit_string, distribute,
                   dv_is_valid, label_counts, unpack)


@dataclass(frozen=True)
class Chromosome:
    classifier1: DependencyString
    classifier2: Bits

    def __post_init__(self):
        if len(self.classifier2) != self.classifier1.m:
            raise ValueError("classifier2 length must equal classifier1's m")
        if not dv_is_valid(self.classifier2):
            raise ValueError("classifier2 must be a valid dependency vector")

    def serialize(self) -> str:
        return json.dumps(
            {
                "classifier1": self.classifier1.bit_strings(),
                "classifier2": bit_string(self.classifier2),
            },
            sort_keys=True,
            separators=(",", ":"),
        )


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


def _random_dv(length: int, rng: random.Random) -> Bits:
    # uniform over the 2^length - 1 nonzero vectors
    return unpack(rng.randrange(1, 1 << length), length)


def random_chromosome(n: int, m: int, rng: random.Random) -> Chromosome:
    parts = random_partition(n, m, rng)
    segments = tuple(_random_dv(p, rng) for p in parts)
    return Chromosome(DependencyString(segments), _random_dv(m, rng))


def fitness(ch: Chromosome, training) -> float:
    """Training accuracy when each basin predicts its majority class."""
    training = list(training)
    if not training:
        raise ValueError("training set must be non-empty")
    buckets = distribute(ch.classifier1, training)
    correct = 0
    for bucket in buckets.values():
        correct += max(label_counts(bucket).values())
    return correct / len(training)


def crossover(a: Chromosome, b: Chromosome, rng: random.Random) -> Chromosome:
    """Recombine at segment boundaries: a prefix of a's segments plus a
    suffix of b's, with the straddling gap re-randomized to a fresh DV."""
    n = a.classifier1.n
    if b.classifier1.n != n:
        raise ValueError("parents must cover the same pattern length")
    prefix = list(a.classifier1.segments[:rng.randrange(a.classifier1.m + 1)])
    remaining = n - sum(len(s) for s in prefix)

    suffix: list[Bits] = []
    used = 0
    for seg in reversed(b.classifier1.segments):
        if used + len(seg) > remaining:
            break
        suffix.insert(0, seg)
        used += len(seg)
    gap = remaining - used
    middle = [_random_dv(gap, rng)] if gap > 0 else []

    segments = tuple(prefix + middle + suffix)  # covers n >= 1 bits
    return Chromosome(DependencyString(segments), _random_dv(len(segments), rng))


def _flip_bits(bits: Bits, rate: float, rng: random.Random) -> list[int]:
    return [b ^ 1 if rng.random() < rate else b for b in bits]


def _repair(bits: list[int], rng: random.Random) -> Bits:
    if not any(bits):
        bits[rng.randrange(len(bits))] = 1
    return tuple(bits)


def mutate(ch: Chromosome, rate: float, rng: random.Random) -> Chromosome:
    """Independent bit flips at `rate`, zero-DV repair, and (with
    probability `rate`) a +-1 shift of one segment boundary."""
    if not 0 <= rate <= 1:
        raise ValueError("mutation rate must lie in [0, 1]")
    segments = [_repair(_flip_bits(seg, rate, rng), rng)
                for seg in ch.classifier1.segments]

    if len(segments) >= 2 and rng.random() < rate:
        i = rng.randrange(len(segments) - 1)  # boundary between i and i+1
        left, right = list(segments[i]), list(segments[i + 1])
        if rng.random() < 0.5:
            if len(left) >= 2:  # move the boundary left
                right.insert(0, left.pop())
        else:
            if len(right) >= 2:  # move the boundary right
                left.append(right.pop(0))
        segments[i] = _repair(left, rng)
        segments[i + 1] = _repair(right, rng)

    classifier2 = _repair(_flip_bits(ch.classifier2, rate, rng), rng)
    return Chromosome(DependencyString(tuple(segments)), classifier2)


def evolve_maca(training, n: int, m: int, config: TreeConfig,
                rng_seed: int) -> tuple[Chromosome, FitnessHistory]:
    """Tournament(2) selection with elitism under `config`'s GA settings;
    returns the best individual ever seen plus the per-generation history."""
    training = list(training)
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

    for _ in range(config.generations):
        order = sorted(range(len(population)), key=lambda i: -scores[i])
        if scores[order[0]] > best_fit:
            best_fit = scores[order[0]]
            best_ch = population[order[0]]
        history.best.append(best_fit)
        history.mean.append(sum(scores) / len(scores))
        if best_fit >= 1.0:  # nothing left to optimize
            return best_ch, history

        next_pop = [population[i] for i in order[:config.elitism_count]]
        while len(next_pop) < config.population_size:
            p1, p2 = tournament(), tournament()
            child = (crossover(p1, p2, rng)
                     if rng.random() < config.crossover_rate else p1)
            next_pop.append(mutate(child, config.mutation_rate, rng))
        population = next_pop
        scores = [score(ch) for ch in population]

    # final generation's population still counts toward best-ever
    top = max(range(len(population)), key=lambda i: scores[i])
    if scores[top] > best_fit:
        best_fit = scores[top]
        best_ch = population[top]
    return best_ch, history
