import random
from collections import Counter

import pytest

from psmaca import dataio, ga
from psmaca.codec import window_patterns
from psmaca.maca import (DependencyString, LabeledPattern, TreeConfig,
                         dv_is_valid, pack)


def check_invariants(ch, n):
    assert ch.classifier1.n == n
    assert all(dv_is_valid(seg) for seg in ch.classifier1.segments)
    assert len(ch.classifier2) == ch.classifier1.m
    assert dv_is_valid(ch.classifier2)


def parity_patterns(n, mask, count, seed):
    rng = random.Random(seed)
    pats = []
    for _ in range(count):
        p = tuple(rng.randint(0, 1) for _ in range(n))
        pats.append(LabeledPattern(pack(p),
                                   str(sum(a & b for a, b in zip(p, mask)) & 1)))
    return pats


class TestRandomPartition:
    def test_forced_all_ones(self):
        assert ga.random_partition(5, 5, random.Random(0)) == [1] * 5

    def test_forced_single_part(self):
        assert ga.random_partition(8, 1, random.Random(0)) == [8]

    def test_parts_sum_and_positivity(self):
        rng = random.Random(1)
        for _ in range(100):
            parts = ga.random_partition(8, 3, rng)
            assert len(parts) == 3
            assert sum(parts) == 8
            assert all(p >= 1 for p in parts)

    def test_every_composition_reachable(self):
        rng = random.Random(2)
        seen = {tuple(ga.random_partition(4, 2, rng)) for _ in range(200)}
        assert seen == {(1, 3), (2, 2), (3, 1)}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ga.random_partition(3, 4, random.Random(0))
        with pytest.raises(ValueError):
            ga.random_partition(3, 0, random.Random(0))


class TestRandomChromosome:
    def test_minimal(self):
        ch = ga.random_chromosome(1, 1, random.Random(0))
        assert ch.classifier1.segments == ((1,),)
        assert ch.classifier2 == (1,)

    def test_invariants_over_many_draws(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(1, n)
            check_invariants(ga.random_chromosome(n, m, rng), n)

    def test_seed_determinism(self):
        a = ga.random_chromosome(10, 3, random.Random(42))
        b = ga.random_chromosome(10, 3, random.Random(42))
        assert a.serialize() == b.serialize()


class TestFitness:
    def test_single_class_always_perfect(self):
        pats = [LabeledPattern(code, "A") for code in range(1 << 2)]
        for seed in range(5):
            ch = ga.random_chromosome(2, 1, random.Random(seed))
            assert ga.fitness(ch, pats) == 1.0

    def test_matching_dv_is_perfect(self):
        mask = (1, 0, 1, 0)
        pats = parity_patterns(4, mask, 40, seed=1)
        ch = ga.Chromosome(DependencyString((mask,)), (1,))
        assert ga.fitness(ch, pats) == 1.0

    def test_conflicting_duplicates(self):
        pats = [LabeledPattern(0b10, "A"), LabeledPattern(0b10, "B")]
        ch = ga.Chromosome(DependencyString(((1, 1),)), (1,))
        assert ga.fitness(ch, pats) == 0.5

    def test_permutation_invariance(self):
        pats = parity_patterns(5, (0, 1, 1, 0, 0), 30, seed=2)
        ch = ga.random_chromosome(5, 2, random.Random(5))
        shuffled = list(pats)
        random.Random(9).shuffle(shuffled)
        assert ga.fitness(ch, pats) == ga.fitness(ch, shuffled)

    def test_empty_rejected(self):
        ch = ga.random_chromosome(2, 1, random.Random(0))
        with pytest.raises(ValueError):
            ga.fitness(ch, [])


class TestCrossover:
    def test_self_cross_preserves_ds(self):
        rng = random.Random(7)
        a = ga.random_chromosome(10, 3, rng)
        child = ga.crossover(a, a, rng)
        assert child.classifier1 == a.classifier1

    def test_child_invariants(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 12)
            a = ga.random_chromosome(n, rng.randint(1, n), rng)
            b = ga.random_chromosome(n, rng.randint(1, n), rng)
            check_invariants(ga.crossover(a, b, rng), n)

    def test_incompatible_parents(self):
        rng = random.Random(0)
        a = ga.random_chromosome(4, 2, rng)
        b = ga.random_chromosome(5, 2, rng)
        with pytest.raises(ValueError):
            ga.crossover(a, b, rng)

    def test_seed_determinism(self):
        a = ga.random_chromosome(8, 3, random.Random(1))
        b = ga.random_chromosome(8, 2, random.Random(2))
        c1 = ga.crossover(a, b, random.Random(3))
        c2 = ga.crossover(a, b, random.Random(3))
        assert c1.serialize() == c2.serialize()


class TestMutate:
    def test_rate_zero_is_identity(self):
        ch = ga.random_chromosome(9, 3, random.Random(1))
        assert ga.mutate(ch, 0.0, random.Random(2)).serialize() == ch.serialize()

    def test_invariants_at_high_rate(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 10)
            ch = ga.random_chromosome(n, rng.randint(1, n), rng)
            check_invariants(ga.mutate(ch, 0.8, rng), n)

    def test_single_bit_segment_repairs_to_one(self):
        ch = ga.Chromosome(DependencyString(((1,),)), (1,))
        out = ga.mutate(ch, 1.0, random.Random(5))
        assert out.classifier1.segments == ((1,),)
        assert out.classifier2 == (1,)


def toy_windows():
    """120 three-class windows of width 3 (15-bit patterns)."""
    return [LabeledPattern(code, label)
            for r in dataio.make_toy_dataset(6, 20, seed=7).records
            for code, label in zip(window_patterns(r.sequence, 3), r.structure)]


# evolve_maca(toy_windows(), 15, 2, MEMO_GA, seed) before fitness was
# memoized: best.serialize(), history.best, history.mean
UNMEMOIZED_RUNS = {
    0: ('{"classifier1":["1010010","11000010"],"classifier2":"10"}',
        [0.4666666666666667, 0.5, 0.5, 0.5, 0.5, 0.525],
        [0.4302083333333333, 0.44583333333333336, 0.45833333333333337,
         0.4635416666666667, 0.4625, 0.47083333333333327]),
    1: ('{"classifier1":["0011101010111","1","1"],"classifier2":"111"}',
        [0.4666666666666667, 0.4666666666666667, 0.475, 0.475,
         0.48333333333333334, 0.48333333333333334],
        [0.4239583333333333, 0.4375, 0.4427083333333333, 0.4520833333333334,
         0.46562500000000007, 0.46041666666666664]),
    2: ('{"classifier1":["10110","001","101011","1"],"classifier2":"1111"}',
        [0.45, 0.4666666666666667, 0.4666666666666667, 0.55, 0.55, 0.55],
        [0.43437500000000007, 0.446875, 0.4520833333333334,
         0.4822916666666668, 0.4864583333333333, 0.48125000000000007]),
}


MEMO_GA = TreeConfig(population_size=8, generations=6, mutation_rate=0.05)


class TestFitnessMemo:
    def test_one_fitness_call_per_distinct_dependency_string(self, monkeypatch):
        pats = toy_windows()
        calls = Counter()
        real = ga.fitness

        def counting(ch, training):
            calls[ch.classifier1] += 1
            return real(ch, training)

        monkeypatch.setattr(ga, "fitness", counting)
        ga.evolve_maca(pats, 15, 2,
                       TreeConfig(population_size=20, generations=30), 4)
        assert calls and set(calls.values()) == {1}

    @pytest.mark.parametrize("seed", sorted(UNMEMOIZED_RUNS))
    def test_same_run_as_without_the_memo(self, seed):
        best, history = ga.evolve_maca(toy_windows(), 15, 2, MEMO_GA, seed)
        assert (best.serialize(), history.best, history.mean) == \
            UNMEMOIZED_RUNS[seed]


class TestEvolveMaca:
    def test_perfect_chromosome_reaches_one(self):
        mask = (1, 1, 0, 0)
        pats = parity_patterns(4, mask, 30, seed=3)
        cfg = TreeConfig(population_size=40, generations=10)
        best, history = ga.evolve_maca(pats, 4, 1, cfg, 1)
        assert history.best[-1] == 1.0
        assert ga.fitness(best, pats) == 1.0

    def test_best_fitness_non_decreasing(self):
        pats = parity_patterns(6, (0, 1, 0, 1, 0, 0), 40, seed=4)
        for seed in range(10):
            cfg = TreeConfig(population_size=12, generations=15)
            _, history = ga.evolve_maca(pats, 6, 2, cfg, seed)
            assert all(b1 <= b2 for b1, b2 in zip(history.best, history.best[1:]))
            assert all(0.0 <= v <= 1.0 for v in history.best + history.mean)

    def test_seed_determinism(self):
        pats = parity_patterns(5, (1, 0, 0, 1, 0), 25, seed=5)
        cfg = TreeConfig(population_size=10, generations=8)
        best1, h1 = ga.evolve_maca(pats, 5, 2, cfg, 123)
        best2, h2 = ga.evolve_maca(pats, 5, 2, cfg, 123)
        assert best1.serialize() == best2.serialize()
        assert h1.best == h2.best
        assert h1.mean == h2.mean
