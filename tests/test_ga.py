import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmaca import dataio, ga, maca
from psmaca.codec import window_patterns
from psmaca.maca import DependencyString, TreeConfig

from tuple_bits import pack


def check_invariants(ch, n):
    assert ch.classifier1.n == n
    assert all("1" in seg for seg in ch.classifier1.bit_strings())
    assert 0 < ch.classifier2 < 1 << ch.classifier1.m


def pinned_json(ch):
    """The text the pinned runs below were recorded in."""
    return json.dumps({"classifier1": ch.classifier1.bit_strings(),
                       "classifier2": f"{ch.classifier2:0{ch.classifier1.m}b}"},
                      sort_keys=True, separators=(",", ":"))


def parity_patterns(n, mask, count, seed):
    rng = random.Random(seed)
    pats = []
    for _ in range(count):
        p = tuple(rng.randint(0, 1) for _ in range(n))
        pats.append((pack(p), str(sum(a & b for a, b in zip(p, mask)) & 1)))
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
        assert ch.classifier1 == DependencyString(1, (1,))
        assert ch.classifier2 == 1

    def test_invariants_over_many_draws(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(1, n)
            check_invariants(ga.random_chromosome(n, m, rng), n)

    def test_seed_determinism(self):
        a = ga.random_chromosome(10, 3, random.Random(42))
        b = ga.random_chromosome(10, 3, random.Random(42))
        assert a == b


class TestChromosome:
    def test_is_a_pair(self):
        ds = DependencyString(0b1011, (2, 2))
        ch = ga.Chromosome(ds, 1)
        assert ch == (ds, 1)
        assert hash(ch) == hash((ds, 1))
        classifier1, classifier2 = ch
        assert (classifier1, classifier2) == (ch.classifier1, ch.classifier2)
        # the form the tracer and the logs show
        assert repr(ch) == ("Chromosome(classifier1=DependencyString("
                            "bits=11, widths=(2, 2)), classifier2=1)")


class TestFitness:
    def test_single_class_always_perfect(self):
        training = maca.pattern_set([(code, "A") for code in range(1 << 2)], 2)
        for seed in range(5):
            ch = ga.random_chromosome(2, 1, random.Random(seed))
            assert ga.fitness(ch, training) == 1.0

    def test_matching_dv_is_perfect(self):
        mask = (1, 0, 1, 0)
        training = maca.pattern_set(parity_patterns(4, mask, 40, seed=1), 4)
        ch = ga.Chromosome(DependencyString(pack(mask), (4,)), 1)
        assert ga.fitness(ch, training) == 1.0

    def test_conflicting_duplicates(self):
        training = maca.pattern_set([(0b10, "A"), (0b10, "B")], 2)
        ch = ga.Chromosome(DependencyString(0b11, (2,)), 1)
        assert ga.fitness(ch, training) == 0.5

    def test_permutation_invariance(self):
        pats = parity_patterns(5, (0, 1, 1, 0, 0), 30, seed=2)
        ch = ga.random_chromosome(5, 2, random.Random(5))
        shuffled = list(pats)
        random.Random(9).shuffle(shuffled)
        assert ga.fitness(ch, maca.pattern_set(pats, 5)) == \
            ga.fitness(ch, maca.pattern_set(shuffled, 5))

    def test_empty_rejected(self):
        ch = ga.random_chromosome(2, 1, random.Random(0))
        with pytest.raises(ValueError):
            ga.fitness(ch, maca.pattern_set([], 2))


class TestCrossover:
    def test_self_cross_preserves_ds(self):
        rng = random.Random(7)
        a = ga.random_chromosome(10, 3, rng)
        child = ga.crossover(a, a, rng)
        assert child.classifier1 is a.classifier1

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
        assert c1 == c2


class TestMutate:
    def test_rate_zero_is_identity(self):
        ch = ga.random_chromosome(9, 3, random.Random(1))
        assert ga.mutate(ch, 0.0, random.Random(2)) is ch

    def test_invariants_at_high_rate(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 10)
            ch = ga.random_chromosome(n, rng.randint(1, n), rng)
            check_invariants(ga.mutate(ch, 0.8, rng), n)

    def test_single_bit_segment_repairs_to_one(self):
        ch = ga.Chromosome(DependencyString(1, (1,)), 1)
        out = ga.mutate(ch, 1.0, random.Random(5))
        assert out.classifier1 == DependencyString(1, (1,))
        assert out.classifier2 == 1

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_outside_unit_interval_rejected(self, rate):
        ch = ga.random_chromosome(4, 2, random.Random(0))
        with pytest.raises(ValueError, match=r"rate must lie in \[0, 1\]"):
            ga.mutate(ch, rate, random.Random(1))


# The operators as they ran when every call built a new chromosome, kept as
# the oracle for their RNG draws: the ga versions must return an equal
# chromosome and leave the generator in the same state.

def oracle_random_chromosome(n, m, rng):
    cuts = sorted(rng.sample(range(1, n), m - 1))
    edges = [0] + cuts + [n]
    widths = tuple(b - a for a, b in zip(edges, edges[1:]))
    bits = 0
    for width in widths:
        bits = bits << width | rng.randrange(1, 1 << width)
    return ga.Chromosome(DependencyString(bits, widths),
                         rng.randrange(1, 1 << m))


def oracle_crossover(a, b, rng):
    ds_a, ds_b = a.classifier1, b.classifier1
    k = rng.randrange(ds_a.m + 1)
    low = ds_a.n - sum(ds_a.widths[:k])
    j, tail = ds_b.m, 0
    while j and tail + ds_b.widths[j - 1] <= low:
        j -= 1
        tail += ds_b.widths[j]
    bits = ds_a.bits >> low << low | ds_b.bits & ((1 << tail) - 1)
    widths = ds_a.widths[:k] + ds_b.widths[j:]
    gap = low - tail
    if gap:
        bits |= rng.randrange(1, 1 << gap) << tail
        widths = ds_a.widths[:k] + (gap,) + ds_b.widths[j:]
    return ga.Chromosome(DependencyString(bits, widths),
                         rng.randrange(1, 1 << len(widths)))


def oracle_repair(bits, low, width, rng):
    if bits >> low & ((1 << width) - 1):
        return bits
    return bits | 1 << (low + width - 1 - rng.randrange(width))


def oracle_mutate_segment(bits, low, width, rate, rng):
    for i in reversed(range(low, low + width)):
        if rng.random() < rate:
            bits ^= 1 << i
    return oracle_repair(bits, low, width, rng)


def oracle_mutate(ch, rate, rng):
    ds = ch.classifier1
    bits, widths, low = ds.bits, list(ds.widths), ds.n
    for width in widths:
        low -= width
        bits = oracle_mutate_segment(bits, low, width, rate, rng)
    if len(widths) >= 2 and rng.random() < rate:
        i = rng.randrange(len(widths) - 1)
        giver = i if rng.random() < 0.5 else i + 1
        if widths[giver] >= 2:
            widths[giver] -= 1
            widths[2 * i + 1 - giver] += 1
        low = ds.n - sum(widths[:i + 2])
        bits = oracle_repair(bits, low + widths[i + 1], widths[i], rng)
        bits = oracle_repair(bits, low, widths[i + 1], rng)
    classifier2 = oracle_mutate_segment(ch.classifier2, 0, ds.m, rate, rng)
    return ga.Chromosome(DependencyString(bits, tuple(widths)), classifier2)


def oracle_evolve_maca(training, m, config, rng_seed):
    # unmemoized, with tournaments drawn by randrange
    rng = random.Random(rng_seed)
    population = [oracle_random_chromosome(training.n, m, rng)
                  for _ in range(config.population_size)]
    scores = [ga.fitness(ch, training) for ch in population]
    history = ga.FitnessHistory(best=[], mean=[])
    best_ch, best_fit = None, -1.0

    def tournament():
        i, j = rng.randrange(len(population)), rng.randrange(len(population))
        return population[i] if scores[i] >= scores[j] else population[j]

    for generation in range(config.generations + 1):
        order = sorted(range(len(population)), key=scores.__getitem__,
                       reverse=True)
        if scores[order[0]] > best_fit:
            best_fit, best_ch = scores[order[0]], population[order[0]]
        if generation == config.generations:
            break
        history.best.append(best_fit)
        history.mean.append(sum(scores) / len(scores))
        if best_fit >= 1.0:
            break
        next_pop = [population[i] for i in order[:config.elitism_count]]
        while len(next_pop) < config.population_size:
            p1, p2 = tournament(), tournament()
            child = (oracle_crossover(p1, p2, rng)
                     if rng.random() < config.crossover_rate else p1)
            next_pop.append(oracle_mutate(child, config.mutation_rate, rng))
        population = next_pop
        scores = [ga.fitness(ch, training) for ch in population]
    return best_ch, history


RATES = (0.0, 0.02, 0.5, 1.0)


@st.composite
def chromosomes(draw, n):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return oracle_random_chromosome(n, draw(st.integers(1, n)), rng)


@st.composite
def parent_pairs(draw):
    """Two chromosomes over the same n; the second is the first itself, an
    equal copy of it, or one drawn on its own, with its own m."""
    n = draw(st.integers(1, 40))
    a = draw(chromosomes(n))
    kind = draw(st.sampled_from(("same", "equal", "other")))
    if kind == "same":
        return a, a
    if kind == "equal":
        return a, ga.Chromosome(DependencyString(a.classifier1.bits,
                                                 a.classifier1.widths),
                                a.classifier2)
    return a, draw(chromosomes(n))


def same_draws(seed, operator, oracle, *args):
    """Run both on generators seeded alike; return the operator's result
    after checking it and the generator's state against the oracle's."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    out = operator(*args, rng)
    assert out == oracle(*args, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()
    return out


seeds = st.integers(0, 2**32 - 1)


class TestSameDraws:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), data=st.data(), seed=seeds)
    def test_random_chromosome(self, n, data, seed):
        m = data.draw(st.integers(1, n))
        same_draws(seed, ga.random_chromosome, oracle_random_chromosome, n, m)

    @settings(max_examples=400, deadline=None)
    @given(ch=st.integers(1, 40).flatmap(chromosomes),
           rate=st.sampled_from(RATES), seed=seeds)
    def test_mutate(self, ch, rate, seed):
        out = same_draws(seed, ga.mutate, oracle_mutate, ch, rate)
        # what did not change is the input's own object
        if out.classifier1 == ch.classifier1:
            assert out.classifier1 is ch.classifier1
            assert out is ch or out.classifier2 != ch.classifier2

    @settings(max_examples=400, deadline=None)
    @given(parents=parent_pairs(), seed=seeds)
    def test_crossover(self, parents, seed):
        a, b = parents
        out = same_draws(seed, ga.crossover, oracle_crossover, a, b)
        # a child equal to a parent holds that parent's dependency string
        if out.classifier1 == a.classifier1:
            assert out.classifier1 is a.classifier1
        elif out.classifier1 == b.classifier1:
            assert out.classifier1 is b.classifier1

    @pytest.mark.parametrize("rate", RATES)
    def test_seeded_breeding_chain(self, rate):
        # children bred from children, as evolve_maca breeds them
        rng = random.Random(11)
        pop = [oracle_random_chromosome(25, 2, rng) for _ in range(10)]
        for _ in range(300):
            a, b = rng.choice(pop), rng.choice(pop)
            child = same_draws(rng.getrandbits(32), ga.crossover,
                               oracle_crossover, a, b)
            pop[rng.randrange(len(pop))] = same_draws(
                rng.getrandbits(32), ga.mutate, oracle_mutate, child, rate)

    # at a power-of-two size a tournament pick rejects about half its
    # draws, so a pick that draws one bit too many or too few shows at once
    @pytest.mark.parametrize("size", (2, 3, 8, 10, 16))
    def test_evolve_maca(self, size):
        training = maca.pattern_set(toy_windows(), 15)
        config = TreeConfig(population_size=size, generations=8,
                            mutation_rate=0.1, elitism_count=1)
        for seed in range(3):
            for m in (1, 2, 4):
                best, history = ga.evolve_maca(training, m, config, seed)
                want, want_history = oracle_evolve_maca(training, m, config,
                                                        seed)
                assert (best, history.best, history.mean) == \
                    (want, want_history.best, want_history.mean)


def toy_windows():
    """120 three-class windows of width 3 (15-bit patterns)."""
    return [(code, label)
            for r in dataio.make_toy_dataset(6, 20, seed=7).records
            for code, label in zip(window_patterns(r.sequence, 3), r.structure)]


# evolve_maca(toy_windows(), 15, 2, MEMO_GA, seed) before fitness was
# memoized: best (as pinned_json text), history.best, history.mean
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


# evolve_maca(toy_windows(), 15, 4, HIGH_MUTATION_GA, seed) before the
# operators worked on ints: best (as pinned_json text), history.best,
# history.mean.
# At these rates boundary shifts, zero-segment repairs and crossover gaps
# run often.
HIGH_MUTATION_GA = TreeConfig(population_size=20, generations=30,
                              mutation_rate=0.5, crossover_rate=0.7)
HIGH_MUTATION_RUNS = {
    0: ('{"classifier1":["1","1","1","10","01","1","01","11","1","1","1"],'
        '"classifier2":"01110100000"}',
        [0.5916666666666667, 0.6333333333333333, 0.7083333333333334,
         0.8416666666666667, 0.8666666666666667, 0.9333333333333333,
         0.9333333333333333, 0.9333333333333333, 0.9416666666666667,
         0.9416666666666667, 0.9416666666666667, 0.9416666666666667, 0.95,
         0.9833333333333333, 0.9833333333333333, 0.9833333333333333,
         0.9833333333333333, 0.9833333333333333, 0.9916666666666667,
         0.9916666666666667, 0.9916666666666667, 0.9916666666666667,
         0.9916666666666667, 1.0],
        [0.5141666666666668, 0.5279166666666667, 0.5908333333333333,
         0.6766666666666666, 0.7391666666666665, 0.8008333333333333,
         0.8400000000000001, 0.8666666666666666, 0.8916666666666668,
         0.8891666666666665, 0.901666666666667, 0.9183333333333332,
         0.9058333333333332, 0.9183333333333333, 0.91375, 0.9433333333333334,
         0.945, 0.9487499999999999, 0.9520833333333334, 0.9574999999999998,
         0.9549999999999998, 0.9566666666666667, 0.9591666666666665,
         0.9591666666666667]),
    1: ('{"classifier1":["101","1","1","10","1","1","01","1","1","1","1"],'
        '"classifier2":"10110111010"}',
        [0.575, 0.6083333333333333, 0.6166666666666667, 0.7083333333333334,
         0.7166666666666667, 0.725, 0.725, 0.85, 0.8583333333333333,
         0.8583333333333333, 0.875, 0.9583333333333334, 0.9583333333333334,
         0.9666666666666667, 0.9666666666666667, 0.975, 0.9833333333333333,
         0.9833333333333333, 0.9833333333333333, 0.9833333333333333,
         0.9916666666666667, 0.9916666666666667, 0.9916666666666667,
         0.9916666666666667, 1.0],
        [0.5129166666666667, 0.5366666666666666, 0.5591666666666667, 0.595,
         0.6404166666666666, 0.6641666666666667, 0.6770833333333334,
         0.7008333333333333, 0.7295833333333331, 0.7529166666666667,
         0.7954166666666668, 0.8258333333333334, 0.8637500000000001,
         0.8916666666666664, 0.8979166666666668, 0.9208333333333334,
         0.9470833333333332, 0.95375, 0.9570833333333333, 0.9570833333333331,
         0.9595833333333331, 0.9637500000000001, 0.9695833333333332,
         0.9783333333333335, 0.9737499999999999]),
    2: ('{"classifier1":["011","1","1","1","1","1","01","1","1","1","1","1"],'
        '"classifier2":"010001100001"}',
        [0.575, 0.5916666666666667, 0.6333333333333333, 0.6833333333333333,
         0.6833333333333333, 0.7333333333333333, 0.775, 0.7833333333333333,
         0.8833333333333333, 0.8833333333333333, 0.8833333333333333,
         0.9083333333333333, 0.9166666666666666, 0.925, 0.9416666666666667,
         0.9416666666666667, 0.9666666666666667, 0.975, 0.975,
         0.9916666666666667, 0.9916666666666667, 0.9916666666666667, 1.0],
        [0.5233333333333333, 0.5362500000000001, 0.5504166666666667,
         0.5816666666666667, 0.6020833333333333, 0.635, 0.6854166666666668,
         0.6962499999999999, 0.7258333333333333, 0.7616666666666666,
         0.7791666666666666, 0.8249999999999998, 0.8354166666666668,
         0.8645833333333333, 0.8808333333333336, 0.9100000000000001,
         0.9108333333333334, 0.9245833333333335, 0.9237500000000001,
         0.9383333333333332, 0.9537500000000001, 0.9666666666666666,
         0.9695833333333335]),
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
        ga.evolve_maca(maca.pattern_set(pats, 15), 2,
                       TreeConfig(population_size=20, generations=30), 4)
        assert calls and set(calls.values()) == {1}

    @pytest.mark.parametrize("seed", sorted(UNMEMOIZED_RUNS))
    def test_same_run_as_without_the_memo(self, seed):
        best, history = ga.evolve_maca(maca.pattern_set(toy_windows(), 15),
                                       2, MEMO_GA, seed)
        assert (pinned_json(best), history.best, history.mean) == \
            UNMEMOIZED_RUNS[seed]


class TestEvolveMaca:
    def test_perfect_chromosome_reaches_one(self):
        mask = (1, 1, 0, 0)
        pats = parity_patterns(4, mask, 30, seed=3)
        cfg = TreeConfig(population_size=40, generations=10)
        best, history = ga.evolve_maca(maca.pattern_set(pats, 4), 1, cfg, 1)
        assert history.best[-1] == 1.0
        assert ga.fitness(best, maca.pattern_set(pats, 4)) == 1.0

    def test_best_fitness_non_decreasing(self):
        pats = parity_patterns(6, (0, 1, 0, 1, 0, 0), 40, seed=4)
        for seed in range(10):
            cfg = TreeConfig(population_size=12, generations=15)
            _, history = ga.evolve_maca(maca.pattern_set(pats, 6), 2, cfg,
                                        seed)
            assert all(b1 <= b2 for b1, b2 in zip(history.best, history.best[1:]))
            assert all(0.0 <= v <= 1.0 for v in history.best + history.mean)

    @pytest.mark.parametrize("seed", [-3, 2.0, True, "3"])
    def test_seed_not_a_non_negative_int_rejected(self, seed):
        # Random(-3) seeds like Random(3), and a float or str by its hash
        pats = parity_patterns(4, (1, 1, 0, 0), 8, seed=3)
        cfg = TreeConfig(population_size=4, generations=2)
        with pytest.raises(ValueError, match="seed"):
            ga.evolve_maca(maca.pattern_set(pats, 4), 1, cfg, seed)

    def test_seed_determinism(self):
        pats = parity_patterns(5, (1, 0, 0, 1, 0), 25, seed=5)
        cfg = TreeConfig(population_size=10, generations=8)
        best1, h1 = ga.evolve_maca(maca.pattern_set(pats, 5), 2, cfg, 123)
        best2, h2 = ga.evolve_maca(maca.pattern_set(pats, 5), 2, cfg, 123)
        assert best1 == best2
        assert h1.best == h2.best
        assert h1.mean == h2.mean

    @pytest.mark.parametrize("seed", sorted(HIGH_MUTATION_RUNS))
    def test_same_run_at_high_mutation(self, seed):
        best, history = ga.evolve_maca(maca.pattern_set(toy_windows(), 15), 4,
                                       HIGH_MUTATION_GA, seed)
        assert (pinned_json(best), history.best, history.mean) == \
            HIGH_MUTATION_RUNS[seed]
