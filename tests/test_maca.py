import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psmaca import ca, ga, maca
from psmaca.maca import DependencyString, TreeConfig

from tuple_bits import pack, unpack


def all_patterns(n):
    return range(1 << n)


def indices(members):
    """The set bits of a member mask: the training indices of its patterns."""
    return [i for i in range(members.bit_length()) if members >> i & 1]


class TestBitLayout:
    def test_most_significant_bit_first(self):
        ds = DependencyString.from_bit_strings(["001", "011"])
        assert ds.bits == 0b001_011
        assert ds.masks == (0b001_000, 0b000_011)
        assert ds.bit_strings() == ["001", "011"]

    @pytest.mark.parametrize("value, n", [(4, 2), (-1, 3)])
    def test_unpack_rejects_values_outside_n_bits(self, value, n):
        # the range check unpack ran now guards every pattern code taken in
        ds = DependencyString((1 << n) - 1, (n,))
        with pytest.raises(ValueError, match="2-bit|3-bit"):
            maca.basin_signature(ds, value)

    @pytest.mark.parametrize("text", ["12", "1 0", "\u0661\u0660", "0\uff11",
                                      "0b1", None, b"01"])
    def test_parse_accepts_only_ascii_0_and_1(self, text):
        # "\u0661" is ARABIC-INDIC DIGIT ONE, which int() reads as 1
        with pytest.raises(ValueError, match="0 or 1"):
            DependencyString.from_bit_strings(["1", text])


class TestDvValidity:
    def test_zero_vector_invalid(self):
        with pytest.raises(ValueError):
            DependencyString(0b0000, (4,))

    def test_single_one_valid(self):
        assert DependencyString(0b1000, (4,)).bit_strings() == ["1000"]
        assert DependencyString(0b1011, (4,)).bit_strings() == ["1011"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DependencyString(0, (0,))
        with pytest.raises(ValueError):
            DependencyString(0, ())

    def test_zero_segment_rejected_in_ds(self):
        with pytest.raises(ValueError):
            DependencyString(0b1000, (2, 2))

    @pytest.mark.parametrize("bits, widths, message", [
        (3.0, (2,), "bits must be an int"),
        (True, (1,), "bits must be an int"),
        (0b11, [1, 1], "widths must be a tuple"),
        (0b11, (1.0, 1), "widths must be ints"),
        (3, (True, True), "widths must be ints"),
        (5, (5, -2), "widths must be ints"),
        (6, (-1, 4), "widths must be ints"),
    ])
    def test_exact_types(self, bits, widths, message):
        # a list of widths would be accepted and then crash the fitness
        # memo, which hashes the widths; a bool or negative width would
        # give a wrong mask or a bare "negative shift count"
        with pytest.raises(ValueError, match=message):
            DependencyString(bits, widths)


class TestMasksField:
    def test_identity_is_bits_and_widths(self):
        a, b = DependencyString(0b10_11, (2, 2)), DependencyString(0b10_11, (2, 2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "memo"}[b] == "memo"
        assert a != DependencyString(0b10_11, (4,))
        # another type is never equal, not even one that equals `bits`
        assert (DependencyString(1, (1,)) == 1) is False
        assert repr(a) == "DependencyString(bits=11, widths=(2, 2))"

    def test_masks_are_read_only(self):
        ds = DependencyString(0b10_11, (2, 2))
        with pytest.raises(AttributeError):
            ds.masks = (0, 0)
        with pytest.raises(AttributeError):
            del ds.masks
        with pytest.raises(TypeError, match="masks"):
            DependencyString(0b10_11, (2, 2), masks=(0b10_00, 0b00_11))

    def test_replace_recomputes_masks(self):
        ds = DependencyString(0b10_11, (2, 2))
        assert ds.masks == (0b10_00, 0b00_11)
        assert DependencyString(0b01_10, ds.widths).masks == (0b01_00, 0b00_10)
        assert DependencyString(ds.bits, (1, 3)).masks == (0b1_000, 0b0_011)

    def test_replace_rejects_an_all_zero_segment(self):
        ds = DependencyString(0b10_11, (2, 2))
        with pytest.raises(ValueError, match="all-zero segment"):
            DependencyString(0b10_00, ds.widths)


class TestBasinSignature:
    def test_single_bit(self):
        ds = DependencyString(1, (1,))
        assert maca.basin_signature(ds, 0) == 0
        assert maca.basin_signature(ds, 1) == 1

    def test_hand_computed(self):
        ds = DependencyString(0b11_10, (2, 2))
        assert maca.basin_signature(ds, pack((1, 1, 0, 1))) == 0b00

    def test_zero_pattern_gives_zero_signature(self):
        ds = DependencyString(0b101_11, (3, 2))
        assert maca.basin_signature(ds, 0) == 0b00

    def test_length_mismatch(self):
        ds = DependencyString(0b11, (2,))
        with pytest.raises(ValueError):
            maca.basin_signature(ds, 0b101)

    @given(st.integers(2, 12), st.integers(min_value=1))
    @settings(max_examples=30, deadline=None)
    def test_equal_split_single_dv(self, length, value):
        """Any single nonzero DV splits {0,1}^L exactly in half."""
        value = 1 + value % ((1 << length) - 1)
        dv = tuple((value >> i) & 1 for i in range(length))
        ds = DependencyString(pack(dv), (length,))
        ones = sum(maca.basin_signature(ds, p) == 1
                   for p in all_patterns(length))
        assert ones == 1 << (length - 1)

    def test_signature_locality(self):
        # flipping a bit not covered by the DV never changes the signature
        ds = DependencyString(0b101_01, (3, 2))
        rng = random.Random(4)
        for _ in range(50):
            p = [rng.randint(0, 1) for _ in range(5)]
            base = maca.basin_signature(ds, pack(p))
            for pos in (1, 3):  # DV bit is 0 at these positions
                q = list(p)
                q[pos] ^= 1
                assert maca.basin_signature(ds, pack(q)) == base


def tridiagonal_maps(n):
    """Every tridiagonal 0/1 matrix T over GF(2) with a null boundary (cell
    i reads cells i-1, i and i+1 only), as the list of T·s over every
    n-cell state s, cell 0 most significant."""
    entries = [(i, j) for i in range(n)
               for j in range(max(0, i - 1), min(n, i + 2))]
    for pick in range(1 << len(entries)):
        # column j of T: the cells that cell j feeds
        columns = [0] * n
        for k, (i, j) in enumerate(entries):
            if pick >> k & 1:
                columns[j] |= 1 << (n - 1 - i)
        # T is linear: T·s is the XOR of the columns of s's set cells
        images = [0]
        for j in reversed(range(n)):
            images += [x ^ columns[j] for x in images]
        yield images


def power_rows(images, n):
    """The rows of Tⁿ, each an n-bit int, cell 0 most significant."""
    columns = []
    for j in range(n):
        state = 1 << (n - 1 - j)
        for _ in range(n):
            state = images[state]
        columns.append(unpack(state, n))
    return [pack(column[i] for column in columns) for i in range(n)]


class TestNodeIsAMaca:
    """A one-segment node is a two-attractor additive CA (ROADMAP item 21,
    step 1): exhaustive over n <= 5 cells, one segment only."""

    def test_two_attractor_cas_are_one_segment_nodes(self):
        counts = []
        for n in range(1, 6):
            found = set()
            for images in tridiagonal_maps(n):
                basins = ca.attractor_basins(
                    ca.StateTransitionGraph(n, tuple(images)))
                if [len(b.attractor_cycle) for b in basins] != [1, 1]:
                    continue
                # rank(Tⁿ) = 1: its nonzero rows are one vector d
                (d,) = {row for row in power_rows(images, n) if row}
                ds = DependencyString(d, (n,))
                # the basin of attractor 0 first: signature 0, then 1
                assert [b.members for b in basins] == [
                    frozenset(s for s in all_patterns(n)
                              if maca.basin_signature(ds, s) == sig)
                    for sig in (0, 1)]
                found.add(d)
            # no two adjacent zeros between the first and the last one
            assert found == {d for d in range(1, 1 << n)
                             if "00" not in format(d, "b").rstrip("0")}
            counts.append(len(found))
        assert counts == [1, 3, 7, 14, 26]


def oracle_signature(segments, pattern):
    """Signature from tuple slices: bit j is the parity of segment j AND
    the pattern bits it covers."""
    sig, pos = [], 0
    for seg in segments:
        sig.append(sum(d & p for d, p in zip(seg, pattern[pos:pos + len(seg)])) & 1)
        pos += len(seg)
    return tuple(sig)


@st.composite
def dependency_strings(draw, max_n=70, min_n=1):
    """A dependency string and its segments as 0/1 tuples, the oracle's
    form."""
    n = draw(st.integers(min_n, max_n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    edges = [0, *sorted(cuts), n]
    segments = []
    for a, b in zip(edges, edges[1:]):
        seg = draw(st.lists(st.integers(0, 1), min_size=b - a, max_size=b - a))
        seg[draw(st.integers(0, b - a - 1))] = 1  # keep the DV nonzero
        segments.append(tuple(seg))
    return (DependencyString(pack(sum(segments, ())),
                             tuple(map(len, segments))), segments)


class TestPackedKernel:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_signature_matches_tuple_oracle(self, data):
        # n runs past 64, so the packed kernel has no 64-bit ceiling
        ds, segments = data.draw(dependency_strings())
        patterns = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=ds.n, max_size=ds.n)
            .map(tuple), min_size=1, max_size=8))
        for p in patterns:
            assert maca.basin_signature(ds, pack(p)) == \
                pack(oracle_signature(segments, p))
        labeled = [(pack(p), str(i)) for i, p in enumerate(patterns)]
        buckets = maca.distribute(ds, maca.pattern_set(labeled, ds.n))
        # a partition: every pattern once, in the bucket of its signature
        assert sorted(i for b in buckets.values()
                      for i in indices(b.members)) == list(range(len(labeled)))
        for sig, bucket in buckets.items():
            assert all(oracle_signature(segments,
                                        unpack(labeled[i][0], ds.n))
                       == unpack(sig, ds.m) for i in indices(bucket.members))

    @given(dependency_strings())
    @settings(max_examples=200, deadline=None)
    def test_bit_strings_round_trip(self, case):
        # n runs past 63, where the digits no longer fit one machine word
        ds, segments = case
        assert ds.bit_strings() == ["".join(map(str, s)) for s in segments]
        assert DependencyString.from_bit_strings(ds.bit_strings()) == ds

    def test_leading_zero_segments_round_trip(self):
        ds = DependencyString(0b001_01_0001, (3, 2, 4))
        assert ds.bit_strings() == ["001", "01", "0001"]
        assert DependencyString.from_bit_strings(["001", "01", "0001"]) == ds

    def test_tuple_bit_zero_is_most_significant(self):
        # the tuple oracles' convention is the package's: bit 0 on top
        assert pack((1, 0, 1, 1)) == 0b1011
        assert unpack(1, 3) == (0, 0, 1)
        assert DependencyString(pack((1, 0, 0, 1, 1)), (2, 3)).masks == \
            (pack((1, 0, 0, 0, 0)), pack((0, 0, 0, 1, 1)))

    def test_wide_pattern(self):
        # only the bit above 64 is set, so a 64-bit kernel would read 0
        ds = DependencyString((1 << 70) - 1, (70,))
        assert maca.basin_signature(ds, 1 << 69) == 1
        assert maca.basin_signature(ds, (1 << 70) - 1) == 0

    @pytest.mark.parametrize("segments", [(0b111, (2,)), (0b100, (1, 1)),
                                          (-1, (2,))])
    def test_only_binary_segments(self, segments):
        # bits past the segments' n would spill into no segment at all
        with pytest.raises(ValueError, match="unsigned 2-bit"):
            DependencyString(*segments)

    def test_non_binary_ds_string_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            DependencyString.from_bit_strings(["12", "1"])


class TestDistribute:
    def test_empty(self):
        ds = DependencyString(1, (1,))
        assert maca.distribute(ds, maca.pattern_set([], ds.n)) == {}

    @pytest.mark.parametrize("segments", [
        (0b10_011, (2, 3)),
        (0b1_11_101, (1, 2, 3)),
        (0b1111, (4,)),
    ])
    def test_full_space_bucket_sizes(self, segments):
        ds = DependencyString(*segments)
        pats = [(p, "x") for p in all_patterns(ds.n)]
        buckets = maca.distribute(ds, maca.pattern_set(pats, ds.n))
        assert len(buckets) == 1 << ds.m
        assert all(len(b) == 1 << (ds.n - ds.m) for b in buckets.values())

    def test_partition_no_loss(self):
        rng = random.Random(0)
        ds = DependencyString(0b101_11, (3, 2))
        pats = [(rng.randrange(1 << 5), "x") for _ in range(100)]
        buckets = maca.distribute(ds, maca.pattern_set(pats, ds.n))
        assert sum(len(b) for b in buckets.values()) == 100

    def test_identical_patterns_share_bucket(self):
        ds = DependencyString(0b11, (2,))
        a = (0b10, "A")
        b = (0b10, "B")
        buckets = maca.distribute(ds, maca.pattern_set([a, b], ds.n))
        assert len(buckets) == 1


def loop_distribute(ds, patterns):
    """`distribute` as a pattern-by-pattern loop over `basin_signature`, as
    (signature, members) pairs in ascending signature order: the oracle of
    the bit-sliced one."""
    buckets = {}
    for code, label in patterns:
        sig = maca.basin_signature(ds, code)
        buckets.setdefault(sig, []).append((code, label))
    return sorted(buckets.items())


def loop_members(ds, patterns, picked):
    """The member mask of each signature the `basin_signature` loop puts the
    patterns at indices `picked` under, as (signature, mask) pairs in
    ascending signature order."""
    buckets = {}
    for i in picked:
        sig = maca.basin_signature(ds, patterns[i][0])
        buckets[sig] = buckets.get(sig, 0) | 1 << i
    return sorted(buckets.items())


def masks(buckets):
    return [(sig, bucket.members) for sig, bucket in buckets.items()]


def labeled_patterns(n, min_size=0):
    return st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                              st.sampled_from("HEC")),
                    min_size=min_size, max_size=40)


sized_patterns = st.integers(1, 70).flatmap(
    lambda n: st.tuples(st.just(n), labeled_patterns(n)))


def loop_column(patterns, b):
    """Column b pattern by pattern: bit i is bit b of code i."""
    return sum((code >> b & 1) << i for i, (code, _) in enumerate(patterns))


class TestBitSlicedOracle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_distribute_matches_the_pattern_loop(self, data):
        # n runs to 70: a column is N bits wide, whatever the code width
        ds, _ = data.draw(dependency_strings())
        patterns = data.draw(labeled_patterns(ds.n))
        training = maca.pattern_set(patterns, ds.n)
        assert training.members == (1 << len(patterns)) - 1
        assert len(training) == len(patterns)
        assert masks(maca.distribute(ds, training)) == \
            loop_members(ds, patterns, range(len(patterns)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bucket_members_are_the_loop_indices(self, data):
        # bit i of a bucket's members is pattern i of the list, on the
        # whole list and on a child bucket of it
        ds, _ = data.draw(dependency_strings())
        patterns = data.draw(labeled_patterns(ds.n))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        ch = ga.random_chromosome(ds.n, rng.randint(1, ds.n), rng)
        child = DependencyString(ch.bits, ch.widths)
        buckets = maca.distribute(ds, maca.pattern_set(patterns, ds.n))
        assert masks(buckets) == \
            loop_members(ds, patterns, range(len(patterns)))
        for bucket in buckets.values():
            assert masks(maca.distribute(child, bucket)) == \
                loop_members(child, patterns, indices(bucket.members))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fitness_is_the_majority_count(self, data):
        ds, _ = data.draw(dependency_strings())
        patterns = data.draw(labeled_patterns(ds.n, min_size=1))
        correct = sum(max(Counter(label for _, label in bucket).values())
                      for _, bucket in loop_distribute(ds, patterns))
        ch = ga.Chromosome(ds.bits, ds.widths, 1)
        assert ga.fitness(ch, maca.pattern_set(patterns, ds.n)) == \
            ga.fitness(ch, patterns) == correct / len(patterns)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_child_bucket_distributes_like_its_list(self, data):
        ds, _ = data.draw(dependency_strings())
        patterns = data.draw(labeled_patterns(ds.n))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        ch = ga.random_chromosome(ds.n, rng.randint(1, ds.n), rng)
        child = DependencyString(ch.bits, ch.widths)
        training = maca.pattern_set(patterns, ds.n)
        for bucket in maca.distribute(ds, training).values():
            picked = indices(bucket.members)
            members = [patterns[i] for i in picked]
            from_bucket = maca.distribute(child, bucket)
            from_list = maca.distribute(child, maca.pattern_set(members, ds.n))
            assert masks(from_bucket) == \
                loop_members(child, patterns, picked)
            assert masks(from_list) == \
                loop_members(child, members, range(len(members)))
            assert {sig: maca.label_counts(b)
                    for sig, b in from_bucket.items()} == \
                {sig: maca.label_counts(b) for sig, b in from_list.items()}
            assert maca.label_counts(bucket) == Counter(
                label for _, label in members)

    def test_labels_are_member_masks_in_training_order(self):
        training = maca.pattern_set([(0b10, "E"), (0b01, "H"), (0b11, "E")],
                                    2)
        assert list(training.labels.items()) == [("E", 0b101), ("H", 0b010)]
        # column b is the XOR table entry of bit b alone
        assert [training.byte_xors[b // 8][1 << b % 8] for b in range(2)] == \
            [0b110, 0b101]

    @given(sized_patterns)
    @example((9, []))
    @example((5, [(0b10110, "H")]))
    @example((13, [(0x1abc, "E"), (0x0001, "C"), (0x1000, "E")]))
    @settings(max_examples=200, deadline=None)
    def test_columns_match_the_pattern_loop(self, drawn):
        n, patterns = drawn
        training = maca.pattern_set(patterns, n)
        assert [len(table) for table in training.byte_xors] == \
            [1 << min(8, n - low) for low in range(0, n, 8)]
        assert [training.byte_xors[b // 8][1 << b % 8] for b in range(n)] == \
            [loop_column(patterns, b) for b in range(n)]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_buckets_share_the_sets_tables(self, data):
        # a bucket of the set, or of a bucket, holds the set's tables, not
        # a copy of them
        ds, _ = data.draw(dependency_strings())
        patterns = data.draw(labeled_patterns(ds.n, min_size=1))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        ch = ga.random_chromosome(ds.n, rng.randint(1, ds.n), rng)
        child = DependencyString(ch.bits, ch.widths)
        training = maca.pattern_set(patterns, ds.n)
        for bucket in maca.distribute(ds, training).values():
            for cut in [bucket, *maca.distribute(child, bucket).values()]:
                assert cut.n == training.n
                assert cut.byte_xors is training.byte_xors
                assert cut.labels is training.labels

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_plain_pairs_train_like_labeled_patterns(self, data):
        ds, _ = data.draw(dependency_strings())
        pairs = data.draw(labeled_patterns(ds.n, min_size=1))
        patterns = [maca.LabeledPattern(code, label) for code, label in pairs]
        named = maca.pattern_set(patterns, ds.n)
        plain = maca.pattern_set(pairs, ds.n)
        assert list(plain.labels.items()) == list(named.labels.items())
        assert plain.byte_xors == named.byte_xors
        assert masks(maca.distribute(ds, plain)) == \
            masks(maca.distribute(ds, named))
        ch = ga.Chromosome(ds.bits, ds.widths, 1)
        assert ga.fitness(ch, pairs) == ga.fitness(ch, patterns)

    def test_labeled_pattern_is_a_pair(self):
        p = maca.LabeledPattern(0b101, "H")
        assert p == (0b101, "H") and (p.code, p.label) == (0b101, "H")
        assert repr(p) == "LabeledPattern(code=5, label='H')"

    def test_codes_outside_n_bits_rejected(self):
        ds = DependencyString(0b11, (2,))
        patterns = [(-1, "A"), (0b100, "B")]
        for call in (lambda: ga.fitness(ga.Chromosome(ds.bits, ds.widths, 1),
                                        patterns),
                     lambda: maca.pattern_set(patterns, 2)):
            with pytest.raises(ValueError, match="unsigned 2-bit"):
                call()

    def test_set_of_another_width_rejected(self):
        training = maca.pattern_set([(0b11, "A")], 2)
        ds = DependencyString(0b111, (3,))
        ch = ga.Chromosome(ds.bits, ds.widths, 1)
        with pytest.raises(ValueError, match="2-bit codes, not 3-bit"):
            maca.distribute(ds, training)
        with pytest.raises(ValueError, match="2-bit codes, not 3-bit"):
            ga.fitness(ch, training)


def majority(patterns):
    counts = maca.label_counts(maca.pattern_set(patterns, 1))
    return maca.majority_label(counts)


class TestMajorityLabel:
    def test_majority(self):
        assert majority([(0, c) for c in "AAB"]) == "A"

    def test_tie_breaks_to_smallest(self):
        assert majority([(0, c) for c in "BA"]) == "A"

    def test_singleton(self):
        assert majority([(1, "B")]) == "B"


def parity_dataset(n, mask_bits, count, seed):
    """Patterns labeled by the parity of the hidden masked bits."""
    rng = random.Random(seed)
    pats = []
    for _ in range(count):
        p = tuple(rng.randint(0, 1) for _ in range(n))
        label = str(sum(a & b for a, b in zip(p, mask_bits)) & 1)
        pats.append((pack(p), label))
    return pats


SMALL_GA = TreeConfig(population_size=20, generations=25)


class TestBuildTree:
    def test_single_class_is_one_leaf(self):
        pats = [(0b01, "A"), (0b11, "A")]
        tree = maca.build_tree(pats, 2, SMALL_GA, rng_seed=1)
        assert tree.root.is_leaf
        assert tree.root.label == "A"

    def test_parity_separable_reaches_full_accuracy(self):
        pats = parity_dataset(6, (1, 0, 1, 0, 0, 0), 40, seed=2)
        tree = maca.build_tree(pats, 6, SMALL_GA, rng_seed=2)
        assert all(maca.classify(tree, code) == label for code, label in pats)

    def test_conflicting_duplicates_become_majority_leaf(self, monkeypatch):
        # one code under two labels: no dependency string splits it, so the
        # GA runs `maca.SPLIT_RETRIES` times, 5, before the node gives up
        calls, real = [], ga.evolve_maca
        monkeypatch.setattr(ga, "evolve_maca",
                            lambda *args: calls.append(args) or real(*args))
        pats = [(0b10, "A")] * 2 + [(0b10, "B")]
        tree = maca.build_tree(pats, 2, SMALL_GA, rng_seed=3)
        assert len(calls) == 5
        assert tree.root.is_leaf and maca.classify(tree, 0b10) == "A"

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            maca.build_tree([], 2, SMALL_GA)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            maca.build_tree([(0b1, "A"), (0b10, "B")], 1, SMALL_GA)

    @pytest.mark.parametrize("seed", [-3, 2.0, True, "3"])
    def test_seed_not_a_non_negative_int_rejected(self, seed):
        # Random(-3) seeds like Random(3): the model would record a seed
        # that trained nothing of its own
        pats = [(0b01, "A"), (0b10, "B")]
        with pytest.raises(ValueError, match="seed"):
            maca.build_tree(pats, 2, SMALL_GA, rng_seed=seed)

    def test_three_classes(self):
        rng = random.Random(9)
        pats = []
        for _ in range(60):
            p = tuple(rng.randint(0, 1) for _ in range(6))
            label = "HEC"[(p[0] << 1 | p[1]) % 3]
            pats.append((pack(p), label))
        tree = maca.build_tree(pats, 6, SMALL_GA, rng_seed=5)
        acc = sum(maca.classify(tree, code) == label
                  for code, label in pats) / len(pats)
        assert acc == 1.0

    def test_one_pattern_set_per_build(self, monkeypatch):
        # the GA and every node's split work on cuts of the one set the
        # build makes of its pairs
        calls = []
        real = maca.pattern_set

        def counting(patterns, n):
            calls.append(n)
            return real(patterns, n)

        monkeypatch.setattr(maca, "pattern_set", counting)
        monkeypatch.setattr(ga, "pattern_set", counting)
        pats = parity_dataset(6, (1, 0, 1, 0, 0, 0), 40, seed=2)
        tree = maca.build_tree(pats, 6, SMALL_GA, rng_seed=2)
        assert not tree.root.is_leaf
        assert calls == [6]

    def test_one_dependency_string_per_score_and_per_ga_run(self, monkeypatch):
        # the GA's operators build none: `fitness` builds the string it
        # scores, and the build the one each GA run returns
        counts = Counter()

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(DependencyString, "__init__", counting(
            "built", DependencyString.__init__))
        monkeypatch.setattr(ga, "fitness", counting("fitness", ga.fitness))
        monkeypatch.setattr(ga, "evolve_maca", counting("runs",
                                                        ga.evolve_maca))
        pats = [(code, "HEC"[code % 3]) for code in range(1 << 5)] + \
            [(0b10, "E")]  # a conflict that no split can part
        maca.build_tree(pats, 5, TreeConfig(population_size=6,
                                            generations=4), rng_seed=4)
        assert counts["runs"] > 1
        assert counts["built"] == counts["fitness"] + counts["runs"]


class TestTreeConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_depth", -1), ("min_samples", 0), ("min_samples", -1),
        ("population_size", 1), ("elitism_count", 30),
        ("elitism_count", 0), ("mutation_rate", 1.5), ("crossover_rate", -0.1),
        ("generations", 0), ("population_size", "10"), ("generations", 2.5),
        ("max_depth", True), ("mutation_rate", "0.1"),
    ])
    def test_nonsense_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TreeConfig(**{field: value})
        # the NamedTuple rebuild paths check too
        with pytest.raises(ValueError, match=field):
            TreeConfig()._replace(**{field: value})
        with pytest.raises(ValueError, match=field):
            TreeConfig._make({**TreeConfig._field_defaults,
                              field: value}.values())

    def test_smallest_values_accepted(self):
        TreeConfig(max_depth=0, min_samples=1, population_size=2,
                   generations=1, elitism_count=1, crossover_rate=0,
                   mutation_rate=1)


class TestTreeNode:
    def test_no_two_nodes_share_a_children_dict(self):
        a, b = maca.TreeNode("H"), maca.TreeNode(label="E", ds=None)
        assert a.children == b.children == {}
        assert a.children is not b.children
        with pytest.raises(AttributeError):
            a.children = b.children
        pats = parity_dataset(5, (0, 1, 1, 0, 0), 30, seed=7)
        nodes, stack = [], [maca.build_tree(pats, 5, SMALL_GA, 7).root]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].children.values())
        assert len({id(node.children) for node in nodes}) == len(nodes) > 1


class TestClassify:
    def test_one_leaf_tree(self):
        tree = maca.PsmacaTree(maca.TreeNode(label="C"), n=3, config=SMALL_GA)
        assert maca.classify(tree, 0b010) == "C"

    def test_length_mismatch(self):
        tree = maca.PsmacaTree(maca.TreeNode(label="C"), n=3, config=SMALL_GA)
        with pytest.raises(ValueError):
            maca.classify(tree, 0b1010)

    def test_unseen_signature_falls_back_to_majority(self):
        ds = DependencyString(0b1_1, (1, 1))
        node = maca.TreeNode(label="A", ds=ds,
                             children={0b00: maca.TreeNode(label="B")})
        tree = maca.PsmacaTree(node, n=2, config=SMALL_GA)
        assert maca.classify(tree, 0b00) == "B"
        assert maca.classify(tree, 0b10) == "A"  # signature 0b10 unseen

    def test_deterministic(self):
        pats = parity_dataset(5, (0, 1, 1, 0, 0), 30, seed=7)
        tree = maca.build_tree(pats, 5, SMALL_GA, rng_seed=7)
        for code, _ in pats[:10]:
            assert maca.classify(tree, code) == maca.classify(tree, code)


def reference_classify(tree, code):
    """The walk `classify` runs inline: one `basin_signature` call per node."""
    node = tree.root
    while not node.is_leaf:
        child = node.children.get(maca.basin_signature(node.ds, code))
        if child is None:
            return node.label
        node = child
    return node.label


@st.composite
def tree_nodes(draw, n, depth=0):
    """A node over n-bit codes whose children cover a random few of its
    signatures, so that walks also meet unseen ones."""
    label = draw(st.sampled_from("HEC"))
    if depth == 3 or draw(st.booleans()):
        return maca.TreeNode(label)
    ds, _ = draw(dependency_strings(min_n=n, max_n=n))
    sigs = draw(st.sets(st.integers(0, (1 << ds.m) - 1), max_size=4))
    return maca.TreeNode(label, ds, {sig: draw(tree_nodes(n, depth + 1))
                                     for sig in sorted(sigs)})


class TestClassifyOracle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_walk(self, data):
        n = data.draw(st.integers(1, 10))
        tree = maca.PsmacaTree(data.draw(tree_nodes(n)), n, SMALL_GA)
        codes = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                   min_size=1, max_size=16))
        for code in codes:
            assert maca.classify(tree, code) == reference_classify(tree, code)
        outside = data.draw(st.one_of(st.integers(1 << n, 1 << n + 8),
                                      st.integers(-(1 << n + 8), -1)))
        with pytest.raises(ValueError, match=rf"^{outside} is not an "
                                             rf"unsigned {n}-bit value$"):
            maca.classify(tree, outside)


class TestCodeWidth:
    """Each entry point that takes pattern codes rejects a code that is not
    an unsigned n-bit value."""

    @pytest.mark.parametrize("code", [1 << 3, -1],
                             ids=["one-bit-too-wide", "negative"])
    @pytest.mark.parametrize("entry", ["build_tree", "classify",
                                       "basin_signature"])
    def test_rejected(self, entry, code):
        ds = DependencyString(0b10_1, (2, 1))
        tree = maca.PsmacaTree(maca.TreeNode(label="C"), n=3, config=SMALL_GA)
        call = {
            "build_tree": lambda: maca.build_tree(
                [(0b111, "H"), (code, "E")], 3,
                SMALL_GA),
            "classify": lambda: maca.classify(tree, code),
            "basin_signature": lambda: maca.basin_signature(ds, code),
        }[entry]
        with pytest.raises(ValueError, match="unsigned 3-bit"):
            call()


seeds = st.integers(0, 2**32 - 1)

# n = 1 still draws; at n = 2**k and 2**k + 1 the helper draws k + 1 bits,
# and at 2**k + 1 it rejects almost half of them
edge_sizes = st.integers(0, 70).flatmap(
    lambda k: st.sampled_from(sorted({max(1, 2**k - 1), 2**k, 2**k + 1})))


class TestBelow:
    """`maca._below` makes `randrange`'s draws, so a CPython that changes
    `randrange` fails here by name before any model digest moves."""

    @settings(max_examples=400, deadline=None)
    @given(n=st.one_of(edge_sizes, st.integers(1, 2**70)), seed=seeds)
    @example(n=1, seed=0)
    @example(n=2**70, seed=0)
    def test_is_randrange(self, n, seed):
        rng, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert maca._below(rng, n) == stdlib.randrange(n)
        assert rng.getstate() == stdlib.getstate()

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_nonzero_vector_is_randrange_from_one(self, seed):
        rng, stdlib = random.Random(seed), random.Random(seed)
        for w in range(1, 41):
            assert 1 + maca._below(rng, (1 << w) - 1) == \
                stdlib.randrange(1, 1 << w)
        assert rng.getstate() == stdlib.getstate()
