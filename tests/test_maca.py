import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmaca import maca
from psmaca.maca import DependencyString, LabeledPattern, TreeConfig


def all_patterns(n):
    return range(1 << n)


class TestBitLayout:
    @given(st.lists(st.integers(0, 1), max_size=70).map(tuple))
    def test_bits_round_trip(self, bits):
        assert maca.unpack(maca.pack(bits), len(bits)) == bits
        assert maca.parse_bits(maca.bit_string(bits)) == bits

    @given(st.integers(0, 70).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_int_round_trip(self, case):
        n, value = case
        assert maca.pack(maca.unpack(value, n)) == value
        assert len(maca.unpack(value, n)) == n

    def test_most_significant_bit_first(self):
        assert maca.unpack(0b1011, 6) == (0, 0, 1, 0, 1, 1)
        assert maca.bit_string((0, 0, 1, 0, 1, 1)) == "001011"
        assert maca.parse_bits("001011") == (0, 0, 1, 0, 1, 1)
        assert maca.unpack(0, 0) == () and maca.bit_string(()) == ""

    @pytest.mark.parametrize("value, n", [(4, 2), (-1, 3)])
    def test_unpack_rejects_values_outside_n_bits(self, value, n):
        with pytest.raises(ValueError, match="2-bit|3-bit"):
            maca.unpack(value, n)

    @pytest.mark.parametrize("text", ["12", "1 0", "\u0661\u0660", "0\uff11",
                                      "0b1", None, b"01"])
    def test_parse_accepts_only_ascii_0_and_1(self, text):
        # "\u0661" is ARABIC-INDIC DIGIT ONE, which int() reads as 1
        with pytest.raises(ValueError, match="0 or 1"):
            maca.parse_bits(text)


class TestDvValidity:
    def test_zero_vector_invalid(self):
        assert not maca.dv_is_valid((0, 0, 0, 0))

    def test_single_one_valid(self):
        assert maca.dv_is_valid((1, 0, 0, 0))
        assert maca.dv_is_valid((1, 0, 1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            maca.dv_is_valid(())

    def test_zero_segment_rejected_in_ds(self):
        with pytest.raises(ValueError):
            DependencyString(((1, 0), (0, 0)))


class TestBasinSignature:
    def test_single_bit(self):
        ds = DependencyString(((1,),))
        assert maca.basin_signature(ds, 0) == (0,)
        assert maca.basin_signature(ds, 1) == (1,)

    def test_hand_computed(self):
        ds = DependencyString(((1, 1), (1, 0)))
        assert maca.basin_signature(ds, maca.pack((1, 1, 0, 1))) == (0, 0)

    def test_zero_pattern_gives_zero_signature(self):
        ds = DependencyString(((1, 0, 1), (1, 1)))
        assert maca.basin_signature(ds, 0) == (0, 0)

    def test_length_mismatch(self):
        ds = DependencyString(((1, 1),))
        with pytest.raises(ValueError):
            maca.basin_signature(ds, 0b101)

    @given(st.integers(2, 12), st.integers(min_value=1))
    @settings(max_examples=30, deadline=None)
    def test_equal_split_single_dv(self, length, value):
        """Any single nonzero DV splits {0,1}^L exactly in half."""
        value = 1 + value % ((1 << length) - 1)
        dv = tuple((value >> i) & 1 for i in range(length))
        ds = DependencyString((dv,))
        ones = sum(maca.basin_signature(ds, p) == (1,)
                   for p in all_patterns(length))
        assert ones == 1 << (length - 1)

    def test_signature_locality(self):
        # flipping a bit not covered by the DV never changes the signature
        ds = DependencyString(((1, 0, 1), (0, 1)))
        rng = random.Random(4)
        for _ in range(50):
            p = [rng.randint(0, 1) for _ in range(5)]
            base = maca.basin_signature(ds, maca.pack(p))
            for pos in (1, 3):  # DV bit is 0 at these positions
                q = list(p)
                q[pos] ^= 1
                assert maca.basin_signature(ds, maca.pack(q)) == base


def oracle_signature(segments, pattern):
    """Signature from tuple slices: bit j is the parity of segment j AND
    the pattern bits it covers."""
    sig, pos = [], 0
    for seg in segments:
        sig.append(sum(d & p for d, p in zip(seg, pattern[pos:pos + len(seg)])) & 1)
        pos += len(seg)
    return tuple(sig)


@st.composite
def dependency_strings(draw, max_n=70):
    n = draw(st.integers(1, max_n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    edges = [0, *sorted(cuts), n]
    segments = []
    for a, b in zip(edges, edges[1:]):
        seg = draw(st.lists(st.integers(0, 1), min_size=b - a, max_size=b - a))
        seg[draw(st.integers(0, b - a - 1))] = 1  # keep the DV nonzero
        segments.append(tuple(seg))
    return DependencyString(tuple(segments))


class TestPackedKernel:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_signature_matches_tuple_oracle(self, data):
        # n runs past 64, so the packed kernel has no 64-bit ceiling
        ds = data.draw(dependency_strings())
        patterns = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=ds.n, max_size=ds.n)
            .map(tuple), min_size=1, max_size=8))
        for p in patterns:
            assert maca.basin_signature(ds, maca.pack(p)) == \
                oracle_signature(ds.segments, p)
        labeled = [LabeledPattern(maca.pack(p), str(i))
                   for i, p in enumerate(patterns)]
        buckets = maca.distribute(ds, labeled)
        # a partition: every pattern once, in the bucket of its signature
        assert sorted(q.label for b in buckets.values() for q in b) == \
            sorted(q.label for q in labeled)
        for sig, bucket in buckets.items():
            assert all(oracle_signature(ds.segments,
                                        maca.unpack(q.code, ds.n)) == sig
                       for q in bucket)

    def test_tuple_bit_zero_is_most_significant(self):
        assert maca.pack((1, 0, 1, 1)) == 0b1011
        assert maca.unpack(1, 3) == (0, 0, 1)
        assert DependencyString(((1, 0), (0, 1, 1))).masks == (0b10000, 0b00011)
        # an array packs by its values, not by its memory
        assert maca.pack(np.array([1, 0, 1])) == 0b101

    def test_wide_pattern(self):
        # only the bit above 64 is set, so a 64-bit kernel would read 0
        ds = DependencyString(((1,) * 70,))
        assert maca.basin_signature(ds, 1 << 69) == (1,)
        assert maca.basin_signature(ds, (1 << 70) - 1) == (0,)

    @pytest.mark.parametrize("bits", [(0, 2), (1, -1), (1, 0.5), ("1", "0")])
    def test_only_binary_bits_pack(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            maca.pack(bits)

    @pytest.mark.parametrize("segments", [((1, 2),), ((1,), (2,)), ((-1, 1),)])
    def test_only_binary_segments(self, segments):
        with pytest.raises(ValueError, match="0 or 1"):
            DependencyString(segments)

    def test_non_binary_ds_string_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            DependencyString.from_bit_strings(["12", "1"])


class TestDistribute:
    def test_empty(self):
        ds = DependencyString(((1,),))
        assert maca.distribute(ds, []) == {}

    @pytest.mark.parametrize("segments", [
        ((1, 0), (0, 1, 1)),
        ((1,), (1, 1), (1, 0, 1)),
        ((1, 1, 1, 1),),
    ])
    def test_full_space_bucket_sizes(self, segments):
        ds = DependencyString(segments)
        pats = [LabeledPattern(p, "x") for p in all_patterns(ds.n)]
        buckets = maca.distribute(ds, pats)
        assert len(buckets) == 1 << ds.m
        assert all(len(b) == 1 << (ds.n - ds.m) for b in buckets.values())

    def test_partition_no_loss(self):
        rng = random.Random(0)
        ds = DependencyString(((1, 0, 1), (1, 1)))
        pats = [LabeledPattern(rng.randrange(1 << 5), "x") for _ in range(100)]
        buckets = maca.distribute(ds, pats)
        assert sum(len(b) for b in buckets.values()) == 100

    def test_identical_patterns_share_bucket(self):
        ds = DependencyString(((1, 1),))
        a = LabeledPattern(0b10, "A")
        b = LabeledPattern(0b10, "B")
        buckets = maca.distribute(ds, [a, b])
        assert len(buckets) == 1


class TestMajorityLabel:
    def test_majority(self):
        assert maca.majority_label(
            [LabeledPattern(0, c) for c in "AAB"]) == "A"

    def test_tie_breaks_to_smallest(self):
        assert maca.majority_label(
            [LabeledPattern(0, c) for c in "BA"]) == "A"

    def test_singleton(self):
        assert maca.majority_label([LabeledPattern(1, "B")]) == "B"


def parity_dataset(n, mask_bits, count, seed):
    """Patterns labeled by the parity of the hidden masked bits."""
    rng = random.Random(seed)
    pats = []
    for _ in range(count):
        p = tuple(rng.randint(0, 1) for _ in range(n))
        label = str(sum(a & b for a, b in zip(p, mask_bits)) & 1)
        pats.append(LabeledPattern(maca.pack(p), label))
    return pats


SMALL_GA = TreeConfig(population_size=20, generations=25)


class TestBuildTree:
    def test_single_class_is_one_leaf(self):
        pats = [LabeledPattern(0b01, "A"), LabeledPattern(0b11, "A")]
        tree = maca.build_tree(pats, 2, SMALL_GA, rng_seed=1)
        assert tree.root.is_leaf
        assert tree.root.label == "A"

    def test_parity_separable_reaches_full_accuracy(self):
        pats = parity_dataset(6, (1, 0, 1, 0, 0, 0), 40, seed=2)
        tree = maca.build_tree(pats, 6, SMALL_GA, rng_seed=2)
        assert all(maca.classify(tree, p.code) == p.label for p in pats)

    def test_conflicting_duplicates_become_majority_leaf(self):
        pats = [LabeledPattern(0b10, "A")] * 2 + [LabeledPattern(0b10, "B")]
        tree = maca.build_tree(pats, 2, SMALL_GA, rng_seed=3)
        assert maca.classify(tree, 0b10) == "A"

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            maca.build_tree([], 2, SMALL_GA)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            maca.build_tree([LabeledPattern(0b1, "A"),
                             LabeledPattern(0b10, "B")], 1, SMALL_GA)

    def test_three_classes(self):
        rng = random.Random(9)
        pats = []
        for _ in range(60):
            p = tuple(rng.randint(0, 1) for _ in range(6))
            label = "HEC"[(p[0] << 1 | p[1]) % 3]
            pats.append(LabeledPattern(maca.pack(p), label))
        tree = maca.build_tree(pats, 6, SMALL_GA, rng_seed=5)
        acc = sum(maca.classify(tree, p.code) == p.label for p in pats) / len(pats)
        assert acc == 1.0


class TestTreeConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_depth", -1), ("min_samples", 0), ("min_samples", -1),
        ("split_retries", 0), ("population_size", 1), ("elitism_count", 30),
        ("elitism_count", 0), ("mutation_rate", 1.5), ("crossover_rate", -0.1),
        ("generations", 0), ("population_size", "10"), ("generations", 2.5),
        ("max_depth", True), ("mutation_rate", "0.1"),
    ])
    def test_nonsense_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TreeConfig(**{field: value})

    def test_smallest_values_accepted(self):
        TreeConfig(max_depth=0, min_samples=1, split_retries=1,
                   population_size=2, generations=1, elitism_count=1,
                   crossover_rate=0, mutation_rate=1)


class TestClassify:
    def test_one_leaf_tree(self):
        tree = maca.PsmacaTree(maca.TreeNode(label="C"), n=3, config=SMALL_GA)
        assert maca.classify(tree, 0b010) == "C"

    def test_length_mismatch(self):
        tree = maca.PsmacaTree(maca.TreeNode(label="C"), n=3, config=SMALL_GA)
        with pytest.raises(ValueError):
            maca.classify(tree, 0b1010)

    def test_unseen_signature_falls_back_to_majority(self):
        ds = DependencyString(((1,), (1,)))
        node = maca.TreeNode(label="A", ds=ds,
                             children={(0, 0): maca.TreeNode(label="B")})
        tree = maca.PsmacaTree(node, n=2, config=SMALL_GA)
        assert maca.classify(tree, 0b00) == "B"
        assert maca.classify(tree, 0b10) == "A"  # signature (1,0) unseen

    def test_deterministic(self):
        pats = parity_dataset(5, (0, 1, 1, 0, 0), 30, seed=7)
        tree = maca.build_tree(pats, 5, SMALL_GA, rng_seed=7)
        for p in pats[:10]:
            assert maca.classify(tree, p.code) == maca.classify(tree, p.code)


class TestTreeSerialization:
    def test_round_trip(self):
        pats = parity_dataset(6, (1, 1, 0, 0, 0, 0), 40, seed=11)
        tree = maca.build_tree(pats, 6, SMALL_GA, rng_seed=11)
        rebuilt = maca.tree_from_dict(maca.tree_to_dict(tree))
        assert maca.tree_to_dict(rebuilt) == maca.tree_to_dict(tree)
        for p in pats:
            assert maca.classify(rebuilt, p.code) == maca.classify(tree, p.code)


class TestCodeWidth:
    """Each entry point that takes pattern codes rejects a code that is not
    an unsigned n-bit value."""

    @pytest.mark.parametrize("code", [1 << 3, -1],
                             ids=["one-bit-too-wide", "negative"])
    @pytest.mark.parametrize("entry", ["build_tree", "classify",
                                       "basin_signature"])
    def test_rejected(self, entry, code):
        ds = DependencyString(((1, 0), (1,)))
        tree = maca.PsmacaTree(maca.TreeNode(label="C"), n=3, config=SMALL_GA)
        call = {
            "build_tree": lambda: maca.build_tree(
                [LabeledPattern(0b111, "H"), LabeledPattern(code, "E")], 3,
                SMALL_GA),
            "classify": lambda: maca.classify(tree, code),
            "basin_signature": lambda: maca.basin_signature(ds, code),
        }[entry]
        with pytest.raises(ValueError, match="unsigned 3-bit"):
            call()
