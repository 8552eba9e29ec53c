import gc
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmaca import pipeline
from psmaca.codec import check_sequence
from psmaca.dataio import ProteinRecord, make_impulse_dataset, make_toy_dataset
from psmaca.pipeline import PipelineConfig, ResponseFilter


def random_sequence(rng, length):
    return "".join(rng.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(length))


def recount_similarity(a, b, k=3):
    """`similarity` as it ran before the k-mer vector memo, recounting both
    sequences on every call; kept as the oracle."""
    ca = pipeline.kmer_counts(check_sequence(a), k)
    cb = pipeline.kmer_counts(check_sequence(b), k)
    dot = sum(ca[kmer] * cb[kmer] for kmer in ca.keys() & cb.keys())
    if dot == 0:
        return 0.0
    norm = math.sqrt(sum(v * v for v in ca.values())
                     * sum(v * v for v in cb.values()))
    return min(dot / norm, 1.0)


def recount_select_base(target, training, k=3):
    """`select_base` over `recount_similarity`; kept as the oracle."""
    candidates = [r for r in training if r.structure is not None]
    if not candidates:
        raise ValueError("training set has no records with structures")
    best, best_score = None, -1.0
    for record in sorted(candidates, key=lambda r: r.id):
        if len(record.sequence) < k:
            continue
        score = recount_similarity(target, record.sequence, k)
        if score > best_score:
            best, best_score = record, score
    if best is None:
        raise ValueError(f"no training sequence is at least {k} residues long")
    return best, best_score


def prepare(records, filter_length=1):
    """Bases limited only by k and structure, unless a filter is given."""
    return pipeline.prepare_bases(records, PipelineConfig(filter_length))


def counts(seq, k=3):
    return pipeline.kmer_counts(seq, k)


# a small alphabet makes shared k-mers, equal scores and repeats common
memo_sequences = st.text(alphabet="ACW", min_size=1, max_size=12)


@st.composite
def training_sets(draw):
    """Records drawn from a few sequences, so duplicate sequences under
    different ids (equal-score ties) and sequences shorter than k occur."""
    pool = draw(st.lists(memo_sequences, min_size=1, max_size=5))
    ids = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                        min_size=1, max_size=8, unique=True))
    return [ProteinRecord(i, seq, "C" * len(seq))
            for i, seq in zip(ids, draw(st.lists(
                st.sampled_from(pool), min_size=len(ids), max_size=len(ids))))]


class TestSimilarity:
    def test_self_similarity(self):
        rng = random.Random(0)
        for _ in range(10):
            seq = random_sequence(rng, rng.randint(3, 30))
            assert pipeline.similarity(counts(seq), counts(seq)) == 1.0

    def test_no_shared_kmers(self):
        assert pipeline.similarity(counts("AAAA"), counts("WWWW")) == 0.0

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(20):
            a = counts(random_sequence(rng, rng.randint(4, 20)))
            b = counts(random_sequence(rng, rng.randint(4, 20)))
            assert pipeline.similarity(a, b) == pipeline.similarity(b, a)

    def test_bounds(self):
        rng = random.Random(2)
        for _ in range(50):
            a = counts(random_sequence(rng, rng.randint(3, 15)))
            b = counts(random_sequence(rng, rng.randint(3, 15)))
            assert 0.0 <= pipeline.similarity(a, b) <= 1.0

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            pipeline.similarity(counts("AC"), counts("ACDEF"))


class TestKmerMemo:
    @settings(max_examples=200, deadline=None)
    @given(a=memo_sequences, b=memo_sequences, k=st.integers(1, 4))
    def test_similarity_matches_recount(self, a, b, k):
        if min(len(a), len(b)) < k:
            with pytest.raises(ValueError, match="shorter than k-mer size"):
                pipeline.similarity(counts(a, k), counts(b, k))
            return
        assert (pipeline.similarity(counts(a, k), counts(b, k))
                == recount_similarity(a, b, k))

    @settings(max_examples=200, deadline=None)
    @given(training=training_sets(), target=memo_sequences)
    def test_select_base_matches_recount(self, training, target):
        try:
            expected = recount_select_base(target, training)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                pipeline.select_base(target, prepare(training))
            return
        base, score = pipeline.select_base(target, prepare(training))
        assert (base.id, score) == (expected[0].id, expected[1])

    def test_one_count_per_distinct_sequence(self, monkeypatch):
        # each base is counted once, at preparation, and each target once
        # per prediction; nothing is held between predictions
        dataset = make_impulse_dataset(10, 9, seed=7)
        rng = random.Random(8)
        targets = [random_sequence(rng, 12) for _ in range(5)]
        calls = []
        real = pipeline.kmer_counts

        def counting(seq, k):
            calls.append((seq, k))
            return real(seq, k)

        monkeypatch.setattr(pipeline, "kmer_counts", counting)
        bases = pipeline.prepare_bases(dataset.records)
        assert calls == [(r.sequence, 3) for r in bases.records]
        assert len(bases.records) == len(dataset.records)
        calls.clear()
        for _ in range(2):
            for target in targets:
                pipeline.predict_structure(target, bases)
        assert calls == [(t, 3) for t in targets] * 2

    @pytest.mark.parametrize("a, b, problem", [
        ("ACZDE", "ACDEF", "illegal residue 'Z'"),
        ("AC", "ACDEF", "shorter than k-mer size 3"),
    ], ids=["illegal-residue", "shorter-than-k"])
    def test_errors_are_not_cached(self, a, b, problem):
        bases = prepare([ProteinRecord("b", b, "C" * len(b))])
        for _ in range(2):
            with pytest.raises(ValueError, match=problem):
                pipeline.select_base(a, bases)

    def test_returned_counts_are_not_shared(self):
        a, b = "ACDEFGACD", "ACDWWW"
        bases = prepare([ProteinRecord("b", b, "C" * len(b))])
        before = pipeline.select_base(a, bases)
        mine = counts(a)
        mine["ACD"] += 100
        mine["WWW"] = 7
        assert pipeline.select_base(a, bases) == before
        assert before[1] == recount_similarity(a, b)


REPEATS = ("A" * 12, "AC" * 8, "ACD" * 6)


def assert_postings_are_the_counts(seqs, k=3):
    """Each base's postings are its k-mer counts, one entry per occurrence,
    and its norm is the sum of its squared counts."""
    bases = prepare([ProteinRecord(f"s{i:03}", seq, "C" * len(seq))
                     for i, seq in enumerate(seqs)])
    held = [Counter() for _ in seqs]
    for kmer, positions in bases.postings.items():
        for pos in positions:
            held[pos][kmer] += 1
    for seq, base_counts, norm, got in zip(seqs, bases.counts, bases.norms,
                                           held):
        assert got == base_counts == counts(seq, k)
        assert got.total() == len(seq) - k + 1
        assert norm == sum(c * c for c in got.values())
    return bases


class TestKmerBitSets:
    """The prepared k-mer counts at real sizes, long sequences and
    repeat-heavy ones, checked exactly against the recount."""

    @pytest.fixture(scope="class")
    def toy(self):
        return [r.sequence for length in (150, 220, 300)
                for r in make_toy_dataset(10, length, seed=length).records]

    def test_every_pair_of_toy_records(self, toy):
        for i, a in enumerate(toy):
            for b in toy[i:]:
                assert (pipeline.similarity(counts(a), counts(b))
                        == recount_similarity(a, b))
        assert_postings_are_the_counts(toy)

    def test_repeat_heavy_sequences(self, toy):
        bases = assert_postings_are_the_counts(REPEATS)
        assert bases.postings["AAA"] == [0] * 10
        pool = REPEATS + ("ACDAC", toy[0] + REPEATS[2], toy[-1])
        for a in pool:
            for b in pool:
                assert (pipeline.similarity(counts(a), counts(b))
                        == recount_similarity(a, b))

    def test_mixed_k(self, toy):
        seqs = REPEATS + tuple(toy[::7])
        cases = [(a, b, k) for k in (3, 1, 5, 2, 4)
                 for a in seqs for b in seqs]
        got = [pipeline.similarity(counts(a, k), counts(b, k))
               for a, b, k in cases]
        assert got == [recount_similarity(a, b, k) for a, b, k in cases]


@pytest.mark.parametrize("k", [0, -1, 1.5])
def test_kmer_size_must_be_a_positive_int(k):
    message = re.escape(f"k-mer size must be an int >= 1, got {k!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        pipeline.kmer_counts("MKWVTFISLLFLFSSAYS", k)


def test_no_module_level_state():
    """Many training sets prepared in one process leave nothing behind."""
    assert not [name for name, value in vars(pipeline).items()
                if hasattr(value, "cache_clear")]
    target = make_toy_dataset(1, 300, seed=4).records[0].sequence

    def predict_with(seed):
        training = make_toy_dataset(150, 150, seed=seed).records
        pipeline.predict_structure(target, pipeline.prepare_bases(training))

    predict_with(1000)  # warm up whatever the first call sets up
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for seed in range(40):
            predict_with(seed)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert left < 0.5 * 2**20


class TestSelectBase:
    def test_exact_match_wins(self):
        records = [ProteinRecord("a", "ACDEFG", "HHHHHH"),
                   ProteinRecord("b", "WWYYWW", "CCCCCC")]
        base, score = pipeline.select_base("ACDEFG", prepare(records))
        assert base.id == "a"
        assert score == 1.0

    def test_single_record(self):
        records = [ProteinRecord("only", "MKLVFF", "CCCCCC")]
        base, _ = pipeline.select_base("AAAAAA", prepare(records))
        assert base.id == "only"

    def test_tie_breaks_to_smaller_id(self):
        records = [ProteinRecord("z", "ACDEFG", "HHHHHH"),
                   ProteinRecord("a", "ACDEFG", "CCCCCC")]
        base, _ = pipeline.select_base("ACDEFG", prepare(records))
        assert base.id == "a"

    def test_records_without_structure_ignored(self):
        records = [ProteinRecord("a", "ACDEFG"),
                   ProteinRecord("b", "WWYYWW", "CCCCCC")]
        base, _ = pipeline.select_base("ACDEFG", prepare(records))
        assert base.id == "b"

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="no records with structures"):
            prepare([ProteinRecord("a", "ACDEFG")])

    def test_matches_recount_at_real_sizes(self):
        # `evaluate_pipeline`'s sizes, plus copies of a third of the bases
        # under ids sorting before theirs and of a third after, and targets
        # equal to bases, so exact ties must go to the smallest id
        bases = list(make_toy_dataset(150, 150, seed=3).records)
        training = bases + [r._replace(id=prefix + r.id)
                            for prefix, copied in (("a", bases[::3]),
                                                   ("zz", bases[1::3]))
                            for r in copied]
        targets = [r.sequence for r in
                   make_toy_dataset(100, 300, seed=4).records[:20]]
        targets += [r.sequence for r in bases[:6]]
        prepared = pipeline.prepare_bases(training)
        chosen = []
        for target in targets:
            base, score = pipeline.select_base(target, prepared)
            expected = recount_select_base(target, training)
            assert (base.id, score) == (expected[0].id, expected[1])
            chosen.append(base.id)
        assert {"atoy00", "toy01", "toy02", "atoy03"} <= set(chosen)

    def test_one_index_for_many_targets(self, monkeypatch):
        # the posting index is built at preparation; selecting a base for
        # many targets counts only the targets and leaves the index as built
        training = make_toy_dataset(150, 150, seed=3).records
        targets = [r.sequence for r in
                   make_toy_dataset(100, 300, seed=4).records[:10]]
        prepared = pipeline.prepare_bases(training)
        postings = prepared.postings
        built = {kmer: list(ids) for kmer, ids in postings.items()}
        calls = []
        real = pipeline.kmer_counts

        def counting(seq, k):
            calls.append(seq)
            return real(seq, k)

        monkeypatch.setattr(pipeline, "kmer_counts", counting)
        for target in targets:
            pipeline.select_base(target, prepared)
        assert calls == targets
        assert prepared.postings is postings
        assert postings == built


class TestDeconvolve:
    def test_impulse_input_reads_off_taps(self):
        x = [1.0] + [0.0] * 19
        y = [3.0, -1.0, 2.0] + [0.0] * 17
        f = pipeline.deconvolve(y, x, 3, ridge=0.0)
        assert f.taps == pytest.approx((3.0, -1.0, 2.0), abs=1e-12)

    def test_synthesize_and_recover(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = int(rng.integers(1, 13))
            taps = rng.uniform(-1, 1, L)
            x = rng.standard_normal(12 * L)
            y = np.convolve(x, taps)[: len(x)]
            f = pipeline.deconvolve(y, x, L, ridge=0.0)
            assert np.max(np.abs(np.array(f.taps) - taps)) < 1e-6

    def test_zero_output_gives_zero_taps(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        f = pipeline.deconvolve([0.0] * 50, x, 5, ridge=1e-3)
        assert all(abs(t) < 1e-12 for t in f.taps)

    def test_singular_at_zero_ridge_raises(self):
        with pytest.raises(pipeline.IllConditionedError):
            pipeline.deconvolve([0.0] * 20, [0.0] * 20, 4, ridge=0.0)
        # the solver itself refuses a zero or negative pivot
        for A in ([[0.0]], [[-1.0]]):
            with pytest.raises(pipeline.IllConditionedError, match="singular"):
                pipeline._solve(A, [1.0])

    def test_ridge_shrinks_taps(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(80)
        y = np.convolve(x, [1.0, -0.5, 0.25])[:80]
        norms = [
            float(np.linalg.norm(pipeline.deconvolve(y, x, 3, ridge=lam).taps))
            for lam in (0.0, 1e-2, 1.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pipeline.deconvolve([1.0, 2.0], [1.0], 1)

    def test_signal_shorter_than_filter(self):
        with pytest.raises(ValueError):
            pipeline.deconvolve([1.0, 2.0], [1.0, 2.0], 5)

    @pytest.mark.parametrize("L, ridge, problem", [
        (0, 0.0, "at least one tap"), (1, -1.0, "ridge must be >= 0")],
        ids=["no-taps", "negative-ridge"])
    def test_no_taps_or_negative_ridge_rejected(self, L, ridge, problem):
        with pytest.raises(ValueError, match=problem):
            pipeline.deconvolve([1.0, 2.0], [1.0, 2.0], L, ridge)


def convolution_matrix(x, L):
    """X[t, j] = x[t - j], zero for t < j: the causal convolution matrix
    whose normal equations `deconvolve` solves; numpy is the oracle."""
    n = len(x)
    X = np.zeros((n, L))
    for j in range(L):
        X[j:, j] = x[:n - j]
    return X


def relative_error(got, expected):
    return np.max(np.abs(np.asarray(got) - expected)) / np.max(np.abs(expected))


class TestNumpyOracle:
    @pytest.mark.parametrize("ridge", [0.0, 1e-6, 1.0])
    def test_matches_numpy(self, ridge):
        rng = np.random.default_rng(10)
        for _ in range(60):
            L = int(rng.integers(1, 14))
            # n >= 2L keeps random signals well conditioned, so numpy and
            # the plain-float solve agree to rounding
            n = int(rng.integers(2 * L, 401))
            x = rng.standard_normal(n) * 10 ** rng.uniform(-2, 2)
            y = rng.choice([200.0, 600.0, 800.0], n)
            X = convolution_matrix(x, L)
            expected = np.linalg.solve(X.T @ X + ridge * np.eye(L), X.T @ y)
            f = pipeline.deconvolve(y, x, L, ridge)
            assert relative_error(f.taps, expected) <= 1e-9
            assert relative_error(pipeline.convolve(x, f),
                                  np.convolve(x, f.taps)[:n]) <= 1e-9

    def test_ill_conditioned_exactly_when_numpy_says(self):
        # a signal that is zero but for its last k < L samples makes X
        # singular; noise of random size then sets how nearly singular
        rng = np.random.default_rng(11)
        raised = kept = 0
        for _ in range(300):
            L = int(rng.integers(2, 14))
            n = int(rng.integers(L, 401))
            x = 10 ** rng.uniform(-12, 0) * rng.standard_normal(n)
            x[n - int(rng.integers(1, L)):] += rng.standard_normal()
            X = convolution_matrix(x, L)
            cond = np.linalg.cond(X.T @ X)
            if 1e11 <= cond <= 1e13:  # too near the limit to call
                continue
            if cond > pipeline._COND_LIMIT:
                with pytest.raises(pipeline.IllConditionedError):
                    pipeline.deconvolve(x, x, L, ridge=0.0)
                raised += 1
            else:
                pipeline.deconvolve(x, x, L, ridge=0.0)
                kept += 1
        assert raised >= 30 and kept >= 30

    @pytest.mark.parametrize("e, refused", [(0.95e-12, True), (1.05e-12, False)],
                             ids=["cond-1.05e12", "cond-9.5e11"])
    def test_condition_limit_margin(self, e, refused):
        # x = [sqrt(e), 0, 1] at L = 2 gives X^T X = diag(1 + e, e), whose
        # condition number (1 + e) / e lies 5% to either side of the limit
        x = [math.sqrt(e), 0.0, 1.0]
        X = convolution_matrix(x, 2)
        assert (np.linalg.cond(X.T @ X) > pipeline._COND_LIMIT) == refused
        if refused:
            with pytest.raises(pipeline.IllConditionedError):
                pipeline.deconvolve(x, x, 2, ridge=0.0)
        else:
            f = pipeline.deconvolve(x, x, 2, ridge=0.0)
            assert f.taps == pytest.approx((1.0, 0.0), abs=1e-3)

    @pytest.mark.parametrize("ridge", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_is_a_value_error(self, bad, ridge):
        rng = random.Random(12)
        for signal in ("input", "output"):
            for at in (0, 17, 59):
                x = [rng.uniform(-4.5, 4.5) for _ in range(60)]
                y = [rng.choice((200.0, 600.0, 800.0)) for _ in range(60)]
                (x if signal == "input" else y)[at] = bad
                with pytest.raises(ValueError):
                    pipeline.deconvolve(y, x, 9, ridge)


def pivoted_swaps(A):
    """Row swaps that Gaussian elimination with partial pivoting makes on A."""
    A, swaps = A.copy(), 0
    for k in range(len(A)):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if p != k:
            A[[k, p]] = A[[p, k]]
            swaps += 1
        A[k + 1:] -= np.outer(A[k + 1:, k] / A[k, k], A[k])
    return swaps


def test_unpivoted_solve_matches_numpy_on_spd_systems():
    # B B^T + cI with rows of B scaled over four orders of magnitude: SPD,
    # but partial pivoting would reorder the rows of many of them
    rng = np.random.default_rng(13)
    swapped = 0
    for _ in range(200):
        L = int(rng.integers(2, 14))
        B = rng.standard_normal((L, L + 2)) * 10 ** rng.uniform(-2, 2, (L, 1))
        A = B @ B.T + rng.uniform(0.01, 1) * np.eye(L)
        b = rng.standard_normal(L)
        t = pipeline._solve(A.tolist(), b.tolist())
        assert relative_error(t, np.linalg.solve(A, b)) <= 1e-9
        swapped += pivoted_swaps(A) > 0
    assert swapped >= 50


class TestConvolve:
    def test_identity_filter(self):
        x = [1.0, 2.0, 3.0]
        assert pipeline.convolve(x, ResponseFilter((1.0,))) == x

    def test_zero_filter(self):
        assert pipeline.convolve([1.0, 2.0], ResponseFilter((0.0,))) == [0.0, 0.0]

    def test_hand_convolution(self):
        out = pipeline.convolve([1.0, 2.0, 3.0], ResponseFilter((1.0, 1.0)))
        assert out == [1.0, 3.0, 5.0]

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = ResponseFilter(tuple(rng.uniform(-1, 1, 4)))
        x1, x2 = rng.standard_normal(30), rng.standard_normal(30)
        a, b = 2.5, -1.25
        lhs = pipeline.convolve(a * x1 + b * x2, f)
        rhs = [a * u + b * v for u, v in zip(pipeline.convolve(x1, f),
                                             pipeline.convolve(x2, f))]
        assert all(abs(u - v) < 1e-9 for u, v in zip(lhs, rhs))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            pipeline.convolve([], ResponseFilter((1.0,)))

    def test_non_finite_taps_rejected(self):
        with pytest.raises(ValueError):
            ResponseFilter((1.0, math.nan))
        with pytest.raises(ValueError):
            ResponseFilter._make([(1.0, math.nan)])
        with pytest.raises(ValueError):
            ResponseFilter((1.0,))._replace(taps=())


class TestRoundTrip:
    def test_convolution_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            L = int(rng.integers(1, 9))
            taps = rng.uniform(-1, 1, L)
            x = rng.standard_normal(10 * L + 5)
            y = np.convolve(x, taps)[: len(x)]
            f = pipeline.deconvolve(y, x, L, ridge=0.0)
            back = pipeline.convolve(x, f)
            assert np.max(np.abs(np.array(back) - y)) <= 1e-6


class TestPredictStructure:
    def test_impulse_self_consistency(self):
        dataset = make_impulse_dataset(8, 9, seed=0)
        bases = pipeline.prepare_bases(dataset.records)
        for record in dataset.records:
            result = pipeline.predict_structure(record.sequence, bases)
            assert result.base_id == record.id
            assert result.similarity_score == 1.0
            assert result.predicted == record.structure

    def test_lengths_match_target(self):
        dataset = make_impulse_dataset(6, 9, seed=1)
        bases = pipeline.prepare_bases(dataset.records)
        rng = random.Random(5)
        for _ in range(5):
            target = random_sequence(rng, rng.randint(9, 40))
            result = pipeline.predict_structure(target, bases)
            assert len(result.predicted) == len(target)
            assert len(result.trace) == len(target)

    def test_deterministic(self):
        dataset = make_impulse_dataset(6, 9, seed=2)
        target = random_sequence(random.Random(6), 20)
        r1 = pipeline.predict_structure(
            target, pipeline.prepare_bases(dataset.records))
        r2 = pipeline.predict_structure(
            target, pipeline.prepare_bases(dataset.records))
        assert r1 == r2

    def test_one_fit_per_chosen_base(self, monkeypatch):
        records = make_toy_dataset(6, 30, seed=1).records
        targets = [records[0].sequence, records[0].sequence[:20]]
        bases = pipeline.prepare_bases(records)
        assert {pipeline.select_base(t, bases)[0].id
                for t in targets} == {records[0].id}
        fits = Counter()
        real = pipeline.deconvolve

        def counting(output, input, L, ridge):
            fits[tuple(input)] += 1
            return real(output, input, L, ridge)

        monkeypatch.setattr(pipeline, "deconvolve", counting)
        first = [pipeline.predict_structure(t, bases) for t in targets]
        assert list(fits.values()) == [1]
        assert list(bases.filters) == [records[0]]
        # a new prepared value fits its own filter, and the same one
        again = pipeline.prepare_bases(records)
        assert pipeline.predict_structure(targets[1], again) == first[1]
        assert list(fits.values()) == [2]
        assert again.filters == bases.filters

    def test_base_shorter_than_filter_is_skipped(self):
        # a_short shares more 3-mers with the target, but the 9-tap filter
        # cannot be fitted on its 6 residues
        a_short = ProteinRecord("a_short", "ACDEFG", "HHHEEE")
        b_long = ProteinRecord("b_long", "ACDEFGHIKLMNPQRS", "HHHHEEEECCCCHHHH")
        assert pipeline.select_base(
            "ACDEFGH", prepare([a_short, b_long]))[0] is a_short
        bases = pipeline.prepare_bases([a_short, b_long])
        assert bases.records == (b_long,)
        result = pipeline.predict_structure("ACDEFGH", bases)
        assert result.base_id == "b_long"
        assert len(result.predicted) == 7

    def test_no_base_as_long_as_the_filter(self):
        a_short = ProteinRecord("a_short", "ACDEFG", "HHHEEE")
        with pytest.raises(ValueError, match="filter_length=9"):
            pipeline.prepare_bases([a_short])

    def test_band_mode_config(self):
        dataset = make_impulse_dataset(6, 9, seed=3)
        cfg = PipelineConfig(decode_mode="paper_bands")
        result = pipeline.predict_structure(
            dataset.records[0].sequence,
            pipeline.prepare_bases(dataset.records, cfg))
        assert set(result.predicted) <= set("HEC")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="filter_length"):
            PipelineConfig(filter_length=0)
        with pytest.raises(ValueError, match="decode_mode"):
            PipelineConfig(decode_mode="zzz")
        with pytest.raises(ValueError, match="filter_length"):
            PipelineConfig._make([0])
