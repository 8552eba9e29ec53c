import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmaca import codec, dataio, maca
from psmaca.pipeline import PipelineConfig

from tuple_bits import pack, unpack

structure_strings = st.text(alphabet="HEC", min_size=1, max_size=40)
residues = st.text(alphabet=codec.AMINO_ACIDS + "X", max_size=30)


def float_steps(value, k):
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


# any finite float, plus the floats within 3 steps of each code or midpoint
decode_values = st.floats(allow_nan=False, allow_infinity=False) | st.builds(
    float_steps, st.sampled_from([0.0, 200.0, 400.0, 600.0, 700.0, 800.0]),
    st.integers(-3, 3))


def per_residue_windows(seq, w):
    """The per-window, per-residue encoding `window_patterns` ran before
    slicing one bit row, kept as the oracle."""
    half = w // 2
    patterns = []
    for i in range(len(seq)):
        bits = []
        for j in range(i - half, i + half + 1):
            aa = seq[j] if 0 <= j < len(seq) else "X"
            code = codec.AMINO_ACIDS.index(aa) if aa != "X" else 20
            bits.extend((code >> (4 - k)) & 1 for k in range(5))
        patterns.append(tuple(bits))
    return patterns


def load_with_scale_name(path, name):
    """Load the model file at `path` with its pipeline scale_name set to
    `name`; the scale name lives only in model files."""
    with open(path) as f:
        doc = json.load(f)
    doc["pipeline"]["scale_name"] = name
    with open(path, "w") as f:
        json.dump(doc, f)
    return dataio.load_model(path)


@pytest.fixture
def model_path(tmp_path):
    # window 1: one residue, so 5-bit patterns
    pats = [(0b00000, "C"), (0b11000, "H"), (0b01000, "H"), (0b10000, "C")]
    tree = maca.build_tree(pats, 5, maca.TreeConfig(population_size=10,
                                                    generations=10), rng_seed=3)
    path = tmp_path / "model.json"
    dataio.save_model(dataio.ModelFile(tree, 1, PipelineConfig(), 3,
                                       dataio.fingerprint("x")), path)
    return path


class TestHydropathyScale:
    def test_bundled_scale_covers_alphabet(self):
        # Kyte & Doolittle (1982), in AMINO_ACIDS order, then 'X'
        assert codec.hydropathy_encode(codec.AMINO_ACIDS + "X") == [
            1.8, 2.5, -3.5, -3.5, 2.8, -0.4, -3.2, 4.5, -3.9, 3.8,
            1.9, -3.5, -1.6, -3.5, -4.5, -0.8, -0.7, 4.2, -0.9, -1.3, 0.0]
        assert codec.HYDROPATHY_SCALE == "kyte_doolittle"

    def test_unknown_scale_name(self, model_path):
        with pytest.raises(ValueError):
            load_with_scale_name(model_path, "no_such_scale")

    def test_only_bundled_names_load(self, model_path, tmp_path):
        with open(model_path) as f:
            assert (json.load(f)["pipeline"]["scale_name"]
                    == codec.HYDROPATHY_SCALE)
        path = tmp_path / "scale.tsv"
        path.write_text("".join(f"{aa}\t1.0\n" for aa in codec.AMINO_ACIDS))
        for name in (str(path.with_suffix("")), str(path),
                     "../data/kyte_doolittle", "data/kyte_doolittle",
                     "kyte_doolittle.tsv", "", None, ["kyte_doolittle"]):
            with pytest.raises(dataio.ModelFormatError,
                               match=f"scale_name must be 'kyte_doolittle', "
                                     f"got {re.escape(repr(name))}$"):
                load_with_scale_name(model_path, name)
        assert (load_with_scale_name(model_path, codec.HYDROPATHY_SCALE)
                .pipeline == PipelineConfig())

    def test_x_maps_to_zero(self):
        assert codec.hydropathy_encode("XXX") == [0.0, 0.0, 0.0]

    def test_isoleucine_value(self):
        assert codec.hydropathy_encode("I") == [4.5]

    def test_length_preserved(self):
        rng = random.Random(0)
        for _ in range(20):
            seq = "".join(rng.choice(codec.AMINO_ACIDS)
                          for _ in range(rng.randint(1, 50)))
            assert len(codec.hydropathy_encode(seq)) == len(seq)

    def test_illegal_residue(self):
        with pytest.raises(ValueError, match="position 2"):
            codec.hydropathy_encode("MF1")
        # of several illegal residues, the first is named
        with pytest.raises(ValueError, match="^illegal residue 'z' at position 1$"):
            codec.hydropathy_encode("MzF1")


class TestStructureEncode:
    def test_hec(self):
        assert codec.structure_encode("HEC") == [200.0, 600.0, 800.0]

    def test_all_helix(self):
        assert codec.structure_encode("HHHH") == [200.0] * 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError,
                           match="^structure string must be non-empty$"):
            codec.structure_encode("")
        with pytest.raises(ValueError,
                           match="^amino-acid sequence must be non-empty$"):
            codec.hydropathy_encode("")

    def test_illegal_label(self):
        with pytest.raises(ValueError):
            codec.structure_encode("HQC")
        with pytest.raises(
                ValueError, match="^illegal structure label 'h' at position 1$"):
            codec.structure_encode("HhCQ")


class TestStructureDecode:
    @pytest.mark.parametrize("value,label", [(100, "H"), (700, "E"), (400, "C"),
                                             (0, "H"), (200, "H"), (600, "E"),
                                             (-50, "C"), (900, "C")])
    def test_paper_bands(self, value, label):
        assert codec.structure_decode([value], "paper_bands") == label

    def test_band_conflict_at_coil_value(self):
        # 800 is both the coil code and the strand band edge; the two
        # readings disagree there by design
        assert codec.structure_decode([800], "paper_bands") == "E"
        assert codec.structure_decode([800], "nearest_centroid") == "C"

    def test_nearest_centroid_ties_go_low(self):
        # 400 is equidistant from 200 and 600
        assert codec.structure_decode([400], "nearest_centroid") == "H"
        assert codec.structure_decode([700], "nearest_centroid") in "EC"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            codec.structure_decode([float("nan")])
        with pytest.raises(ValueError):
            codec.structure_decode([float("inf")], "paper_bands")
        # the first non-finite value is the one named
        with pytest.raises(ValueError,
                           match="^non-finite trace value -inf$"):
            codec.structure_decode([100.0, float("-inf"), float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^signal must be non-empty$"):
            codec.structure_decode([])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            codec.structure_decode([100], "bands")

    @given(structure_strings)
    @settings(max_examples=200, deadline=None)
    def test_nearest_centroid_round_trip(self, s):
        assert codec.structure_decode(codec.structure_encode(s)) == s

    def test_paper_bands_round_trip_breaks_on_coil(self):
        assert codec.structure_decode(codec.structure_encode("C"),
                                      "paper_bands") == "E"

    def test_huge_value_is_nearest_to_coil(self):
        # from 2**62 up, v - 200, v - 600 and v - 800 round to one float,
        # and a float distance would tie them and answer H
        assert codec.structure_decode([1e19]) == "C"
        assert codec.structure_decode([-1e19]) == "H"

    @given(decode_values)
    @settings(max_examples=500, deadline=None)
    def test_nearest_centroid_is_exactly_nearest(self, v):
        # exact distances, ties to the lower code
        codes = [(Fraction(200), "H"), (Fraction(600), "E"),
                 (Fraction(800), "C")]
        _, label = min(codes, key=lambda c: (abs(Fraction(v) - c[0]), c[0]))
        assert codec.structure_decode([v], "nearest_centroid") == label

    @given(decode_values)
    @settings(max_examples=500, deadline=None)
    def test_paper_bands_are_the_closed_bands(self, v):
        label = "H" if 0 <= v <= 200 else "E" if 600 <= v <= 800 else "C"
        assert codec.structure_decode([v], "paper_bands") == label


class TestWindowPatterns:
    def test_single_alanine(self):
        assert codec.window_patterns("A", 1) == [0b00000]

    def test_single_cysteine(self):
        assert codec.window_patterns("C", 1) == [0b00001]

    def test_pattern_count_and_width(self):
        pats = codec.window_patterns("MFRTKR", 3)
        assert len(pats) == 6
        assert all(0 <= p < 1 << 15 for p in pats)

    def test_terminal_padding(self):
        pad = (1, 0, 1, 0, 0)  # code 20
        first = unpack(codec.window_patterns("AC", 3)[0], 15)
        assert first[:5] == pad
        assert first[5:10] == (0, 0, 0, 0, 0)  # A
        assert first[10:] == (0, 0, 0, 0, 1)  # C

    def test_x_uses_pad_code(self):
        assert codec.window_patterns("X", 1) == [0b10100]

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            codec.window_patterns("ACD", 2)

    @pytest.mark.parametrize("w", [0, -1, True, 3.0, "3"])
    def test_window_must_be_an_odd_int(self, w):
        with pytest.raises(ValueError, match="odd integer >= 1"):
            codec.check_window(w)
        with pytest.raises(ValueError, match="odd integer >= 1"):
            codec.window_patterns("ACD", w)

    def test_window_has_a_ceiling(self):
        assert codec.check_window(codec.MAX_WINDOW) == codec.MAX_WINDOW
        for w in (codec.MAX_WINDOW + 2, codec.MAX_WINDOW + 4):
            with pytest.raises(ValueError, match="at most"):
                codec.check_window(w)
            with pytest.raises(ValueError, match="at most"):
                codec.window_patterns("ACD", w)

    @given(st.tuples(residues, residues).map("X".join),
           st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_residue_loop(self, seq, w):
        assert codec.window_patterns(seq, w) == \
            [pack(p) for p in per_residue_windows(seq, w)]

    def test_locality(self):
        a = codec.window_patterns("ACDEF", 3)
        b = codec.window_patterns("ACDEW", 3)
        # positions whose window excludes the changed tail are identical
        assert a[:3] == b[:3]
