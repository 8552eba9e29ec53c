import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmaca import dataio, maca
from psmaca.codec import AMINO_ACIDS, MAX_WINDOW, window_patterns
from psmaca.dataio import (
    Dataset,
    ModelFile,
    ProteinRecord,
    ParseError,
    parse_fasta,
    parse_paired,
)
from psmaca.maca import LabeledPattern, TreeConfig
from psmaca.pipeline import PipelineConfig


class TestProteinRecord:
    def test_structure_length_checked(self):
        with pytest.raises(ValueError):
            ProteinRecord("a", "ACDEF", "HHC")

    def test_sequence_alphabet_checked(self):
        with pytest.raises(ValueError):
            ProteinRecord("a", "ACZ")
        with pytest.raises(ValueError):
            ProteinRecord._make(("a", "ACZ"))
        with pytest.raises(ValueError):
            ProteinRecord("a", "ACD")._replace(sequence="ACZ")

    def test_duplicate_ids_rejected(self):
        r = ProteinRecord("a", "ACD")
        with pytest.raises(ValueError):
            Dataset((r, r))
        with pytest.raises(ValueError):
            Dataset._make([(r, r)])


class TestParseFasta:
    def test_single_record(self):
        records = parse_fasta(">a\nMFR\n")
        assert records == [ProteinRecord("a", "MFR")]

    def test_multiline_and_multiple(self):
        records = parse_fasta(">a\nMF\nRT\n>b\nKR\n")
        assert [r.sequence for r in records] == ["MFRT", "KR"]

    def test_illegal_residue_reports_position(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_fasta(">a\nMF1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_fasta("")

    def test_duplicate_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_fasta(">a\nMF\n>a\nKR\n")

    def test_lowercase_normalized(self):
        assert parse_fasta(">a\nmfr\n")[0].sequence == "MFR"


PAIRED = """>rec1
Amino Acids:
MFRT
Predicted Structure:
CCHH
"""


class TestParsePaired:
    def test_single_block(self):
        records = parse_paired(PAIRED)
        assert records == [ProteinRecord("rec1", "MFRT", "CCHH")]

    def test_plain_structure_header_accepted(self):
        text = PAIRED.replace("Predicted Structure:", "Structure:")
        assert parse_paired(text)[0].structure == "CCHH"

    def test_length_mismatch(self):
        with pytest.raises(ParseError,
                           match=r"record 'r' \(line 1\): structure length"):
            parse_paired(">r\nAmino Acids:\nMFRTK\nStructure:\nCCHH\n")

    def test_illegal_structure_char(self):
        with pytest.raises(ParseError):
            parse_paired(">r\nAmino Acids:\nMFRT\nStructure:\nCCQH\n")

    def test_annotation_lines_ignored(self):
        text = ">r\n# method: tree\nAmino Acids:\nMFRT\nStructure:\nCCHH\n"
        assert parse_paired(text)[0].id == "r"

    def test_wrapped_lines_joined(self):
        record = ProteinRecord("long", "ACDEFGHIKLMNPQRSTVWY" * 5, "H" * 100)
        text = dataio.format_paired(record)
        assert max(len(l) for l in text.splitlines()) <= 60
        assert parse_paired(text) == [record]

    def test_missing_structure_block(self):
        with pytest.raises(ParseError):
            parse_paired(">r\nAmino Acids:\nMFRT\n")


# one valid record per format, with its id left to fill in
FORMATS = {
    "fasta": (parse_fasta, ">{}\nMF\n"),
    "paired": (parse_paired, ">{}\nAmino Acids:\nMF\nStructure:\nHH\n"),
}


@pytest.mark.parametrize("parse, record", FORMATS.values(), ids=FORMATS)
class TestRecordReader:
    """The header, id and error rules both formats share."""

    def test_id_is_first_word_of_header(self, parse, record):
        [rec] = parse(record.format("rec extra words"))
        assert rec.id == "rec"

    def test_duplicate_id_names_line(self, parse, record):
        text = record.format("a") + "\n" + record.format("a")
        with pytest.raises(ParseError, match="duplicate id 'a' on line "):
            parse(text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        (" \n\t\n", "empty input"),
        ("MF\n{}", "header on line 1, got 'MF'"),
        ("\n> \n{}", "missing record id on line 2"),
    ], ids=["empty", "blank", "before-first-header", "no-id"])
    def test_malformed_input(self, parse, record, text, message):
        with pytest.raises(ParseError, match=message):
            parse(text.format(record.format("a")))

    @pytest.mark.parametrize("letter", ["ſ", "ı", "ﬁ", "ß"],
                             ids=["long-s", "dotless-i", "fi", "sharp-s"])
    def test_non_ascii_letter_is_not_uppercased(self, parse, record, letter):
        # str.upper() reads these as 'S', 'I', 'FI' and 'SS'; only ASCII a-z
        # is uppercased, so each fails at its own position
        for block, first, item in (("MF", "m", "residue"),
                                   ("HH", "h", "structure label")):
            if block in record:  # a FASTA record has no labels
                text = record.format("a").replace(block, first + letter)
                with pytest.raises(ParseError, match=f"illegal {item} "
                                   f"'{letter}' at position 1"):
                    parse(text)

    def test_record_error_names_record_and_line(self, parse, record):
        text = record.format("a") + record.format("b").replace("MF", "M1")
        with pytest.raises(ParseError,
                           match=r"record 'b' \(line \d+\): illegal residue"):
            parse(text)


def test_annotations_only_is_no_records():
    with pytest.raises(ParseError, match="no records found"):
        parse_paired("# method: tree\n")


# arbitrary text, plus text assembled from the formats' own line kinds so
# that most examples get past the first header
LINE_KINDS = [">a", ">b c", "> ", ">", "Amino Acids:", "Structure:",
              "predicted structure:", "# note", "MFRT", "hhe", "CC", "M1", ""]
ANY_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(LINE_KINDS), st.text(max_size=5)),
             max_size=12).map("\n".join))


@settings(max_examples=300, deadline=None)
@given(text=ANY_TEXT)
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_fasta, parse_paired):
        try:
            records = parse(text)
        except ParseError:
            continue
        assert records and all(isinstance(r, ProteinRecord) for r in records)


# an id is any run of printable non-space characters; a note any one line
IDS = st.text(st.characters(blacklist_categories=("C", "Z")), min_size=1)
NOTES = st.text(st.characters(blacklist_categories=("C", "Zl", "Zp")))


@st.composite
def paired_records(draw):
    sequence = draw(st.text("ACDEFGHIKLMNPQRSTVWYX", min_size=1, max_size=150))
    structure = draw(st.text("HEC", min_size=len(sequence),
                             max_size=len(sequence)))
    return ProteinRecord(draw(IDS), sequence, structure), draw(st.lists(NOTES))


@settings(max_examples=200, deadline=None)
@given(st.lists(paired_records(), min_size=1, max_size=4,
                unique_by=lambda pair: pair[0].id))
def test_generated_records_round_trip(pairs):
    records = [record for record, _ in pairs]
    paired = "\n".join(dataio.format_paired(r, notes) for r, notes in pairs)
    assert parse_paired(paired) == records
    fasta = "".join(f">{r.id}\n{r.sequence}\n" for r in records)
    assert parse_fasta(fasta) == [ProteinRecord(r.id, r.sequence)
                                  for r in records]


class TestQ3:
    def test_identical(self):
        row = dataio.q3("HHEECC", "HHEECC")
        assert row.q3 == 100.0
        assert row.per_class == {"H": 100.0, "E": 100.0, "C": 100.0}

    def test_fully_wrong(self):
        assert dataio.q3("HHHH", "EEEE").q3 == 0.0

    def test_half_match(self):
        row = dataio.q3("HHEE", "HHCC")
        assert row.q3 == 50.0
        assert row.per_class["H"] == 100.0
        assert row.per_class["C"] == 0.0
        assert row.per_class["E"] is None  # no E in the reference

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dataio.q3("HH", "HHH")

    def test_confusion_row_sums_match_support(self):
        row = dataio.q3("HECHEC", "HHEECC")
        for lab in "HEC":
            assert sum(row.confusion[lab].values()) == "HHEECC".count(lab)

    def test_aggregate(self):
        rows = [dataio.q3("HH", "HH", "a"), dataio.q3("EE", "CC", "b")]
        report = dataio.aggregate_metrics(rows)
        assert report.total.q3 == 50.0
        tsv = dataio.metrics_tsv(report)
        assert tsv.splitlines()[0] == "id\tq3\tqH\tqE\tqC"
        assert tsv.splitlines()[-1].startswith("ALL\t50.00")

    def test_report_bytes_pinned(self):
        # E has no support anywhere, and all three rows score 4/6
        report = dataio.aggregate_metrics([dataio.q3("HHE", "HHH", "a"),
                                           dataio.q3("CCH", "CCC", "b")])
        assert dataio.metrics_tsv(report) == (
            "id\tq3\tqH\tqE\tqC\n"
            "a\t66.67\t66.67\tNA\tNA\n"
            "b\t66.67\tNA\tNA\t66.67\n"
            "ALL\t66.67\t66.67\tNA\t66.67\n")
        third = 200 / 3
        none = {"H": 0, "E": 0, "C": 0}
        a_conf = {"H": {"H": 2, "E": 1, "C": 0}, "E": none, "C": none}
        b_conf = {"H": none, "E": none, "C": {"H": 1, "E": 0, "C": 2}}
        doc = {
            "q3": third,
            "per_class": {"H": third, "E": None, "C": third},
            "confusion": {"H": a_conf["H"], "E": none, "C": b_conf["C"]},
            "records": [
                {"id": "a", "q3": third, "confusion": a_conf,
                 "per_class": {"H": third, "E": None, "C": None}},
                {"id": "b", "q3": third, "confusion": b_conf,
                 "per_class": {"H": None, "E": None, "C": third}},
            ],
        }
        text = dataio.metrics_json(report)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert '"E": null' in text and '"q3": 66.66666666666667' in text

    def test_comparison_table_shape(self):
        table = dataio.comparison_tsv("bench", 83.25)
        lines = table.strip().splitlines()
        assert len(lines) == 6
        assert lines[-1] == "PSMACA\t83.25"
        assert all(l.endswith("NA") for l in lines[1:5])

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\r\nb", "a\x0bb",
                                      "a\u2028b", "ab\n"])
    def test_comparison_name_with_a_tab_or_line_break_rejected(self, name):
        # each would add a column or split the header over two lines
        with pytest.raises(ValueError, match="tab or a line break"):
            dataio.comparison_tsv(name, 83.25)


def small_model():
    # window 1: one residue, so 5-bit patterns
    pats = [LabeledPattern(0b00000, "C"),
            LabeledPattern(0b11000, "H"),
            LabeledPattern(0b01000, "H"),
            LabeledPattern(0b10000, "C")]
    tree = maca.build_tree(pats, 5,
                           TreeConfig(population_size=10, generations=10),
                           rng_seed=3)
    return ModelFile(
        tree=tree, window=1, pipeline=PipelineConfig(),
        seed=3, training_fingerprint=dataio.fingerprint("x"))


class TestTreeSerialization:
    def test_round_trip(self):
        # window 1: 5-bit patterns, labeled by the parity of the top two bits
        rng = random.Random(11)
        pats = [LabeledPattern(code, "HE"[(code >> 3).bit_count() & 1])
                for code in (rng.randrange(1 << 5) for _ in range(40))]
        tree = maca.build_tree(pats, 5, TreeConfig(population_size=20,
                                                   generations=25), rng_seed=11)
        assert not tree.root.is_leaf
        rebuilt = dataio.tree_from_dict(dataio.tree_to_dict(tree), window=1)
        assert dataio.tree_to_dict(rebuilt) == dataio.tree_to_dict(tree)
        for p in pats:
            assert maca.classify(rebuilt, p.code) == maca.classify(tree, p.code)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        assert dataio.tree_to_dict(loaded.tree) == \
            dataio.tree_to_dict(model.tree)
        assert loaded.pipeline == model.pipeline
        assert loaded.training_fingerprint == model.training_fingerprint

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.json"
        dataio.save_model(small_model(), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(dataio.ModelFormatError, match="corrupted"):
            dataio.load_model(path)

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "model.json"
        dataio.save_model(small_model(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(dataio.ModelFormatError, match="99.*1"):
            dataio.load_model(path)

    def test_json_list_is_format_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[]")
        with pytest.raises(dataio.ModelFormatError, match="JSON list"):
            dataio.load_model(path)

    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc.pop("window"), "lacks window"),
        (lambda doc: doc["pipeline"].update(zzz=1), "zzz"),
        (lambda doc: doc["tree"]["config"].update(zzz=1), "zzz"),
        (lambda doc: doc["tree"]["root"].pop("label"), "node lacks label"),
        (lambda doc: doc.update(window=2), "odd integer >= 1, got 2"),
        (lambda doc: doc.update(window=True), "odd integer >= 1, got True"),
        (lambda doc: doc.update(window=MAX_WINDOW + 2), "at most"),
    ], ids=["no-window", "pipeline-key", "tree-config-key", "node-label",
            "window-even", "window-bool", "window-over-ceiling"])
    def test_malformed_model_names_the_problem(self, tmp_path, edit, problem):
        path = tmp_path / "model.json"
        dataio.save_model(small_model(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(dataio.ModelFormatError, match=problem):
            dataio.load_model(path)

    def test_deeply_nested_file_is_format_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"tree": ' + "[" * 5000 + "]" * 5000 + "}")
        with pytest.raises(dataio.ModelFormatError, match="corrupted"):
            dataio.load_model(path)

    def test_saved_bytes_pinned(self, tmp_path):
        text = dataio.dataset_to_paired_text(dataio.make_toy_dataset(3, 12))
        patterns = [LabeledPattern(code, label)
                    for r in parse_paired(text)
                    for code, label in zip(window_patterns(r.sequence, 5),
                                           r.structure)]
        tree = maca.build_tree(patterns, 25, TreeConfig(population_size=4,
                                                        generations=2),
                               rng_seed=0)
        path = tmp_path / "model.json"
        dataio.save_model(ModelFile(tree, 5, PipelineConfig(), 0,
                                    dataio.fingerprint(text)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d1a6ee517a561484076990f9d811816ca79a60a750508250e8d9ea44d25f5e30")

    def test_deep_model_bytes_pinned(self, tmp_path):
        # deep enough for three-class nodes, so GA splits with m >= 2
        text = dataio.dataset_to_paired_text(
            dataio.make_toy_dataset(12, 40, seed=3))
        patterns = [LabeledPattern(code, label)
                    for r in parse_paired(text)
                    for code, label in zip(window_patterns(r.sequence, 5),
                                           r.structure)]
        tree = maca.build_tree(patterns, 25,
                               TreeConfig(population_size=8, generations=6,
                                          max_depth=6), rng_seed=0)
        nodes, internal = [tree.root], []
        while nodes:
            node = nodes.pop()
            nodes.extend(node.children.values())
            if not node.is_leaf:
                internal.append(node.ds.m)
        assert len(internal) > 100 and max(internal) >= 2
        path = tmp_path / "model.json"
        dataio.save_model(ModelFile(tree, 5, PipelineConfig(), 0,
                                    dataio.fingerprint(text)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0880014bd71ac35b6bab93fb5f3e95f701369ff3ce6af1f9ed360ccad62579ab")

    def test_save_is_deterministic(self, tmp_path):
        model = small_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dataio.save_model(model, a)
        dataio.save_model(model, b)
        assert a.read_bytes() == b.read_bytes()


class TestToyDatasets:
    def test_generator_is_seeded(self):
        assert dataio.make_toy_dataset(5, 9, 7) == dataio.make_toy_dataset(5, 9, 7)
        assert dataio.make_toy_dataset(5, 9, 7) != dataio.make_toy_dataset(5, 9, 8)

    def test_impulse_shape(self):
        d = dataio.make_impulse_dataset(8, 9, 0)
        for r in d.records:
            assert len(r.sequence) == 9
            assert r.sequence[1:] == "X" * 8
            assert r.sequence[0] != "X"

    def test_impulse_record_cap(self):
        with pytest.raises(ValueError):
            dataio.make_impulse_dataset(21)

    def test_toy_record_cap(self):
        # 20 residues give only 20 distinct sequences of length 1
        with pytest.raises(ValueError, match="distinct"):
            dataio.make_toy_dataset(21, 1)

    def test_toy_alphabet_exhausted(self):
        sequences = [r.sequence for r in dataio.make_toy_dataset(20, 1).records]
        assert sorted(sequences) == list(AMINO_ACIDS)

    def test_round_trip_through_paired_text(self):
        d = dataio.make_toy_dataset(6, 9, 1)
        assert parse_paired(dataio.dataset_to_paired_text(d)) == list(d.records)

    def test_bundled_files_parse(self):
        from importlib import resources
        for name in ("toy_dataset.txt", "impulse_dataset.txt"):
            text = (resources.files("psmaca") / "data" / name).read_text()
            assert len(parse_paired(text)) == 8
