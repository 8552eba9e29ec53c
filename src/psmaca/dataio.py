"""Data ingestion, Q3 metrics, and model persistence.

Formats: FASTA for bare sequences, a paired two-block text format for
sequence/structure records ("Amino Acids:" block followed by a structure
block), versioned JSON model files, and TSV/JSON metric reports.  Files
are read with read_text and written with write_text, both UTF-8.  A Q3
score is one MetricsRow, per record or pooled over a report's records as
its TOTAL_ID ("ALL") row.  Every record is a `NamedTuple`; a ProteinRecord
and a Dataset check their fields on every path that builds one
(`record.checked`).
"""

from __future__ import annotations

import json
import random
import re
import string
from collections import Counter
from itertools import repeat
from typing import NamedTuple

from . import codec, maca
from .codec import (AMINO_ACIDS, RESIDUE_BITS, STRUCTURE_LABELS,
                    check_sequence, check_structure, check_window)
from .pipeline import KMER_SIZE, RIDGE, PipelineConfig
from .record import checked

MODEL_FORMAT_VERSION = 1
WRAP_COLUMNS = 60
# the id of a report's pooled row, so no evaluated record may take it
TOTAL_ID = "ALL"


class ParseError(ValueError):
    pass


@checked
class ProteinRecord(NamedTuple):
    id: str
    sequence: str
    structure: str | None = None

    def _check(self):
        check_sequence(self.sequence)
        if self.structure is not None:
            check_structure(self.structure)
            if len(self.structure) != len(self.sequence):
                raise ValueError(
                    f"structure length {len(self.structure)} != "
                    f"sequence length {len(self.sequence)}")


@checked
class Dataset(NamedTuple):
    records: tuple[ProteinRecord, ...]

    def _check(self):
        ids = [r.id for r in self.records]
        if len(ids) != len(set(ids)):
            raise ValueError("dataset ids must be unique")


def read_text(path) -> str:
    """A file's UTF-8 text; failing to read or decode it is a ParseError
    that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 text "
                         f"({e.reason} at byte {e.start})") from None


def write_text(path, text: str) -> None:
    """Write text to a file as UTF-8 with "\\n" line ends: the
    counterpart of read_text."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _lines(text: str) -> list[tuple[int, str]]:
    """The stripped, non-blank lines of text, each with its line number."""
    if not text.strip():
        raise ParseError("empty input")
    return [(no, line.strip()) for no, line in enumerate(text.splitlines(), 1)
            if line.strip()]


_ASCII_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)


def _join(lines: list[str]) -> str:
    # ASCII letters only: str.upper() folds 'ſ' into 'S' and 'ß' into 'SS',
    # where such a letter must fail as a residue or label of its own
    return "".join("".join(lines).split()).translate(_ASCII_UPPER)


def _read_records(lines: list[tuple[int, str]], build) -> list[ProteinRecord]:
    """Split numbered lines at '>' header lines and make one record of each
    with build(id, body lines).  The id is the header's first word."""
    if not lines:
        raise ParseError("no records found")
    if not lines[0][1].startswith(">"):
        raise ParseError(f"expected a '>' header on line {lines[0][0]}, "
                         f"got {lines[0][1]!r}")
    starts = [i for i, (_, line) in enumerate(lines) if line.startswith(">")]
    records, seen = [], set()
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        line_no, header = lines[start]
        words = header[1:].split()
        if not words:
            raise ParseError(f"missing record id on line {line_no}")
        rec_id = words[0]
        if rec_id in seen:
            raise ParseError(f"duplicate id {rec_id!r} on line {line_no}")
        seen.add(rec_id)
        body = [line for _, line in lines[start + 1:end]]
        try:
            records.append(build(rec_id, body))
        except ValueError as e:
            raise ParseError(f"record {rec_id!r} (line {line_no}): {e}") from None
    return records


def parse_fasta(text: str) -> list[ProteinRecord]:
    """Parse FASTA text: '>' headers delimit records, sequence lines are
    concatenated and uppercased (ASCII a-z only), whitespace ignored."""
    return _read_records(_lines(text),
                         lambda rec_id, body: ProteinRecord(rec_id, _join(body)))


_SEQ_HEADER = re.compile(r"^Amino Acids:\s*$", re.IGNORECASE)
_STRUCT_HEADER = re.compile(r"^(Predicted )?Structure:\s*$", re.IGNORECASE)


def _paired_record(rec_id: str, body: list[str]) -> ProteinRecord:
    if not body or not _SEQ_HEADER.match(body[0]):
        raise ParseError("expected an 'Amino Acids:' header after the id line")
    cut = next((i for i, line in enumerate(body) if _STRUCT_HEADER.match(line)),
               None)
    if cut is None:
        raise ParseError("no structure block")
    return ProteinRecord(rec_id, _join(body[1:cut]), _join(body[cut + 1:]))


def parse_paired(text: str) -> list[ProteinRecord]:
    """Parse repeated blocks: '>' id line, an 'Amino Acids:' block, then a
    'Structure:' (or 'Predicted Structure:') block of H/E/C lines.
    Lines starting with '#' are annotations and are ignored."""
    lines = [(no, line) for no, line in _lines(text) if not line.startswith("#")]
    return _read_records(lines, _paired_record)


def _wrap(s: str) -> str:
    return "\n".join(s[i:i + WRAP_COLUMNS] for i in range(0, len(s), WRAP_COLUMNS))


def format_paired(record: ProteinRecord, annotations: list[str] | None = None) -> str:
    """Emit a record in the paired two-block format, wrapped at 60 columns."""
    if record.structure is None:
        raise ValueError("record has no structure to format")
    lines = [f">{record.id}"]
    for note in annotations or []:
        lines.append(f"# {note}")
    lines.append("Amino Acids:")
    lines.append(_wrap(record.sequence))
    lines.append("Predicted Structure:")
    lines.append(_wrap(record.structure))
    return "\n".join(lines) + "\n"


class MetricsRow(NamedTuple):
    record_id: str
    q3: float
    per_class: dict[str, float | None]  # H/E/C accuracy; None when no support
    confusion: dict[str, dict[str, int]]  # actual -> predicted -> count


def _scored(record_id: str, pairs: Counter) -> MetricsRow:
    """The row of (actual, predicted) label-pair counts: Q3 over all
    positions, and per-class accuracy over the positions whose actual label
    is that class."""
    confusion = {a: {p: pairs[a, p] for p in STRUCTURE_LABELS}
                 for a in STRUCTURE_LABELS}
    per_class: dict[str, float | None] = {}
    for lab in STRUCTURE_LABELS:
        support = sum(confusion[lab].values())
        per_class[lab] = 100.0 * confusion[lab][lab] / support if support else None
    matches = sum(confusion[lab][lab] for lab in STRUCTURE_LABELS)
    return MetricsRow(record_id, 100.0 * matches / sum(pairs.values()),
                      per_class, confusion)


def q3(predicted: str, actual: str, record_id: str = "") -> MetricsRow:
    """Per-record Q3: percentage of matching positions, plus per-class
    accuracy over positions whose actual label is that class."""
    check_structure(predicted)
    check_structure(actual)
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: predicted {len(predicted)} vs actual {len(actual)}")
    return _scored(record_id, Counter(zip(actual, predicted)))


class MetricsReport(NamedTuple):
    rows: tuple[MetricsRow, ...]
    total: MetricsRow  # the TOTAL_ID row, scored over every row's positions


def aggregate_metrics(rows: list[MetricsRow]) -> MetricsReport:
    if not rows:
        raise ValueError("no metric rows to aggregate")
    pooled = Counter()
    for row in rows:
        pooled.update({(a, p): n for a, preds in row.confusion.items()
                       for p, n in preds.items()})
    return MetricsReport(tuple(rows), _scored(TOTAL_ID, pooled))


def _fmt(v: float | None) -> str:
    return "NA" if v is None else f"{v:.2f}"


def metrics_tsv(report: MetricsReport) -> str:
    lines = ["id\tq3\tqH\tqE\tqC"]
    for row in (*report.rows, report.total):
        lines.append("\t".join([row.record_id, f"{row.q3:.2f}",
                                *(_fmt(row.per_class[lab])
                                  for lab in STRUCTURE_LABELS)]))
    return "\n".join(lines) + "\n"


def _row_json(row: MetricsRow) -> dict:
    return {"q3": row.q3, "per_class": row.per_class,
            "confusion": row.confusion}


def metrics_json(report: MetricsReport) -> str:
    doc = {**_row_json(report.total),
           "records": [{"id": r.record_id, **_row_json(r)}
                       for r in report.rows]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


COMPARISON_METHODS = ("DSP", "PHD", "SAM-T99", "SSPro", "PSMACA")


def tsv_cell(text: str, what: str) -> str:
    """One TSV cell: a tab or a line break would add a column or a row."""
    if "\t" in text or "".join(text.splitlines()) != text:
        raise ValueError(f"{what} {text!r} holds a tab or a line break")
    return text


def comparison_tsv(dataset_name: str, psmaca_q3: float) -> str:
    """Comparison-table skeleton: one accuracy column per dataset, one row
    per method; only the PSMACA row is populated here."""
    name = tsv_cell(dataset_name, "dataset name") or "dataset"
    lines = [f"method\t{name} accuracy (%)"]
    for method in COMPARISON_METHODS:
        value = f"{psmaca_q3:.2f}" if method == "PSMACA" else "NA"
        lines.append(f"{method}\t{value}")
    return "\n".join(lines) + "\n"


def fingerprint(text: str) -> str:
    import hashlib  # deferred: the tree route never fingerprints

    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class ModelFormatError(ValueError):
    pass


class ModelFile(NamedTuple):
    tree: maca.PsmacaTree
    window: int
    pipeline: PipelineConfig
    seed: int  # the rng_seed the tree was built with
    training_fingerprint: str


# the GA settings of tree.config that the ga_config block echoes
_GA_FIELDS = ("population_size", "generations", "crossover_rate",
              "mutation_rate", "elitism_count")
# the keys format version 1 writes beside each config's fields, each with
# the constant it must hold
_FIXED = {maca.TreeConfig: {"split_retries": maca.SPLIT_RETRIES},
          PipelineConfig: {"ridge": RIDGE, "kmer_size": KMER_SIZE,
                           "scale_name": codec.HYDROPATHY_SCALE}}
_LABELS = tuple(STRUCTURE_LABELS)  # `in` on the string would accept "HE"


def tree_to_dict(tree: maca.PsmacaTree) -> dict:
    """JSON-ready form of a tree; a child key is its signature's m digits."""

    def node_to_dict(node: maca.TreeNode) -> dict:
        if node.is_leaf:
            return {"label": node.label}
        return {"label": node.label, "ds": node.ds.bit_strings(),
                "children": {format(sig, f"0{node.ds.m}b"): node_to_dict(child)
                             for sig, child in node.children.items()}}

    return {"n": tree.n,
            "config": {**tree.config._asdict(), **_FIXED[maca.TreeConfig]},
            "root": node_to_dict(tree.root)}


def _check_keys(doc, keys: set, where: str) -> None:
    """Reject a JSON value that is not an object with exactly `keys`."""
    if not isinstance(doc, dict):
        raise ModelFormatError(
            f"{where} must be an object, got {type(doc).__name__}")
    if doc.keys() != keys:
        for problem, names in (("lacks", keys - doc.keys()),
                               ("has unknown key", doc.keys() - keys)):
            if names:
                raise ModelFormatError(
                    f"{where} {problem} {', '.join(sorted(names))}")


def _check_values(doc: dict, values: dict, where: str) -> None:
    """Reject an object whose keys do not hold `values`, type and all."""
    for name, value in values.items():
        got = doc[name]
        if type(got) is not type(value) or got != value:
            raise ModelFormatError(f"{where} {name} must be {value!r}, "
                                   f"got {got!r}")


def _config(cls, doc, where: str):
    _check_keys(doc, {*cls._fields, *_FIXED[cls]}, where)
    _check_values(doc, _FIXED[cls], where)
    return cls(**{name: doc[name] for name in cls._fields})


def _node_from_dict(doc, n: int) -> maca.TreeNode:
    # recursive: JSON nesting caps a tree's depth at half the recursion limit
    leaf = isinstance(doc, dict) and "ds" not in doc
    _check_keys(doc, {"label"} if leaf else {"label", "ds", "children"},
                "model tree node")
    if doc["label"] not in _LABELS:
        raise ModelFormatError(f"model tree label {doc['label']!r} is not "
                               f"one of {STRUCTURE_LABELS}")
    if leaf:
        return maca.TreeNode(doc["label"])
    if type(doc["ds"]) is not list or type(doc["children"]) is not dict:
        raise ModelFormatError(
            "model tree node needs a ds list and a children object")
    ds = maca.DependencyString.from_bit_strings(doc["ds"])
    if ds.n != n:
        raise ModelFormatError(f"model tree node's dependency string covers "
                               f"{ds.n} bits, not the tree's {n}")
    children = {}
    for sig, child in doc["children"].items():
        if len(sig) != ds.m or sig.strip("01"):
            raise ModelFormatError(
                f"model tree child key {sig!r} is not a {ds.m}-bit signature")
        children[int(sig, 2)] = _node_from_dict(child, n)
    return maca.TreeNode(doc["label"], ds, children)


def tree_from_dict(doc, window: int) -> maca.PsmacaTree:
    """Decode and check a model's tree in one walk, for 5 * window bits."""
    _check_keys(doc, {"n", "config", "root"}, "model tree")
    n = doc["n"]
    if type(n) is not int or n != RESIDUE_BITS * window:
        raise ModelFormatError(
            f"model tree n is {n!r}, but window {window} makes patterns "
            f"{RESIDUE_BITS * window} bits wide")
    config = _config(maca.TreeConfig, doc["config"], "model tree.config")
    return maca.PsmacaTree(_node_from_dict(doc["root"], n), n, config)


def save_model(model: ModelFile, path: str) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "window": model.window,
        "tree": tree_to_dict(model.tree),
        "pipeline": {**model.pipeline._asdict(), **_FIXED[PipelineConfig]},
        "ga_config": {**{name: getattr(model.tree.config, name)
                         for name in _GA_FIELDS}, "rng_seed": model.seed},
        "training_fingerprint": model.training_fingerprint,
    }
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path: str) -> ModelFile:
    text = read_text(path)
    try:  # ValueError: also an int past the interpreter's digit limit
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ModelFormatError(f"corrupted model file: {e}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(
            f"model file holds a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    # exact type: true and 1.0 equal 1, but no writer puts either in a file
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}")
    _check_keys(doc, {"format_version", "window", "tree", "pipeline",
                      "ga_config", "training_fingerprint"}, "model file")
    window = doc["window"]
    fingerprint = doc["training_fingerprint"]
    if not isinstance(fingerprint, str):
        raise ModelFormatError("model training_fingerprint must be a str, "
                               f"got {type(fingerprint).__name__}")
    try:
        tree = tree_from_dict(doc["tree"], check_window(window))
        pipeline = _config(PipelineConfig, doc["pipeline"], "model pipeline")
    except ValueError as e:
        raise ModelFormatError(f"malformed model file: {e}") from None
    echo = doc["ga_config"]
    _check_keys(echo, {*_GA_FIELDS, "rng_seed"}, "model ga_config")
    try:  # the rule build_tree applies to the seed it is given
        seed = maca._check_seed(echo["rng_seed"])
    except ValueError as e:
        raise ModelFormatError(f"model ga_config rng_seed: {e}") from None
    _check_values(echo, {name: getattr(tree.config, name)
                         for name in _GA_FIELDS}, "model ga_config")
    return ModelFile(tree=tree, window=window, pipeline=pipeline, seed=seed,
                     training_fingerprint=fingerprint)


# getrandbits(5) values 0-19 are residues, in AMINO_ACIDS order; 20-31 are
# the values rng.choice(AMINO_ACIDS) rejects and draws again
_RESIDUE_OF = bytes.maketrans(bytes(range(len(AMINO_ACIDS))),
                              AMINO_ACIDS.encode())
_REJECTED = bytes(range(len(AMINO_ACIDS), 32))


def _residues(length: int, rng: random.Random) -> str:
    """`length` residues, with the draws of `length` calls of
    `rng.choice(AMINO_ACIDS)`: each batch asks only for the residues still
    missing, so it makes no draw that those calls would not make."""
    seq = b""
    while len(seq) < length:
        draws = bytes(map(rng.getrandbits, repeat(5, length - len(seq))))
        seq += draws.translate(_RESIDUE_OF, _REJECTED)
    return seq.decode()


def _label_runs(length: int, rng: random.Random) -> str:
    """`length` H/E/C labels in runs of 2-4, closer to real secondary
    structure than independent draws.  A run makes the draws of
    `rng.choice("HEC") * rng.randint(2, 4)`: each is `maca._below(rng, 3)`
    inline, `getrandbits(2)` drawn again until it is not 3."""
    getrandbits = rng.getrandbits
    labels = ""
    while len(labels) < length:
        label = getrandbits(2)
        while label == 3:
            label = getrandbits(2)
        run = getrandbits(2)
        while run == 3:
            run = getrandbits(2)
        labels += "HEC"[label] * (2 + run)
    return labels[:length]


def make_toy_dataset(n_records: int = 8, length: int = 9,
                     seed: int = 0) -> Dataset:
    """Seeded synthetic sequence/structure pairs.

    Each sequence has exactly `length` residues drawn from the canonical
    alphabet.  With length equal to the pipeline's filter length the
    deconvolution system is exactly invertible (lower-triangular with a
    nonzero diagonal), so predicting a training record against itself
    reproduces its structure exactly.

    The draws are those of `rng.choice` and `rng.randint` on
    `random.Random(seed)`, made straight from `getrandbits`: per record,
    `rng.choice(AMINO_ACIDS)` per residue (a sequence already drawn is
    drawn again whole), then per label run `rng.choice("HEC")` and
    `rng.randint(2, 4)`.  Every pinned digest built on toy data depends
    on these draws: `perfbench/golden.json`, `tests/test_golden.py` and
    the model pins in `tests/test_dataio.py`.
    """
    if n_records > len(AMINO_ACIDS) ** length:
        raise ValueError(f"at most {len(AMINO_ACIDS)}^{length} distinct "
                         f"sequences of length {length} exist")
    rng = random.Random(seed)
    records = []
    seen_seqs: set[str] = set()
    for i in range(n_records):
        seq = _residues(length, rng)
        while seq in seen_seqs:
            seq = _residues(length, rng)
        seen_seqs.add(seq)
        records.append(ProteinRecord(f"toy{i:02d}", seq,
                                     _label_runs(length, rng)))
    return Dataset(tuple(records))


def make_impulse_dataset(n_records: int = 8, length: int = 9,
                         seed: int = 0) -> Dataset:
    """Impulse-construction dataset: one strongly hydropathic residue
    followed by 'X' (hydropathy 0), so each input signal is an impulse and
    the deconvolution normal matrix is diagonal.  Predicting any record
    against itself reproduces its structure exactly."""
    if n_records > len(AMINO_ACIDS):
        raise ValueError("at most 20 distinct impulse sequences exist")
    rng = random.Random(seed)
    heads = rng.sample(AMINO_ACIDS, n_records)
    records = []
    for i, head in enumerate(heads):
        records.append(ProteinRecord(
            f"imp{i:02d}", head + "X" * (length - 1), _label_runs(length, rng)))
    return Dataset(tuple(records))


def dataset_to_paired_text(dataset: Dataset) -> str:
    return "\n".join(format_paired(r) for r in dataset.records)
