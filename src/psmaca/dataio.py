"""Data ingestion, Q3 metrics, and model persistence.

Formats: FASTA for bare sequences, a paired two-block text format for
sequence/structure records ("Amino Acids:" block followed by a structure
block), versioned JSON model files, and TSV metric reports.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass, fields

from . import maca
from .codec import (RESIDUE_BITS, STRUCTURE_LABELS, check_sequence,
                    check_structure)
from .pipeline import PipelineConfig

MODEL_FORMAT_VERSION = 1
WRAP_COLUMNS = 60


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ProteinRecord:
    id: str
    sequence: str
    structure: str | None = None

    def __post_init__(self):
        check_sequence(self.sequence)
        if self.structure is not None:
            check_structure(self.structure)
            if len(self.structure) != len(self.sequence):
                raise ValueError(
                    f"record {self.id!r}: structure length "
                    f"{len(self.structure)} != sequence length {len(self.sequence)}")


@dataclass(frozen=True)
class Dataset:
    records: tuple[ProteinRecord, ...]
    name: str = ""

    def __post_init__(self):
        ids = [r.id for r in self.records]
        if len(ids) != len(set(ids)):
            raise ValueError("dataset ids must be unique")


def parse_fasta(text: str) -> list[ProteinRecord]:
    """Parse FASTA text: '>' headers delimit records, sequence lines are
    concatenated and uppercased, whitespace ignored."""
    if not text.strip():
        raise ParseError("empty FASTA input")
    records: list[ProteinRecord] = []
    seen: set[str] = set()
    current_id: str | None = None
    chunks: list[str] = []

    def flush(line_no: int):
        if current_id is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise ParseError(f"record {current_id!r} has no sequence (line {line_no})")
        try:
            records.append(ProteinRecord(current_id, seq))
        except ValueError as e:
            raise ParseError(f"record {current_id!r}: {e}") from None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush(line_no)
            current_id = line[1:].split()[0] if line[1:].split() else ""
            if not current_id:
                raise ParseError(f"missing record id on line {line_no}")
            if current_id in seen:
                raise ParseError(f"duplicate id {current_id!r} on line {line_no}")
            seen.add(current_id)
            chunks = []
        else:
            if current_id is None:
                raise ParseError(f"sequence before first header on line {line_no}")
            chunks.append("".join(line.split()).upper())
    flush(len(text.splitlines()))
    if not records:
        raise ParseError("no FASTA records found")
    return records


_SEQ_HEADER = re.compile(r"^Amino Acids:\s*$", re.IGNORECASE)
_STRUCT_HEADER = re.compile(r"^(Predicted )?Structure:\s*$", re.IGNORECASE)


def parse_paired(text: str) -> list[ProteinRecord]:
    """Parse repeated blocks: '>' id line, an 'Amino Acids:' block, then a
    'Structure:' (or 'Predicted Structure:') block of H/E/C lines.
    Lines starting with '#' are annotations and are ignored."""
    if not text.strip():
        raise ParseError("empty paired-format input")
    records: list[ProteinRecord] = []
    seen: set[str] = set()
    lines = [l.strip() for l in text.splitlines()]
    i = 0

    def skip_blank(i: int) -> int:
        while i < len(lines) and (not lines[i] or lines[i].startswith("#")):
            i += 1
        return i

    while True:
        i = skip_blank(i)
        if i >= len(lines):
            break
        if not lines[i].startswith(">"):
            raise ParseError(f"expected '>' id line at line {i + 1}, got {lines[i]!r}")
        rec_id = lines[i][1:].strip()
        if not rec_id:
            raise ParseError(f"missing record id on line {i + 1}")
        if rec_id in seen:
            raise ParseError(f"duplicate id {rec_id!r} on line {i + 1}")
        seen.add(rec_id)
        i = skip_blank(i + 1)
        if i >= len(lines) or not _SEQ_HEADER.match(lines[i]):
            raise ParseError(f"expected 'Amino Acids:' header at line {i + 1}")
        i += 1
        seq_parts: list[str] = []
        while i < len(lines) and not _STRUCT_HEADER.match(lines[i]):
            if lines[i].startswith(">"):
                raise ParseError(f"record {rec_id!r} has no structure block")
            if lines[i] and not lines[i].startswith("#"):
                seq_parts.append("".join(lines[i].split()).upper())
            i += 1
        if i >= len(lines):
            raise ParseError(f"record {rec_id!r} has no structure block")
        i += 1
        struct_parts: list[str] = []
        while i < len(lines) and not lines[i].startswith(">"):
            if lines[i] and not lines[i].startswith("#"):
                struct_parts.append("".join(lines[i].split()).upper())
            i += 1
        try:
            records.append(ProteinRecord(rec_id, "".join(seq_parts),
                                         "".join(struct_parts)))
        except ValueError as e:
            raise ParseError(str(e)) from None
    if not records:
        raise ParseError("no paired records found")
    return records


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


@dataclass(frozen=True)
class MetricsRow:
    record_id: str
    q3: float
    per_class: dict[str, float | None]  # H/E/C accuracy; None when no support
    confusion: dict[str, dict[str, int]]  # actual -> predicted -> count


def _empty_confusion() -> dict[str, dict[str, int]]:
    return {a: {p: 0 for p in STRUCTURE_LABELS} for a in STRUCTURE_LABELS}


def _score(confusion) -> tuple[float, dict[str, float | None]]:
    """Q3 over all positions, and per-class accuracy over the positions
    whose actual label is that class, of one confusion matrix."""
    per_class: dict[str, float | None] = {}
    for lab in STRUCTURE_LABELS:
        support = sum(confusion[lab].values())
        per_class[lab] = 100.0 * confusion[lab][lab] / support if support else None
    total = sum(sum(r.values()) for r in confusion.values())
    matches = sum(confusion[lab][lab] for lab in STRUCTURE_LABELS)
    return 100.0 * matches / total, per_class


def q3(predicted: str, actual: str, record_id: str = "") -> MetricsRow:
    """Per-record Q3: percentage of matching positions, plus per-class
    accuracy over positions whose actual label is that class."""
    check_structure(predicted)
    check_structure(actual)
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: predicted {len(predicted)} vs actual {len(actual)}")
    confusion = _empty_confusion()
    for p, a in zip(predicted, actual):
        confusion[a][p] += 1
    return MetricsRow(record_id, *_score(confusion), confusion)


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[MetricsRow, ...]
    q3: float
    per_class: dict[str, float | None]
    confusion: dict[str, dict[str, int]]


def aggregate_metrics(rows: list[MetricsRow]) -> MetricsReport:
    if not rows:
        raise ValueError("no metric rows to aggregate")
    confusion = _empty_confusion()
    for row in rows:
        for a in STRUCTURE_LABELS:
            for p in STRUCTURE_LABELS:
                confusion[a][p] += row.confusion[a][p]
    return MetricsReport(tuple(rows), *_score(confusion), confusion)


def _fmt(v: float | None) -> str:
    return "NA" if v is None else f"{v:.2f}"


def _tsv_row(name: str, scored) -> str:
    return "\t".join([name, f"{scored.q3:.2f}",
                      *(_fmt(scored.per_class[lab]) for lab in STRUCTURE_LABELS)])


def metrics_tsv(report: MetricsReport) -> str:
    lines = ["id\tq3\tqH\tqE\tqC"]
    lines.extend(_tsv_row(row.record_id, row) for row in report.rows)
    lines.append(_tsv_row("ALL", report))
    return "\n".join(lines) + "\n"


def metrics_json(report: MetricsReport) -> str:
    doc = {
        "q3": report.q3,
        "per_class": report.per_class,
        "confusion": report.confusion,
        "records": [
            {"id": r.record_id, "q3": r.q3, "per_class": r.per_class,
             "confusion": r.confusion}
            for r in report.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


COMPARISON_METHODS = ("DSP", "PHD", "SAM-T99", "SSPro", "PSMACA")


def comparison_tsv(dataset_name: str, psmaca_q3: float) -> str:
    """Comparison-table skeleton: one accuracy column per dataset, one row
    per method; only the PSMACA row is populated here."""
    lines = [f"method\t{dataset_name or 'dataset'} accuracy (%)"]
    for method in COMPARISON_METHODS:
        value = f"{psmaca_q3:.2f}" if method == "PSMACA" else "NA"
        lines.append(f"{method}\t{value}")
    return "\n".join(lines) + "\n"


def fingerprint(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ModelFile:
    tree: maca.PsmacaTree
    window: int
    pipeline: PipelineConfig
    ga_config: dict
    training_fingerprint: str


def save_model(model: ModelFile, path: str) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "window": model.window,
        "tree": maca.tree_to_dict(model.tree),
        "pipeline": asdict(model.pipeline),
        "ga_config": model.ga_config,
        "training_fingerprint": model.training_fingerprint,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_tree(tree: maca.PsmacaTree, window) -> None:
    """Reject a tree that could not classify this model's windows: a window
    that is not a positive odd int, a tree width that is not the int 5 *
    window, a node whose dependency string has another width, a child key
    that is not an m-bit signature, or a label outside HEC."""
    if type(window) is not int or window < 1 or window % 2 == 0:
        raise ModelFormatError(
            f"model window must be a positive odd integer, got {window!r}")
    if type(tree.n) is not int:
        raise ModelFormatError(
            f"model tree n must be an integer, got {tree.n!r}")
    if tree.n != RESIDUE_BITS * window:
        raise ModelFormatError(
            f"model window {window} gives {RESIDUE_BITS * window}-bit "
            f"patterns, but the tree is {tree.n!r} bits wide")
    labels = tuple(STRUCTURE_LABELS)  # `in` on the string would accept "HE"
    nodes = [tree.root]
    while nodes:
        node = nodes.pop()
        if node.label not in labels:
            raise ModelFormatError(
                f"model tree label {node.label!r} is not one of {STRUCTURE_LABELS}")
        if node.is_leaf:
            continue
        if node.ds.n != tree.n:
            raise ModelFormatError(
                f"model tree node's dependency string covers {node.ds.n} "
                f"bits, not the tree's {tree.n}")
        for sig, child in node.children.items():
            if len(sig) != node.ds.m:
                raise ModelFormatError(
                    f"model tree child key {maca.bit_string(sig)!r} is not "
                    f"a {node.ds.m}-bit signature")
            nodes.append(child)


def load_model(path: str) -> ModelFile:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ModelFormatError(f"corrupted model file: {e}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(
            f"model file holds a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version}; "
            f"this build reads version {MODEL_FORMAT_VERSION}")
    missing = [f.name for f in fields(ModelFile) if f.name not in doc]
    if missing:
        raise ModelFormatError(f"model file lacks {', '.join(missing)}")
    for key, kind in (("ga_config", dict), ("training_fingerprint", str)):
        if not isinstance(doc[key], kind):
            raise ModelFormatError(f"model {key} must be a {kind.__name__}, "
                                   f"got {type(doc[key]).__name__}")
    try:
        tree = maca.tree_from_dict(doc["tree"])
        pipeline = PipelineConfig(**doc["pipeline"])
    except KeyError as e:
        raise ModelFormatError(f"malformed model file: missing key {e}") from None
    except (TypeError, AttributeError, ValueError) as e:
        raise ModelFormatError(f"malformed model file: {e}") from None
    _check_tree(tree, doc["window"])
    return ModelFile(
        tree=tree,
        window=doc["window"],
        pipeline=pipeline,
        ga_config=doc["ga_config"],
        training_fingerprint=doc["training_fingerprint"],
    )


def make_toy_dataset(n_records: int = 8, length: int = 9,
                     seed: int = 0) -> Dataset:
    """Seeded synthetic sequence/structure pairs.

    Each sequence has exactly `length` residues drawn from the canonical
    alphabet.  With length equal to the pipeline's filter length the
    deconvolution system is exactly invertible (lower-triangular with a
    nonzero diagonal), so predicting a training record against itself
    reproduces its structure exactly.
    """
    rng = random.Random(seed)
    records = []
    seen_seqs: set[str] = set()
    for i in range(n_records):
        while True:
            seq = "".join(rng.choice("ACDEFGHIKLMNPQRSTVWY")
                          for _ in range(length))
            if seq not in seen_seqs:
                seen_seqs.add(seq)
                break
        # runs of 2-4 equal labels, closer to real secondary structure
        labels = []
        while len(labels) < length:
            labels.extend(rng.choice("HEC") * rng.randint(2, 4))
        records.append(ProteinRecord(f"toy{i:02d}", seq, "".join(labels[:length])))
    return Dataset(tuple(records), name=f"toy-{n_records}x{length}-seed{seed}")


def make_impulse_dataset(n_records: int = 8, length: int = 9,
                         seed: int = 0) -> Dataset:
    """Impulse-construction dataset: one strongly hydropathic residue
    followed by 'X' (hydropathy 0), so each input signal is an impulse and
    the deconvolution normal matrix is diagonal.  Predicting any record
    against itself reproduces its structure exactly."""
    if n_records > 20:
        raise ValueError("at most 20 distinct impulse sequences exist")
    rng = random.Random(seed)
    heads = rng.sample("ACDEFGHIKLMNPQRSTVWY", n_records)
    records = []
    for i, head in enumerate(heads):
        labels = []
        while len(labels) < length:
            labels.extend(rng.choice("HEC") * rng.randint(2, 4))
        records.append(ProteinRecord(
            f"imp{i:02d}", head + "X" * (length - 1), "".join(labels[:length])))
    return Dataset(tuple(records), name=f"impulse-{n_records}x{length}-seed{seed}")


def dataset_to_paired_text(dataset: Dataset) -> str:
    return "\n".join(format_paired(r) for r in dataset.records)
