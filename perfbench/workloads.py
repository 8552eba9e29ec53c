"""The benchmark's workloads: seeded inputs, the CLI run timed as one op,
and the checks that decide whether an op's output is correct.

Inputs come from `psmaca.dataio.make_toy_dataset` and depend only on the
workload seed.  Each workload holds its files in its own work directory.
An op is one `psmaca` CLI run; `check` returns an error message (None when
the output is correct) and the Q3 the output shows.  Input sizes are class
constants; the tests shrink them in subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import golden
from psmaca import dataio

LABELS = frozenset("HEC")
REPORT_HEADER = ["id", "q3", "qH", "qE", "qC"]
# Smallest GA the CLI accepts.  Set-up uses it where the model's tree is
# never read.
MINIMAL_GA = ["--population", "3", "--generations", "1", "--elitism", "1",
              "--max-depth", "1"]
MODEL_SEED = 0  # data and GA seed of the model predict_tree reads


class SetupError(RuntimeError):
    """A workload could not prepare its inputs."""


def _write_dataset(path: Path, dataset) -> list:
    path.write_text(dataio.dataset_to_paired_text(dataset), encoding="utf-8")
    return list(dataset.records)


def _write_fasta(path: Path, records) -> None:
    path.write_text("".join(f">{r.id}\n{r.sequence}\n" for r in records),
                    encoding="utf-8")


def _train(launcher, data: Path, model: Path, seed: int, ga_args) -> bytes:
    """Run `psmaca train` as set-up and return the model's bytes."""
    model.unlink(missing_ok=True)
    sample = launcher.cli(["train", "--data", str(data), "--out", str(model),
                           "--seed", str(seed), *ga_args],
                          launcher.work / "setup.out")
    if sample.code != 0 or not model.is_file():
        raise SetupError(f"set-up training exited with {sample.code}: "
                         f"{launcher.stderr_tail()}")
    return model.read_bytes()


def _pinned_error(workload, blob: bytes, what: str) -> str | None:
    """An error when the seed has a pinned digest and `blob` differs."""
    expected = workload.pinned.get(workload.seed)
    if expected is None or golden.sha256(blob) == expected:
        return None
    return f"{what} differs from the one pinned for seed {workload.seed}"


def read_report(path: Path, ids: list[str]) -> tuple[str | None, float | None]:
    """Check a Q3 report TSV: a header, one row per id in order, then `ALL`.
    Returns (error, overall Q3)."""
    try:
        rows = [line.split("\t") for line in
                path.read_text(encoding="utf-8").splitlines()]
    except OSError as e:
        return f"no report: {e.strerror}", None
    if not rows or rows[0] != REPORT_HEADER:
        return "report header is missing", None
    if [r[0] for r in rows[1:]] != ids + ["ALL"]:
        return f"report rows do not match the {len(ids)} records plus ALL", None
    if any(len(r) != len(REPORT_HEADER) for r in rows[1:]):
        return "report row has the wrong number of columns", None
    try:
        return None, float(rows[-1][1])
    except ValueError:
        return f"ALL row has no Q3: {rows[-1][1]!r}", None


@dataclass
class Train:
    """`psmaca train`: GA-evolved tree on a whole training set."""

    name: ClassVar[str] = "train"
    dominant: ClassVar[tuple[str, ...]] = ("ga.fitness", "maca.distribute")
    records: ClassVar[int] = 40
    length: ClassVar[int] = 60
    ga_args: ClassVar[tuple[str, ...]] = (
        "--window", "5", "--population", "10", "--generations", "10",
        "--max-depth", "8")
    pinned: ClassVar[dict[int, str]] = golden.pinned("train")
    work: Path
    seed: int
    ids: list[str] = field(default_factory=list, init=False)
    reference: bytes | None = field(default=None, init=False)
    q3: float | None = field(default=None, init=False)

    @property
    def items(self) -> int:  # training windows, one per residue
        return self.records * self.length

    @property
    def data(self) -> Path:
        return self.work / "train.txt"

    @property
    def model(self) -> Path:
        return self.work / "model.json"

    def setup(self, launcher) -> None:
        self.ids = [r.id for r in _write_dataset(
            self.data, dataio.make_toy_dataset(self.records, self.length,
                                               self.seed))]

    def start_op(self) -> list[str]:
        self.model.unlink(missing_ok=True)
        return ["train", "--data", str(self.data), "--out", str(self.model),
                "--seed", str(self.seed), *self.ga_args]

    def output(self, stdout: Path) -> bytes:
        return self.model.read_bytes()

    def check(self, launcher, stdout: Path):
        if not self.model.is_file():
            return "no model written", None
        blob = self.output(stdout)
        error = _pinned_error(self, blob, "model")
        if error is not None:
            return error, None
        if self.reference is not None:
            if blob != self.reference:
                return "model differs from this invocation's first model", None
            return None, self.q3
        try:
            dataio.load_model(str(self.model))
        except Exception as e:  # any failure to load is the op's failure
            return f"model does not load: {e!r}", None
        # training-set Q3 of the model, measured once: later models must
        # be byte-identical to this one
        report = self.work / "train_q3.tsv"
        report.unlink(missing_ok=True)
        sample = launcher.cli(["evaluate", "--model", str(self.model),
                               "--data", str(self.data),
                               "--report", str(report)],
                              self.work / "evaluate.out")
        if sample.code != 0:
            return f"evaluate of the model exited with {sample.code}", None
        error, q3 = read_report(report, self.ids)
        if error is None:
            self.reference, self.q3 = blob, q3
        return error, q3

    def observations(self) -> dict:
        digest = (golden.sha256(self.reference)
                  if self.reference is not None else None)
        return {"model_sha256": digest,
                "pinned": self.seed in self.pinned}


@dataclass
class PredictTree:
    """`psmaca predict` by the tree route on a FASTA file."""

    name: ClassVar[str] = "predict_tree"
    dominant: ClassVar[tuple[str, ...]] = ("maca.classify",
                                           "codec.window_patterns")
    records: ClassVar[int] = 500
    length: ClassVar[int] = 200
    model_records: ClassVar[int] = 10
    model_length: ClassVar[int] = 60
    ga_args: ClassVar[tuple[str, ...]] = (
        "--population", "10", "--generations", "10", "--max-depth", "8")
    pinned: ClassVar[dict[int, str]] = golden.pinned("predict_tree")
    pinned_model: ClassVar[str | None] = golden.pinned_model()
    work: Path
    seed: int
    truth: list = field(default_factory=list, init=False)
    reference: str | None = field(default=None, init=False)
    model_bytes: bytes | None = field(default=None, init=False)

    @property
    def items(self) -> int:  # residues predicted
        return self.records * self.length

    @property
    def fasta(self) -> Path:
        return self.work / "targets.fasta"

    @property
    def model(self) -> Path:
        return self.work / "model.json"

    def setup(self, launcher) -> None:
        # One fixed model for every seed: walk depth, and with it the cost
        # of classify, varies by about 30% between trees trained on
        # different seeds, which would hide any change in the kernel.
        data = self.work / "train.txt"
        _write_dataset(data, dataio.make_toy_dataset(
            self.model_records, self.model_length, MODEL_SEED))
        self.truth = list(dataio.make_toy_dataset(
            self.records, self.length, self.seed + 1).records)
        _write_fasta(self.fasta, self.truth)
        blob = _train(launcher, data, self.model, MODEL_SEED, self.ga_args)
        if self.model_bytes not in (None, blob):
            raise SetupError("set-up trained a different model than before")
        self.model_bytes = blob

    def start_op(self) -> list[str]:
        return ["predict", "--model", str(self.model), "--fasta", str(self.fasta)]

    def output(self, stdout: Path) -> bytes:
        return stdout.read_bytes()

    def check(self, launcher, stdout: Path):
        if self.pinned_model not in (None, golden.sha256(self.model_bytes)):
            return "set-up model differs from the pinned one", None
        text = stdout.read_text(encoding="utf-8")
        try:
            records = dataio.parse_paired(text)
        except Exception as e:  # unparseable output is the op's failure
            return f"output does not parse: {e!r}", None
        if [r.id for r in records] != [t.id for t in self.truth]:
            return "output ids differ from the FASTA's", None
        matches = 0
        for got, target in zip(records, self.truth):
            if got.sequence != target.sequence:
                return f"{got.id}: sequence differs from the FASTA's", None
            if len(got.structure) != len(target.sequence):
                return f"{got.id}: structure length differs", None
            if not set(got.structure) <= LABELS:
                return f"{got.id}: structure has labels outside H/E/C", None
            matches += sum(p == a for p, a in zip(got.structure,
                                                  target.structure))
        error = _pinned_error(self, self.output(stdout), "output")
        if error is not None:
            return error, None
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "output differs from this invocation's first output", None
        return None, 100.0 * matches / self.items

    def observations(self) -> dict:
        return {"pinned": self.seed in self.pinned}


@dataclass
class EvaluatePipeline:
    """`psmaca evaluate --pipeline`: signal route against separate bases."""

    name: ClassVar[str] = "evaluate_pipeline"
    dominant: ClassVar[tuple[str, ...]] = ("pipeline.select_base",
                                           "pipeline.similarity",
                                           "pipeline.kmer_counts")
    targets: ClassVar[int] = 100
    target_length: ClassVar[int] = 300
    bases: ClassVar[int] = 150
    base_length: ClassVar[int] = 150
    pinned: ClassVar[dict[int, str]] = golden.pinned("evaluate_pipeline")
    work: Path
    seed: int
    ids: list[str] = field(default_factory=list, init=False)
    q3: float | None = field(default=None, init=False)

    @property
    def items(self) -> int:  # target records
        return self.targets

    @property
    def base_data(self) -> Path:
        return self.work / "bases.txt"

    @property
    def target_data(self) -> Path:
        return self.work / "targets.txt"

    @property
    def model(self) -> Path:
        return self.work / "model.json"

    @property
    def report(self) -> Path:
        return self.work / "report.tsv"

    def setup(self, launcher) -> None:
        _write_dataset(self.base_data, dataio.make_toy_dataset(
            self.bases, self.base_length, self.seed + 2))
        self.ids = [r.id for r in _write_dataset(
            self.target_data, dataio.make_toy_dataset(
                self.targets, self.target_length, self.seed + 3))]
        # the signal route never reads the tree, so a minimal GA will do
        _train(launcher, self.base_data, self.model, self.seed, MINIMAL_GA)

    def start_op(self) -> list[str]:
        self.report.unlink(missing_ok=True)
        return ["evaluate", "--model", str(self.model),
                "--data", str(self.target_data), "--report", str(self.report),
                "--pipeline", "--train-data", str(self.base_data)]

    def output(self, stdout: Path) -> bytes:
        return self.report.read_bytes()

    def check(self, launcher, stdout: Path):
        error, q3 = read_report(self.report, self.ids)
        if error is None:
            error = _pinned_error(self, self.output(stdout), "report")
        if error is not None:
            return error, None
        if self.q3 is None:
            self.q3 = q3
        elif q3 != self.q3:
            return f"Q3 {q3} differs from this invocation's first {self.q3}", None
        return None, q3

    def observations(self) -> dict:
        return {"pinned": self.seed in self.pinned}


WORKLOADS = {w.name: w for w in (Train, PredictTree, EvaluatePipeline)}
