import argparse
import ast
import copy
import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmaca import cli, codec, dataio, maca
from psmaca.cli import run_cli
from psmaca.maca import TreeConfig
from psmaca.pipeline import PipelineConfig, predict_structure, prepare_bases


def write_toy_files(folder):
    dataset = dataio.make_impulse_dataset(6, 9, seed=0)
    data = folder / "train.txt"
    data.write_text(dataio.dataset_to_paired_text(dataset))
    target = dataset.records[2]
    fasta = folder / "target.fasta"
    fasta.write_text(f">{target.id}\n{target.sequence}\n")
    return dataset, data, fasta


@pytest.fixture
def toy_files(tmp_path):
    return write_toy_files(tmp_path)


def train(tmp_path, data, capsys=None, extra=()):
    model = tmp_path / "model.json"
    code = run_cli(["train", "--data", str(data), "--window", "3",
                    "--out", str(model), "--seed", "11",
                    "--population", "15", "--generations", "15", *extra])
    assert code == 0
    if capsys is not None:
        capsys.readouterr()  # drop train's status line
    return model


def no_training(*args, **kwargs):
    raise AssertionError("training started")


def no_prediction(*args, **kwargs):
    raise AssertionError("prediction started")


def no_reading(*args, **kwargs):
    raise AssertionError("a file was read")


@pytest.mark.parametrize("command", [
    ["simulate", "--rule", "30", "--steps", "1"], ["basins", "--rule", "30"],
], ids=["simulate", "basins"])
@pytest.mark.parametrize("width", ["0", "-3"])
def test_width_below_one_is_data_error(capsys, command, width):
    assert run_cli([*command, "--width", width]) == 2
    err = capsys.readouterr().err
    assert "width must be" in err and f"got {width}" in err


# command -> (required flags, optional flags); -h/--help go unlisted
CLI_SURFACE = {
    "simulate": ({"--rule", "--width", "--steps"}, {"--boundary"}),
    "basins": ({"--rule", "--width"}, {"--boundary"}),
    "train": ({"--data", "--out"},
              {"--window", "--seed", "--population", "--generations",
               "--crossover-rate", "--mutation-rate", "--elitism",
               "--max-depth", "--min-samples", "--filter-length"}),
    "predict": ({"--model", "--fasta"},
                {"--pipeline", "--mode", "--train-data", "--no-verify"}),
    "evaluate": ({"--model", "--data", "--report"},
                 {"--json", "--comparison", "--pipeline", "--mode",
                  "--train-data", "--no-verify"}),
}


def subparsers() -> dict:
    return next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_commands_are_the_surface():
    assert subparsers().keys() == CLI_SURFACE.keys()


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_command_flags_are_the_surface(command):
    required, optional = CLI_SURFACE[command]
    actions = subparsers()[command]._actions
    assert {flag for action in actions for flag in action.option_strings} \
        == required | optional | {"-h", "--help"}
    assert {flag for action in actions if action.required
            for flag in action.option_strings} == required


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_each_missing_required_flag_is_usage_error(capsys, command):
    required, _ = CLI_SURFACE[command]
    for missing in sorted(required):
        given = [arg for flag in sorted(required - {missing})
                 for arg in (flag, "1")]
        assert run_cli([command, *given]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and missing in err


@pytest.mark.parametrize("argv", [
    ["predict", "--model", "m", "--fasta", "f", "--pipe", "--train", "t"],
    ["evaluate", "--pipeline", "--mod", "paper_bands", "--model", "m",
     "--data", "d", "--report", "r"],
], ids=["predict-pipe", "evaluate-mod"])
def test_flag_prefix_is_usage_error(capsys, argv):
    # a prefix of a flag is no flag, even when it names only one
    assert run_cli(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments: --")


class TestSimulate:
    def test_rule_30_triangle(self, capsys):
        assert run_cli(["simulate", "--rule", "30", "--width", "5",
                        "--steps", "2"]) == 0
        assert capsys.readouterr().out == "00100\n01110\n11001\n"

    def test_module_runs_as_a_script(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "psmaca.cli", "simulate", "--rule", "30",
             "--width", "5", "--steps", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (0, "00100\n01110\n11001\n")

    def test_periodic_output_pinned(self, capsys):
        assert run_cli(["simulate", "--rule", "30", "--width", "5",
                        "--steps", "2", "--boundary", "periodic"]) == 0
        assert capsys.readouterr().out == "00100\n01110\n11001\n"

    def test_bad_rule_is_data_error(self, capsys):
        assert run_cli(["simulate", "--rule", "300", "--width", "5",
                        "--steps", "1"]) == 2

    def test_negative_rule_is_data_error(self, capsys):
        assert run_cli(["simulate", "--rule", "-1", "--width", "5",
                        "--steps", "1"]) == 2
        assert capsys.readouterr() == (
            "", "data error: rule number must be in [0, 255], got -1\n")

    def test_unexpected_exception_is_internal_error(self, capsys,
                                                    monkeypatch):
        def broken(args):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli, "cmd_simulate", broken)
        assert run_cli(["simulate", "--rule", "30", "--width", "5",
                        "--steps", "1"]) == 3
        assert capsys.readouterr() == ("", "internal error: invariant broken\n")

    def test_missing_flag_is_usage_error(self, capsys):
        assert run_cli(["simulate", "--rule", "30"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert run_cli(["frobnicate"]) == 1


class TestBasins:
    def test_identity_rule(self, capsys):
        assert run_cli(["basins", "--rule", "204", "--width", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert all("basin size 1" in line for line in out)

    def test_rule_past_255_is_data_error(self, capsys):
        assert run_cli(["basins", "--rule", "256", "--width", "4"]) == 2
        assert capsys.readouterr() == (
            "", "data error: rule number must be in [0, 255], got 256\n")

    def test_rule_zero(self, capsys):
        assert run_cli(["basins", "--rule", "0", "--width", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["cycle [0000] basin size 16"]

    @pytest.mark.parametrize("boundary, expected", [
        ("null", "cycle [0000] basin size 1\n"
                 "cycle [0001 -> 0010 -> 0101 -> 1000 -> 0100 -> 1010] "
                 "basin size 6\n"
                 "cycle [0011 -> 0111 -> 1101 -> 1100 -> 1110 -> 1011] "
                 "basin size 6\n"
                 "cycle [0110 -> 1111 -> 1001] basin size 3\n"),
        ("periodic", "cycle [0000] basin size 16\n"),
    ], ids=["null", "periodic"])
    def test_rule_90_output_pinned(self, boundary, expected, capsys):
        assert run_cli(["basins", "--rule", "90", "--width", "4",
                        "--boundary", boundary]) == 0
        assert capsys.readouterr().out == expected


# one fresh interpreter per command notes each module below before psmaca
# loads and after the command ran: numpy (no command needs it), dataclasses
# and inspect (records are NamedTuples or slots classes, not dataclasses,
# whose import, with inspect, ast, dis and tokenize, and class set-up cost
# every command about 20 ms), psmaca.ga (only train runs the GA) and hashlib
# (only the signal route fingerprints); any but psmaca.ga may load before
# psmaca does
PROBED = ("numpy", "dataclasses", "inspect", "psmaca.ga", "hashlib")
PROBE = (f"import sys; names = {PROBED!r}; "
         "before = [name in sys.modules for name in names]; "
         "from psmaca.cli import run_cli; "
         "code = run_cli(sys.argv[1:]); "
         "print(code, *before, *(name in sys.modules for name in names))")
COMMANDS = {
    "train": ["train", "--data", "DATA", "--window", "3", "--out", "OUT",
              "--population", "10", "--generations", "5"],
    "predict": ["predict", "--model", "MODEL", "--fasta", "FASTA"],
    "evaluate": ["evaluate", "--model", "MODEL", "--data", "DATA",
                 "--report", "OUT"],
    "simulate": ["simulate", "--rule", "30", "--width", "5", "--steps", "2"],
    "basins": ["basins", "--rule", "90", "--width", "4"],
    "evaluate-pipeline": ["evaluate", "--model", "MODEL", "--data", "DATA",
                          "--report", "OUT", "--pipeline"],
    "predict-pipeline": ["predict", "--model", "MODEL", "--fasta", "FASTA",
                         "--pipeline", "--train-data", "DATA"],
}


@pytest.fixture(scope="module")
def probes(tmp_path_factory) -> dict[str, tuple[int, dict, dict]]:
    """Each command of `COMMANDS`, run once by `PROBE` in a fresh
    interpreter (pytest's own has numpy and every psmaca module loaded),
    its placeholders made paths to one toy data set and one model: its
    exit code and which `PROBED` modules were loaded before psmaca was
    and after the command ran."""
    folder = tmp_path_factory.mktemp("probe")
    _, data, fasta = write_toy_files(folder)
    paths = {"DATA": data, "MODEL": train(folder, data), "FASTA": fasta}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = {}
    for name, command in COMMANDS.items():
        paths["OUT"] = folder / f"{name}.out"
        done = subprocess.run(
            [sys.executable, "-c", PROBE,
             *(str(paths.get(arg, arg)) for arg in command)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        code, *loaded = done.stdout.splitlines()[-1].split()
        loaded = [word == "True" for word in loaded]
        out[name] = (int(code), dict(zip(PROBED, loaded)),
                     dict(zip(PROBED, loaded[len(PROBED):])))
    return out


@pytest.mark.parametrize("name", COMMANDS)
def test_no_command_loads_numpy(probes, name):
    code, _, after = probes[name]
    assert (code, after["numpy"]) == (0, False)


@pytest.mark.parametrize("name", COMMANDS)
def test_no_command_loads_dataclasses(probes, name):
    code, before, after = probes[name]
    assert code == 0
    for module in ("dataclasses", "inspect"):
        assert after[module] == before[module]


@pytest.mark.parametrize("name", ["predict", "evaluate", "predict-pipeline",
                                  "evaluate-pipeline"])
def test_read_commands_load_no_trainer(probes, name):
    # only train runs the GA, and only the signal route fingerprints
    code, before, after = probes[name]
    assert (code, after["psmaca.ga"]) == (0, False)
    if not name.endswith("pipeline"):
        assert after["hashlib"] == before["hashlib"]


def test_no_module_names_labeled_pattern():
    # training pairs are plain (code, label) tuples: `maca.LabeledPattern`
    # is defined, and named in docstrings, but no other code of the
    # package names it
    named = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name, an attribute, an imported name or a definition
            if "LabeledPattern" in (getattr(node, "id", None),
                                    getattr(node, "attr", None),
                                    getattr(node, "name", None)):
                named.append((path.name, type(node).__name__))
    assert named == [("maca.py", "ClassDef")]


class TestTrain:
    def test_writes_model(self, tmp_path, toy_files, capsys):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        loaded = dataio.load_model(model)
        assert loaded.window == 3
        assert loaded.training_fingerprint == dataio.fingerprint(data.read_text())

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a paired file\n")
        out = tmp_path / "m.json"
        assert run_cli(["train", "--data", str(bad), "--out", str(out)]) == 2

    def test_non_utf8_data_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff>r\n")
        out = tmp_path / "m.json"
        assert run_cli(["train", "--data", str(bad), "--out", str(out)]) == 2
        assert f"cannot read {bad}: not UTF-8" in capsys.readouterr().err

    def test_filter_length_checked_before_training(self, tmp_path, toy_files,
                                                   capsys, monkeypatch):
        monkeypatch.setattr(maca, "build_tree", no_training)
        _, data, _ = toy_files
        model = tmp_path / "model.json"
        assert run_cli(["train", "--data", str(data), "--out", str(model),
                        "--filter-length", "0"]) == 2
        assert "filter_length" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("window", ["2", "0", "-3"])
    def test_bad_window_fails_before_reading(self, tmp_path, capsys,
                                             monkeypatch, window):
        monkeypatch.setattr(dataio, "read_text", no_reading)
        assert run_cli(["train", "--data", str(tmp_path / "nonexistent"),
                        "--out", str(tmp_path / "m.json"),
                        "--window", window]) == 2
        assert (f"window size must be an odd integer >= 1, got {window}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("above", [2, 4])
    def test_window_over_the_ceiling_fails_before_reading(
            self, tmp_path, capsys, monkeypatch, above):
        # a training set grows with the window: 99999 would need ~47 GiB
        monkeypatch.setattr(dataio, "read_text", no_reading)
        window = codec.MAX_WINDOW + above
        assert run_cli(["train", "--data", str(tmp_path / "nonexistent"),
                        "--out", str(tmp_path / "m.json"),
                        "--window", str(window)]) == 2
        assert (f"window size must be at most {codec.MAX_WINDOW}, "
                f"got {window}" in capsys.readouterr().err)

    @pytest.mark.parametrize("out", ["nodir/m.json", ""],
                             ids=["missing-directory", "directory"])
    def test_bad_out_fails_before_training(self, tmp_path, toy_files, capsys,
                                           monkeypatch, out):
        monkeypatch.setattr(maca, "build_tree", no_training)
        _, data, _ = toy_files
        path = str(tmp_path / out)
        assert run_cli(["train", "--data", str(data), "--out", path]) == 2
        assert f"--out {path}" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, toy_files, capsys,
                                    monkeypatch):
        # Random(-3) seeds like Random(3): the model would record -3 for
        # the tree of seed 3
        _, data, _ = toy_files
        model = tmp_path / "model.json"
        assert run_cli(["train", "--data", str(data), "--out", str(model),
                        "--seed", "-3"]) == 2
        assert "seed must be a non-negative int, got -3" in \
            capsys.readouterr().err
        assert not model.exists()
        # checked before any file is read, as a missing --data shows
        monkeypatch.setattr(dataio, "read_text", no_reading)
        assert run_cli(["train", "--data", str(tmp_path / "nonexistent"),
                        "--out", str(model), "--seed", "-1"]) == 2
        assert "rng seed must be a non-negative int, got -1" in \
            capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, toy_files, capsys):
        _, data, _ = toy_files
        dirs = tmp_path / "a", tmp_path / "b"
        for d in dirs:
            d.mkdir()
        m1, m2 = (train(d, data) for d in dirs)
        assert m1.read_bytes() == m2.read_bytes()

    def test_flag_defaults_are_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["train", "--data", "d", "--out", "o"])
        assert cli._tree_config(args) == TreeConfig()
        assert args.filter_length == PipelineConfig().filter_length

    def test_every_config_field_has_a_flag(self):
        assert set(cli._TREE_FLAGS.values()) == set(TreeConfig._fields)
        # train --filter-length; the decode mode is chosen per run
        assert PipelineConfig._fields == ("filter_length",)

    def test_ga_config_is_tree_config_plus_seed(self, tmp_path, toy_files,
                                                capsys):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        loaded = dataio.load_model(model)
        tree_fields = loaded.tree.config._asdict()
        ga_fields = ("population_size", "generations", "crossover_rate",
                     "mutation_rate", "elitism_count")
        assert json.loads(model.read_text())["ga_config"] == {
            **{name: tree_fields[name] for name in ga_fields}, "rng_seed": 11}
        assert loaded.seed == 11

    @pytest.mark.parametrize("flags", [
        ("--max-depth", "-3"), ("--min-samples", "0"), ("--min-samples", "-1"),
    ], ids=["max-depth-negative", "min-samples-0", "min-samples-negative"])
    def test_nonsense_tree_config_is_data_error(self, tmp_path, toy_files,
                                                capsys, flags):
        _, data, _ = toy_files
        model = tmp_path / "model.json"
        assert run_cli(["train", "--data", str(data), "--out", str(model),
                        *flags]) == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not model.exists()


# the flags that only the signal route reads, by test id
ROUTE_FLAGS = {"mode-paper-bands": ("--mode", "paper_bands"),
               "mode-nearest-centroid": ("--mode", "nearest_centroid"),
               "train-data": ("--train-data", "DATA"),
               "no-verify": ("--no-verify",)}


def edit_model(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestPredict:
    def test_tree_output_round_trips(self, tmp_path, toy_files, capsys):
        dataset, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model),
                        "--fasta", str(fasta)]) == 0
        out = capsys.readouterr().out
        [record] = dataio.parse_paired(out)
        assert record.id == dataset.records[2].id
        assert record.sequence == dataset.records[2].sequence
        assert len(record.structure) == len(record.sequence)
        assert "# method: tree" in out

    def test_pipeline_self_recall(self, tmp_path, toy_files, capsys):
        dataset, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline", "--train-data", str(data)]) == 0
        out = capsys.readouterr().out
        [record] = dataio.parse_paired(out)
        assert record.structure == dataset.records[2].structure
        assert "method: pipeline base=" in out

    def test_pipeline_skips_bases_shorter_than_the_filter(self, tmp_path,
                                                          capsys):
        data = tmp_path / "train.txt"
        data.write_text(dataio.dataset_to_paired_text(dataio.Dataset((
            dataio.ProteinRecord("a_short", "ACDEFG", "HHHEEE"),
            dataio.ProteinRecord("b_long", "ACDEFGHIKLMNPQRS",
                                 "HHHHEEEECCCCHHHH")))))
        fasta = tmp_path / "target.fasta"
        fasta.write_text(">t\nACDEFGH\n")
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline", "--train-data", str(data)]) == 0
        assert "method: pipeline base=b_long" in capsys.readouterr().out

    def test_pipeline_requires_train_data(self, tmp_path, toy_files, capsys):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline"]) == 1

    @pytest.mark.parametrize("command, flags", [
        (command, flags) for command in ("predict", "evaluate")
        for flags in ROUTE_FLAGS.values()
    ], ids=[prefix + name for prefix in ("", "evaluate-")
            for name in ROUTE_FLAGS])
    def test_route_flag_requires_pipeline(self, tmp_path, toy_files, capsys,
                                          command, flags):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        flags = [str(data) if f == "DATA" else f for f in flags]
        report = tmp_path / "r.tsv"
        inputs = {"predict": ["--fasta", str(fasta)],
                  "evaluate": ["--data", str(data), "--report", str(report)]}
        assert run_cli([command, "--model", str(model), *inputs[command],
                        *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flags[0]} requires --pipeline" in err
        assert not report.exists()

    def test_fingerprint_mismatch_rejected(self, tmp_path, toy_files, capsys):
        dataset, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        other = tmp_path / "other.txt"
        other.write_text(dataio.dataset_to_paired_text(
            dataio.make_impulse_dataset(6, 9, seed=5)))
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline", "--train-data", str(other)]) == 2
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline", "--train-data", str(other),
                        "--no-verify"]) == 0

    def test_missing_model_file(self, tmp_path, toy_files, capsys):
        _, _, fasta = toy_files
        assert run_cli(["predict", "--model", str(tmp_path / "nope.json"),
                        "--fasta", str(fasta)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli(["predict", "--model", str(bad),
                        "--fasta", str(fasta)]) == 2

    def test_int_past_the_digit_limit_is_corrupted_model(self, tmp_path,
                                                         toy_files, capsys):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        model.write_text(model.read_text().replace(
            '"window": 3', '"window": ' + "9" * 5000))
        assert run_cli(["predict", "--model", str(model),
                        "--fasta", str(fasta)]) == 2
        assert "corrupted model file" in capsys.readouterr().err

    def test_non_utf8_model_names_the_file(self, tmp_path, toy_files, capsys):
        _, _, fasta = toy_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        assert run_cli(["predict", "--model", str(bad),
                        "--fasta", str(fasta)]) == 2
        assert f"cannot read {bad}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", codec.DECODE_MODES)
    def test_mode_sets_the_decode(self, tmp_path, toy_files, capsys, mode):
        dataset, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline", "--train-data", str(data),
                        "--mode", mode]) == 0
        [record] = dataio.parse_paired(capsys.readouterr().out)
        bases = prepare_bases(dataset.records,
                              dataio.load_model(model).pipeline)
        assert record.structure == predict_structure(
            record.sequence, bases, mode).predicted
        # the target holds coil, which only nearest_centroid round-trips
        target = dataset.records[2].structure
        assert (record.structure == target) == (mode == "nearest_centroid")

    @pytest.mark.parametrize("mode", ["bands", "centroid"])
    def test_old_mode_names_are_usage_errors(self, capsys, mode):
        assert run_cli(["predict", "--model", "m", "--fasta", "f", "--pipeline",
                        "--train-data", "t", "--mode", mode]) == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc.pop("window"), "lacks window"),
        (lambda doc: doc["pipeline"].update(kmer_size=0), "kmer_size"),
        (lambda doc: doc["pipeline"].update(decode_mode="zzz"), "decode_mode"),
        (lambda doc: doc["pipeline"].update(decode_mode="paper_bands"),
         "pipeline decode_mode must be 'nearest_centroid', got 'paper_bands'"),
        (lambda doc: doc["pipeline"].update(scale_name="zzz"),
         "pipeline scale_name must be 'kyte_doolittle', got 'zzz'"),
        (lambda doc: doc.update(training_fingerprint=5), "training_fingerprint"),
        (lambda doc: doc.update(ga_config=[]), "ga_config"),
        (lambda doc: doc["tree"]["config"].update(max_depth=-3), "max_depth"),
        (lambda doc: doc["tree"]["config"].update(population_size=1),
         "population_size"),
        (lambda doc: doc["tree"]["config"].update(population_size="10"),
         "population_size"),
        (lambda doc: doc["tree"]["config"].update(mutation_rate=1.5),
         "mutation_rate"),
        (lambda doc: doc["pipeline"].update(filter_length=9.5),
         "filter_length"),
        (lambda doc: doc["pipeline"].update(filter_length=True),
         "filter_length"),
        (lambda doc: doc["pipeline"].update(kmer_size=2.5), "kmer_size"),
        (lambda doc: doc["pipeline"].update(ridge=float("nan")), "ridge"),
        (lambda doc: doc["pipeline"].update(ridge=True), "ridge"),
        (lambda doc: doc["pipeline"].update(ridge=10 ** 400), "ridge"),
        (lambda doc: doc["tree"].update(n=15.0), "tree n"),
        (lambda doc: doc["tree"]["config"].pop("generations"),
         "tree.config lacks generations"),
        (lambda doc: doc["pipeline"].pop("ridge"), "pipeline lacks ridge"),
        (lambda doc: doc.update(zzz=1), "file has unknown key zzz"),
        (lambda doc: doc["tree"].update(zzz=1), "tree has unknown key zzz"),
        (lambda doc: first_leaf(doc["tree"]["root"]).update(children={}),
         "node has unknown key children"),
        (lambda doc: doc["tree"]["root"].update(
            ds="".join(doc["tree"]["root"]["ds"])), "ds list"),
        (lambda doc: doc["tree"]["root"].update(children=[]),
         "children object"),
        (lambda doc: doc.update(ga_config={}), "ga_config lacks"),
        (lambda doc: doc["ga_config"].update(population_size=1),
         "ga_config population_size"),
        (lambda doc: doc["ga_config"].update(rng_seed="0"),
         "ga_config rng_seed"),
        (lambda doc: doc.update(format_version=True), "format version True"),
        (lambda doc: doc.update(format_version=1.0), "format version 1.0"),
        (lambda doc: doc["ga_config"].update(rng_seed=-3),
         "ga_config rng_seed"),
        (lambda doc: doc["ga_config"].update(elitism_count=2.0),
         "ga_config elitism_count"),
        (lambda doc: doc["tree"]["config"].update(split_retries=3),
         "tree.config split_retries must be 5, got 3"),
        (lambda doc: doc["pipeline"].update(kmer_size=2),
         "pipeline kmer_size must be 3, got 2"),
        (lambda doc: doc["pipeline"].update(ridge=0.0),
         "pipeline ridge must be 1e-06, got 0.0"),
        (lambda doc: doc["pipeline"].update(ridge=1e-05),
         "pipeline ridge must be 1e-06, got 1e-05"),
    ], ids=["no-window", "kmer-size-0", "decode-mode",
            "decode-mode-paper-bands", "scale-name",
            "fingerprint-int", "ga-config-list", "max-depth-negative",
            "population-size-1", "population-size-str", "mutation-rate-1.5",
            "filter-length-float", "filter-length-bool", "kmer-size-float",
            "ridge-nan", "ridge-bool", "ridge-int-beyond-float",
            "tree-n-float", "no-generations", "no-ridge",
            "unknown-top-level-key", "unknown-tree-key", "leaf-with-children",
            "ds-bare-string", "children-list", "ga-config-empty",
            "ga-config-population-size-1", "rng-seed-str",
            "format-version-true", "format-version-float", "rng-seed-negative",
            "ga-config-echo-float", "split-retries-3", "kmer-size-2",
            "ridge-0", "ridge-1e-05"])
    def test_malformed_model_is_data_error(self, tmp_path, toy_files, capsys,
                                           edit, problem):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        edit_model(model, edit)
        assert run_cli(["predict", "--model", str(model),
                        "--fasta", str(fasta)]) == 2
        assert problem in capsys.readouterr().err


    @pytest.mark.parametrize("edit, problem", [
        (lambda root, doc: doc.update(window="5"), "window"),
        (lambda root, doc: doc.update(window=5), "bits wide"),
        (lambda root, doc: first_leaf(root).update(label="Q"),
         "tree label 'Q'"),
        (lambda root, doc: root.update(children={
            key + "0": child for key, child in root["children"].items()}),
         "child key"),
        (lambda root, doc: root.update(ds=["2" + root["ds"][0][1:],
                                           *root["ds"][1:]]),
         "0 or 1"),
        (lambda root, doc: root.update(ds=[*root["ds"][:-1],
                                           root["ds"][-1] + "1"]),
         "covers"),
        (lambda root, doc: arabic_indic_digits(root), "0 or 1"),
    ], ids=["window-str", "window-width", "q-leaf", "child-key-length",
            "ds-digit-2", "ds-width", "ds-arabic-indic-digits"])
    def test_inconsistent_model_fails_at_load(self, tmp_path, toy_files, capsys,
                                              edit, problem):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        edit_model(model, lambda doc: edit(doc["tree"]["root"], doc))
        assert "ds" in json.loads(model.read_text())["tree"]["root"]
        assert run_cli(["predict", "--model", str(model),
                        "--fasta", str(fasta)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert problem in err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_signal_route_error_names_the_record(tmp_path, toy_files, capsys,
                                             command):
    _, data, _ = toy_files
    model = train(tmp_path, data, capsys)
    targets = tmp_path / "targets.txt"
    argv = {"predict": ["predict", "--fasta", str(targets)],
            "evaluate": ["evaluate", "--data", str(targets), "--report",
                         str(tmp_path / "report.tsv")]}[command]
    targets.write_text({"predict": ">a\nAC\n",
                        "evaluate": ">a\nAmino Acids:\nAC\n"
                                    "Structure:\nHH\n"}[command])
    assert run_cli([*argv, "--model", str(model), "--pipeline",
                    "--train-data", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "data error: record 'a': sequence shorter than k-mer size 3\n"


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_training_set_error_comes_before_any_target(tmp_path, toy_files,
                                                    capsys, monkeypatch,
                                                    command):
    dataset, data, fasta = toy_files
    longest = max(len(r.sequence) for r in dataset.records)
    model = train(tmp_path, data, capsys,
                  extra=["--filter-length", str(longest + 1)])
    targets = {"predict": fasta, "evaluate": tmp_path / "targets.txt"}[command]
    targets.write_text({"predict": fasta.read_text(),
                        "evaluate": data.read_text()}[command])
    report = tmp_path / "report.tsv"
    argv = {"predict": ["predict", "--fasta", str(targets)],
            "evaluate": ["evaluate", "--data", str(targets), "--report",
                         str(report)]}[command]
    read = []
    real = dataio.read_text
    monkeypatch.setattr(dataio, "read_text",
                        lambda path: read.append(path) or real(path))
    assert run_cli([*argv, "--model", str(model), "--pipeline",
                    "--train-data", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("data error: no training sequence is at least "
                   f"filter_length={longest + 1} residues long\n")
    assert str(targets) not in map(str, read)
    assert not report.exists()


@pytest.mark.parametrize("argv, clash", [
    (["train", "--data", "DATA", "--out", "DATA"], "--out {DATA} is the same "
     "file as --data"),
    (["evaluate", "--model", "MODEL", "--data", "DATA", "--report", "DATA"],
     "--report {DATA} is the same file as --data"),
    (["evaluate", "--model", "MODEL", "--data", "DATA", "--report", "OUT",
      "--json", "OUT"], "--json {OUT} is the same file as --report"),
    (["evaluate", "--model", "MODEL", "--data", "DATA", "--report", "OUT",
      "--comparison", "MODEL"],
     "--comparison {MODEL} is the same file as --model"),
    (["evaluate", "--model", "MODEL", "--data", "TARGETS", "--report", "OUT",
      "--json", "DATA", "--pipeline", "--train-data", "DATA"],
     "--json {DATA} is the same file as --train-data"),
    (["evaluate", "--model", "MODEL", "--data", "DATA", "--report", "DOTTED"],
     "--report {DOTTED} is the same file as --data"),
    (["evaluate", "--model", "MODEL", "--data", "DATA", "--report", "LINK"],
     "--report {LINK} is the same file as --data"),
    (["evaluate", "--model", "MODEL", "--data", "DATA", "--report", "HARD"],
     "--report {HARD} is the same file as --data"),
], ids=["train-out-data", "report-data", "json-report", "comparison-model",
        "json-train-data", "report-dotted-data", "report-symlink-data",
        "report-hard-link-data"])
def test_output_overwriting_a_file_is_data_error(tmp_path, toy_files, capsys,
                                                 monkeypatch, argv, clash):
    _, data, _ = toy_files
    model = train(tmp_path, data, capsys)
    targets = tmp_path / "targets.txt"
    targets.write_text(data.read_text())
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(data)
    (tmp_path / "hard.txt").hardlink_to(data)
    paths = {"DATA": str(data), "MODEL": str(model), "TARGETS": str(targets),
             "OUT": str(tmp_path / "out.tsv"),
             "DOTTED": f"{tmp_path}/sub/../{data.name}",
             "LINK": str(tmp_path / "link.txt"),
             "HARD": str(tmp_path / "hard.txt")}
    inputs = {path: path.read_bytes() for path in (data, model, targets)}
    # the clash is found before any file is read
    monkeypatch.setattr(dataio, "read_text", no_reading)
    monkeypatch.setattr(dataio, "load_model", no_reading)
    assert run_cli([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"data error: {clash.format(**paths)}\n"
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert not (tmp_path / "out.tsv").exists()


class TestScaleName:
    """A model's scale_name must be kyte_doolittle: any other name, or a
    path, absolute or relative, to a valid scale file is a data error."""

    @pytest.fixture
    def outside_scale(self, tmp_path):
        path = tmp_path / "outside" / "scale.tsv"
        path.parent.mkdir()
        path.write_text("".join(f"{aa}\t1.0\n" for aa in codec.AMINO_ACIDS))
        return path

    @pytest.mark.parametrize("name", ["absolute", "absolute-tsv", "relative"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_path_is_data_error(self, tmp_path, toy_files, capsys,
                                outside_scale, name, command):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        scale_name = {"absolute": str(outside_scale.with_suffix("")),
                      "absolute-tsv": str(outside_scale),
                      "relative": "../data/kyte_doolittle"}[name]
        edit_model(model, lambda doc: doc["pipeline"].update(
            scale_name=scale_name))
        argv = {"predict": ["predict", "--fasta", str(fasta)],
                "evaluate": ["evaluate", "--data", str(data), "--report",
                             str(tmp_path / "report.tsv")]}[command]
        assert run_cli([*argv, "--model", str(model), "--pipeline",
                        "--train-data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"must be 'kyte_doolittle', got {scale_name!r}" in err
        assert not (tmp_path / "report.tsv").exists()

    def test_other_name_is_refused_at_load(self, tmp_path, toy_files):
        model = train(tmp_path, toy_files[1])
        for name in ("no_such_scale", "data/kyte_doolittle",
                     "kyte_doolittle.tsv", "", None, ["kyte_doolittle"]):
            edit_model(model, lambda doc: doc["pipeline"].update(
                scale_name=name))
            with pytest.raises(dataio.ModelFormatError) as e:
                dataio.load_model(model)
            assert f"must be 'kyte_doolittle', got {name!r}" in str(e.value)


# stands for nesting deeper than the JSON parser takes; the edited file
# carries it as text, since json.dumps cannot write it
DEEP = "\x00deep"
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(-10 ** 400, 10 ** 400) | st.text(max_size=8) | st.just(DEEP),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def json_paths(doc, path=()):
    """The key path of every value in a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from json_paths(value, (*path, key))


class TestModelFuzz:
    """Any one edit of a trained model file is read (exit 0) or refused as
    data (exit 2) on both routes, never an internal error (exit 3)."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("fuzz")
        _, data, fasta = write_toy_files(folder)
        model = train(folder, data)
        return json.loads(model.read_text()), data, fasta

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_edited_model_never_exits_3(self, trained, data):
        doc, train_data, fasta = trained
        doc = copy.deepcopy(doc)
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            doc = data.draw(json_values)
        else:
            parent = reduce(getitem, path[:-1], doc)
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
        edited = train_data.parent / "edited.json"
        edited.write_text(json.dumps(doc).replace(json.dumps(DEEP),
                                                  "[" * 5000 + "]" * 5000))
        for route in ([], ["--pipeline", "--train-data", str(train_data)]):
            assert run_cli(["predict", "--model", str(edited),
                            "--fasta", str(fasta), *route]) in (0, 2)


def arabic_indic_digits(node):
    """Write every ds string and child key with the digits U+0660/U+0661,
    which int() reads as 0 and 1."""
    if "ds" in node:
        digits = str.maketrans("01", "\u0660\u0661")
        node["ds"] = [s.translate(digits) for s in node["ds"]]
        node["children"] = {key.translate(digits): arabic_indic_digits(child)
                            for key, child in node["children"].items()}
    return node


def first_leaf(node):
    while "ds" in node:
        node = next(iter(node["children"].values()))
    return node


class TestEvaluate:
    def test_pipeline_self_recall_is_perfect(self, tmp_path, toy_files, capsys):
        dataset, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        report = tmp_path / "report.tsv"
        json_out = tmp_path / "report.json"
        cmp_out = tmp_path / "cmp.tsv"
        assert run_cli(["evaluate", "--model", str(model), "--data", str(data),
                        "--report", str(report), "--json", str(json_out),
                        "--comparison", str(cmp_out), "--pipeline"]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "id\tq3\tqH\tqE\tqC"
        assert lines[-1].split("\t")[:2] == ["ALL", "100.00"]
        assert "PSMACA\t100.00" in cmp_out.read_text()
        assert '"q3": 100.0' in json_out.read_text()
        assert capsys.readouterr().out == (
            "q3 100.00 over 6 records (self-recall: each record is its own "
            f"base); report at {report}\n")

    def test_pipeline_names_the_base_file(self, tmp_path, toy_files, capsys):
        dataset, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        targets = tmp_path / "targets.txt"
        targets.write_text(dataio.dataset_to_paired_text(
            dataio.make_impulse_dataset(4, 12, seed=9)))
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", "--model", str(model), "--data",
                        str(targets), "--report", str(report), "--pipeline",
                        "--train-data", str(data)]) == 0
        out = capsys.readouterr().out
        assert f"over 4 records (bases from {data}); report at {report}\n" in out
        assert "self-recall" not in out
        # the report itself does not name the route
        rows = report.read_text().strip().splitlines()
        assert rows[0] == "id\tq3\tqH\tqE\tqC" and len(rows) == 6

    @pytest.mark.parametrize("route", [[], ["--pipeline"]],
                             ids=["tree", "pipeline"])
    @pytest.mark.parametrize("flag", ["--report", "--json", "--comparison"])
    @pytest.mark.parametrize("bad", ["nodir/out", "outdir", "outdir/", ""],
                             ids=["missing-directory", "directory",
                                  "trailing-slash", "empty"])
    def test_bad_output_fails_before_prediction(self, tmp_path, toy_files,
                                                capsys, monkeypatch, route,
                                                flag, bad):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        monkeypatch.setattr(maca, "classify", no_prediction)
        monkeypatch.setattr(cli, "predict_structure", no_prediction)
        (tmp_path / "outdir").mkdir()
        outputs = {"--report": tmp_path / "r.tsv",
                   "--json": tmp_path / "r.json",
                   "--comparison": tmp_path / "cmp.tsv",
                   flag: f"{tmp_path}/{bad}" if bad else ""}
        assert run_cli(["evaluate", "--model", str(model), "--data", str(data),
                        *route, *(arg for output in outputs.items()
                                  for arg in map(str, output))]) == 2
        assert f"{flag} {outputs[flag]}" in capsys.readouterr().err
        assert not any(os.path.isfile(path) for path in outputs.values())

    @pytest.mark.parametrize("route", [
        [], ["--pipeline", "--train-data", "DATA"],
        ["--pipeline", "--train-data", "DATA", "--mode", "paper_bands"],
    ], ids=["tree", "pipeline-train-data", "pipeline-paper-bands"])
    def test_report_q3_is_q3_of_predict(self, tmp_path, toy_files, capsys,
                                        route):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        route = [str(data) if f == "DATA" else f for f in route]
        targets = dataio.make_impulse_dataset(4, 12, seed=9)
        paired = tmp_path / "targets.txt"
        paired.write_text(dataio.dataset_to_paired_text(targets))
        fasta = tmp_path / "targets.fasta"
        fasta.write_text("".join(f">{r.id}\n{r.sequence}\n"
                                 for r in targets.records))
        assert run_cli(["predict", "--model", str(model), "--fasta",
                        str(fasta), *route]) == 0
        predicted = dataio.parse_paired(capsys.readouterr().out)
        report = tmp_path / "report.json"
        assert run_cli(["evaluate", "--model", str(model), "--data",
                        str(paired), "--report", str(tmp_path / "r.tsv"),
                        "--json", str(report), *route]) == 0
        rows = json.loads(report.read_text())["records"]
        assert [row["id"] for row in rows] == [r.id for r in predicted]
        assert [row["q3"] for row in rows] == [
            dataio.q3(p.structure, t.structure).q3
            for p, t in zip(predicted, targets.records)]

    @pytest.mark.parametrize("mode", codec.DECODE_MODES)
    def test_mode_sets_the_decode(self, tmp_path, toy_files, capsys, mode):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        reports = []
        for flags in ([], ["--mode", mode]):
            report = tmp_path / f"report{len(reports)}.tsv"
            assert run_cli(["evaluate", "--model", str(model), "--data",
                            str(data), "--report", str(report), "--pipeline",
                            *flags]) == 0
            reports.append(report.read_text())
        # the records hold coil, which only nearest_centroid round-trips
        assert (reports[0] == reports[1]) == (mode == "nearest_centroid")

    @pytest.mark.parametrize("name", ["a\tb.txt", "a\nb.txt", "a\rb.txt"],
                             ids=["tab", "newline", "carriage-return"])
    def test_comparison_data_name_fails_before_prediction(
            self, tmp_path, toy_files, capsys, monkeypatch, name):
        # the comparison header names --data: a tab would add a column, a
        # line break a row
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        odd = tmp_path / name
        odd.write_text(data.read_text())
        monkeypatch.setattr(maca, "classify", no_prediction)
        outputs = [tmp_path / "r.tsv", tmp_path / "cmp.tsv"]
        assert run_cli(["evaluate", "--model", str(model), "--data", str(odd),
                        "--report", str(outputs[0]),
                        "--comparison", str(outputs[1])]) == 2
        assert f"--data {str(odd)!r} holds a tab or a line break" in \
            capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    def test_record_named_like_the_total_row_fails_before_prediction(
            self, tmp_path, toy_files, capsys, monkeypatch):
        # the report's TSV would hold two ALL rows, one of them the total
        dataset, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        first, second = dataset.records[:2]
        paired = tmp_path / "targets.txt"
        paired.write_text(dataio.dataset_to_paired_text(dataio.Dataset(
            (dataio.ProteinRecord("ALL", first.sequence, first.structure),
             second))))
        monkeypatch.setattr(maca, "classify", no_prediction)
        outputs = [tmp_path / "r.tsv", tmp_path / "r.json",
                   tmp_path / "cmp.tsv"]
        assert run_cli(["evaluate", "--model", str(model), "--data",
                        str(paired), "--report", str(outputs[0]),
                        "--json", str(outputs[1]),
                        "--comparison", str(outputs[2])]) == 2
        assert "record 'ALL'" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    def test_tree_evaluation_runs(self, tmp_path, toy_files, capsys):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", "--model", str(model), "--data", str(data),
                        "--report", str(report)]) == 0
        rows = report.read_text().strip().splitlines()
        assert len(rows) == 8  # header + 6 records + ALL
