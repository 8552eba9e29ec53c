import json
from dataclasses import asdict

import pytest

from psmaca import cli, codec, dataio
from psmaca.cli import run_cli
from psmaca.maca import TreeConfig
from psmaca.pipeline import PipelineConfig, predict_structure


@pytest.fixture
def toy_files(tmp_path):
    dataset = dataio.make_impulse_dataset(6, 9, seed=0)
    data = tmp_path / "train.txt"
    data.write_text(dataio.dataset_to_paired_text(dataset))
    target = dataset.records[2]
    fasta = tmp_path / "target.fasta"
    fasta.write_text(f">{target.id}\n{target.sequence}\n")
    return dataset, data, fasta


def train(tmp_path, data, capsys=None, extra=()):
    model = tmp_path / "model.json"
    code = run_cli(["train", "--data", str(data), "--window", "3",
                    "--out", str(model), "--seed", "11",
                    "--population", "15", "--generations", "15", *extra])
    assert code == 0
    if capsys is not None:
        capsys.readouterr()  # drop train's status line
    return model


class TestSimulate:
    def test_rule_30_triangle(self, capsys):
        assert run_cli(["simulate", "--rule", "30", "--width", "5",
                        "--steps", "2"]) == 0
        assert capsys.readouterr().out == "00100\n01110\n11001\n"

    def test_bad_rule_is_data_error(self, capsys):
        assert run_cli(["simulate", "--rule", "300", "--width", "5",
                        "--steps", "1"]) == 2

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

    def test_rule_zero(self, capsys):
        assert run_cli(["basins", "--rule", "0", "--width", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["cycle [0000] basin size 16"]


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

    def test_ga_config_is_tree_config_plus_seed(self, tmp_path, toy_files,
                                                capsys):
        _, data, _ = toy_files
        loaded = dataio.load_model(train(tmp_path, data, capsys))
        tree_fields = asdict(loaded.tree.config)
        ga_fields = ("population_size", "generations", "crossover_rate",
                     "mutation_rate", "elitism_count")
        assert loaded.ga_config == {
            **{name: tree_fields[name] for name in ga_fields}, "rng_seed": 11}

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

    def test_pipeline_requires_train_data(self, tmp_path, toy_files, capsys):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline"]) == 1

    @pytest.mark.parametrize("flags", [
        ("--mode", "paper_bands"), ("--mode", "nearest_centroid"),
        ("--train-data", "DATA"), ("--no-verify",),
    ], ids=["mode-paper-bands", "mode-nearest-centroid", "train-data",
            "no-verify"])
    def test_route_flag_requires_pipeline(self, tmp_path, toy_files, capsys,
                                          flags):
        _, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        flags = [str(data) if f == "DATA" else f for f in flags]
        assert run_cli(["predict", "--model", str(model), "--fasta",
                        str(fasta), *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flags[0]} requires --pipeline" in err

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

    @pytest.mark.parametrize("mode", codec.DECODE_MODES)
    def test_mode_sets_the_decode(self, tmp_path, toy_files, capsys, mode):
        dataset, data, fasta = toy_files
        model = train(tmp_path, data, capsys)
        assert run_cli(["predict", "--model", str(model), "--fasta", str(fasta),
                        "--pipeline", "--train-data", str(data),
                        "--mode", mode]) == 0
        [record] = dataio.parse_paired(capsys.readouterr().out)
        cfg = dataio.load_model(model).pipeline
        trace = predict_structure(record.sequence, dataset.records, cfg).trace
        assert record.structure == codec.structure_decode(trace, mode)
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
        (lambda doc: doc["pipeline"].update(scale_name="zzz"), "scale 'zzz'"),
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
        (lambda doc: doc["tree"].update(n=15.0), "tree n"),
    ], ids=["no-window", "kmer-size-0", "decode-mode", "scale-name",
            "fingerprint-int", "ga-config-list", "max-depth-negative",
            "population-size-1", "population-size-str", "mutation-rate-1.5",
            "filter-length-float", "filter-length-bool", "kmer-size-float",
            "ridge-nan", "ridge-bool", "tree-n-float"])
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


class TestScaleName:
    """A model's scale_name must be a bundled scale: a path, absolute or
    relative, to a valid scale file elsewhere is a data error."""

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
        assert f"unknown hydropathy scale {scale_name!r}" in err
        assert not (tmp_path / "report.tsv").exists()


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

    def test_train_data_requires_pipeline(self, tmp_path, toy_files, capsys):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        report = tmp_path / "report.tsv"
        for flags in (["--train-data", str(data)], ["--no-verify"]):
            assert run_cli(["evaluate", "--model", str(model), "--data",
                            str(data), "--report", str(report), *flags]) == 1
            assert f"{flags[0]} requires --pipeline" in capsys.readouterr().err
            assert not report.exists()

    def test_tree_evaluation_runs(self, tmp_path, toy_files, capsys):
        _, data, _ = toy_files
        model = train(tmp_path, data, capsys)
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", "--model", str(model), "--data", str(data),
                        "--report", str(report)]) == 0
        rows = report.read_text().strip().splitlines()
        assert len(rows) == 8  # header + 6 records + ALL
