"""Tests of the benchmark's own code, at reduced input sizes."""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import golden
import run
import tracer
from workloads import WORKLOADS, PredictTree, read_report

from psmaca import cli, codec, dataio, ga, maca, pipeline

BENCHMARK = run.REPO / "BENCHMARK.json"


class TinyPredict(PredictTree):
    records, length, model_records, model_length = 5, 30, 2, 20
    ga_args = ("--population", "4", "--generations", "2")
    pinned = {}
    pinned_model = None


class Launcher(run.Launcher):
    def __init__(self, work: Path):
        super().__init__(work, run.child_env(1), time.monotonic() + 120)

    def reference(self):
        # these tests check outputs, not speed: skip the 1 s reference work
        return self.spawn([sys.executable, "-c", "pass"],
                          self.work / "reference.out")


class TestSelfTimes:
    def test_nested_and_overlapping_children(self):
        spans = [
            (0.0, 10.0, -1),  # root
            (1.0, 4.0, 0),    # child with a grandchild
            (2.0, 3.0, 1),
            (5.0, 7.0, 0),    # two children overlapping on [6, 7]
            (6.0, 8.0, 0),
        ]
        # the root's children cover [1, 4] and [5, 8]: 6 of its 10 s
        assert tracer.self_times(spans) == [4.0, 2.0, 1.0, 2.0, 2.0]

    def test_child_outside_its_parent_is_clipped(self):
        assert tracer.self_times([(0.0, 2.0, -1), (1.0, 5.0, 0)]) == [1.0, 4.0]


class TestWrappers:
    def test_reach_name_imports_and_are_removed(self):
        originals = (maca.distribute, codec.window_patterns,
                     pipeline.predict_structure, codec.hydropathy_encode)
        t = tracer.Tracer()
        t.install()
        try:
            assert ga.distribute is maca.distribute is not originals[0]
            assert cli.window_patterns is codec.window_patterns
            assert cli.window_patterns is not originals[1]
            assert cli.predict_structure is not originals[2]
            assert pipeline.hydropathy_encode is not originals[3]
            training = [maca.LabeledPattern(bits, label) for bits, label in
                        zip(codec.window_patterns("ACDEFG", 1), "HHEECC")]
            ch = ga.random_chromosome(5, 2, random.Random(0))
            ga.fitness(ch, training)
            ga.fitness(ch, training)
        finally:
            t.restore()
        assert (ga.distribute, cli.window_patterns, cli.predict_structure,
                pipeline.hydropathy_encode) == originals
        assert maca.distribute is originals[0]
        names = [tracer.FUNCTIONS[s[0]] for s in t.spans]
        assert names == ["codec.window_patterns", "ga.fitness",
                         "maca.distribute", "ga.fitness", "maca.distribute"]
        assert t.spans[2][3] == 1  # distribute's parent is the first fitness
        counters = t.finished_counters()
        assert counters["maca.distribute.patterns"] == 12
        assert counters["ga.fitness.distinct"] == 1

    def test_traced_train_reports_layer_metrics(self, tmp_path):
        data = tmp_path / "train.txt"
        data.write_text(dataio.dataset_to_paired_text(
            dataio.make_toy_dataset(3, 12, seed=0)))
        spans = tmp_path / "spans.npz"
        code = tracer.main([str(spans), "--", "train", "--data", str(data),
                            "--out", str(tmp_path / "m.json"),
                            "--population", "4", "--generations", "2"])
        assert code == 0
        m = tracer.layer_metrics(spans, traced_wall_s=100.0)
        names = {spec["name"] for spec in tracer.per_layer_specs()}
        assert set(m) == names - {"trace_overhead"}
        assert m["cli.run_cli.calls"] == 1
        assert m["ga.fitness.calls"] > 0 and m["maca.distribute.calls"] > 0
        assert m["codec.window_patterns.windows"] == 36
        assert m["maca.build_tree.nodes"] >= 1
        assert 0 < m["ga.fitness.distinct_ratio"] <= 1
        assert m["process.startup_s"] == 100.0 - m["cli.run_cli.total_s"]
        assert m["ga.fitness.self_s"] <= m["ga.fitness.total_s"]
        assert m["maca.distribute.patterns"] > 0
        assert m["ga.fitness.ns_per_pattern"] > 0


class TestNormalization:
    def test_scale_uses_the_references_around_a_step(self, tmp_path):
        walls = iter([0.5, 1.5, 1.0])

        class Fixed(Launcher):
            def reference(self):
                return run.Sample(0, next(walls), 0.0, 0.0)

        bench = run.Run(None, Fixed(tmp_path), trace=False)
        bench._reference()  # the first run only opens the bracket
        assert bench._reference() == 2 * run.REF_S / (0.5 + 1.5)
        assert bench._reference() == 2 * run.REF_S / (1.5 + 1.0)

    def test_failing_reference_stops_the_run(self, tmp_path):
        class Failing(Launcher):
            def reference(self):
                return run.Sample(1, 0.1, 0.0, 0.0)

        with pytest.raises(RuntimeError):
            run.Run(None, Failing(tmp_path), trace=False)._reference()


class Relabeling(Launcher):
    """Changes the first predicted label of a predict op to another one."""

    def cli(self, args, stdout):
        sample = super().cli(args, stdout)
        if args[0] == "predict":
            text = stdout.read_text()
            at = text.index("Predicted Structure:\n") + 21
            other = "E" if text[at] == "H" else "H"
            stdout.write_text(text[:at] + other + text[at + 1:])
        return sample


def _measure(workload, launcher) -> run.Run:
    bench = run.Run(workload, launcher, trace=False)
    bench.setup()
    bench.measure(seconds=0)
    return bench


class TestChecks:
    def test_truncated_predict_output_is_a_failed_op(self, tmp_path):
        class Truncating(Launcher):
            def cli(self, args, stdout):
                sample = super().cli(args, stdout)
                if args[0] == "predict":
                    text = stdout.read_text()
                    stdout.write_text(text[: len(text) // 2])
                return sample

        bench = _measure(TinyPredict(tmp_path, 3), Truncating(tmp_path))
        assert bench.attempted == run.MIN_OPS
        assert len(bench.errors) == bench.attempted
        assert bench.q3s == []

    def test_changed_label_fails_the_pinned_digest(self, tmp_path):
        workload = TinyPredict(tmp_path, 3)
        assert _measure(workload, Launcher(tmp_path)).errors == []

        class Pinned(TinyPredict):
            pinned = {3: golden.sha256(workload.reference.encode())}
            pinned_model = golden.sha256(workload.model_bytes)

        assert _measure(Pinned(tmp_path, 3), Launcher(tmp_path)).errors == []
        # still well formed, so only the pinned digest can catch it
        bench = _measure(Pinned(tmp_path, 3), Relabeling(tmp_path))
        assert len(bench.errors) == bench.attempted == run.MIN_OPS
        assert all("pinned" in e for e in bench.errors)

    def test_other_model_fails_the_pinned_model(self, tmp_path):
        class Pinned(TinyPredict):
            pinned_model = golden.sha256(b"another model")

        bench = _measure(Pinned(tmp_path, 3), Launcher(tmp_path))
        assert len(bench.errors) == bench.attempted

    def test_whole_predict_output_passes(self, tmp_path):
        workload = TinyPredict(tmp_path, 3)
        bench = run.Run(workload, Launcher(tmp_path), trace=True)
        bench.setup()
        bench.measure(seconds=0)
        assert bench.errors == []
        assert len(bench.q3s) == len(bench.samples)
        assert bench.layers[0]["maca.classify.calls"] == workload.items

    def test_report_rows_must_match_the_records(self, tmp_path):
        report = tmp_path / "r.tsv"
        report.write_text("id\tq3\tqH\tqE\tqC\na\t50.00\tNA\tNA\tNA\n"
                          "ALL\t50.00\tNA\tNA\tNA\n")
        assert read_report(report, ["a"]) == (None, 50.0)
        assert read_report(report, ["a", "b"])[0] is not None


class TestGolden:
    def test_every_workload_is_pinned_at_the_default_seed(self):
        for cls in WORKLOADS.values():
            assert len(cls.pinned[1]) == 64
        assert len(PredictTree.pinned_model) == 64


class TestBenchmarkJson:
    def test_matches_the_code(self):
        doc = json.loads(BENCHMARK.read_text())
        assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
        assert doc["per_layer"] == tracer.per_layer_specs()
        assert {m["name"]: (m["unit"], m["better"])
                for m in doc["end_to_end"]} == run.END_TO_END
        for w in doc["workloads"]:
            for layer in WORKLOADS[w["name"]].dominant:
                assert layer in w["why"]

    def test_exits_nonzero_without_the_program(self, tmp_path):
        shutil.copy(BENCHMARK, tmp_path)
        shutil.copytree(run.HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=""))
        assert done.returncode != 0
        assert done.stdout == ""
