"""Every layer of the kernel bench still runs against the package's API."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import bench_kernel  # noqa: E402

BEFORE = {p: p.stat().st_mtime_ns for p in ROOT.glob("BENCH_*")}


@pytest.mark.parametrize("layer", bench_kernel.LAYERS,
                         ids=lambda layer: layer.name)
def test_layer_runs_once(layer):
    call, _ = layer.build()  # a slow build (seconds a round): input only
    if not layer.slow:
        call()


def test_the_table_is_bench_30s_layers_and_writes_nothing():
    old = json.loads((ROOT / "BENCH_30.json").read_text())["layers"]
    del old["pipeline._kmer_vector[per sequence, cold]"]
    assert sorted(layer.name for layer in bench_kernel.LAYERS) == sorted(
        [*old, "maca.build_tree[23,310 windows, default TreeConfig]",
         "pipeline.prepare_bases[150 bases]",
         "pipeline.prepare_bases[1,000 bases]",
         "pipeline.select_base[per target, 1,000 bases]"])
    code = "import sys, bench_kernel; print('pytest' in ' '.join(sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                          capture_output=True, text=True).stdout == "False\n"
    assert {p: p.stat().st_mtime_ns for p in ROOT.glob("BENCH_*")} == BEFORE
