"""Each benchmark workload's output at seed 1 still has its pinned digest.

The benchmark pins the sha256 of every workload's op output in
`perfbench/golden.json`; this runs one op of each workload, as
`perfbench/run.py` does at its default seed, so a change to output bytes
fails here rather than only when the benchmark or `perfbench/golden.py`
runs.
"""

import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import golden  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1  # run.py's default


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_matches_its_pinned_digest(tmp_path, name):
    env = run.child_env(len(os.sched_getaffinity(0)))
    launcher = run.Launcher(tmp_path, env, time.monotonic() + 120)
    workload = WORKLOADS[name](tmp_path, SEED)
    workload.setup(launcher)
    stdout = tmp_path / "op.out"
    sample = launcher.cli(workload.start_op(), stdout)
    assert sample.code == 0, launcher.stderr_tail()
    assert golden.sha256(workload.output(stdout)) == golden.pinned(name)[SEED]
    if name == "predict_tree":
        assert golden.sha256(workload.model_bytes) == golden.pinned_model()
