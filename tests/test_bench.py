"""The kernel benchmark file still runs against the package's API."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernel_layers_run_once():
    # each layer runs once, untimed, so a layer that reads removed API fails
    # here; the default-config build (seconds a round) reads the same API
    # as test_build_tree
    pytest.importorskip("pytest_benchmark")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/bench_kernel.py", "-q",
         "-p", "no:cacheprovider", "--benchmark-disable",
         "-k", "not default_config"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
