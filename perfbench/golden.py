"""Output digests pinned per workload and seed.

A workload's op output (the `train` model JSON, the `predict_tree`
standard output, the `evaluate_pipeline` report TSV) is fully determined
by the seed, so its sha256 is pinned in golden.json for a range of seeds.
An op whose output differs from the pinned digest is a failed op, which
catches a change that keeps the output well formed but alters it, such as
a classifier that returns one label or a base selection that breaks ties
differently.  Seeds outside the table are checked only for consistency
within the run.

Run as a script, this regenerates golden.json from the current source, one
CLI run per workload and seed.  Do so only when a change to the program is
meant to change its outputs:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
MODEL_KEY = "predict_tree_model"  # the one model every predict_tree op reads
SEEDS = range(64)


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _load() -> dict:
    try:
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def pinned(workload: str) -> dict[int, str]:
    """Seed -> sha256 of the workload's op output."""
    return {int(seed): digest
            for seed, digest in _load().get(workload, {}).items()}


def pinned_model() -> str | None:
    return _load().get(MODEL_KEY)


def main() -> int:
    import run

    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    table: dict = {name: {} for name in WORKLOADS}
    for seed in SEEDS:
        for name, cls in WORKLOADS.items():
            work = run.WORK / f"golden-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            launcher = run.Launcher(work, run.child_env(nproc),
                                    time.monotonic() + 600)
            workload = cls(work, seed)
            workload.setup(launcher)
            stdout = work / "op.out"
            sample = launcher.cli(workload.start_op(), stdout)
            if sample.code != 0:
                print(f"error: {name} seed {seed} exited with {sample.code}: "
                      f"{launcher.stderr_tail()}", file=sys.stderr)
                return 1
            table[name][str(seed)] = sha256(workload.output(stdout))
            if name == "predict_tree":
                table[MODEL_KEY] = sha256(workload.model_bytes)
            shutil.rmtree(work, ignore_errors=True)
            print(name, seed, table[name][str(seed)], flush=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
