"""Seeded end-to-end benchmark of the psmaca command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Each op is one fresh `psmaca` CLI process, started one at a time (a closed
loop with one client) on files generated from the seed.  Set-up runs at
least SETUP_REPEATS times and until SETUP_MIN_S have passed, and reports
its median.  Ops run until `--seconds` have
passed and at least MIN_OPS ran; every output is checked.  With `--trace 1`
the ops alternate between an untraced run and a run under tracer.py, and
the per-layer metrics are reported instead of the end-to-end ones.  Without
`--workload`, every workload runs in turn.

The set-ups, and every op, are bracketed by runs of reference.py.  The
reported times are normalized: each measured time is multiplied by REF_S
over the mean wall time of the two reference runs around it.  The raw times are in
the detail line.

The last line of standard output is the result as one JSON object; the line
before it is a JSON object with the spreads, counts and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
REFERENCE = HERE / "reference.py"
# Nominal wall time of reference.py, about its median on a 2-core Intel
# Xeon VM, so that normalized times read close to seconds there.
REF_S = 1.0
SRC = REPO / "src"
WORK = REPO / ".perfbench-work"
SETUP_REPEATS = 3
# A set-up of a few milliseconds (train's) is repeated until this much time
# has passed, so that its median is steady.
SETUP_MIN_S = 0.5
MIN_OPS = 3
# Every child is killed once the run has lasted this long, so that no run
# lasts more than 180 s.
DEADLINE_S = 170.0
CLI_MAIN = "from psmaca.cli import main; main()"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
END_TO_END = {  # name -> (unit, better)
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "q3": ("%", "higher"),
}


@dataclass(frozen=True)
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Launcher:
    """Starts one child process at a time and measures it with wait4."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline
        self.stderr = work / "stderr.txt"

    def cli(self, args, stdout: Path) -> Sample:
        """One fresh `psmaca` CLI process."""
        return self.spawn([sys.executable, "-c", CLI_MAIN, *args], stdout)

    def reference(self) -> Sample:
        """One run of the reference program."""
        return self.spawn([sys.executable, str(REFERENCE)],
                          self.work / "reference.out")

    def traced(self, spans: Path, args, stdout: Path) -> Sample:
        """One `psmaca` CLI process under the layer tracer."""
        return self.spawn([sys.executable, str(HERE / "tracer.py"),
                           str(spans), "--", *args], stdout)

    def spawn(self, argv, stdout: Path) -> Sample:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"run exceeded {DEADLINE_S} s")
        with open(stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.work, env=self.env)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024)

    def stderr_tail(self) -> str:
        lines = self.stderr.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


def child_env(nproc: int) -> dict:
    """The environment of every child: psmaca from this checkout's source,
    and no more BLAS/OpenMP threads than there are processors."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    if not (REPO / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment(env: dict, nproc: int, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_commit": _commit(),
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
    }


def spread(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One invocation on one workload: set-up, then the timed ops."""

    def __init__(self, workload, launcher: Launcher, trace: bool):
        self.workload = workload
        self.launcher = launcher
        self.trace = trace
        self.samples: list[Sample] = []  # untraced ops
        self.scales: list[float] = []  # normalization of each untraced op
        self.traced: list[Sample] = []
        self.layers: list[dict] = []  # per traced op that passed its checks
        self.shares: list[float] = []  # dominant layers' self time / wall
        self.q3s: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.setup_s: list[float] = []  # raw
        self.setup_scale = 1.0
        self.references: list[float] = []  # wall times of reference.py

    def _reference(self) -> float:
        """Run the reference program.  Returns the normalization of the
        step it ends: REF_S over the mean of the two runs around the step."""
        sample = self.launcher.reference()
        if sample.code != 0:
            raise RuntimeError(f"reference program exited with {sample.code}")
        self.references.append(sample.wall_s)
        return 2 * REF_S / sum(self.references[-2:])

    def setup(self) -> None:
        self._reference()
        first = time.perf_counter()
        while (len(self.setup_s) < SETUP_REPEATS
               or time.perf_counter() - first < SETUP_MIN_S):
            start = time.perf_counter()
            self.workload.setup(self.launcher)
            self.setup_s.append(time.perf_counter() - start)
        self.setup_scale = self._reference()

    def _op(self, traced: bool) -> None:
        w, work = self.workload, self.launcher.work
        stdout, spans = work / "op.out", work / "spans.npz"
        spans.unlink(missing_ok=True)
        args = w.start_op()
        sample = (self.launcher.traced(spans, args, stdout) if traced
                  else self.launcher.cli(args, stdout))
        error = (f"exit code {sample.code}: {self.launcher.stderr_tail()}"
                 if sample.code != 0 else None)
        scale = self._reference()
        self.attempted += 1
        if traced:
            self.traced.append(sample)
        else:
            self.samples.append(sample)
            self.scales.append(scale)
        if error is None:
            error, q3 = w.check(self.launcher, stdout)
        if error is None and traced:
            metrics = tracer.layer_metrics(spans, sample.wall_s)
            idle = [d for d in w.dominant if not metrics[f"{d}.calls"]]
            if idle:
                error = f"dominant layers recorded no calls: {idle}"
            else:
                self.layers.append(metrics)
                self.shares.append(sum(metrics[f"{d}.self_s"]
                                       for d in w.dominant) / sample.wall_s)
        if error is not None:
            self.errors.append(error)
        elif not traced:
            self.q3s.append(q3)

    def measure(self, seconds: float) -> None:
        start = time.monotonic()
        while (len(self.samples) + len(self.traced) < MIN_OPS
               or time.monotonic() - start < seconds):
            self._op(traced=False)
            if self.trace:
                self._op(traced=True)

    def end_to_end(self) -> dict:
        wall = [s.wall_s * k for s, k in zip(self.samples, self.scales)]
        return {
            "wall_s": spread(wall),
            "items_per_s": spread(self.workload.items / t for t in wall),
            "cpu_s": spread(s.cpu_s * k
                            for s, k in zip(self.samples, self.scales)),
            "peak_rss_mb": spread(s.rss_mb for s in self.samples),
            "setup_s": spread(t * self.setup_scale for t in self.setup_s),
            "q3": spread(self.q3s or [0.0]),
        }

    def raw(self) -> dict:
        """Measured times before normalization."""
        return {
            "wall_s": spread(s.wall_s for s in self.samples),
            "cpu_s": spread(s.cpu_s for s in self.samples),
            "setup_s": spread(self.setup_s),
            "reference_s": spread(self.references),
        }

    def per_layer(self) -> dict:
        rows = self.layers or [{}]
        out = {spec["name"]: spread(row.get(spec["name"], 0.0) for row in rows)
               for spec in tracer.per_layer_specs()}
        traced = statistics.median(s.wall_s for s in self.traced)
        untraced = statistics.median(s.wall_s for s in self.samples)
        out["trace_overhead"] = spread([traced / untraced - 1])
        return out


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Set up and measure one workload.  Returns (result, detail)."""
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(nproc)
    launcher = Launcher(work, env, time.monotonic() + DEADLINE_S)
    workload = WORKLOADS[name](work, seed)
    run = Run(workload, launcher, trace)
    run.setup()
    run.measure(seconds)

    stats = run.per_layer() if trace else run.end_to_end()
    if trace:
        units = {s["name"]: s["unit"] for s in tracer.per_layer_specs()}
    else:
        units = {m: unit for m, (unit, _) in END_TO_END.items()}
    failed = len(run.errors)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": stats[m]["median"], "unit": units[m]}
                    for m in units},
    }
    detail = {
        "workload": name,
        "items": workload.items,
        "ops": run.attempted,
        "failed_ops": failed,
        "errors": run.errors[:5],
        "spread": stats,
        "raw": run.raw(),
        "dominant_layers": list(workload.dominant),
        "dominant_self_share": (statistics.median(run.shares)
                                if run.shares else None),
        **workload.observations(),
        "environment": environment(env, nproc, seed),
    }
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return result, detail


def _print_table(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']}: ops {detail['ops']}, "
          f"failed_ops {detail['failed_ops']}")
    for error in detail["errors"]:
        print(f"  failed: {error}")
    for name, metric in result["metrics"].items():
        s = detail["spread"][name]
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psmaca" / "cli.py").is_file():
        print(f"error: no psmaca source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
        except Exception as e:  # a broken set-up or an overrun: no result
            print(f"error: {name}: {e!r}", file=sys.stderr)
            return 1
        _print_table(result, detail)
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
