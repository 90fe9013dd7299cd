"""specact benchmark: closed-loop workloads with end-to-end and per-layer
metrics.

Run from the repository root:

    python3 perfbench/run.py --workload expand-dense --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

One caller issues each item only after the previous one returned.  With
``--trace 0`` the run times items for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed number of items
each once untraced and once traced, and reports the per-layer metrics.
Every item's outputs are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is nonzero when a check failed.  ``--workload all`` runs every
workload in its own process and prints each one's metrics.
"""

from __future__ import annotations

import time

# Set-up time runs from process start.  Interpreter start-up, before this
# line, is CPU-bound, so the CPU time the process has used so far stands in
# for it.
_START = time.perf_counter()
_STARTUP_S = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("agree", "expand-dense", "wide", "oracle")
# set-up is repeated this many times in a run and its median reported
SETUP_REPEATS = 3
# the warm-up item is item 0 of this seed, whatever seed the run has
WARMUP_SEED = 0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def check_ratio(checks) -> float:
    """Worst error over tolerance of one item; NaN counts as infinite."""
    worst = 0.0
    for err, tol in checks:
        ratio = err / tol
        worst = max(worst, ratio if math.isfinite(ratio) else math.inf)
    return worst


class Record:
    """Correctness record of every item a run checks, warm-ups included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0

    def run(self, workload, inputs) -> float:
        """One item: returns its latency in seconds, checks included."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            ratio = check_ratio(workload.run(inputs))
        except Exception:  # an item that raises counts as failed; keep going
            traceback.print_exc()
            ratio = math.inf
        elapsed = time.perf_counter() - start
        self.worst = max(self.worst, ratio)
        if not ratio <= 1.0:
            self.failed += 1
        return elapsed


def setup(cls, seed: int, record: Record):
    """Build the workload from the seed and run one untimed warm-up item.

    The warm-up's inputs are the same for every seed, so that set-up time
    does not depend on what the seed draws.
    """
    start = time.perf_counter()
    warm = cls(WARMUP_SEED)
    record.run(warm, warm.item(0))
    workload = cls(seed)
    return workload, time.perf_counter() - start


def timed_run(cls, seed: int, seconds: float, import_s: float, record: Record):
    """End-to-end metrics of a closed loop that runs for ``seconds``."""
    setups = [setup(cls, seed, record) for _ in range(SETUP_REPEATS)]
    workload = setups[-1][0]
    latencies: list[float] = []
    busy = 0.0
    # stop at a round boundary, so that every run times the same mix of items
    while busy < seconds or len(latencies) % cls.ROUND:
        latencies.append(record.run(workload, workload.item(len(latencies))))
        busy += latencies[-1]
    metrics = {
        "setup_s": (import_s + statistics.median(t for _, t in setups), "s"),
        "items_per_s": (len(latencies) / busy, "1/s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"item_samples": len(latencies)}
    # a p90 needs at least ten samples beyond it
    if len(latencies) >= 100:
        extra["item_p90_s"] = statistics.quantiles(latencies, n=10)[8]
    return metrics, extra


def traced_run(cls, seed: int, record: Record):
    """Per-layer metrics of a fixed item count, each item run untraced and
    traced; a fixed count makes every count repeat exactly."""
    from tracer import Tracer

    workload, _ = setup(cls, seed, record)
    tracer = Tracer()
    untraced = traced = 0.0
    for i in range(cls.TRACE_ITEMS):
        inputs = workload.item(i)
        # alternate which pass goes first, so neither always gets warm caches
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if with_trace:
                tracer.item = i
                with tracer:
                    traced += record.run(workload, inputs)
            else:
                untraced += record.run(workload, inputs)
    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics["check.err_over_tol"] = (record.worst, "ratio")
    return metrics, tracer


def run_one(args, nproc: int) -> int:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    import_s = _STARTUP_S + time.perf_counter() - _START
    record = Record()
    tracer = None
    extra: dict = {}
    if args.trace:
        metrics, tracer = traced_run(cls, args.seed, record)
    else:
        metrics, extra = timed_run(cls, args.seed, float(args.seconds), import_s, record)
    extra = {"fail_frac": record.failed / record.attempted, "err_over_tol": record.worst, **extra}
    result = {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args.seed, nproc)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, **extra, **result}, indent=1)
    )
    print(f"# env {json.dumps(env)}")
    for key, value in extra.items():
        print(f"{args.workload} {key} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} items {record.attempted} attempted, {record.failed} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "specact" / "__init__.py").is_file():
        print(f"perfbench: no specact package under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
