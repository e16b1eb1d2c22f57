"""Benchmark of the zeon library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lib_sparse --seed 1 --seconds 18 \
        --trace 0
    python3 perfbench/run.py --check    # every workload once, checks only

Each run executes one workload in a fresh worker process
(``perfbench/worker.py``) that imports ``zeon`` from this checkout's
``src``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics``
holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The full result, with the environment,
the seed and the commit, goes to ``.perfbench-results/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-results"
WORKLOADS = ("cli_oneshot", "cli_batch", "lib_sparse", "lib_dense",
             "lib_spectral")
CLI = ("cli_oneshot", "cli_batch")
SETUPS = 5  # set-ups per run; setup_s is their 75th percentile
BUDGET_S = 170.0  # a run ends within 180 s or fails

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if ".mul_us." in metric:
        return "us"
    for suffix, unit in ((".us", "us"), (".ms", "ms"), ("ops_s", "1/s"),
                         ("_s", "s"), ("pair_yield", "ratio"),
                         ("batch_vs_sequential", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run went over its time budget")
        return left


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def worker(args: list[str], deadline: Deadline) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON line."""
    t0 = time.monotonic()
    # its own session, so that on a timeout the CLI processes the worker
    # started go down with it
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except (subprocess.TimeoutExpired, TimeoutError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {args} failed:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def cli_import_s(deadline: Deadline) -> float:
    """Wall time of a fresh interpreter that imports ``zeon.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zeon.cli"], cwd=ROOT,
                   env=child_env(), check=True, capture_output=True,
                   timeout=deadline.left())
    return time.perf_counter() - t0


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> dict:
    deadline = Deadline(BUDGET_S)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUPS if args.workload in CLI else SETUPS - 1):
            if args.workload in CLI:
                setups.append(cli_import_s(deadline))
            else:
                setups.append(worker(common + ["--mode", "setup"],
                                     deadline)["setup_s"])
    result = worker(common + ["--mode", "run"], deadline)
    if not args.trace:
        if args.workload not in CLI:
            setups.append(result["metrics"]["setup_s"])
        # the same estimator as for operation times: see worker.sustained
        result["metrics"]["setup_s"] = statistics.quantiles(
            setups, n=4, method="inclusive")[2]
        result["setups_s"] = setups
    return result


def check_all(args) -> int:
    """Every workload's inputs once, with all checks and no timing."""
    deadline = Deadline(BUDGET_S)
    names = [args.workload] if args.workload else list(WORKLOADS)
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for name in names:
        r = worker(["--workload", name, "--seed", str(args.seed),
                    "--mode", "check"], deadline)
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} wrong={r['wrong']} errors={r['errors']}")
        totals["correct"] &= r["correct"]
        totals["attempted"] += r["attempted"]
        totals["failed"] += r["failed"]
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run each workload's inputs once, checks only")
    args = ap.parse_args(argv)
    if not (SRC / "zeon" / "__init__.py").is_file():
        print(f"perfbench: no zeon package under {SRC}", file=sys.stderr)
        return 2
    if args.check:
        return check_all(args)
    if args.workload is None:
        ap.error("--workload is required unless --check is given")

    result = run(args)
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = {**line, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "env": result["env"],
              "detail": {k: v for k, v in result.items()
                         if k not in line and k != "env"}}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
