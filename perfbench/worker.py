"""One workload in one fresh process: set up, run timed passes, check.

``run.py`` starts this script; its last line of standard output is one
JSON object.  Modes:

* ``run``: set up, then repeat whole passes of the workload for
  ``--seconds`` (a pass is never cut short), timing each operation, and
  check every output after its pass, outside the timed region;
* ``setup``: stop where ``run`` would start timing, report the set-up;
* ``check``: one pass with every check and no timing.

Set-up is measured from ``--t0``, the ``time.monotonic()`` reading the
parent took just before it started this process (the clock is shared
by all processes of the machine).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-results"


def import_program():
    """Import ``zeon`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "zeon" / "__init__.py").is_file():
        raise SystemExit(f"no zeon package under {SRC}")
    sys.path.insert(0, str(SRC))
    import zeon
    if Path(zeon.__file__).resolve().parent != SRC / "zeon":
        raise SystemExit(f"zeon was imported from {zeon.__file__}")
    return zeon


def build(workload: str, seed: int):
    import workloads
    if workload == "cli_oneshot":
        return workloads.cli_oneshot(seed)
    if workload == "cli_batch":
        return workloads.cli_batch(seed, batch_file())
    return workloads.LIBRARY[workload](seed)


def batch_file() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / f"batch-{os.getpid()}.txt"


def run_op(op):
    try:
        return op.run(), None
    except Exception as exc:  # a failing operation is data: counted below
        return None, exc


def check_op(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # unreadable output fails its check
        return False


class Tally:
    """Outcomes of the operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.errors: Counter[str] = Counter()
        self.bad: Counter[str] = Counter()

    def add(self, op, out, err):
        self.attempted += op.count
        if err is not None:
            self.failed += op.count
            self.errors[f"{op.kind}: {type(err).__name__}: {err}"] += 1
            return
        if check_op(op, out):
            self.passed += op.count
        else:
            self.bad[op.kind] += 1

    def summary(self) -> dict:
        return {"correct": not self.bad, "attempted": self.attempted,
                "failed": self.failed, "errors": dict(self.errors),
                "wrong": dict(self.bad)}


def sustained(samples: list[float]) -> float:
    """The time an operation needs in three passes out of four.

    The CPU of a shared host speeds up in bursts of a few seconds
    (per-pass throughput on lib_sparse ranges over 3200-6000 ops/s
    within a minute, with CPU time tracking wall time, so it is not
    time lost to other processes) while the slow state is a steady
    floor.  The 75th percentile over a run's passes tracks that floor;
    a median or a mean follows how many bursts a run happened to get.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def measure(ops, seconds: float):
    """Whole passes until ``seconds`` have gone by.

    Returns the tally, the number of passes, the sustained time of each
    operation of the pass (see :func:`sustained`) and whether each one
    raised.
    """
    tally = Tally()
    times = [[] for _ in ops]
    raised = [False] * len(ops)
    start = time.perf_counter()
    passes = 0
    while True:
        results = []
        for op in ops:
            t = time.perf_counter()
            out, err = run_op(op)
            results.append((out, err, time.perf_counter() - t))
        passes += 1
        for i, (op, (out, err, dt)) in enumerate(zip(ops, results)):
            times[i].append(dt)
            raised[i] |= err is not None
            tally.add(op, out, err)
        del results
        if time.perf_counter() - start >= seconds:
            return tally, passes, [sustained(t) for t in times], raised


def warm_up(ops) -> None:
    # the first operation of each kind, so lazy imports and first-call
    # costs land in set-up rather than in the first timed pass
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op)


def environment(zeon) -> dict:
    import platform

    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": zeon.backend_name(), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup", "check"), default="run")
    ap.add_argument("--t0", type=float, default=None)
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    zeon = import_program()
    try:
        return execute(args, zeon, t0)
    finally:
        batch_file().unlink(missing_ok=True)


def execute(args, zeon, t0) -> int:
    ops = build(args.workload, args.seed)
    if args.mode == "check":
        tally = Tally()
        for op in ops:
            out, err = run_op(op)
            tally.add(op, out, err)
        print(json.dumps(tally.summary()))
        return 0

    warm_up(ops)
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    tally, passes, op_s, raised = measure(ops, args.seconds)
    result = tally.summary()
    # checked operations of one pass over the sustained time of a pass
    throughput = tally.passed / passes / sum(op_s)
    if tracer is not None:
        tracer.uninstall()
        import layers
        result["metrics"], result["spans"] = layers.per_layer(
            tracer, ops_in_loop=tally.attempted, traced_throughput=throughput,
            seed=args.seed)
    else:
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli_oneshot"
               else resource.RUSAGE_SELF)
        result["metrics"] = {
            "throughput_ops_s": throughput,
            # over the operations that returned: a failure's time is no
            # latency
            "latency_p50_ms": statistics.median(
                s for s, bad in zip(op_s, raised) if not bad) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
    result["passes"] = passes
    result["env"] = environment(zeon)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
