"""Per-layer metrics of a traced run.

A traced run first repeats the workload's passes with every span
installed (the loop).  Then it runs the layer tour, a fixed, seeded
sample of operations from every layer, still traced, so that every
metric has a measured value on every workload.  Finally, untraced,
come the probes: kernel microbenchmarks and the CLI's import, single
command and batch timings.

A span metric of a function comes from the loop when the workload
calls that function, and from the tour otherwise.  Counts and
self times are per operation of the part they come from; ``.us``
metrics are the mean inclusive time of one call.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from spans import Tracer
from worker import run_op

US = {  # metric: span, mean inclusive microseconds per call
    "algebra.mul.us": "algebra.mul",
    "algebra.add.us": "algebra.add",
    "algebra.init.us": "algebra.init",
    "algebra.inverse.us": "algebra.inverse",
    "algebra.kth_roots.us": "algebra.kth_roots",
    "poly.eval.us": "poly.eval",
    "poly.divide.us": "poly.divide",
    "poly.remainder_at.us": "poly.remainder_at",
    "poly.from_roots.us": "poly.from_roots",
    "poly.quadratic_solve.us": "poly.quadratic_solve",
    "poly.nilpotent_sqrt.us": "poly.nilpotent_sqrt",
    "solve.split.us": "solve.split",
    "solve.scalar_roots.us": "solve.scalar_roots",
    "solve.spectrally_simple_zero.us": "solve.spectrally_simple_zero",
    "analytic.extend_eval.us": "analytic.extend_eval",
    "analytic.polynomial_form.us": "analytic.polynomial_form",
    "analytic.preimage.us": "analytic.preimage",
    "textio.parse_zeon.us": "textio.parse_zeon",
    "textio.parse_poly.us": "textio.parse_poly",
    "textio.format_zeon.us": "textio.format_zeon",
    "textio.format_poly.us": "textio.format_poly",
    "textio.zeon_to_dict.us": "textio.zeon_to_dict",
}

PER_OP = {  # metric: (span, field), summed and divided by operations
    "backend.mul_terms.calls": ("backend.mul_terms", "calls"),
    "backend.mul_terms.self_s": ("backend.mul_terms", "self"),
    "backend.combine_terms.calls": ("backend.combine_terms", "calls"),
    "backend.combine_terms.self_s": ("backend.combine_terms", "self"),
    "backend.combine_terms.pruned": ("backend.combine_terms", "pruned"),
    "poly.least_squares.calls": ("poly.least_squares", "calls"),
    "poly.least_squares.self_s": ("poly.least_squares", "self"),
}

RATIO = {  # metric: (span, counter), divided by the span's calls
    "algebra.inverse.products": ("algebra.inverse", "algebra.mul"),
    "solve.lift.iterations": ("solve.spectrally_simple_zero", "iterations"),
    "solve.lift.evals": ("solve.spectrally_simple_zero", "poly.eval"),
}

KERNEL_SIZES = {"t4": (8, 4), "t10": (8, 10), "t64": (10, 64),
                "t256": (11, 256)}


def tour(seed: int) -> list:
    """A fixed sample of operations that reaches every traced function."""
    ops = workloads.lib_sparse(seed)[::7]
    ops += workloads.lib_dense(seed)[:3]
    ops += [op for op in workloads.lib_spectral(seed)
            if op.kind not in ("preimage_large_scalar", "nilpotent_sqrt")][::3]
    # min grade 4, so the bottom layer is fitted by least squares
    n = 5
    v = workloads.dense.from_terms(n, [((1, 2), 1.0), ((3, 4), 0.5)])
    vw = workloads.dense.mul(v, v)
    w = workloads.zeon_of(n, vw)
    ops.append(workloads.Op("nilpotent_sqrt",
                            lambda: workloads.zeon.nilpotent_sqrt(w),
                            workloads.check_square_root(vw)))
    ops += [cli_op(c) for c in workloads.cli_commands(seed, (2, 3, 4), 1)]
    return ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``zeon.cli.main`` in process: exit code and standard output."""
    import zeon.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = zeon.cli.main(argv)
    return code, out.getvalue()


def cli_op(cmd: "workloads.Command") -> "workloads.Op":
    return workloads.Op(cmd.argv[0], lambda: run_cli(cmd.argv),
                        lambda r: r[0] == 0 and cmd.check(r[1]))


def span_metrics(loop: dict, loop_ops: int, tour_stats: dict,
                 tour_ops: int) -> dict[str, float]:
    def source(span):
        s = loop.get(span)
        if s is not None and s.calls:
            return s, loop_ops
        return tour_stats[span], tour_ops

    out = {}
    for metric, span in US.items():
        s, _ = source(span)
        out[metric] = s.total / s.calls * 1e6
    for metric, (span, field) in PER_OP.items():
        s, ops = source(span)
        value = {"calls": s.calls, "self": s.own}.get(field)
        out[metric] = (s.counters[field] if value is None else value) / ops
    s, _ = source("backend.mul_terms")
    out["backend.mul_terms.pair_yield"] = (s.counters["disjoint"]
                                           / s.counters["pairs"])
    for metric, (span, counter) in RATIO.items():
        s, _ = source(span)
        out[metric] = s.counters[counter] / s.calls
    return out


def kernel_us(seed: int) -> dict[str, float]:
    """Microseconds per ``mul_terms`` call on random canonical operands."""
    from zeon import _backend
    rng = np.random.default_rng(seed)
    out = {}
    for label, (n, t) in KERNEL_SIZES.items():
        args = []
        for _ in range(2):
            masks = np.sort(rng.choice(1 << n, size=t, replace=False))
            coefs = rng.normal(size=t) + 1j * rng.normal(size=t)
            args += [masks.astype(np.uint64), coefs]
        reps = []
        number = max(1, int(2e4 / (t * t)))
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(number):
                _backend.mul_terms(*args, 1e-14)
            reps.append((time.perf_counter() - t0) / number)
        out[f"backend.mul_us.{label}"] = statistics.median(reps) * 1e6
    return out


def import_times() -> tuple[float, float]:
    """Median over fresh interpreters of ``import zeon.cli`` (all zeon
    modules, cumulative) and of the ``scipy.optimize`` import within it,
    from ``-X importtime``."""
    totals, scipys = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import zeon.cli"],
            env=workloads.child_env(), cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=120, check=True)
        total = scipy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "scipy.optimize":
                scipy = int(cumulative)
            top = name[1:] if name.startswith(" ") else name
            if not top.startswith(" ") and (
                    top == "zeon" or top.startswith("zeon.")):
                total += int(cumulative)
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


def cli_probes(seed: int) -> dict[str, float]:
    cmds = workloads.cli_commands(seed, (2, 3, 4, 5, 6), 3)
    single = []
    for _ in range(3):
        for c in cmds[:9]:
            t0 = time.perf_counter()
            run_cli(c.argv)
            single.append(time.perf_counter() - t0)
    path = workloads.ROOT / ".perfbench-results" / f"probe-{seed}.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(" ".join(shlex.quote(a) for a in c.argv) + "\n"
                            for c in cmds))
    batch, seq = [], []
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            run_cli(["--batch", str(path)])
            batch.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for c in cmds:
                run_cli(c.argv)
            seq.append(time.perf_counter() - t0)
    finally:
        path.unlink(missing_ok=True)
    import_s, scipy_s = import_times()
    return {
        "cli.import_s": import_s,
        "cli.import_scipy_s": scipy_s,
        "cli.main.ms": statistics.median(single) * 1e3,
        "cli.batch_line.ms": statistics.median(batch) / len(cmds) * 1e3,
        "cli.batch_vs_sequential": (statistics.median(batch)
                                    / statistics.median(seq)),
    }


def per_layer(tracer: Tracer, ops_in_loop: int, traced_throughput: float,
              seed: int) -> tuple[dict[str, float], dict]:
    """Every per-layer metric, and the span tables they come from."""
    loop = tracer.stats()
    loop_report = tracer.report()
    tracer.reset()
    ops = tour(seed)
    tracer.install()
    try:
        for op in ops:
            run_op(op)
    finally:
        tracer.uninstall()
    metrics = span_metrics(loop, ops_in_loop, tracer.stats(),
                           sum(op.count for op in ops))
    tables = {"loop": loop_report, "tour": tracer.report()}
    metrics.update(kernel_us(seed))
    metrics.update(cli_probes(seed))
    metrics["trace.throughput_ops_s"] = traced_throughput
    return metrics, tables
