"""The benchmark's span tracer still fits the kernel API it wraps.

``perfbench/spans.py`` replaces library functions with timing wrappers
and reads counters off the kernel arguments (``ia.size`` and friends),
so a kernel signature change would break the benchmark's traced mode.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from zeon import Zeon
from zeon.algebra import mask_to_indices

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_kernel_and_algebra_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    n = 6
    init = Zeon.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        small = Zeon(n, {(): 2.0, (1,): 1.0, (2, 3): -0.5j})
        wide = Zeon(n, [(mask_to_indices(m), 0.1 * (m % 7) + 0.05)
                        for m in range(1, 1 << n)])
        small * small
        wide * wide
        (2 + wide).inverse()
    finally:
        tracer.uninstall()
    assert Zeon.__init__ is init

    report = tracer.report()
    mul = report["backend.mul_terms"]
    assert mul["calls"] >= 2
    assert mul["pairs"] >= 63 * 63
    assert 0 < mul["disjoint"] < mul["pairs"]
    assert report["algebra.init"]["calls"] == 2
    assert report["algebra.mul"]["calls"] >= 3
    assert report["algebra.inverse"]["calls"] == 1
    for stat in report.values():
        assert np.isfinite(stat["total_s"]) and stat["total_s"] >= 0



TOUR = """
import layers
import spans
from worker import run_op
ops = layers.tour(301)
tracer = spans.Tracer()
tracer.install()
for op in ops:
    run_op(op)
tracer.uninstall()
metrics = layers.span_metrics({}, 1, tracer.stats(), len(ops))
assert set(layers.US) <= set(metrics), sorted(set(layers.US) - set(metrics))
print(len(ops), len(metrics))
"""


def test_every_span_metric_is_reached_by_the_layer_tour():
    # a traced benchmark run reads a span metric from the layer tour
    # when the workload's loop does not call that function, so a span
    # that no tour operation reaches makes span_metrics raise KeyError.
    # A fresh interpreter, as in the benchmark's worker: installing a
    # tracer imports zeon.cli, which then keeps that tracer's wrappers
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PERFBENCH.parent / "src"), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", TOUR], cwd=PERFBENCH,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    ops, metrics = map(int, done.stdout.split())
    assert ops > 100 and metrics > 30
