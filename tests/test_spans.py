"""The benchmark's span tracer still fits the kernel API it wraps.

``perfbench/spans.py`` replaces library functions with timing wrappers
and reads counters off the kernel arguments (``ia.size`` and friends),
so a kernel signature change would break the benchmark's traced mode.
"""

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
