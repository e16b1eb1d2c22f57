"""Spans around the public functions of each ``zeon`` module.

Nothing here touches ``src/``: :meth:`Tracer.install` replaces module
and class attributes with timing wrappers, and :meth:`Tracer.uninstall`
puts the originals back.  Modules import kernel and library names by
value, so a function is replaced in every ``zeon`` module that holds
it, which is where its callers look it up.

Spans stay in memory as per-thread aggregates (calls, inclusive time,
self time, counters) and are read out at the end.  Self time is a
span's duration minus the durations of the spans it directly
contains.  Work done by the counters below happens between spans and is
subtracted from every enclosing span, so it shows in no layer's time.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (metric prefix, owner, attribute): the owner is a module name or
# "module:Class"
TARGETS = (
    ("backend.mul_terms", "zeon._backend", "mul_terms"),
    ("backend.combine_terms", "zeon._backend", "combine_terms"),
    ("algebra.init", "zeon.algebra:Zeon", "__init__"),
    ("algebra.mul", "zeon.algebra:Zeon", "mul"),
    ("algebra.add", "zeon.algebra:Zeon", "add"),
    ("algebra.inverse", "zeon.algebra:Zeon", "inverse"),
    ("algebra.kth_roots", "zeon.algebra", "kth_roots"),
    ("poly.eval", "zeon.poly:ZeonPoly", "eval"),
    ("poly.from_roots", "zeon.poly:ZeonPoly", "from_roots"),
    ("poly.divide", "zeon.poly", "divide"),
    ("poly.remainder_at", "zeon.poly", "remainder_at"),
    ("poly.quadratic_solve", "zeon.poly", "quadratic_solve"),
    ("poly.nilpotent_sqrt", "zeon.poly", "nilpotent_sqrt"),
    ("poly.least_squares", "zeon.poly", "least_squares"),
    ("solve.split", "zeon.solve", "split"),
    ("solve.scalar_roots", "zeon.solve", "scalar_roots"),
    ("solve.spectrally_simple_zero", "zeon.solve", "spectrally_simple_zero"),
    ("analytic.extend_eval", "zeon.analytic", "extend_eval"),
    ("analytic.polynomial_form", "zeon.analytic", "polynomial_form"),
    ("analytic.preimage", "zeon.analytic", "preimage"),
    ("textio.parse_zeon", "zeon.textio", "parse_zeon"),
    ("textio.parse_poly", "zeon.textio", "parse_poly"),
    ("textio.format_zeon", "zeon.textio", "format_zeon"),
    ("textio.format_poly", "zeon.textio", "format_poly"),
    ("textio.zeon_to_dict", "zeon.textio", "zeon_to_dict"),
    ("cli.main", "zeon.cli", "main"),
)

# (ancestor, descendant) span pairs counted at any depth
NESTED = (
    ("algebra.inverse", "algebra.mul"),
    ("solve.spectrally_simple_zero", "poly.eval"),
)


def _mul_pairs(counters, args, out):
    ia, _, ib = args[0], args[1], args[2]
    counters["pairs"] += ia.size * ib.size
    if ia.size and ib.size:
        counters["disjoint"] += int(np.count_nonzero(
            (ia[:, None] & ib[None, :]) == 0))


def _combine_pruned(counters, args, out):
    masks = args[0]
    if masks.size:
        distinct = int(np.count_nonzero(np.diff(np.sort(masks)))) + 1
        counters["pruned"] += distinct - out[0].size


def _lift_iterations(counters, args, out):
    counters["iterations"] += out.iterations


COUNTERS = {
    "backend.mul_terms": _mul_pairs,
    "backend.combine_terms": _combine_pruned,
    "solve.spectrally_simple_zero": _lift_iterations,
}


def _zeon_modules():
    return [mod for key, mod in list(sys.modules.items())
            if key == "zeon" or key.startswith("zeon.")]


class _Stat:
    __slots__ = ("calls", "total", "own", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.counters: Counter[str] = Counter()


class _Thread:
    """Span stack and aggregates of one thread."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.hidden = 0.0  # counter work, kept out of every span
        self.stats: defaultdict[str, _Stat] = defaultdict(_Stat)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        watched = [a for a, d in NESTED if d == name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            frame = [name, 0.0]
            stack.append(frame)
            hidden0 = st.hidden
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = t1 - t0 - (st.hidden - hidden0)
                stat = st.stats[name]
                stat.calls += 1
                stat.total += span
                stat.own += span - frame[1]
                if stack:
                    stack[-1][1] += span
                for anc in watched:
                    for f in stack:
                        if f[0] == anc:
                            st.stats[anc].counters[name] += 1
            if counter is not None:
                h0 = clock()
                counter(stat.counters, args, out)
                st.hidden += clock() - h0
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target wherever a ``zeon`` module holds it."""
        for name, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            holder = importlib.import_module(mod_name)
            if cls_name:
                holder = getattr(holder, cls_name)
                orig = holder.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self.wrap(name, orig.__func__))
                else:
                    new = self.wrap(name, orig)
                # aliases such as ZeonPoly.__call__ = eval share the object
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._replace(holder, key, new)
                continue
            orig = getattr(holder, attr)
            new = self.wrap(name, orig)
            for mod in _zeon_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, new)

    def _replace(self, holder, key, new) -> None:
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, new)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def reset(self) -> None:
        with self._lock:
            for st in self._threads:
                st.stats.clear()

    def stats(self) -> dict[str, _Stat]:
        """Aggregates of all threads, by span name."""
        merged: defaultdict[str, _Stat] = defaultdict(_Stat)
        with self._lock:
            for st in self._threads:
                for name, s in st.stats.items():
                    m = merged[name]
                    m.calls += s.calls
                    m.total += s.total
                    m.own += s.own
                    m.counters.update(s.counters)
        return dict(merged)

    def report(self) -> dict:
        return {name: {"calls": s.calls, "total_s": s.total, "self_s": s.own,
                       **s.counters}
                for name, s in sorted(self.stats().items())}
