"""Term-array kernels: blade product, sum and canonicalisation.

An element is stored as two parallel arrays: uint64 blade bitmasks
(strictly ascending, unique) and complex128 coefficients.  Every kernel
takes and returns such arrays and drops each output term whose
magnitude is at or below ``prune``.

Each kernel picks its path from the operand size.  Small operands are
the common case (a few terms, n <= 8), where a numpy call costs more
than the arithmetic, so they are summed in a dict over ``.tolist()``
values: a product of at most ``SMALL_PAIRS`` term pairs, a sum or a
canonicalisation of at most ``SMALL_TERMS`` terms.  Wider operands take
the vectorised path: the outer product, or a stable argsort and
``np.add.reduceat``.  Both paths give the same canonical arrays, to
rounding where duplicates are summed.

The thresholds sit at the crossovers measured on random canonical
operands (n = 8 to 11, 2 CPUs, numpy 2.4).  The dict product costs
0.35-0.7x the numpy one up to 64 pairs; where it breaks even depends
on how many pairs are disjoint: near 200 pairs when one pair in ten is,
near 80 at one in three (the typical share in products of sparse
elements), near 50 when most are.  The dict sum breaks even near 20
terms, the dict canonicalisation between 12 and 20.  Over whole
passes of the benchmark's sparse and spectral workloads, any choice
from 48 to 160 pairs and 12 to 32 terms ran within 2% of these.

The product is selectable: a numba ``@njit`` kernel is the default
whenever numba imports cleanly, the numpy-and-dict path above
otherwise.  Set ``ZEON_BACKEND=numpy`` or ``ZEON_BACKEND=numba`` before
first import to force one; ``backend_name()`` reports the choice.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

__all__ = [
    "backend_name", "mul_terms", "combine_terms", "add_terms",
    "mul_terms_numpy",
]

_EMPTY_IDX = np.empty(0, dtype=np.uint64)
_EMPTY_COEF = np.empty(0, dtype=np.complex128)
_EMPTY_IDX.setflags(write=False)
_EMPTY_COEF.setflags(write=False)

# sizes at or below which the dict path runs (see the module docstring)
SMALL_PAIRS = 96
SMALL_TERMS = 16


def _emit(acc: dict, prune: float):
    """Sorted masks and summed coefficients of ``acc``, kept if ``|c| > prune``."""
    masks = [m for m in sorted(acc) if abs(acc[m]) > prune]
    if not masks:
        return _EMPTY_IDX, _EMPTY_COEF
    return (np.array(masks, dtype=np.uint64),
            np.array([acc[m] for m in masks], dtype=np.complex128))


def _dict_sum(masks: list, coefs: list, prune: float):
    acc: dict = {}
    for m, c in zip(masks, coefs):
        acc[m] = acc[m] + c if m in acc else c
    return _emit(acc, prune)


def combine_terms(masks: np.ndarray, coefs: np.ndarray, prune: float):
    """Canonicalise raw (mask, coefficient) pairs.

    Sorts by mask, merges duplicates by summing, and drops entries whose
    magnitude ends up at or below ``prune``.
    """
    if masks.size == 0:
        return _EMPTY_IDX, _EMPTY_COEF
    if masks.size <= SMALL_TERMS:
        return _dict_sum(masks.tolist(), coefs.tolist(), prune)
    order = masks.argsort(kind="stable")
    m = masks[order]
    v = coefs[order]
    first = np.empty(m.size, dtype=bool)
    first[0] = True
    np.not_equal(m[1:], m[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = np.add.reduceat(v, starts)
    keep = np.abs(sums) > prune
    return m[starts][keep], sums[keep]


def add_terms(ia, ca, ib, cb, prune: float):
    """Sum of two canonical term arrays, pruned like :func:`combine_terms`."""
    if ia.size + ib.size <= SMALL_TERMS:
        return _dict_sum(ia.tolist() + ib.tolist(), ca.tolist() + cb.tolist(),
                         prune)
    return combine_terms(np.concatenate([ia, ib]), np.concatenate([ca, cb]),
                         prune)


def mul_terms_numpy(ia, ca, ib, cb, prune: float):
    """Blade product of two canonical term arrays, numpy path.

    Pairs whose masks intersect annihilate; survivors land on the union
    mask.  Up to ``SMALL_PAIRS`` pairs are summed in a dict; above that
    the full outer product is materialised, which is fine at the sizes
    this algebra admits (at most 2**n terms per operand).
    """
    if ia.size == 0 or ib.size == 0:
        return _EMPTY_IDX, _EMPTY_COEF
    if ia.size * ib.size <= SMALL_PAIRS:
        right = list(zip(ib.tolist(), cb.tolist()))
        acc: dict = {}
        for a, x in zip(ia.tolist(), ca.tolist()):
            for b, y in right:
                if not a & b:
                    m = a | b
                    acc[m] = acc[m] + x * y if m in acc else x * y
        return _emit(acc, prune)
    keep = (ia[:, None] & ib[None, :]) == 0
    masks = (ia[:, None] | ib[None, :])[keep]
    vals = (ca[:, None] * cb[None, :])[keep]
    return combine_terms(masks, vals, prune)


def _select_backend():
    choice = os.environ.get("ZEON_BACKEND", "").strip().lower()
    if choice not in ("", "numpy", "numba"):
        warnings.warn(
            f"ZEON_BACKEND={choice!r} not recognised; falling back to auto",
            RuntimeWarning,
            stacklevel=2,
        )
        choice = ""
    if choice == "numpy":
        return "numpy", mul_terms_numpy
    try:
        from numba import njit
    except ImportError:
        if choice == "numba":
            warnings.warn(
                "ZEON_BACKEND=numba requested but numba is unavailable; "
                "using the numpy fallback",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy", mul_terms_numpy

    @njit(cache=True)
    def _mul_kernel(ia, ca, ib, cb, prune):  # pragma: no cover - compiled
        na = ia.shape[0]
        nb = ib.shape[0]
        buf_i = np.empty(na * nb, dtype=np.uint64)
        buf_c = np.empty(na * nb, dtype=np.complex128)
        m = 0
        for p in range(na):
            a = ia[p]
            va = ca[p]
            for q in range(nb):
                if a & ib[q] == np.uint64(0):
                    buf_i[m] = a | ib[q]
                    buf_c[m] = va * cb[q]
                    m += 1
        if m == 0:
            return buf_i[:0], buf_c[:0]
        order = np.argsort(buf_i[:m])
        out_i = np.empty(m, dtype=np.uint64)
        out_c = np.empty(m, dtype=np.complex128)
        k = -1
        for t in range(m):
            j = order[t]
            if k >= 0 and out_i[k] == buf_i[j]:
                out_c[k] += buf_c[j]
            else:
                k += 1
                out_i[k] = buf_i[j]
                out_c[k] = buf_c[j]
        w = 0
        for t in range(k + 1):
            if abs(out_c[t]) > prune:
                out_i[w] = out_i[t]
                out_c[w] = out_c[t]
                w += 1
        return out_i[:w].copy(), out_c[:w].copy()

    def mul_terms_numba(ia, ca, ib, cb, prune: float):
        if ia.size == 0 or ib.size == 0:
            return _EMPTY_IDX, _EMPTY_COEF
        return _mul_kernel(ia, ca, ib, cb, prune)

    return "numba", mul_terms_numba


_BACKEND_NAME, mul_terms = _select_backend()


def backend_name() -> str:
    """Name of the active multiplication backend: 'numba' or 'numpy'."""
    return _BACKEND_NAME
