"""Term kernels and storage form: blade product, sum and canonicalisation.

Terms are blade bitmasks (strictly ascending, unique) with complex
coefficients.  :func:`pack` alone picks how an element holds them, from
the count: up to ``SMALL_TERMS`` terms as tuples of Python ints and
complexes, more as read-only uint64/complex128 arrays.  Small elements
are the common case (a few terms, n <= 8), where a numpy call costs
more than the arithmetic, so ``dict_mul`` and ``dict_sum`` work on them
as they are.  The array kernels take and return arrays and run once an
operand is wide; they too send a product of at most ``SMALL_PAIRS``
pairs, or a sum or canonicalisation of at most ``SMALL_TERMS`` terms,
through the dict helpers, and larger ones through the outer product or
a stable argsort and ``np.add.reduceat``.  Every path drops output terms
at or below ``prune`` in magnitude and raises ``ValueError`` on a
non-finite coefficient, so an overflow is never stored.

The thresholds sit at crossovers measured on random canonical operands
(n = 8 to 11, 2 CPUs, numpy 2.4).  On tuple operands the dict product
costs 0.4-0.5x the numpy one (conversions included) up to 256 pairs
when one pair in ten is disjoint, breaks even near 100-120 pairs at one
in three (the typical share in products of sparse elements), and costs
1.3x at 96 pairs when two in three are.  The dict sum of two small
elements costs 0.6-0.7x the numpy one up to 16 + 16 terms.  Whole
passes of the benchmark's sparse workload ran within their spread at
any ``SMALL_PAIRS`` from 64 to 256 and ``SMALL_TERMS`` from 12 to 32.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend_name", "mul_terms", "combine_terms", "add_terms",
]

_INF = float("inf")

# sizes at or below which the dict path runs and, for SMALL_TERMS, an
# element is held as tuples (see the module docstring)
SMALL_PAIRS = 96
SMALL_TERMS = 16


def pack(masks, coefs):
    """Storage form of canonical terms given as sequences or arrays:
    tuples up to ``SMALL_TERMS`` terms, read-only arrays above."""
    if len(masks) <= SMALL_TERMS:
        if type(masks) is np.ndarray:
            masks, coefs = masks.tolist(), coefs.tolist()
        return tuple(masks), tuple(coefs)
    if type(masks) is not np.ndarray:
        masks, coefs = to_arrays(masks, coefs)
    masks.setflags(write=False)
    coefs.setflags(write=False)
    return masks, coefs


def to_arrays(masks, coefs):
    """Kernel arrays of terms held in either form (arrays are not copied)."""
    return (np.asarray(masks, dtype=np.uint64),
            np.asarray(coefs, dtype=np.complex128))


def keep_terms(pairs, prune: float):
    """Masks and coefficients of the ``(mask, coefficient)`` pairs, in
    their order, with ``|c| > prune``; raises on a non-finite one."""
    masks, coefs = [], []
    for m, c in pairs:
        a = abs(c)
        if not a < _INF:
            raise ValueError("coefficients must be finite")
        if a > prune:
            masks.append(m)
            coefs.append(c)
    return masks, coefs


def keep_mask(coefs: np.ndarray, prune: float) -> np.ndarray:
    """Where ``|coefs| > prune``; raises if a coefficient is not finite."""
    mag = np.abs(coefs)
    if not np.maximum.reduce(mag) < _INF:
        raise ValueError("coefficients must be finite")
    return mag > prune


def dict_sum(masks, coefs, prune: float):
    """Canonical lists of raw (mask, coefficient) pairs, duplicates summed."""
    acc: dict = {}
    for m, c in zip(masks, coefs):
        acc[m] = acc[m] + c if m in acc else c
    return keep_terms(sorted(acc.items()), prune)


def dict_mul(ia, ca, ib, cb, prune: float):
    """Blade product of two canonical term sequences, as canonical lists."""
    right = list(zip(ib, cb))
    acc: dict = {}
    for a, x in zip(ia, ca):
        for b, y in right:
            if not a & b:
                m = a | b
                acc[m] = acc[m] + x * y if m in acc else x * y
    return keep_terms(sorted(acc.items()), prune)


def combine_terms(masks: np.ndarray, coefs: np.ndarray, prune: float):
    """Canonicalise raw (mask, coefficient) pairs.

    Sorts by mask, merges duplicates by summing, and drops entries whose
    magnitude ends up at or below ``prune``.
    """
    if masks.size <= SMALL_TERMS:
        return to_arrays(*dict_sum(masks.tolist(), coefs.tolist(), prune))
    order = masks.argsort(kind="stable")
    m = masks[order]
    v = coefs[order]
    first = np.empty(m.size, dtype=bool)
    first[0] = True
    np.not_equal(m[1:], m[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = np.add.reduceat(v, starts)
    keep = keep_mask(sums, prune)
    return m[starts][keep], sums[keep]


def add_terms(ia, ca, ib, cb, prune: float):
    """Sum of two canonical term arrays, pruned like :func:`combine_terms`."""
    return combine_terms(np.concatenate([ia, ib]), np.concatenate([ca, cb]),
                         prune)


def mul_terms(ia, ca, ib, cb, prune: float):
    """Blade product of two canonical term arrays.

    Pairs whose masks intersect annihilate; survivors land on the union
    mask.  Up to ``SMALL_PAIRS`` pairs are summed in a dict; above that
    the full outer product is materialised, which is fine at the sizes
    this algebra admits (at most 2**n terms per operand).
    """
    if ia.size * ib.size <= SMALL_PAIRS:
        return to_arrays(*dict_mul(ia.tolist(), ca.tolist(), ib.tolist(),
                                   cb.tolist(), prune))
    keep = (ia[:, None] & ib[None, :]) == 0
    masks = (ia[:, None] | ib[None, :])[keep]
    vals = (ca[:, None] * cb[None, :])[keep]
    return combine_terms(masks, vals, prune)


def backend_name() -> str:
    """Name of the one kernel, always ``'numpy'``, for environment records."""
    return "numpy"
