"""Term kernels and storage form: blade product, sum and canonicalisation.

Terms are blade bitmasks (strictly ascending, unique) with complex
coefficients.  :func:`pack` alone picks how an element holds them, from
the count: up to ``SMALL_TERMS`` terms as tuples of Python ints and
complexes, more as read-only uint64/complex128 arrays.  Small elements
are the common case (a few terms, n <= 8), where a numpy call costs more
than the arithmetic.  So ``Zeon.mul_add`` alone picks a product's
kernel, from the pair count whatever the operands' forms: ``dict_mul``
(arrays listed) up to ``SMALL_PAIRS`` pairs, ``mul_terms`` above.  And
``algebra._sum`` alone picks a sum's kernel, from the operands' forms:
one ``dict_sum`` over their tuples when every operand holds tuples,
whatever the count, else one ``add_terms`` call.  ``combine_terms``
canonicalises up to ``SMALL_TERMS`` terms with ``dict_sum``, and more
with a stable argsort and ``np.add.at``: each mask's coefficients in
input order, as in ``dict_sum``, so one sum over a Taylor sum's powers
gives a running sum's bits on either kernel.  A product's sums run the
faster ``np.add.reduceat``, in another order on runs of 3 or more.  A wide
product forms only its disjoint pairs (z{I} z{J} = z{I u J} when I and
J are disjoint, else 0), which one outer AND finds: at n = 9 to 11 with
random blades that is 4-7% of them.  Its AND, unions and sort key run in
the narrowest unsigned dtype that holds its masks, so at n <= 16 the
stable argsort is numpy's radix sort.  A sum or canonicalisation sorts
its uint64 masks as they are; a sum's operands come as sorted runs, which
timsort merges in linear time.  Every path drops output terms at or
below ``prune`` in magnitude and raises ``NonFiniteResult`` on a
non-finite coefficient, on either form the one report of an overflow.

The product takes an optional canonical addend, so that Horner steps,
division updates and polynomial products (``addend + a * b``) build one
element, not three.  Both kernels put the addend's terms first
(``dict_mul`` seeds its accumulator with them), so its coefficient
comes first in each sum, and every output coefficient is pruned once,
after the sum.

numpy loads on the first access to an array kernel (``to_arrays``,
``combine_terms``, ``add_terms``, ``mul_terms``, ``scale_terms``): the
module ``__getattr__`` (PEP 562) then binds them all here as ordinary
attributes.  So small elements never import numpy.

The thresholds sit at crossovers measured on random canonical operands
(n = 8 to 11, 2 CPUs, numpy 2.4).  On tuple operands the dict product
costs 0.4-0.55x the numpy one (conversions included) up to 144 pairs
when one pair in ten is disjoint, and 0.9x at 256; it breaks even near
110-120 pairs at one in three (the typical share in products of sparse
elements), and costs 1.3x at 96 pairs when two in three are.  The dict
sum of two small elements costs 0.6-0.7x the numpy one up to 16 + 16
terms.  Whole passes of the benchmark's sparse workload ran within their
spread at any ``SMALL_PAIRS`` from 64 to 256 and ``SMALL_TERMS`` from 12
to 32.
"""

from __future__ import annotations

import sys

from .errors import NonFiniteResult

__all__ = ["mul_terms", "combine_terms", "add_terms"]

_INF = float("inf")

# dict-path sizes; SMALL_TERMS also bounds the tuple form (see above)
SMALL_PAIRS = 96
SMALL_TERMS = 16

# the names _load_arrays binds, with numpy, on first access
_ARRAY_KERNELS = frozenset(
    ("to_arrays", "combine_terms", "add_terms", "mul_terms", "scale_terms"))
_module = sys.modules[__name__]


def __getattr__(name: str):
    # only reached while an array kernel is still unbound
    if name in _ARRAY_KERNELS:
        _load_arrays()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_arrays() -> None:
    """Import numpy and bind the array kernels into this module."""
    global np
    from functools import partial
    import numpy as np

    # turns numpy's overflow warnings off around each array kernel,
    # entered once per call; a decorator costs half a ``with``
    quiet = np.errstate(over="ignore", invalid="ignore")
    globals().update(
        to_arrays=_to_arrays,
        # ``mul_terms`` calls ``_canonical`` inside its own ``quiet``
        combine_terms=quiet(partial(_canonical, run_sums=_in_order)),
        add_terms=_add_terms,
        mul_terms=quiet(_mul_terms),
        scale_terms=quiet(_scale_terms),
    )


def pack(masks, coefs):
    """Storage form of canonical terms given as sequences or arrays:
    tuples up to ``SMALL_TERMS`` terms, read-only arrays above."""
    listed = type(masks) is tuple or type(masks) is list
    if len(masks) <= SMALL_TERMS:
        if listed:
            return tuple(masks), tuple(coefs)
        return tuple(masks.tolist()), tuple(coefs.tolist())
    if listed:
        # through the module, so a first wide element loads the kernels
        masks, coefs = _module.to_arrays(masks, coefs)
    masks.setflags(write=False)
    coefs.setflags(write=False)
    return masks, coefs


def keep_terms(pairs, prune: float):
    """Masks and coefficients of the ``(mask, coefficient)`` pairs, in
    their order, with ``|c| > prune``; raises on a non-finite one."""
    masks, coefs = [], []
    for m, c in pairs:
        a = abs(c)
        if not a < _INF:
            raise NonFiniteResult("coefficients must be finite")
        if a > prune:
            masks.append(m)
            coefs.append(c)
    return masks, coefs


def dict_sum(masks, coefs, prune: float):
    """Canonical lists of raw (mask, coefficient) pairs, duplicates summed."""
    acc: dict = {}
    for m, c in zip(masks, coefs):
        acc[m] = acc[m] + c if m in acc else c
    return keep_terms(sorted(acc.items()), prune)


def dict_mul(ia, ca, ib, cb, prune: float, ic=(), cc=()):
    """Blade product of two canonical terms, tuples or arrays (listed
    first), plus the canonical addend ``(ic, cc)``, as canonical lists."""
    if type(ia) is not tuple:
        ia, ca = ia.tolist(), ca.tolist()
    if type(ib) is not tuple:
        ib, cb = ib.tolist(), cb.tolist()
    if type(ic) is not tuple:
        ic, cc = ic.tolist(), cc.tolist()
    right = list(zip(ib, cb))
    acc = dict(zip(ic, cc)) if ic else {}
    for a, x in zip(ia, ca):
        for b, y in right:
            if not a & b:
                m = a | b
                acc[m] = acc[m] + x * y if m in acc else x * y
    return keep_terms(sorted(acc.items()), prune)


# -- array kernels ------------------------------------------------------------
# they run only once _load_arrays has bound numpy as ``np`` and the public
# names (``to_arrays`` = ``_to_arrays``, ...)


def _to_arrays(masks, coefs):
    """Kernel arrays of terms held in either form (arrays are not copied)."""
    return (np.asarray(masks, dtype=np.uint64),
            np.asarray(coefs, dtype=np.complex128))


def keep_mask(coefs: np.ndarray, prune: float) -> np.ndarray:
    """Where ``|coefs| > prune``; raises if a coefficient is not finite."""
    mag = np.abs(coefs)
    if not np.maximum.reduce(mag) < _INF:
        raise NonFiniteResult("coefficients must be finite")
    return mag > prune


def _canonical(masks: np.ndarray, coefs: np.ndarray, prune: float,
               run_sums):
    """Canonicalise raw (mask, coefficient) pairs.

    Sorts by mask, merges duplicates by summing, and drops entries whose
    magnitude ends up at or below ``prune``.  The masks may come in any
    unsigned dtype (numpy's stable argsort is a radix sort at 16 bits or
    fewer) and go back as uint64.  ``run_sums(v, starts)`` sums the sorted
    coefficients ``v`` over the runs of equal masks starting at ``starts``.
    """
    if masks.size <= SMALL_TERMS:
        return to_arrays(*dict_sum(masks.tolist(), coefs.tolist(), prune))
    order = masks.argsort(kind="stable")
    m = masks[order]
    first = np.empty(m.size, dtype=bool)
    first[0] = True
    np.not_equal(m[1:], m[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = run_sums(coefs[order], starts)
    keep = keep_mask(sums, prune)
    return m[starts[keep]].astype(np.uint64, copy=False), sums[keep]


def _in_order(v, starts):
    # np.add.reduceat, but each run left to right, as in dict_sum:
    # ``ufunc.at`` adds its operands one by one
    rest = np.ones(v.size, dtype=bool)
    rest[starts] = False
    rest = rest.nonzero()[0]
    sums = v[starts]
    np.add.at(sums, starts.searchsorted(rest, "right") - 1, v[rest])
    return sums


def _add_terms(*terms):
    """Sum of canonical term arrays ``ia, ca, ib, cb, ...``, then ``prune``."""
    *terms, prune = terms
    return combine_terms(np.concatenate(terms[::2]),
                         np.concatenate(terms[1::2]), prune)


def _mul_terms(ia, ca, ib, cb, prune: float, ic=None, cc=None):
    """Blade product of two canonical term arrays, plus the canonical
    addend arrays ``(ic, cc)`` when given.

    Pairs whose masks intersect annihilate; survivors land on the union
    mask.  One outer AND finds the disjoint pairs and only those are
    formed, row by row after the addend's terms.  The AND, the unions
    and the sort key run in the narrowest unsigned dtype that holds the
    operands' masks.  ``Zeon.mul_add`` sends only wide products here.
    """
    # masks ascend, so the last ones are the widest
    top = (ia.item(-1) if ia.size else 0) | (ib.item(-1) if ib.size else 0)
    if ic is not None and ic.size:
        top |= ic.item(-1)
    # the narrowest unsigned dtype that holds them; a fifth of a
    # microsecond faster than ``np.min_scalar_type(top)``
    key = (np.uint8 if top < 0x100 else np.uint16 if top < 0x10000
           else np.uint32 if top < 0x100000000 else np.uint64)
    a = ia.astype(key, copy=False)
    b = ib.astype(key, copy=False)
    # flat (row-major) indices of the disjoint pairs
    k = np.logical_not(a[:, None] & b).ravel().nonzero()[0]
    i, j = divmod(k, b.size)
    masks = a[i] | b[j]
    vals = ca[i] * cb[j]
    if ic is not None:
        masks = np.concatenate([ic, masks], dtype=key)
        vals = np.concatenate([cc, vals])
    # faster than _in_order, and the tests pin product digests in its order
    return _canonical(masks, vals, prune, np.add.reduceat)


def _scale_terms(ia, ca, c: complex, prune: float):
    """``c`` times a canonical term array, pruned like :func:`combine_terms`."""
    coefs = ca * c
    keep = keep_mask(coefs, prune)
    return ia[keep], coefs[keep]
