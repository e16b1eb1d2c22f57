"""Exact symmetry: the ops commute with complex conjugation.

Complex ``+``, ``*`` and ``/`` commute with conjugation exactly, and so
do ``cmath``'s ``exp``, ``log``, ``sqrt``, ``sin`` and ``cos`` off the
branch cut.  So an op applied to the conjugate of its input gives the
conjugate of its output, to the last bit, and the check needs no
reference to compare with.  Scalar parts stay off the cut (-inf, 0]
for ``log``, ``sqrt`` and the roots, where conjugation changes the
branch.
"""

import cmath

import numpy as np
import pytest

from conftest import random_invertible, random_terms, random_zeon
from zeon import (Zeon, ZeonExtension, ZeonPoly, by_name, divide,
                  extend_eval, kth_roots, principal_kth_root)

CASES = 100


def conj(x):
    if isinstance(x, Zeon):
        return Zeon(x.n, [(ix, c.conjugate()) for ix, c in x.terms()])
    if isinstance(x, ZeonPoly):
        return ZeonPoly([conj(c) for c in x.coeffs], n=x.n)
    if isinstance(x, list):
        return [conj(v) for v in x]
    if isinstance(x, tuple):
        return tuple(map(conj, x))
    return x


def key(x):
    """Exact comparison key; a list (of k-th roots) compares as a set."""
    if isinstance(x, Zeon):
        return tuple(x.terms())
    if isinstance(x, ZeonPoly):
        return tuple(map(key, x.coeffs))
    if isinstance(x, list):
        return frozenset(map(key, x))
    return tuple(map(key, x))


def off_cut(rng, n) -> Zeon:
    # scalar part of modulus 0.5 to 3 and phase within 0.9 pi of 0
    s = cmath.rect(float(rng.uniform(0.5, 3.0)),
                   float(rng.uniform(-0.9, 0.9)) * cmath.pi)
    return Zeon(n, random_terms(rng, n, with_scalar=s))


def poly(rng, n, degree, lead=random_zeon) -> ZeonPoly:
    return ZeonPoly([random_zeon(rng, n) for _ in range(degree)]
                    + [lead(rng, n)], n=n)


def extension(name, draw):
    fn = by_name(name)
    return (lambda u: extend_eval(ZeonExtension(fn, u.n), u),
            lambda rng, n: (draw(rng, n),))


# each op and a draw of its arguments at n generators
OPS = {
    "mul": (Zeon.mul, lambda rng, n: (random_zeon(rng, n),
                                      random_zeon(rng, n))),
    "inverse": (Zeon.inverse, lambda rng, n: (random_invertible(rng, n),)),
    "divide": (divide, lambda rng, n: (
        poly(rng, n, int(rng.integers(1, 6))),
        poly(rng, n, int(rng.integers(1, 4)), random_invertible))),
    "eval": (ZeonPoly.eval, lambda rng, n: (
        poly(rng, n, int(rng.integers(1, 5))), random_zeon(rng, n))),
    **{f"extend_eval:{name}": extension(name, draw)
       for name, draw in [("exp", random_invertible),
                          ("sin", random_invertible),
                          ("cos", random_invertible),
                          ("log", off_cut), ("sqrt", off_cut)]},
    "principal_kth_root": (principal_kth_root, lambda rng, n: (
        off_cut(rng, n), int(rng.integers(2, 8)))),
    "kth_roots": (kth_roots, lambda rng, n: (
        off_cut(rng, n), int(rng.integers(2, 8)))),
}


@pytest.mark.parametrize("name", OPS)
def test_op_commutes_with_conjugation(name):
    op, draw = OPS[name]
    rng = np.random.default_rng(3)
    for _ in range(CASES):
        args = draw(rng, int(rng.integers(1, 7)))
        assert key(op(*map(conj, args))) == key(conj(op(*args))), args
