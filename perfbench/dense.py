"""Dense reference arithmetic for the zeon algebra.

An element of the algebra on ``n`` generators is a complex vector of
length ``2**n`` indexed by blade bitmask (generator ``i`` is bit
``i - 1``).  Everything here follows the defining formulas directly and
imports nothing from ``zeon``, so agreement with the library is
evidence rather than an echo:

* the product sums ``a[s] * b[t]`` over every pair of disjoint blades
  ``s``, ``t`` into slot ``s | t``;
* polynomials are evaluated by Horner's rule;
* the inverse is the geometric series ``(1/c) sum_k (-d/c)**k`` of the
  nilpotent part ``d``, which ends after ``n`` terms;
* an analytic function is the Taylor sum ``sum_k f^(k)(s)/k! d**k``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


def dim(n: int) -> int:
    return 1 << n


def gens(vec: np.ndarray) -> int:
    return int(vec.size).bit_length() - 1


def from_terms(n: int, terms) -> np.ndarray:
    """Vector of an element given as ``(indices, coefficient)`` pairs."""
    out = np.zeros(dim(n), dtype=np.complex128)
    for indices, c in terms:
        mask = 0
        for i in indices:
            mask |= 1 << (int(i) - 1)
        out[mask] += complex(c)
    return out


def scalar(n: int, c: complex) -> np.ndarray:
    out = np.zeros(dim(n), dtype=np.complex128)
    out[0] = c
    return out


@lru_cache(maxsize=None)
def _disjoint_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # every (s, t) with s & t == 0: each generator goes to s, to t, or
    # to neither, so there are 3**n pairs
    s = np.zeros(1, dtype=np.int64)
    t = np.zeros(1, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        s, t = np.concatenate([s, s | bit, s]), np.concatenate([t, t, t | bit])
    return s, t, s | t


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over disjoint-blade pairs."""
    n = gens(a)
    s, t, u = _disjoint_pairs(n)
    prod = a[s] * b[t]
    size = dim(n)
    return (np.bincount(u, prod.real, minlength=size)
            + 1j * np.bincount(u, prod.imag, minlength=size))


def power(a: np.ndarray, k: int) -> np.ndarray:
    out = scalar(gens(a), 1.0)
    for _ in range(k):
        out = mul(out, a)
    return out


def inverse(a: np.ndarray) -> np.ndarray:
    """Geometric-series inverse; the scalar part must be nonzero."""
    c = a[0]
    ratio = a.copy()
    ratio[0] = 0.0
    ratio = ratio * (-1.0 / c)
    acc = scalar(gens(a), 1.0)
    term = acc
    for _ in range(gens(a)):
        term = mul(term, ratio)
        acc = acc + term
    return acc / c


def horner(coeffs: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Value at ``x`` of the polynomial with ascending ``coeffs``."""
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = mul(acc, x) + c
    return acc


def poly_mul(p: list[np.ndarray], q: list[np.ndarray]) -> list[np.ndarray]:
    if not p or not q:
        return []
    out = [np.zeros_like(p[0]) for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + mul(a, b)
    return out


def poly_add(p: list[np.ndarray], q: list[np.ndarray]) -> list[np.ndarray]:
    size = max(len(p), len(q))
    zero = np.zeros_like((p or q)[0])
    return [(p[k] if k < len(p) else zero) + (q[k] if k < len(q) else zero)
            for k in range(size)]


def from_roots(roots: list[np.ndarray]) -> list[np.ndarray]:
    """Ascending coefficients of the product of ``(u - r)``."""
    acc = [scalar(gens(roots[0]), 1.0)]
    for r in roots:
        acc = poly_mul(acc, [-r, scalar(gens(r), 1.0)])
    return acc


# -- analytic functions ---------------------------------------------------


def _binom_falling(p: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= p - j
    return out


DERIVATIVES = {
    "exp": lambda s, k: cmath.exp(s),
    "log": lambda s, k: (cmath.log(s) if k == 0 else
                         (-1) ** (k - 1) * math.factorial(k - 1) / s ** k),
    "sin": lambda s, k: (cmath.sin, cmath.cos,
                         lambda z: -cmath.sin(z),
                         lambda z: -cmath.cos(z))[k % 4](s),
    "cos": lambda s, k: (cmath.cos, lambda z: -cmath.sin(z),
                         lambda z: -cmath.cos(z), cmath.sin)[k % 4](s),
    "sqrt": lambda s, k: _binom_falling(0.5, k) * cmath.exp((0.5 - k)
                                                            * cmath.log(s)),
}


def taylor(name: str, a: np.ndarray) -> np.ndarray:
    """``f(a)`` for a built-in ``f``, by the finite Taylor sum at ``a[0]``."""
    deriv = DERIVATIVES[name]
    s = complex(a[0])
    d = a.copy()
    d[0] = 0.0
    acc = scalar(gens(a), deriv(s, 0))
    pw = scalar(gens(a), 1.0)
    for k in range(1, gens(a) + 1):
        pw = mul(pw, d)
        acc = acc + pw * (deriv(s, k) / math.factorial(k))
    return acc


# -- comparison -------------------------------------------------------------


def norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum())


def close(got: np.ndarray, want: np.ndarray, scale: float,
          rel: float = 1e-9) -> bool:
    """Every coefficient of ``got - want`` within ``rel * max(1, scale)``."""
    return float(np.abs(got - want).max()) <= rel * max(1.0, scale)
