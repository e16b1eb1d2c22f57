"""Test-only reference helpers that ``perfbench/dense.py`` lacks.

The dense reference itself (product, scalar, ``from_terms``, power,
inverse, Horner) is ``dense``, which the benchmark's ``--check`` also
trusts; ``conftest`` puts it on the path.  What is here is written from
the defining formulas on top of ``dense.mul`` and, like ``dense``,
shares no code with the package, so agreement with it is evidence.
"""

import numpy as np

from dense import mul, scalar


def dense_zero(n: int) -> np.ndarray:
    return np.zeros(1 << n, dtype=np.complex128)


def dense_taylor(a: np.ndarray, coeffs) -> np.ndarray:
    """``sum_k coeffs[k] * a**k``, every power formed in full."""
    n = int(len(a)).bit_length() - 1
    out = dense_zero(n)
    power = scalar(n, 1.0)
    for c in coeffs:
        out = out + c * power
        power = mul(power, a)
    return out


def sparse_mul(a: dict, b: dict) -> dict:
    """Product of elements held as ``{frozenset of indices: coefficient}``.

    Every pair of terms is visited: ``z_I z_J = z_{I u J}`` when ``I``
    and ``J`` are disjoint, 0 otherwise.  Index sets instead of a dense
    vector, so it runs at any n, where ``dense.mul`` needs ``2**n`` slots.
    """
    out: dict = {}
    for left, x in a.items():
        for right, y in b.items():
            if not left & right:
                union = left | right
                out[union] = out.get(union, 0) + x * y
    return out
