"""Dense brute-force reference implementation used to check the library.

Elements live as full length-2**n complex vectors indexed by blade
bitmask.  Every operation here is written directly from the defining
formulas with no sparsity, no sorting tricks, and no code shared with
the package, so agreement between the two is meaningful evidence.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _disjoint_pairs(n: int):
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    left, right = np.meshgrid(idx, idx, indexing="ij")
    keep = (left & right) == 0
    return left[keep], right[keep], (left | right)[keep]


def dense_zero(n: int) -> np.ndarray:
    return np.zeros(1 << n, dtype=np.complex128)


def dense_scalar(n: int, c: complex) -> np.ndarray:
    out = dense_zero(n)
    out[0] = c
    return out


def dense_from_terms(n: int, terms) -> np.ndarray:
    """terms: iterable of (indices tuple, coefficient)."""
    out = dense_zero(n)
    for indices, c in terms:
        mask = 0
        for i in indices:
            mask |= 1 << (i - 1)
        out[mask] += c
    return out


def dense_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = int(len(a)).bit_length() - 1
    left, right, target = _disjoint_pairs(n)
    out = dense_zero(n)
    np.add.at(out, target, a[left] * b[right])
    return out


def dense_pow(a: np.ndarray, k: int) -> np.ndarray:
    n = int(len(a)).bit_length() - 1
    out = dense_scalar(n, 1.0)
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def dense_inverse(a: np.ndarray) -> np.ndarray:
    """Geometric series against the scalar part; needs a[0] != 0."""
    n = int(len(a)).bit_length() - 1
    s = a[0]
    if s == 0:
        raise ZeroDivisionError("dense inverse of a non-invertible element")
    dual = a.copy()
    dual[0] = 0.0
    ratio = -dual / s
    out = dense_scalar(n, 1.0)
    power = dense_scalar(n, 1.0)
    for _ in range(n):
        power = dense_mul(power, ratio)
        out = out + power
    return out / s


def dense_taylor(a: np.ndarray, coeffs) -> np.ndarray:
    """``sum_k coeffs[k] * a**k``, every power formed in full."""
    n = int(len(a)).bit_length() - 1
    out = dense_zero(n)
    power = dense_scalar(n, 1.0)
    for c in coeffs:
        out = out + c * power
        power = dense_mul(power, a)
    return out


def dense_poly_eval(coeffs: list[np.ndarray], point: np.ndarray) -> np.ndarray:
    """Horner evaluation; coeffs ascending by degree."""
    n = int(len(point)).bit_length() - 1
    acc = dense_zero(n)
    for c in reversed(coeffs):
        acc = dense_mul(acc, point) + c
    return acc


def dense_min_grade(a: np.ndarray, eps: float = 0.0) -> int:
    """Lowest grade with a surviving coefficient; n+1 when empty."""
    n = int(len(a)).bit_length() - 1
    grades = [bin(m).count("1") for m in range(len(a))]
    present = [g for m, g in enumerate(grades) if abs(a[m]) > eps]
    return min(present) if present else n + 1


def dense_nilpotency_index(a: np.ndarray, eps: float = 1e-12) -> int:
    """Least k with a**k = 0 (up to eps), or None if a is not nilpotent."""
    n = int(len(a)).bit_length() - 1
    if abs(a[0]) > eps:
        return None
    power = a.copy()
    k = 1
    while k <= n + 1:
        if np.abs(power).max() <= eps:
            return k
        power = dense_mul(power, a)
        k += 1
    return None


def sparse_mul(a: dict, b: dict) -> dict:
    """Product of elements held as ``{frozenset of indices: coefficient}``.

    Every pair of terms is visited: ``z_I z_J = z_{I u J}`` when ``I``
    and ``J`` are disjoint, 0 otherwise.  Index sets instead of a dense
    vector, so it runs at any n, where ``dense_mul`` needs ``2**n`` slots.
    """
    out: dict = {}
    for left, x in a.items():
        for right, y in b.items():
            if not left & right:
                union = left | right
                out[union] = out.get(union, 0) + x * y
    return out
