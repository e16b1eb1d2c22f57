"""Core arithmetic for the complex zeon algebra.

The algebra on ``n`` commuting generators ``z{1}..z{n}`` is spanned by
blades ``z{I}`` indexed by subsets ``I`` of ``{1..n}``, with the empty
blade acting as the unit.  Every generator squares to zero, so blades
multiply to their disjoint union or annihilate:

    z{I} * z{J} = z{I union J}   if I and J are disjoint,
                  0              otherwise.

Subsets are encoded as integer bitmasks (generator ``i`` is bit
``i - 1``), which makes the blade product a pair of integer operations
and caps ``n`` at 32.

Elements are immutable.  Each :class:`Zeon` stores its nonzero terms as
ascending masks and parallel coefficients: Python tuples when it has
few terms, read-only numpy arrays when it has many (``_backend.pack``).
Coefficients at or below the pruning threshold in magnitude are
dropped, so a stored term is always a nonzero term, and non-finite
ones, overflows included, are refused.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from . import _backend
from ._backend import (
    add_terms,
    combine_terms,
    dict_mul,
    dict_sum,
    keep_mask,
    keep_terms,
    mul_terms,
    pack,
    to_arrays,
)
from .errors import DimensionMismatch, NotInvertible

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "default_tolerance",
    "set_default_tolerance",
    "Zeon",
    "ZeonLike",
    "blade_mul",
    "indices_to_mask",
    "mask_to_indices",
    "generators",
    "kth_roots",
    "principal_kth_root",
]

MAX_GENERATORS = 32


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used across the package.

    prune_eps
        Coefficients with magnitude at or below this are dropped from
        stored elements.
    eq_eps
        Two elements are considered equal when every coefficient of
        their difference is below this.
    root_eps
        Acceptance threshold for scalar root residuals.
    """

    prune_eps: float = 1e-14
    eq_eps: float = 1e-9
    root_eps: float = 1e-10

    def __post_init__(self):
        if not (0.0 <= self.prune_eps <= self.eq_eps):
            raise ValueError("need 0 <= prune_eps <= eq_eps")
        if self.root_eps <= 0.0:
            raise ValueError("root_eps must be positive")


DEFAULT_TOLERANCE = Tolerance()
_current_tol = DEFAULT_TOLERANCE


def default_tolerance() -> Tolerance:
    """The process-wide tolerance used when a call omits ``tol``."""
    return _current_tol


def set_default_tolerance(tol: Tolerance) -> None:
    """Replace the process-wide default tolerance.

    Affects subsequently constructed elements (pruning) and calls that
    do not pass ``tol`` explicitly.
    """
    global _current_tol
    if not isinstance(tol, Tolerance):
        raise TypeError("expected a Tolerance")
    _current_tol = tol


def _resolve(tol: Tolerance | None) -> Tolerance:
    return _current_tol if tol is None else tol


def indices_to_mask(indices: Iterable[int]) -> int:
    """Bitmask for a set of 1-based generator indices."""
    mask = 0
    for i in indices:
        i = int(i)
        if i < 1:
            raise ValueError(f"generator index {i} is not positive")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices encoded by ``mask``."""
    out = []
    i = 1
    m = int(mask)
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def blade_mul(a: int, b: int) -> int | None:
    """Product of two blade bitmasks: union if disjoint, else ``None``."""
    return None if a & b else a | b


def _check_n(n: int) -> int:
    if not (0 <= n <= MAX_GENERATORS):
        raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}")
    return int(n)


ZeonLike = Union["Zeon", complex, float, int]


class Zeon:
    """An element of the complex zeon algebra on ``n`` generators."""

    __slots__ = ("n", "_idx", "_coef")

    def __init__(self, n: int, terms: Mapping | Iterable = ()):
        """Build an element from ``terms``.

        ``terms`` maps index collections to coefficients, e.g.
        ``Zeon(3, {(): 2.0, (1, 2): 1j})`` is ``2 + i*z{1,2}``; an
        iterable of ``(indices, coefficient)`` pairs works as well.
        """
        n = _check_n(n)
        items = terms.items() if isinstance(terms, Mapping) else terms
        masks = []
        coefs = []
        for indices, c in items:
            mask = indices_to_mask(indices)
            if mask >> n:
                raise ValueError(
                    f"index set {mask_to_indices(mask)} exceeds n={n}"
                )
            masks.append(mask)
            coefs.append(complex(c))
        # both kernels refuse a non-finite coefficient before pruning
        prune = _current_tol.prune_eps
        if len(masks) <= _backend.SMALL_TERMS:
            masks, coefs = dict_sum(masks, coefs, prune)
        else:
            masks, coefs = combine_terms(*to_arrays(masks, coefs), prune)
        _fill(self, n, masks, coefs)

    def __setattr__(self, name, value):
        raise AttributeError("Zeon is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Zeon":
        """The zero element."""
        return _raw(_check_n(n), (), ())

    @classmethod
    def scalar(cls, n: int, c: complex) -> "Zeon":
        """The scalar ``c`` as an element of the ``n``-generator algebra."""
        return _raw(_check_n(n),
                    *keep_terms([(0, complex(c))], _current_tol.prune_eps))

    @classmethod
    def one(cls, n: int) -> "Zeon":
        """The multiplicative unit."""
        return cls.scalar(n, 1.0)

    @classmethod
    def blade(cls, n: int, indices: Iterable[int], coeff: complex = 1.0) -> "Zeon":
        """``coeff * z{indices}``."""
        return cls(n, {tuple(indices): coeff})

    # -- basic queries ---------------------------------------------------

    def _tuples(self):
        if type(self._idx) is tuple:
            return self._idx, self._coef
        return tuple(self._idx.tolist()), tuple(self._coef.tolist())

    def terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Stored terms as ``(indices, coefficient)`` pairs, mask-ascending."""
        return [(mask_to_indices(m), c) for m, c in zip(*self._tuples())]

    def coeff(self, indices: Iterable[int]) -> complex:
        """Coefficient at the blade ``z{indices}`` (0 when absent)."""
        mask = indices_to_mask(indices)
        pos = bisect_left(self._idx, mask)
        if pos < len(self._idx) and self._idx[pos] == mask:
            return complex(self._coef[pos])
        return 0j

    def is_zero(self) -> bool:
        return len(self._idx) == 0

    def is_scalar(self) -> bool:
        return len(self._idx) == 0 or (len(self._idx) == 1 and self._idx[0] == 0)

    def scalar_part(self) -> complex:
        """Coefficient at the empty blade."""
        if len(self._idx) and self._idx[0] == 0:
            return complex(self._coef[0])
        return 0j

    def dual_part(self) -> "Zeon":
        """The element minus its scalar part; always nilpotent."""
        if len(self._idx) and self._idx[0] == 0:
            return _raw(self.n, self._idx[1:], self._coef[1:])
        return self

    def grades(self) -> list[int]:
        """Sorted list of grades carrying at least one term."""
        return sorted({m.bit_count() for m in self._tuples()[0]})

    def grade_part(self, k: int) -> "Zeon":
        """Sum of the stored terms of grade ``k``."""
        if k < 0:
            raise ValueError("grade must be nonnegative")
        kept = [(m, c) for m, c in zip(*self._tuples()) if m.bit_count() == k]
        return _raw(self.n, [m for m, _ in kept], [c for _, c in kept])

    def min_grade(self) -> int:
        """Lowest grade present; ``n + 1`` for the zero element.

        The sentinel keeps the value integer-comparable: no nonzero
        element has a grade above ``n``.
        """
        return min((m.bit_count() for m in self._tuples()[0]),
                   default=self.n + 1)

    def min_grade_part(self) -> "Zeon":
        """The homogeneous part at the lowest present grade (0 if zero)."""
        return self.grade_part(self.min_grade())

    def max_abs(self) -> float:
        """Largest coefficient magnitude (0.0 for the zero element)."""
        return max(map(abs, self._tuples()[1]), default=0.0)

    def support_masks(self) -> list[int]:
        """Stored blade bitmasks, ascending."""
        return list(self._tuples()[0])

    # -- ring operations -------------------------------------------------

    def _check_same_algebra(self, other: "Zeon") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"operands live in different algebras: n={self.n} vs n={other.n}"
            )

    def add(self, other: "Zeon") -> "Zeon":
        self._check_same_algebra(other)
        prune = _current_tol.prune_eps
        if type(self._idx) is tuple and type(other._idx) is tuple:
            return _raw(self.n, *dict_sum(self._idx + other._idx,
                                          self._coef + other._coef, prune))
        return _raw(self.n, *add_terms(*to_arrays(self._idx, self._coef),
                                       *to_arrays(other._idx, other._coef),
                                       prune))

    def scale(self, c: complex) -> "Zeon":
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError("coefficients must be finite")
        prune = _current_tol.prune_eps
        if type(self._coef) is tuple:
            return _raw(self.n, *keep_terms(
                zip(self._idx, [x * c for x in self._coef]), prune))
        coef = self._coef * c
        keep = keep_mask(coef, prune)
        return _raw(self.n, self._idx[keep], coef[keep])

    def mul(self, other: "Zeon") -> "Zeon":
        self._check_same_algebra(other)
        prune = _current_tol.prune_eps
        a, b = self._idx, other._idx
        if (type(a) is tuple and type(b) is tuple
                and len(a) * len(b) <= _backend.SMALL_PAIRS):
            return _raw(self.n, *dict_mul(a, self._coef, b, other._coef,
                                          prune))
        return _raw(self.n, *mul_terms(*to_arrays(self._idx, self._coef),
                                       *to_arrays(other._idx, other._coef),
                                       prune))

    def power(self, k: int) -> "Zeon":
        """``k``-th power, ``k >= 0``, by binary exponentiation."""
        if k < 0:
            raise ValueError("power expects a nonnegative exponent; "
                             "use inverse() for negative powers")
        result = Zeon.one(self.n)
        base = self
        e = int(k)
        while e:
            if e & 1:
                result = result.mul(base)
                if result.is_zero():
                    return result
            e >>= 1
            if e:
                base = base.mul(base)
                if base.is_zero() and e:
                    return Zeon.zero(self.n)
        return result

    def nilpotency_index(self) -> int | None:
        """Least ``k >= 1`` with ``u**k == 0``, or ``None`` if not nilpotent.

        The zero element has index 1.  For a nilpotent element the index
        never exceeds ``n + 1``.
        """
        if self.scalar_part() != 0:
            return None
        p = self
        k = 1
        while not p.is_zero():
            p = p.mul(self)
            k += 1
        return k

    def inverse(self, tol: Tolerance | None = None) -> "Zeon":
        """Multiplicative inverse.

        Exists exactly when the scalar part is nonzero; the nilpotent
        remainder feeds a geometric series that terminates in at most
        ``n`` products.
        """
        tol = _resolve(tol)
        c = self.scalar_part()
        if abs(c) <= tol.eq_eps:
            raise NotInvertible(
                "scalar part is zero (or below eq_eps); no inverse exists"
            )
        ratio = self.dual_part().scale(-1.0 / c)
        acc = Zeon.one(self.n)
        term = Zeon.one(self.n)
        for _ in range(self.n):
            term = term.mul(ratio)
            if term.is_zero():
                break
            acc = acc.add(term)
        return acc.scale(1.0 / c)

    def isclose(self, other: ZeonLike, tol: Tolerance | None = None,
                *, eps: float | None = None) -> bool:
        """Coefficient-wise closeness within ``eps`` (default ``eq_eps``)."""
        tol = _resolve(tol)
        if eps is None:
            eps = tol.eq_eps
        other = _coerce(other, self.n)
        return (self - other).max_abs() <= eps

    # -- operators ---------------------------------------------------------

    def __add__(self, other: ZeonLike) -> "Zeon":
        return self.add(_coerce(other, self.n))

    __radd__ = __add__

    def __sub__(self, other: ZeonLike) -> "Zeon":
        return self.add(_coerce(other, self.n).scale(-1.0))

    def __rsub__(self, other: ZeonLike) -> "Zeon":
        return _coerce(other, self.n).add(self.scale(-1.0))

    def __neg__(self) -> "Zeon":
        return self.scale(-1.0)

    def __mul__(self, other: ZeonLike) -> "Zeon":
        if isinstance(other, Zeon):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other: ZeonLike) -> "Zeon":
        return self.scale(other)

    def __truediv__(self, other: ZeonLike) -> "Zeon":
        if isinstance(other, Zeon):
            return self.mul(other.inverse())
        return self.scale(1.0 / complex(other))

    def __pow__(self, k: int) -> "Zeon":
        return self.power(k)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float, complex)):
            return self.is_scalar() and self.scalar_part() == complex(other)
        if not isinstance(other, Zeon):
            return NotImplemented
        return self.n == other.n and self._tuples() == other._tuples()

    def __hash__(self) -> int:
        return hash((self.n, self._tuples()))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self.terms())

    def __repr__(self) -> str:
        from .textio import format_zeon
        return f"<Zeon n={self.n}: {format_zeon(self)}>"


# the slots' own setters, which skip Zeon.__setattr__
_set_n, _set_idx, _set_coef = (Zeon.__dict__[k].__set__ for k in Zeon.__slots__)


def _fill(self: Zeon, n: int, masks, coefs) -> Zeon:
    # the one writer of an element's slots; pack picks the storage form
    idx, coef = pack(masks, coefs)
    _set_n(self, n)
    _set_idx(self, idx)
    _set_coef(self, coef)
    return self


def _raw(n: int, masks, coefs) -> Zeon:
    """An element of terms that are already canonical (sorted, pruned)."""
    return _fill(object.__new__(Zeon), n, masks, coefs)


def _coerce(value: ZeonLike, n: int) -> Zeon:
    if isinstance(value, Zeon):
        return value
    if isinstance(value, (int, float, complex)):
        return Zeon.scalar(n, value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a Zeon")


def generators(n: int) -> tuple[Zeon, ...]:
    """The generator blades ``z{1}..z{n}`` of the ``n``-dimensional algebra."""
    return tuple(Zeon.blade(n, (i,)) for i in range(1, n + 1))


# -- roots ----------------------------------------------------------------


def principal_kth_root(w: Zeon, k: int, tol: Tolerance | None = None) -> Zeon:
    """The k-th root whose scalar part is the principal complex root.

    Requires an invertible element (nonzero scalar part).  With
    ``w = s + d`` (``d`` nilpotent) and ``r`` the principal root of
    ``s``, the root is the finite binomial sum
    ``r * sum_j binom(1/k, j) (d/s)**j``, which stops after at most
    ``n`` terms because ``d**(n+1)`` vanishes.  Each term is carried at
    its final size, ``r`` included, so pruning never drops a part of
    the root that would survive in the result.
    """
    tol = _resolve(tol)
    if k < 1:
        raise ValueError("root order must be a positive integer")
    c = w.scalar_part()
    if abs(c) <= tol.eq_eps:
        raise NotInvertible("k-th roots require an invertible element")
    d = w.dual_part()
    term = Zeon.scalar(w.n, cmath.exp(cmath.log(c) / k))
    acc = term
    for j in range(1, w.n + 1):
        # binom(1/k, j) / binom(1/k, j-1); zero ends the sum when k == 1
        ratio = (1.0 / k - (j - 1)) / j
        if ratio == 0.0:
            break
        term = term.scale(ratio / c).mul(d)
        if term.is_zero():
            break
        acc = acc.add(term)
    return acc


def kth_roots(w: Zeon, k: int, tol: Tolerance | None = None) -> list[Zeon]:
    """All ``k`` k-th roots of an invertible element.

    Scalar parts run over the principal root of ``C(w)`` times the k-th
    roots of unity, in that order, so the principal root comes first and
    the list is deterministic.  The binomial sum of
    :func:`principal_kth_root` is linear in the scalar root, so every
    branch is the principal root times its root of unity.  The k
    results are pairwise distinct because their scalar parts are.
    """
    root = principal_kth_root(w, k, tol)
    return [root.scale(_unit_root(j, k)) for j in range(k)]


def _unit_root(j: int, k: int) -> complex:
    # exp(2*pi*i*j/k), exact on the axes so real inputs keep real roots
    quarter, rem = divmod(4 * j, k)
    if rem == 0:
        return (1, 1j, -1, -1j)[quarter % 4]
    return cmath.exp(2j * cmath.pi * j / k)
