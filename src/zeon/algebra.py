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
few terms, read-only numpy arrays when it has many (``_backend.pack``),
so numpy is imported with the first wide element.  Coefficients at or
below the pruning threshold in magnitude are dropped, so a stored term
is always a nonzero term, and non-finite ones, overflows included, are
refused.
"""

from __future__ import annotations

import cmath
import contextvars
import itertools
import math
import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping

from . import _backend
from ._backend import dict_mul, dict_sum, keep_terms, pack
from .errors import DimensionMismatch, NonFiniteResult, NotInvertible

__all__ = [
    "Tolerance",
    "tolerance",
    "default_tolerance",
    "Zeon",
    "ZeonLike",
    "indices_to_mask",
    "mask_to_indices",
    "generators",
    "kth_roots",
    "principal_kth_root",
]

MAX_GENERATORS = 32


class Tolerance:
    """Numerical thresholds used across the package.

    prune_eps
        Coefficients with magnitude at or below this are dropped from
        stored elements.
    eq_eps
        Two elements are considered equal when every coefficient of
        their difference is below this.  A scalar part at or below it in
        magnitude, an element's or a polynomial lead's, is not invertible.
    root_eps
        Acceptance threshold for scalar root residuals.
    cluster_eps
        Scalar root approximations closer than this (relative to the
        root magnitude scale) merge into one multiple root.

    Every threshold of a call comes from the one in force, set for a
    block by ``with tolerance(Tolerance(...)):`` (or, on the command
    line, by ``--config``).  The setting belongs to the current context
    (PEP 567): a new thread starts at defaults.
    """

    __slots__ = ("prune_eps", "eq_eps", "root_eps", "cluster_eps")

    def __init__(self, prune_eps: float = 1e-14, eq_eps: float = 1e-9,
                 root_eps: float = 1e-10, cluster_eps: float = 1e-7):
        values = (prune_eps, eq_eps, root_eps, cluster_eps)
        if not all(map(math.isfinite, values)):
            raise ValueError("every tolerance must be finite")
        if not (0.0 <= prune_eps <= eq_eps):
            raise ValueError("need 0 <= prune_eps <= eq_eps")
        if root_eps <= 0.0 or cluster_eps < 0.0:
            raise ValueError("need root_eps > 0 and cluster_eps >= 0")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Tolerance is immutable")

    def __delattr__(self, name):
        raise AttributeError("Tolerance is immutable")

    def _values(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not Tolerance:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"Tolerance({fields})"

    def __reduce__(self):
        # copies and pickles rebuild through __init__, so they validate
        return Tolerance, self._values()


_context = contextvars.ContextVar("zeon.tolerance", default=Tolerance())


def default_tolerance() -> Tolerance:
    """The tolerance in force: the innermost ``with tolerance(...)``
    block of this context, else the built-in ``Tolerance()``."""
    return _context.get()


class tolerance:
    """``with tolerance(value):`` runs its block under ``value``, then
    restores the tolerance before it, on an exception too."""

    def __init__(self, value: Tolerance):
        if not isinstance(value, Tolerance):
            raise TypeError("expected a Tolerance")
        self.value = value

    def __enter__(self) -> Tolerance:
        self._token = _context.set(self.value)
        return self.value

    def __exit__(self, *exc) -> None:
        _context.reset(self._token)


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


def _check_n(n: int) -> int:
    n = operator.index(n)  # refuses a non-integral count
    if not (0 <= n <= MAX_GENERATORS):
        raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}")
    return n


def _same_algebra(a, b) -> None:
    """The one same-algebra test: elements, polynomials and extensions
    meet only when their generator counts ``n`` agree."""
    if a.n != b.n:
        raise DimensionMismatch(
            f"operands live in different algebras: n={a.n} vs n={b.n}")


def _invertible(c: complex) -> bool:
    """The one invertibility test of a scalar part: ``|c| > eq_eps``."""
    return abs(c) > _context.get().eq_eps


ZeonLike = "Zeon | complex | float | int"


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
        prune = _context.get().prune_eps
        if len(masks) <= _backend.SMALL_TERMS:
            masks, coefs = dict_sum(masks, coefs, prune)
        else:
            masks, coefs = _backend.combine_terms(
                *_backend.to_arrays(masks, coefs), prune)
        _fill(self, n, masks, coefs)

    def __setattr__(self, name, value):
        raise AttributeError("Zeon is immutable")

    def __reduce__(self):
        return _rebuild, (self.n, self.terms())

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Zeon":
        """The zero element."""
        return _raw(_check_n(n), (), ())

    @classmethod
    def scalar(cls, n: int, c: complex) -> "Zeon":
        """The scalar ``c`` as an element of the ``n``-generator algebra."""
        return _raw(_check_n(n),
                    *keep_terms([(0, complex(c))], _context.get().prune_eps))

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

    def add(self, other: "Zeon") -> "Zeon":
        _same_algebra(self, other)
        return _sum(self.n, (self, other))

    def scale(self, c: complex) -> "Zeon":
        c = complex(c)
        if not cmath.isfinite(c):
            raise NonFiniteResult("coefficients must be finite")
        prune = _context.get().prune_eps
        if type(self._coef) is tuple:
            return _raw(self.n, *keep_terms(
                zip(self._idx, [x * c for x in self._coef]), prune))
        return _raw(self.n, *_backend.scale_terms(self._idx, self._coef, c,
                                                  prune))

    def mul(self, other: "Zeon") -> "Zeon":
        return self.mul_add(other, None)

    def mul_add(self, other: "Zeon", addend: "Zeon | None") -> "Zeon":
        """``addend + self * other`` in one kernel call, each output
        coefficient pruned once after the sum; ``None`` adds nothing."""
        _same_algebra(self, other)
        terms = ()  # the addend's (masks, coefficients), if any
        if addend is not None:
            _same_algebra(self, addend)
            terms = (addend._idx, addend._coef)
        prune = _context.get().prune_eps
        a, b = self._idx, other._idx
        # the one dict/array crossover for products, on either form
        if len(a) * len(b) <= _backend.SMALL_PAIRS:
            return _raw(self.n, *dict_mul(a, self._coef, b, other._coef,
                                          prune, *terms))
        to_arrays = _backend.to_arrays
        return _raw(self.n, *_backend.mul_terms(
            *to_arrays(a, self._coef), *to_arrays(b, other._coef), prune,
            *(to_arrays(*terms) if terms else ())))

    def power(self, k: int) -> "Zeon":
        """``k``-th power, ``k >= 0``: with ``c`` the scalar part and ``d``
        the dual part, the finite sum ``sum_j binom(k, j) c**(k-j) d**j``.
        """
        k = operator.index(k)  # refuses a non-integral exponent
        if k < 0:
            raise ValueError("power expects a nonnegative exponent; "
                             "use inverse() for negative powers")
        c = self.scalar_part()
        try:
            coeffs = [math.comb(k, j) * c ** (k - j)
                      for j in range(min(k, self.n) + 1)]
        except OverflowError:  # c**(k-j) or binom(k, j) past the float range
            raise NonFiniteResult("coefficients must be finite") from None
        return _taylor_sum(self.dual_part(), coeffs)

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

    def inverse(self) -> "Zeon":
        """Multiplicative inverse.

        Exists exactly when the scalar part ``c`` is nonzero; with ``d``
        the dual part it is the finite sum ``sum_k (1/c) (-d/c)**k``.
        """
        c = self.scalar_part()
        if not _invertible(c):
            raise NotInvertible(
                "scalar part is zero (or below eq_eps); no inverse exists"
            )
        return _taylor_sum(self.dual_part().scale(-1.0 / c),
                           itertools.repeat(1.0 / c))

    def isclose(self, other: ZeonLike, *, eps: float | None = None) -> bool:
        """Coefficient-wise closeness within ``eps`` (default ``eq_eps``)."""
        if eps is None:
            eps = _context.get().eq_eps
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
        other = complex(other)
        if not _invertible(other):
            raise NotInvertible("division by zero (or below eq_eps)")
        return self.scale(1.0 / other)

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


def _rebuild(n: int, terms: list) -> Zeon:
    # copies and pickles go through __init__, which checks them, with
    # nothing pruned, so a copy equals its original under any tolerance
    with tolerance(Tolerance(prune_eps=0.0)):
        return Zeon(n, terms)


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


def _sum(n: int, parts) -> Zeon:
    """Sum of canonical elements, each blade's coefficients added in the
    order of ``parts`` and pruned once: by one ``dict_sum`` when every
    part holds tuples, else by one ``add_terms`` call."""
    prune = _context.get().prune_eps
    masks, coefs = (), ()
    for p in parts:
        if type(p._idx) is not tuple:
            to_arrays = _backend.to_arrays
            return _raw(n, *_backend.add_terms(*[
                t for q in parts for t in to_arrays(q._idx, q._coef)], prune))
        masks += p._idx
        coefs += p._coef
    return _raw(n, *dict_sum(masks, coefs, prune))


def _coerce(value: ZeonLike, n: int) -> Zeon:
    if isinstance(value, Zeon):
        return value
    if isinstance(value, (int, float, complex)):
        return Zeon.scalar(n, value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a Zeon")


def generators(n: int) -> tuple[Zeon, ...]:
    """The generator blades ``z{1}..z{n}`` of the ``n``-dimensional algebra."""
    return tuple(Zeon.blade(n, (i,)) for i in range(1, n + 1))


def _taylor_sum(x: Zeon, coeffs: Iterable[complex]) -> Zeon:
    """``sum_k a_k x**k`` for a nilpotent ``x``, ``a_k`` read from ``coeffs``.

    Stops when a power of ``x`` vanishes, after ``x**n``, or when
    ``coeffs`` runs out.  The power ``x**k`` is held times the largest
    coefficient from ``a_k`` on and takes its product with ``x`` before
    it shrinks to the next one, unless that product overflows.  So no
    power is pruned below the size of a term still to come, a dip in the
    coefficients (``cos`` at pi) erases nothing after it, and falling
    coefficients (a root at a large scalar) shrink the power with them.
    The scalar term and then the scaled powers are summed once by ``_sum``.
    """
    a = list(itertools.islice(coeffs, x.n + 1))
    # big[k]: the coefficient of largest magnitude among a[k:]
    big = list(itertools.accumulate(
        reversed(a), lambda b, c: c if abs(c) > abs(b) else b))[::-1]
    parts = [Zeon.scalar(x.n, a[0])] if a else []
    term, size = x, 1.0
    for k in range(1, len(a)):
        if k > 1:
            try:
                term = term.mul(x)
            except NonFiniteResult:
                term, size = term.scale(big[k] / size).mul(x), big[k]
        if term.is_zero() or big[k] == 0:
            break
        if big[k] != size:
            term, size = term.scale(big[k] / size), big[k]
        if a[k] != 0:
            parts.append(term if a[k] == size else term.scale(a[k] / size))
    return _sum(x.n, parts)


# -- roots ----------------------------------------------------------------


def principal_kth_root(w: Zeon, k: int) -> Zeon:
    """The k-th root whose scalar part is the principal complex root.

    Requires an invertible element (nonzero scalar part).  With
    ``w = c + d`` (``d`` nilpotent) and ``r`` the principal root of
    ``c``, the root is the finite Taylor sum
    ``sum_j binom(1/k, j) r / c**j * d**j``.
    """
    if k < 1:
        raise ValueError("root order must be a positive integer")
    c = w.scalar_part()
    if not _invertible(c):
        raise NotInvertible("k-th roots require an invertible element")
    r = cmath.exp(cmath.log(c) / k)
    # binom(1/k, j) r / c**j for j = 0..n; zero from j = 2 on when k == 1
    return _taylor_sum(w.dual_part(), itertools.accumulate(
        range(w.n), lambda a, j: a * (1.0 / k - j) / ((j + 1) * c), initial=r))


def kth_roots(w: Zeon, k: int) -> list[Zeon]:
    """All ``k`` k-th roots of an invertible element.

    Scalar parts run over the principal root of ``C(w)`` times the k-th
    roots of unity, in that order, so the principal root comes first and
    the list is deterministic.  The binomial sum of
    :func:`principal_kth_root` is linear in the scalar root, so every
    branch is the principal root times its root of unity.  The k
    results are pairwise distinct because their scalar parts are.
    """
    root = principal_kth_root(w, k)
    return [root, *(root.scale(_unit_root(j, k)) for j in range(1, k))]


def _unit_root(j: int, k: int) -> complex:
    # exp(2*pi*i*j/k), exact on the axes so real inputs keep real roots
    quarter, rem = divmod(4 * j, k)
    if rem == 0:
        return (1, 1j, -1, -1j)[quarter % 4]
    return cmath.exp(2j * cmath.pi * j / k)
