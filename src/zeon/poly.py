"""Polynomials with zeon coefficients.

Coefficients are stored densely in ascending degree order and
normalised so that the leading coefficient is nonzero (the zero
polynomial keeps an empty coefficient tuple and degree -1).  Division
follows ordinary leading-term elimination, which is why the divisor's
leading coefficient must be invertible; when it is, quotient and
remainder are unique.

The quadratic machinery lives here too: the discriminant, a best-effort
layered square root of nilpotent elements, searched at unit scale, and
the quadratic solver with its five-way outcome.  A root's bottom layer
comes from a Gauss-Newton fit at half an even minimum grade of 4 or
more, then in closed form at half every even minimum grade, then as a
single null-square blade at each grade below half the minimum grade.
The fits run from one start each, the all-layer one warm from the
first completed layer stack, both laid out by one blade-pair table.

numpy is imported only where a least-squares fit runs
(:func:`least_squares`, :func:`_complete_layers`); small elements and
the scalar projection, a ``list[complex]``, never need it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum

from .algebra import (
    Tolerance,
    Zeon,
    ZeonLike,
    _check_n,
    _coerce,
    _invertible,
    _raw,
    _same_algebra,
    default_tolerance,
    mask_to_indices,
    principal_kth_root,
    tolerance,
)
from .errors import (
    DimensionMismatch,
    DivisorNotMonicizable,
    LeadingCoefficientNotInvertible,
    SqrtNotFound,
)

__all__ = [
    "ZeonPoly",
    "DivisionResult",
    "divide",
    "remainder_at",
    "discriminant",
    "nilpotent_sqrt",
    "QuadraticKind",
    "QuadraticOutcome",
    "quadratic_solve",
]


class ZeonPoly:
    """A polynomial in one variable with zeon coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs: Sequence[ZeonLike], n: int | None = None):
        """``coeffs`` ascending by degree; ``n`` required only when no
        coefficient is a :class:`Zeon` (e.g. an all-scalar or empty list)."""
        ambient = n
        for c in coeffs:
            if isinstance(c, Zeon):
                if ambient is None:
                    ambient = c.n
                elif c.n != ambient:
                    raise DimensionMismatch(
                        f"coefficients mix n={ambient} and n={c.n}"
                    )
        if ambient is None:
            raise ValueError("ambient dimension n is required")
        # lifting checks an explicit n; an empty list leaves it to _check_n
        lifted = [_coerce(c, ambient) for c in coeffs]
        ambient = lifted[0].n if lifted else _check_n(ambient)
        while lifted and lifted[-1].is_zero():
            lifted.pop()
        object.__setattr__(self, "n", ambient)
        object.__setattr__(self, "coeffs", tuple(lifted))

    def __setattr__(self, name, value):
        raise AttributeError("ZeonPoly is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through __init__
        return ZeonPoly, (self.coeffs, self.n)

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ZeonPoly":
        return cls((), n=n)

    @classmethod
    def from_scalars(cls, n: int, scalars: Iterable[complex]) -> "ZeonPoly":
        """Polynomial with plain complex coefficients, ascending."""
        return cls([Zeon.scalar(n, c) for c in scalars], n=n)

    @classmethod
    def monomial(cls, n: int, degree: int, coeff: ZeonLike = 1.0) -> "ZeonPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls([Zeon.zero(n)] * degree + [_coerce(coeff, n)], n=n)

    @classmethod
    def from_roots(cls, n: int, roots: Iterable[ZeonLike]) -> "ZeonPoly":
        """Monic polynomial with the given zeros: product of (u - r)."""
        acc = [Zeon.one(n)]
        for r in roots:
            # times (u - r), adding as __mul__ does: acc[k-1] + acc[k] * -r
            r = _coerce(r, n).scale(-1.0)
            acc = [acc[0].mul(r),
                   *(a.mul_add(r, b) for a, b in zip(acc[1:], acc)),
                   acc[-1]]
        return cls(acc, n=n)

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Zeon:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Zeon:
        """Coefficient of degree ``k`` (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Zeon.zero(self.n)

    def is_scalar(self) -> bool:
        """True when every coefficient has a negligible dual part."""
        eps = default_tolerance().eq_eps
        return all(c.dual_part().max_abs() <= eps for c in self.coeffs)

    def scalar_projection(self) -> list[complex]:
        """Scalar parts of the coefficients, ascending, as a
        ``list[complex]``.

        The zero polynomial projects to ``[0j]`` so the scalar
        polynomial helpers always see a nonempty list.
        """
        if not self.coeffs:
            return [0j]
        return [c.scalar_part() for c in self.coeffs]

    def eval(self, u: ZeonLike) -> Zeon:
        """Horner evaluation at a zeon (or scalar) point."""
        point = _coerce(u, self.n)
        _same_algebra(self, point)
        acc = self.coeffs[-1] if self.coeffs else Zeon.zero(self.n)
        for c in self.coeffs[-2::-1]:
            acc = acc.mul_add(point, c)
        return acc

    __call__ = eval

    def derivative(self) -> "ZeonPoly":
        return ZeonPoly(
            [c.scale(k) for k, c in enumerate(self.coeffs) if k >= 1],
            n=self.n,
        )

    def _invertible_lead(self, error=LeadingCoefficientNotInvertible) -> Zeon:
        """The leading coefficient, checked invertible; ``error`` is
        raised when there is none or it has no inverse."""
        if self.is_zero():
            raise error("zero polynomial")
        if not _invertible(self.coeffs[-1].scalar_part()):
            raise error("leading coefficient has zero scalar part")
        return self.coeffs[-1]

    def monic(self) -> "ZeonPoly":
        """Scale by the inverse of the leading coefficient.

        Raises :class:`LeadingCoefficientNotInvertible` when that
        coefficient has no inverse.
        """
        lead = self._invertible_lead()
        if lead == 1:
            return self
        inv = lead.inverse()
        return ZeonPoly([c.mul(inv) for c in self.coeffs], n=self.n)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ZeonPoly") -> "ZeonPoly":
        if not isinstance(other, ZeonPoly):
            return NotImplemented
        _same_algebra(self, other)
        a, b = self.coeffs, other.coeffs
        # shared degrees add; the longer operand's tail is kept as it is
        return ZeonPoly([*map(Zeon.add, a, b), *a[len(b):], *b[len(a):]],
                        n=self.n)

    def __sub__(self, other: "ZeonPoly") -> "ZeonPoly":
        if not isinstance(other, ZeonPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ZeonPoly":
        return ZeonPoly([c.scale(-1.0) for c in self.coeffs], n=self.n)

    def __mul__(self, other) -> "ZeonPoly":
        if isinstance(other, ZeonPoly):
            _same_algebra(self, other)
            if self.is_zero() or other.is_zero():
                return ZeonPoly.zero(self.n)
            out = [Zeon.zero(self.n)] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = a.mul_add(b, out[i + j])
            return ZeonPoly(out, n=self.n)
        factor = _coerce(other, self.n)
        return ZeonPoly([c.mul(factor) for c in self.coeffs], n=self.n)

    def __rmul__(self, other) -> "ZeonPoly":
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZeonPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def isclose(self, other: "ZeonPoly", *, eps: float | None = None) -> bool:
        diff = self - other
        if eps is None:
            eps = default_tolerance().eq_eps
        return all(c.max_abs() <= eps for c in diff.coeffs)

    def __repr__(self) -> str:
        from .textio import format_poly
        return f"<ZeonPoly n={self.n} deg={self.degree}: {format_poly(self)}>"


class DivisionResult(namedtuple("DivisionResult", "quotient remainder")):
    """The quotient and remainder polynomials of :func:`divide`."""

    __slots__ = ()


def divide(phi: ZeonPoly, psi: ZeonPoly) -> DivisionResult:
    """Division with remainder: ``phi = psi * q + r`` with ``deg r < deg psi``.

    Requires the divisor's leading coefficient to be invertible, which
    makes the pair ``(q, r)`` unique.  One sweep runs from the top
    degree down: each step pops the top coefficient, which its step
    cancels exactly by construction, takes it times the inverse lead as
    a quotient coefficient, and adds that factor times the divisor's
    lower coefficients, negated once up front, into the slots below.
    """
    _same_algebra(phi, psi)
    lead_inv = psi._invertible_lead(DivisorNotMonicizable).inverse()
    low = [c.scale(-1.0) for c in psi.coeffs[:-1]]
    rem = list(phi.coeffs)
    quot = []
    for shift in range(len(rem) - len(low) - 1, -1, -1):
        factor = rem.pop().mul(lead_inv)
        quot.append(factor)
        for j, c in enumerate(low, shift):
            rem[j] = c.mul_add(factor, rem[j])
    return DivisionResult(
        quotient=ZeonPoly(quot[::-1], n=phi.n),
        remainder=ZeonPoly(rem, n=phi.n),
    )


def remainder_at(phi: ZeonPoly, z: ZeonLike) -> Zeon:
    """Remainder of ``phi`` on division by ``(u - z)``.

    By the remainder theorem this is ``phi(z)``, and synthetic division
    by the monic ``u - z`` performs Horner's steps, so it is computed
    as :meth:`ZeonPoly.eval`.
    """
    return phi.eval(z)


def discriminant(alpha: Zeon, beta: Zeon, gamma: Zeon) -> Zeon:
    """``beta**2 - 4*alpha*gamma`` of the quadratic with those
    coefficients, less its rounding dust.

    The coefficient at a grade-``g`` blade sums ``m = 2**(g+1)`` complex
    products, ``2**g`` each from ``beta*beta`` and ``alpha*gamma``.  A
    product rounds within ``sqrt(5)/2 eps`` of its magnitude and each
    addition within ``eps/2`` of the magnitudes it sums, so the computed
    coefficient is off by at most ``(2**g + sqrt(5))/2 eps`` (to first
    order) times the same sum over coefficient magnitudes,
    ``|beta|*|beta| + 4 |alpha|*|gamma|`` at that blade.  A term at or
    below ``m eps`` times that sum may be all rounding and is dropped.
    It counts additions, not their order, so it holds for the fused sum.
    """
    _same_algebra(alpha, beta)
    _same_algebra(beta, gamma)
    delta = beta.mul_add(beta, alpha.mul(gamma).scale(-4.0))
    # the magnitude sums, unpruned; the left factors carry eps (exactly,
    # a power of two), so the sums stay finite wherever delta does
    eps = 2.0 ** -52
    ea, g, eb, b = (_raw(x.n, x._tuples()[0],
                         [s * abs(c) for c in x._tuples()[1]])
                    for x, s in ((alpha, 4 * eps), (gamma, 1.0),
                                 (beta, eps), (beta, 1.0)))
    with tolerance(Tolerance(prune_eps=0.0)):
        floor = dict(zip(*eb.mul_add(b, ea.mul(g))._tuples()))
    kept = [(m, c) for m, c in zip(*delta._tuples())
            if abs(c) > (2 << m.bit_count()) * floor.get(m, 0j).real]
    return _raw(delta.n, [m for m, _ in kept], [c for _, c in kept])


# -- nilpotent square roots -------------------------------------------------


def _blades_of_grade(bits: list[int], grade: int) -> list[int]:
    return [sum(c) for c in itertools.combinations(bits, grade)]


# at most this many candidate blades enter a least-squares fit: 2**8, so
# a fit at n <= 8 is never refused
MAX_UNKNOWNS = 256
# Gauss-Newton steps per fit.  Near a singular root (the common case:
# roots come in families) the error only halves per step, which takes
# about 50 steps from order one down to rounding.
_NEWTON_STEPS = 60


def _squares_to(v: Zeon, w: Zeon, tol: Tolerance) -> bool:
    """True when ``v*v`` matches ``w`` to ``eq_eps * max(1, |w|)``."""
    return (v.mul(v) - w).max_abs() <= tol.eq_eps * max(1.0, w.max_abs())


def _pair_table(left: list[int], right: list[int], target: Zeon):
    """Disjoint blade pairs of ``left`` x ``right``, found with one outer
    AND as in the wide product kernel.  Per pair, in row-major order: its
    index into ``left``, its index into ``right`` (its column) and its
    row, the place of its union among all the unions and ``target``'s
    masks, ascending.  Last, ``target`` read on those rows."""
    import numpy as np

    a, b = (np.array(x, dtype=np.uint64) for x in (left, right))
    src, col = divmod(np.logical_not(a[:, None] & b).ravel().nonzero()[0],
                      b.size)
    masks, coefs = target._tuples()
    unions = a[src] | b[col]
    # not np.unique, which loads numpy.ma (1.6 MB resident)
    rows = np.array(sorted({*masks, *unions.tolist()}), dtype=np.uint64)
    values = np.zeros(rows.size, dtype=np.complex128)
    values[rows.searchsorted(np.array(masks, dtype=np.uint64))] = coefs
    return src, col, rows.searchsorted(unions), values


def least_squares(w: Zeon, cands: list[int], tol: Tolerance,
                  start: Zeon | None = None) -> Zeon | None:
    """Gauss-Newton fit of ``v = sum_j x_j z{cands[j]}`` to ``v*v = w``.

    ``v*v`` is holomorphic in ``x``, so its Jacobian is exactly
    ``2*(multiplication by v)`` on the candidate blades: column ``b``
    holds ``2 x_a`` at row ``a|b`` for each candidate ``a`` disjoint
    from ``b`` (:func:`_pair_table` of the candidates with themselves),
    and ``v*v = J x / 2``.  Each step is one complex
    ``np.linalg.lstsq`` (the minimum-norm step when the system is
    underdetermined), with no split into real and imaginary parts.  The
    iteration runs once, from ``start`` read on the candidates, or from
    a constant scaled to ``w`` when there is no start; an overflow shows
    only as a non-finite residual or step, which refuses the fit.  The
    ``v`` it reaches is returned when its exact product matches ``w``
    (:func:`_squares_to`); None otherwise, or when there are no
    candidates, more than ``MAX_UNKNOWNS``, or no disjoint pair.
    """
    k = len(cands)
    if not k or k > MAX_UNKNOWNS:
        return None
    import numpy as np

    src, col, row, target = _pair_table(cands, cands, w)
    if not src.size:
        return None
    blades = [mask_to_indices(mk) for mk in cands]
    if start is None:
        x = np.full(k, np.sqrt(max(1.0, w.max_abs()) / 2.0) * (1 + 1j))
    else:
        x = np.array([start.coeff(b) for b in blades], dtype=np.complex128)
    jac = np.zeros((target.size, k), dtype=np.complex128)
    norm = np.inf  # no earlier residual norm
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            jac[row, col] = 2.0 * x[src]
            res = 0.5 * (jac @ x) - target
            if not np.all(np.isfinite(res)):
                return None
            # stop at a stall (rounding alone moves the norm), not at a rise
            last, norm = norm, np.linalg.norm(res)
            if abs(norm - last) <= 1e-9 * norm:
                break
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
            x = x + step
            if np.abs(step).max() <= 1e-15 * max(1.0, np.abs(x).max()):
                break
    if not np.all(np.isfinite(x)):
        return None
    v = Zeon(w.n, zip(blades, x))
    return v if _squares_to(v, w, tol) else None


def nilpotent_sqrt(w: Zeon) -> Zeon:
    """Best-effort square root of a nilpotent element.

    A nonzero nilpotent square always has minimum grade at least 2
    (every blade of ``v*v`` is a disjoint union of two blades of ``v``),
    so an input with a grade-1 term fails immediately and that failure
    is certified.  Everything else is searched at unit scale, on ``w``
    over a power of 4 (a term that falls below ``prune_eps`` there is
    dropped), so that no candidate's square overflows, and the root is
    scaled back by the power of 2.  The search is layered: a candidate
    bottom layer ``v_h`` of grade ``h``, then each higher layer from a
    linear minimum-norm system, since ``2 v_h x`` is linear in ``x``.
    With ``m = min_grade(w)``, the bottom is first fitted at grade
    ``m/2`` by :func:`least_squares` for even ``m >= 4``, then read in
    closed form at grade ``m/2`` for every even ``m`` (:func:`_bottoms`);
    then, for every ``m``, it is a single null-square blade of each
    grade ``h`` from ``(m-1)//2`` down to 1 (:func:`_blade_bottoms`).
    The first completed stack that verifies is returned.  Otherwise the
    fit over all layers at once runs from one start, the first completed
    stack (a constant when there is none); nothing restarts at random.

    Raises :class:`SqrtNotFound` when nothing verifies; ``certified`` is
    True only for the provable grade obstruction.
    """
    tol = default_tolerance()
    if _invertible(w.scalar_part()):
        raise ValueError("nilpotent_sqrt expects a nilpotent element")
    w = w.dual_part()
    if w.is_zero():
        return w
    m = w.min_grade()
    if m < 2:
        raise SqrtNotFound(
            "a nonzero square of a nilpotent has minimum grade >= 2, "
            f"input has minimum grade {m}",
            certified=True,
        )
    # exact scalings: the roots of w / 4**e are those of w over 2**e
    e = math.frexp(w.max_abs())[1] // 2
    w = w.scale(math.ldexp(1.0, -2 * e))
    m = w.min_grade()  # a term the rescale pruned may raise it
    gen_bits = _support_generators(w)
    first = None
    for v in _layered_sqrt(w, m, gen_bits, tol):
        if _squares_to(v, w, tol):
            return v.scale(math.ldexp(1.0, e))
        if first is None:
            first = v
    # all layers at once, over the grades that can still reach a
    # product of grade <= n
    g = m // 2 if first is None else first.min_grade()
    grade_hi = min(max(g, w.n - g), len(gen_bits))
    v = least_squares(w, [b for k in range(g, grade_hi + 1)
                          for b in _blades_of_grade(gen_bits, k)],
                      tol, first)
    if v is None:
        raise SqrtNotFound(
            f"minimum grade {m}: no square root found by the layered or "
            "the all-layer search",
            certified=False,
        )
    return v.scale(math.ldexp(1.0, e))


def _support_generators(w: Zeon) -> list[int]:
    bits = 0
    for m in w.support_masks():
        bits |= m
    return [1 << i for i in range(w.n) if bits >> i & 1]


def _complete_layers(w: Zeon, v_g: Zeon, g: int,
                     gen_bits: list[int]) -> Zeon:
    """Extend a fixed bottom layer of grade ``g`` upward.

    With the bottom frozen, the grade g+t slice only reaches grade
    2g+t of the square through 2*v_g*x, so each higher layer is a
    linear minimum-norm solve against the residual at its grade, one
    fused ``w - v*v`` cut to that grade; the matrix holds ``2 c`` at
    row ``a|k`` of column ``k`` for each bottom term ``c z_a`` disjoint
    from candidate ``k`` (:func:`_pair_table`).  Earlier layers feed
    later residuals through the running root's square.
    """
    bottom_masks, bottom_coefs = v_g._tuples()
    v = v_g
    for grade in range(g + 1, min(w.n - g, len(gen_bits)) + 1):
        residual = v.scale(-1.0).mul_add(v, w).grade_part(g + grade)
        if residual.is_zero():
            continue
        import numpy as np

        cands = _blades_of_grade(gen_bits, grade)
        src, col, row, b = _pair_table(bottom_masks, cands, residual)
        A = np.zeros((b.size, len(cands)), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            A[row, col] = 2.0 * np.array(bottom_coefs)[src]
            x, *_ = np.linalg.lstsq(A, b, rcond=None)
        v = v.add(Zeon(w.n, zip(map(mask_to_indices, cands), x)))
    return v


def _layered_sqrt(w: Zeon, m: int, gen_bits: list[int],
                  tol: Tolerance) -> Iterator[Zeon]:
    """Completed layer stacks for ``v*v = w``, unverified, in the order
    of :func:`nilpotent_sqrt`."""
    if m % 2 == 0:
        h = m // 2
        v_h = None if m == 2 else least_squares(
            w.grade_part(m), _blades_of_grade(gen_bits, h), tol)
        if v_h is not None:
            yield _complete_layers(w, v_h, h, gen_bits)
        for v_h in _bottoms(w, gen_bits, h, tol):
            yield _complete_layers(w, v_h, h, gen_bits)
    for h in range((m - 1) // 2, 0, -1):
        for v_h in _blade_bottoms(w, gen_bits, h):
            yield _complete_layers(w, v_h, h, gen_bits)


def _blade_bottoms(w: Zeon, gen_bits: list[int], h: int) -> Iterator[Zeon]:
    """Single-blade bottoms ``a z_B`` of grade ``h < min_grade(w) / 2``.

    The bottom layer must square to zero (``w`` has nothing at grade
    2h), and every lowest-grade blade of ``w`` has to contain a bottom
    blade for the first layer that reaches it to be solvable.  A single
    grade-h blade ``B`` inside the common intersection of those blades
    does both, whatever the parity of the minimum grade.  With
    ``v = a z_B + y`` (``y`` above grade h), ``w[B|K] = 2 a y[K]`` at the
    lowest grades, so ``a`` times the rest of the root leads with
    ``x = sum w[B|K] / 2 z_K`` over every blade ``B|K`` of ``w``.  On the
    lowest-grade blades ``K`` disjoint from ``B`` only the rest squared
    reaches ``w``: ``a**2 = (x*x)[K] / w[K]``, read on the one with the
    largest ``|w[K]|``, or ``a = 1`` without such a ``K``; a zero ``a``
    skips ``B``.  The caller completes and verifies.
    """
    c = dict(zip(*w._tuples()))
    common = ~0
    for mk in w.min_grade_part().support_masks():
        common &= mk
    shared = [b for b in gen_bits if b & common]
    for blade in itertools.combinations(shared, h):
        B = sum(blade)
        disjoint = [mk for mk in c if not mk & B]
        a = 1.0
        if disjoint:
            x = Zeon(w.n, [(mask_to_indices(mk ^ B), c[mk] / 2.0)
                           for mk in c if mk & B == B])
            K = min(disjoint, key=lambda mk: (mk.bit_count(), -abs(c[mk])))
            a = cmath.sqrt(x.mul(x).coeff(mask_to_indices(K)) / c[K])
        if a:
            yield Zeon.blade(w.n, mask_to_indices(B), a)


def _bottoms(w: Zeon, gen_bits: list[int], h: int,
             tol: Tolerance) -> Iterator[Zeon]:
    """Closed-form bottoms ``v = sum_B a_B z_B`` over grade-``h`` blades
    with ``v*v = w_2h``, the grade-``2h`` part of ``w``.

    ``v*v`` has coefficient ``t_BC = 2 a_B a_C`` at ``z_(B|C)`` when each
    blade of ``w_2h`` has one split in the root's support.  Each split
    ``B|C`` of the largest term of ``w_2h`` is taken once (``B`` holds
    its lowest generator).  It fixes ``a_B**2 = t_BC t_BD / (2 t_CD)``
    through the blade ``D`` disjoint from both with the largest
    ``|t_BD t_CD|``, and then ``a_D = w[B|D] / (2 a_B)`` for every blade
    ``D`` disjoint from ``B``.  Without a linked ``D``, the product
    ``a_B a_C`` is all ``w_2h`` fixes: ``a_B = sqrt(t_BC / 2)`` comes
    first, then the ratios read from the upper grades: for a blade
    ``B|K`` of ``w`` with ``K`` disjoint from ``C``, leading order gives
    ``w[B|K] ~ 2 a_B x_K`` and ``w[C|K] ~ 2 a_C x_K``, so
    ``a_B**2 = (t_BC / 2) w[B|K] / w[C|K]``.  A split yields nothing when
    its first candidate misses ``w_2h``, since no other candidate changes
    whether it matches there.  The caller completes and verifies.
    """
    c = dict(zip(*w._tuples()))
    target = w.grade_part(2 * h)
    pivot = max(target.support_masks(), key=lambda mk: abs(c[mk]))
    t_BC = c[pivot]
    blades = _blades_of_grade(gen_bits, h)
    # the h-subsets of the pivot holding its lowest generator come first
    halves = _blades_of_grade([b for b in gen_bits if b & pivot], h)
    for B in halves[:len(halves) // 2]:
        C = pivot ^ B
        free = [D for D in blades if not D & B]

        def bottom(a_B_sq: complex) -> Zeon:
            a_B = cmath.sqrt(a_B_sq)
            return Zeon(w.n, [(mask_to_indices(B), a_B)] + [
                (mask_to_indices(D), c.get(B | D, 0j) / (2.0 * a_B))
                for D in free])

        t_D = {D: c.get(B | D, 0j) * c.get(C | D, 0j)
               for D in free if not D & C}
        link = max(t_D, key=lambda D: abs(t_D[D]), default=None)
        if link is not None and t_D[link]:
            splits = [t_BC * c[B | link] / (2.0 * c[C | link])]
        else:
            half = t_BC / 2.0
            splits = dict.fromkeys([half] + [
                half * w_bk / c[(mk ^ B) | C] for mk, w_bk in c.items()
                if mk.bit_count() > 2 * h and mk & pivot == B
                and c.get((mk ^ B) | C)])
        first, *rest = splits
        v = bottom(first)
        if _squares_to(v, target, tol):
            yield v
            yield from map(bottom, rest)


# -- quadratics ---------------------------------------------------------------


class QuadraticKind(str, Enum):
    TWO_DISTINCT = "TwoDistinct"
    NULL_SQUARE_FAMILY = "NullSquareFamily"
    NILPOTENT_DISCRIMINANT_ROOTS = "NilpotentDiscriminantRoots"
    NO_ZEROS = "NoZeros"
    UNDETERMINED = "Undetermined"


class QuadraticOutcome(namedtuple(
        "QuadraticOutcome", "kind zeros discriminant family_base note",
        defaults=(None, ""))):
    """Zero set of ``alpha u**2 + beta u + gamma`` as far as determined.

    ``kind`` is a :class:`QuadraticKind`, ``zeros`` a tuple of verified
    representative zeros, ``discriminant`` an element and ``note``
    text.  For the family kinds, ``family_base`` is a base point (else
    None): NullSquareFamily means ``base + eta`` is a zero exactly for
    null-square nilpotents ``eta``; NilpotentDiscriminantRoots means the
    listed zeros extend to the infinite families obtained by adding
    multiples of the top blade.
    """

    __slots__ = ()


def quadratic_solve(alpha: Zeon, beta: Zeon, gamma: Zeon) -> QuadraticOutcome:
    """Solve the quadratic by completing the square.

    With ``alpha`` invertible, zeros are exactly
    ``(alpha^-1 / 2) (w - beta)`` for square roots ``w`` of the
    discriminant, which leaves three shapes: an invertible discriminant
    gives two distinct zeros, a zero discriminant gives the null-square
    family around the double point, and a nonzero nilpotent
    discriminant has zeros only if it admits a square root, in which
    case adding any multiple of the top blade to ``w`` gives another
    root and the zero set is infinite.  The discriminant comes without
    its rounding dust (see :func:`discriminant`), so NoZeros is
    certified only by a grade-1 term above the rounding floor.
    """
    _same_algebra(alpha, beta)
    _same_algebra(beta, gamma)
    n = alpha.n
    if not _invertible(alpha.scalar_part()):
        raise LeadingCoefficientNotInvertible(
            "quadratic leading coefficient has zero scalar part"
        )
    delta = discriminant(alpha, beta, gamma)
    half_inv = alpha.inverse().scale(0.5)
    if delta.is_zero():
        base = half_inv.mul(beta).scale(-1.0)
        return QuadraticOutcome(
            kind=QuadraticKind.NULL_SQUARE_FAMILY,
            zeros=(base,),
            discriminant=delta,
            family_base=base,
            note="zeros are base + eta for every eta with eta*eta = 0",
        )
    invertible = _invertible(delta.scalar_part())
    try:
        w = (principal_kth_root(delta, 2) if invertible
             else nilpotent_sqrt(delta))
    except SqrtNotFound as exc:
        return QuadraticOutcome(
            kind=(QuadraticKind.NO_ZEROS if exc.certified
                  else QuadraticKind.UNDETERMINED),
            zeros=(),
            discriminant=delta,
            note=str(exc),
        )
    z1 = half_inv.mul(w - beta)
    z2 = half_inv.mul(w.scale(-1.0) - beta)
    if invertible:
        return QuadraticOutcome(
            kind=QuadraticKind.TWO_DISTINCT,
            zeros=(z1, z2),
            discriminant=delta,
        )
    zeros = (z1,) if z1.isclose(z2) else (z1, z2)
    return QuadraticOutcome(
        kind=QuadraticKind.NILPOTENT_DISCRIMINANT_ROOTS,
        zeros=zeros,
        discriminant=delta,
        family_base=z1,
        note="each listed zero extends to an infinite family: adding any "
             "complex multiple of the full blade "
             f"z{{{','.join(str(i) for i in range(1, n + 1))}}} "
             "to the discriminant root leaves its square unchanged",
    )
