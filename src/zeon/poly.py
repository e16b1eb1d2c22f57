"""Polynomials with zeon coefficients.

Coefficients are stored densely in ascending degree order and
normalised so that the leading coefficient is nonzero (the zero
polynomial keeps an empty coefficient tuple and degree -1).  Division
follows ordinary leading-term elimination, which is why the divisor's
leading coefficient must be invertible; when it is, quotient and
remainder are unique.

The quadratic machinery lives here too: the discriminant, a best-effort
layered square root of nilpotent elements (closed form for a grade-1
bottom layer and for odd minimum grade, a Gauss-Newton fit for bottom
layers of grade 2 or more and, as the last resort, for all layers at
once), and the quadratic solver with its five-way outcome.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    Tolerance,
    Zeon,
    ZeonLike,
    _coerce,
    _resolve,
    mask_to_indices,
    principal_kth_root,
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
        lifted = [_coerce(c, ambient) for c in coeffs]
        while lifted and lifted[-1].is_zero():
            lifted.pop()
        object.__setattr__(self, "n", ambient)
        object.__setattr__(self, "coeffs", tuple(lifted))

    def __setattr__(self, name, value):
        raise AttributeError("ZeonPoly is immutable")

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
        acc = cls.from_scalars(n, [1.0])
        for r in roots:
            acc = acc * cls([_coerce(r, n).scale(-1.0), Zeon.one(n)], n=n)
        return acc

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

    def is_scalar(self, tol: Tolerance | None = None) -> bool:
        """True when every coefficient has a negligible dual part."""
        tol = _resolve(tol)
        return all(c.dual_part().max_abs() <= tol.eq_eps for c in self.coeffs)

    def scalar_projection(self) -> np.ndarray:
        """Ascending complex coefficient array of scalar parts.

        The zero polynomial projects to ``[0]`` so downstream numpy
        polynomial helpers always see a nonempty array.
        """
        if not self.coeffs:
            return np.zeros(1, dtype=np.complex128)
        return np.array([c.scalar_part() for c in self.coeffs],
                        dtype=np.complex128)

    def eval(self, u: ZeonLike) -> Zeon:
        """Horner evaluation at a zeon (or scalar) point."""
        point = _coerce(u, self.n)
        if point.n != self.n:
            raise DimensionMismatch(
                f"point has n={point.n}, polynomial has n={self.n}"
            )
        acc = Zeon.zero(self.n)
        for c in reversed(self.coeffs):
            acc = acc.mul(point).add(c)
        return acc

    __call__ = eval

    def derivative(self) -> "ZeonPoly":
        return ZeonPoly(
            [c.scale(k) for k, c in enumerate(self.coeffs) if k >= 1],
            n=self.n,
        )

    def monic(self, tol: Tolerance | None = None) -> "ZeonPoly":
        """Scale by the inverse of the leading coefficient.

        Raises :class:`LeadingCoefficientNotInvertible` when that
        coefficient has no inverse.
        """
        tol = _resolve(tol)
        if self.is_zero():
            raise LeadingCoefficientNotInvertible("zero polynomial")
        lead = self.lead
        if abs(lead.scalar_part()) <= tol.eq_eps:
            raise LeadingCoefficientNotInvertible(
                "leading coefficient has zero scalar part"
            )
        if lead == 1:
            return self
        inv = lead.inverse(tol)
        return ZeonPoly([c.mul(inv) for c in self.coeffs], n=self.n)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "ZeonPoly") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"polynomials live in different algebras: "
                f"n={self.n} vs n={other.n}"
            )

    def __add__(self, other: "ZeonPoly") -> "ZeonPoly":
        self._check(other)
        size = max(len(self.coeffs), len(other.coeffs))
        return ZeonPoly(
            [self.coeff(k).add(other.coeff(k)) for k in range(size)],
            n=self.n,
        )

    def __sub__(self, other: "ZeonPoly") -> "ZeonPoly":
        return self + (-other)

    def __neg__(self) -> "ZeonPoly":
        return ZeonPoly([c.scale(-1.0) for c in self.coeffs], n=self.n)

    def __mul__(self, other) -> "ZeonPoly":
        if isinstance(other, ZeonPoly):
            self._check(other)
            if self.is_zero() or other.is_zero():
                return ZeonPoly.zero(self.n)
            out = [Zeon.zero(self.n)] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j].add(a.mul(b))
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

    def isclose(self, other: "ZeonPoly", tol: Tolerance | None = None,
                *, eps: float | None = None) -> bool:
        self._check(other)
        tol = _resolve(tol)
        if eps is None:
            eps = tol.eq_eps
        size = max(len(self.coeffs), len(other.coeffs))
        return all(
            (self.coeff(k) - other.coeff(k)).max_abs() <= eps
            for k in range(size)
        )

    def __repr__(self) -> str:
        from .textio import format_poly
        return f"<ZeonPoly n={self.n} deg={self.degree}: {format_poly(self)}>"


@dataclass(frozen=True)
class DivisionResult:
    quotient: ZeonPoly
    remainder: ZeonPoly


def divide(phi: ZeonPoly, psi: ZeonPoly,
           tol: Tolerance | None = None) -> DivisionResult:
    """Division with remainder: ``phi = psi * q + r`` with ``deg r < deg psi``.

    Requires the divisor's leading coefficient to be invertible, which
    makes the pair ``(q, r)`` unique.  Each elimination step cancels the
    current leading term exactly by construction, so the top slot is
    dropped outright rather than left to float noise.
    """
    phi._check(psi)
    tol = _resolve(tol)
    if psi.is_zero():
        raise DivisorNotMonicizable("division by the zero polynomial")
    if abs(psi.lead.scalar_part()) <= tol.eq_eps:
        raise DivisorNotMonicizable(
            "divisor's leading coefficient has zero scalar part"
        )
    lead_inv = psi.lead.inverse(tol)
    dpsi = psi.degree
    rem = list(phi.coeffs)
    quot = [Zeon.zero(phi.n)] * max(0, len(rem) - dpsi)
    while len(rem) - 1 >= dpsi and rem:
        shift = len(rem) - 1 - dpsi
        factor = rem[-1].mul(lead_inv)
        quot[shift] = factor
        for j in range(dpsi):
            rem[shift + j] = rem[shift + j] - psi.coeffs[j].mul(factor)
        rem.pop()
        while rem and rem[-1].is_zero():
            rem.pop()
    return DivisionResult(
        quotient=ZeonPoly(quot, n=phi.n),
        remainder=ZeonPoly(rem, n=phi.n),
    )


def remainder_at(phi: ZeonPoly, z: ZeonLike,
                 tol: Tolerance | None = None) -> Zeon:
    """Remainder of ``phi`` on division by ``(u - z)``.

    Equals ``phi(z)``; the explicit division form is kept as an
    independent route for consistency checks.
    """
    point = _coerce(z, phi.n)
    linear = ZeonPoly([point.scale(-1.0), Zeon.one(phi.n)], n=phi.n)
    rem = divide(phi, linear, tol).remainder
    return rem.coeff(0)


def discriminant(alpha: Zeon, beta: Zeon, gamma: Zeon) -> Zeon:
    """``beta**2 - 4*alpha*gamma`` of the quadratic with those coefficients."""
    if not (alpha.n == beta.n == gamma.n):
        raise DimensionMismatch("quadratic coefficients mix algebras")
    return beta.mul(beta) - alpha.mul(gamma).scale(4.0)


# -- nilpotent square roots -------------------------------------------------


def _blades_of_grade(bits: list[int], grade: int) -> list[int]:
    return [sum(c) for c in itertools.combinations(bits, grade)]


# at most this many candidate blades enter a least-squares fit
MAX_UNKNOWNS = 120
# Gauss-Newton steps per start.  Near a singular root (the common case:
# roots come in families) the error only halves per step, which takes
# about 50 steps from order one down to rounding.
_NEWTON_STEPS = 60


def _squares_to(v: Zeon, w: Zeon, tol: Tolerance) -> bool:
    """True when ``v*v`` matches ``w`` to ``eq_eps * max(1, |w|)``."""
    return (v.mul(v) - w).max_abs() <= tol.eq_eps * max(1.0, w.max_abs())


def least_squares(w: Zeon, cands: list[int], tol: Tolerance) -> Zeon | None:
    """Gauss-Newton fit of ``v = sum_j x_j z{cands[j]}`` to ``v*v = w``.

    ``v*v`` is holomorphic in ``x``, so its Jacobian is exactly
    ``2*(multiplication by v)`` on the candidate blades: column ``b``
    holds ``2 x_a`` at row ``a|b`` for each candidate ``a`` disjoint
    from ``b``, and ``v*v = J x / 2``.  Each step is one complex
    ``np.linalg.lstsq`` (the minimum-norm step when the system is
    underdetermined), with no split into real and imaginary parts.  A
    constant start and three seeded random ones run in turn; the first
    ``v`` whose exact product matches ``w`` (:func:`_squares_to`) is
    returned, None when no start gets there or there are no candidates
    or more than ``MAX_UNKNOWNS``.
    """
    k = len(cands)
    if not k or k > MAX_UNKNOWNS:
        return None
    pairs = [(a, b) for a in range(k) for b in range(k)
             if not cands[a] & cands[b]]
    if not pairs:
        return None
    rows = sorted(set(w.support_masks())
                  | {cands[a] | cands[b] for a, b in pairs})
    row_of = {mk: i for i, mk in enumerate(rows)}
    src = np.array([a for a, _ in pairs])
    col = np.array([b for _, b in pairs])
    row = np.array([row_of[cands[a] | cands[b]] for a, b in pairs])
    target = np.array([w.coeff(mask_to_indices(mk)) for mk in rows],
                      dtype=np.complex128)
    amp = np.sqrt(max(1.0, w.max_abs()) / 2.0)
    rng = np.random.default_rng(20240801)
    starts = [np.full(k, amp * (1 + 1j))]
    starts += [amp * (rng.normal(size=k) + 1j * rng.normal(size=k))
               for _ in range(3)]
    blades = [mask_to_indices(mk) for mk in cands]
    jac = np.zeros((len(rows), k), dtype=np.complex128)
    for x in starts:
        for _ in range(_NEWTON_STEPS):
            jac[row, col] = 2.0 * x[src]
            res = 0.5 * (jac @ x) - target
            if not np.all(np.isfinite(res)):
                break
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
            x = x + step
            if np.abs(step).max() <= 1e-15 * max(1.0, np.abs(x).max()):
                break
        if not np.all(np.isfinite(x)):
            continue
        v = Zeon(w.n, zip(blades, x))
        if _squares_to(v, w, tol):
            return v
    return None


def nilpotent_sqrt(w: Zeon, tol: Tolerance | None = None) -> Zeon:
    """Best-effort square root of a nilpotent element.

    A nonzero nilpotent square always has minimum grade at least 2
    (every blade of ``v*v`` is a disjoint union of two blades of ``v``),
    so an input with a grade-1 term fails immediately and that failure
    is certified.  Everything else runs a layered search for a root of
    minimum grade ``g = m // 2``, ``m = min_grade(w)``: a candidate
    bottom layer ``v_g``, then each higher layer from a linear
    minimum-norm system, since ``2 v_g x`` is linear in ``x``.  The
    bottom comes in closed form for odd ``m`` (a single null-square
    blade scaled from the upper grades, :func:`_odd_bottoms`) and for
    ``g = 1`` (:func:`_grade_one_bottoms`), and from the Gauss-Newton
    fit :func:`least_squares` for even ``m >= 4``.  When no completed
    layer stack verifies, the same fit over all layers at once is the
    last resort.

    Raises :class:`SqrtNotFound` when nothing verifies; ``certified`` is
    True only for the provable grade obstruction.
    """
    tol = _resolve(tol)
    if abs(w.scalar_part()) > tol.eq_eps:
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
    g = m // 2
    gen_bits = _support_generators(w)
    v = _layered_sqrt(w, m, gen_bits, tol)
    if v is None:
        # all layers at once, over the grades that can still reach a
        # product of grade <= n
        grade_hi = min(max(g, w.n - g), len(gen_bits))
        v = least_squares(w, [b for k in range(g, grade_hi + 1)
                              for b in _blades_of_grade(gen_bits, k)], tol)
    if v is None:
        raise SqrtNotFound(
            f"minimum grade {m}: no square root found by the layered or "
            "the all-layer search",
            certified=False,
        )
    return v


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
    linear minimum-norm solve against the residual at its grade.
    Earlier layers feed later residuals through the running root's
    square.
    """
    bottom = list(zip(v_g.support_masks(), [c for _, c in v_g.terms()]))
    v = v_g
    for grade in range(g + 1, min(w.n - g, len(gen_bits)) + 1):
        residual = (w.grade_part(g + grade)
                    - v.mul(v).grade_part(g + grade))
        if residual.is_zero():
            continue
        cands = _blades_of_grade(gen_bits, grade)
        rows = sorted(set(
            residual.support_masks()
            + [a | k for a, _ in bottom for k in cands if not a & k]
        ))
        A = np.zeros((len(rows), len(cands)), dtype=np.complex128)
        row_pos = {mk: i for i, mk in enumerate(rows)}
        for j, k in enumerate(cands):
            for a, c in bottom:
                if not a & k:
                    A[row_pos[a | k], j] += 2.0 * c
        b = np.asarray([residual.coeff(mask_to_indices(mk)) for mk in rows],
                       dtype=np.complex128)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        v = v.add(Zeon(w.n, zip(map(mask_to_indices, cands), x)))
    return v


def _layered_sqrt(w: Zeon, m: int, gen_bits: list[int],
                  tol: Tolerance) -> Zeon | None:
    """Grade-layered construction of v with v*v = w, min grade m // 2.

    The candidate bottom layers depend on the case (see
    :func:`nilpotent_sqrt`); each is completed upward, and the first
    whose exact product reproduces ``w`` is returned.
    """
    g = m // 2
    if m % 2:
        bottoms = _odd_bottoms(w, gen_bits, g)
    elif g == 1:
        bottoms = _grade_one_bottoms(w, gen_bits, tol)
    else:
        v_g = least_squares(w.grade_part(m), _blades_of_grade(gen_bits, g),
                            tol)
        bottoms = [] if v_g is None else [v_g]
    for v_g in bottoms:
        v = _complete_layers(w, v_g, g, gen_bits)
        if _squares_to(v, w, tol):
            return v
    return None


def _odd_bottoms(w: Zeon, gen_bits: list[int], g: int) -> Iterator[Zeon]:
    """Closed-form bottoms ``a z_B`` for odd minimum grade ``2g+1``.

    The bottom layer must square to zero (``w`` has nothing at grade
    2g), and every lowest-grade blade of ``w`` has to contain a bottom
    blade for the first linear layer to be solvable.  A single grade-g
    blade ``B`` inside the common intersection of those blades does
    both.  With ``v = a z_B + y + ...`` (``y`` of grade g+1), grade 2g+1
    gives ``a y[K] = w[B|K] / 2 =: x[K]``, and on a grade-(2g+2) blade
    ``K`` disjoint from ``B`` only ``y*y`` reaches ``w``, so
    ``a**2 = (x*x)[K] / w[K]``, read on the disjoint ``K`` with the
    largest ``|w[K]|``; ``a = 1`` when ``w`` has no such blade.  The
    caller completes and verifies.
    """
    c = dict(zip(w.support_masks(), [v for _, v in w.terms()]))
    lowest = [mk for mk in c if mk.bit_count() == 2 * g + 1]
    common = ~0
    for mk in lowest:
        common &= mk
    shared = [b for b in gen_bits if b & common]
    for blade in itertools.combinations(shared, g):
        B = sum(blade)
        upper = [mk for mk in c if mk.bit_count() == 2 * g + 2 and not mk & B]
        a = 1.0
        if upper:
            x = Zeon(w.n, [(mask_to_indices(mk ^ B), c[mk] / 2.0)
                           for mk in lowest])
            K = max(upper, key=lambda mk: abs(c[mk]))
            a = cmath.sqrt(x.mul(x).coeff(mask_to_indices(K)) / c[K])
        yield Zeon.blade(w.n, mask_to_indices(B), a)


def _grade_one_bottoms(w: Zeon, gen_bits: list[int],
                       tol: Tolerance) -> Iterator[Zeon]:
    """Closed-form candidates ``v = sum_p a_p z{p}`` with ``v*v = w_2``.

    ``v*v`` has coefficient ``t_pq = 2 a_p a_q`` at ``z{p,q}``.  Pivoting
    on the largest ``t_pq`` fixes ``a_p**2 = t_pq t_pr / (2 t_qr)``
    through a third index ``r`` linked to both, and every other
    coefficient follows as ``a_r = t_pr / (2 a_p)``.  Without a linked
    index, ``a_p`` and ``a_q`` only meet in their product, which the
    grade-2 part leaves free.  ``a_p = sqrt(t_pq / 2)`` is yielded first,
    then the splits read from the upper grades of ``w``: for a blade
    ``p|K`` of ``w`` with ``q`` not in ``K``, leading order gives
    ``w[p|K] ~ 2 a_p x_K`` and ``w[q|K] ~ 2 a_q x_K``, so
    ``a_p**2 = (t_pq / 2) w[p|K] / w[q|K]``.  Nothing is yielded when the
    first candidate misses the grade-2 part, since no split changes
    whether it matches there.  The caller verifies the completed root.
    """
    c = dict(zip(w.support_masks(), [v for _, v in w.terms()]))
    target = w.grade_part(2)
    pivot = max(target.support_masks(), key=lambda mk: abs(c[mk]))
    p, q = (b for b in gen_bits if b & pivot)
    t_pq = c[pivot]
    others = [b for b in gen_bits if not b & pivot]

    def bottom(a_p_sq: complex) -> Zeon:
        a_p = cmath.sqrt(a_p_sq)
        coeffs = {p: a_p, q: t_pq / (2.0 * a_p)}
        for r in others:
            coeffs[r] = c.get(p | r, 0j) / (2.0 * a_p)
        return Zeon(w.n, [(mask_to_indices(b), a)
                          for b, a in coeffs.items()])

    def linked(r: int) -> complex:
        return c.get(p | r, 0j) * c.get(q | r, 0j)

    link = max(others, key=lambda r: abs(linked(r)), default=None)
    if link is not None and linked(link) != 0:
        splits = [t_pq * c[p | link] / (2.0 * c[q | link])]
    else:
        splits = [t_pq / 2.0]
        for mk, w_pk in c.items():
            if mk.bit_count() < 3 or not mk & p or mk & q:
                continue
            w_qk = c.get((mk ^ p) | q, 0j)
            if w_qk != 0:
                split = t_pq / 2.0 * w_pk / w_qk
                if split not in splits:
                    splits.append(split)
    v = bottom(splits[0])
    if not _squares_to(v, target, tol):
        return
    yield v
    for split in splits[1:]:
        yield bottom(split)


# -- quadratics ---------------------------------------------------------------


class QuadraticKind(str, Enum):
    TWO_DISTINCT = "TwoDistinct"
    NULL_SQUARE_FAMILY = "NullSquareFamily"
    NILPOTENT_DISCRIMINANT_ROOTS = "NilpotentDiscriminantRoots"
    NO_ZEROS = "NoZeros"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class QuadraticOutcome:
    """Zero set of ``alpha u**2 + beta u + gamma`` as far as determined.

    ``zeros`` lists verified representative zeros.  For the family
    kinds, ``family_base`` is a base point: NullSquareFamily means
    ``base + eta`` is a zero exactly for null-square nilpotents ``eta``;
    NilpotentDiscriminantRoots means the listed zeros extend to the
    infinite families obtained by adding multiples of the top blade.
    """

    kind: QuadraticKind
    zeros: tuple[Zeon, ...]
    discriminant: Zeon
    family_base: Zeon | None = None
    note: str = ""


def quadratic_solve(alpha: Zeon, beta: Zeon, gamma: Zeon,
                    tol: Tolerance | None = None) -> QuadraticOutcome:
    """Solve the quadratic by completing the square.

    With ``alpha`` invertible, zeros are exactly
    ``(alpha^-1 / 2) (w - beta)`` for square roots ``w`` of the
    discriminant, which leaves three shapes: an invertible discriminant
    gives two distinct zeros, a zero discriminant gives the null-square
    family around the double point, and a nonzero nilpotent
    discriminant has zeros only if it admits a square root, in which
    case adding any multiple of the top blade to ``w`` gives another
    root and the zero set is infinite.
    """
    tol = _resolve(tol)
    if not (alpha.n == beta.n == gamma.n):
        raise DimensionMismatch("quadratic coefficients mix algebras")
    n = alpha.n
    if abs(alpha.scalar_part()) <= tol.eq_eps:
        raise LeadingCoefficientNotInvertible(
            "quadratic leading coefficient has zero scalar part"
        )
    delta = discriminant(alpha, beta, gamma)
    half_inv = alpha.inverse(tol).scale(0.5)
    if delta.is_zero():
        base = half_inv.mul(beta).scale(-1.0)
        return QuadraticOutcome(
            kind=QuadraticKind.NULL_SQUARE_FAMILY,
            zeros=(base,),
            discriminant=delta,
            family_base=base,
            note="zeros are base + eta for every eta with eta*eta = 0",
        )
    if abs(delta.scalar_part()) > tol.eq_eps:
        w = principal_kth_root(delta, 2, tol)
        z1 = half_inv.mul(w - beta)
        z2 = half_inv.mul(w.scale(-1.0) - beta)
        return QuadraticOutcome(
            kind=QuadraticKind.TWO_DISTINCT,
            zeros=(z1, z2),
            discriminant=delta,
        )
    try:
        w = nilpotent_sqrt(delta, tol)
    except SqrtNotFound as exc:
        if exc.certified:
            return QuadraticOutcome(
                kind=QuadraticKind.NO_ZEROS,
                zeros=(),
                discriminant=delta,
                note=str(exc),
            )
        return QuadraticOutcome(
            kind=QuadraticKind.UNDETERMINED,
            zeros=(),
            discriminant=delta,
            note=str(exc),
        )
    z1 = half_inv.mul(w - beta)
    z2 = half_inv.mul(w.scale(-1.0) - beta)
    zeros = (z1,) if z1.isclose(z2, tol) else (z1, z2)
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
