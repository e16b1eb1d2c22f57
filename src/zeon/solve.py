"""Zero finding for zeon polynomials.

The route to a zeon zero goes through the scalar projection: find the
complex roots of the scalar-part polynomial, then lift each simple root
by a short iteration that corrects one grade per step.  The iteration
divides the scalar polynomial once by ``(u - seed)`` and reuses that
quotient's value at the seed as a fixed Newton-like denominator, so
each pass strips the lowest surviving grade of the residual; it
terminates after at most ``n`` correction steps because grades only go
up.

Scalar roots come from a simultaneous Aberth iteration followed by
cluster merging, which is what recovers multiplicities from the cloud
of nearby approximations a multiple root produces in floating point.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra import Tolerance, Zeon, _resolve
from .errors import (
    DimensionMismatch,
    FamilyPreconditionError,
    NotSpectrallySimple,
    RootFindingFailed,
)
from .poly import ZeonPoly, divide

__all__ = [
    "ScalarRoot",
    "scalar_roots",
    "SpectralZero",
    "spectrally_simple_zero",
    "SolveReport",
    "split",
    "ZeroSetKind",
    "FamilySpec",
    "ZeroSetDescription",
    "classify_nilpotent_zeros",
    "is_extension_zero",
    "multiple_zero_family",
]


@dataclass(frozen=True)
class ScalarRoot:
    """A complex root of the scalar projection."""

    value: complex
    multiplicity: int
    simple: bool


def _poly_scale(c: np.ndarray) -> float:
    return float(max(1.0, np.abs(c).max()))


def _trim(c: np.ndarray, eps: float) -> np.ndarray:
    c = np.asarray(c, dtype=np.complex128)
    keep = len(c)
    scale = float(np.abs(c).max()) if c.size else 0.0
    while keep > 1 and abs(c[keep - 1]) <= eps * max(1.0, scale):
        keep -= 1
    return c[:keep]


def _newton_refine(c: np.ndarray, z: complex, iters: int = 60) -> complex:
    d = npoly.polyder(c)
    for _ in range(iters):
        dv = npoly.polyval(z, d)
        if dv == 0:
            break
        step = npoly.polyval(z, c) / dv
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def scalar_roots(coeffs: Sequence[complex] | np.ndarray,
                 cluster_eps: float = 1e-7,
                 tol: Tolerance | None = None,
                 max_iter: int = 500) -> list[ScalarRoot]:
    """All roots of a complex polynomial with multiplicities.

    Runs the Aberth simultaneous iteration, merges approximations that
    fall within ``cluster_eps`` (relative to the root magnitude scale)
    of each other, and polishes each cluster center on the derivative
    of order multiplicity - 1, where the root is simple again.  A
    multiple root surfaces as a cluster: its Aberth approximations
    cannot individually do better than a radius that grows with the
    multiplicity, but they surround the true root, and the polish step
    then restores full accuracy.

    Results are sorted by (real, imaginary) part.  Raises
    :class:`RootFindingFailed` with partial results when the iteration
    has clearly not settled after ``max_iter`` rounds.
    """
    tol = _resolve(tol)
    c = _trim(np.asarray(coeffs, dtype=np.complex128), tol.prune_eps)
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("need a polynomial of degree >= 1")
    monic = c / c[-1]
    if deg == 1:
        root = complex(-monic[0])
        return [ScalarRoot(root, 1, True)]

    radius = 1.0 + float(np.abs(monic[:-1]).max())
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = radius * np.exp(1j * angles) * (0.3 + 0.7 * np.linspace(0.5, 1.0, deg))
    d = npoly.polyder(monic)
    span = 1.0
    recent: deque[np.ndarray] = deque(maxlen=8)
    for it in range(max_iter):
        pv = npoly.polyval(z, monic)
        dv = npoly.polyval(z, d)
        # keep the Newton correction finite at critical points
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulse
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        z = z - step
        recent.append(np.abs(step))
        span = 1.0 + float(np.abs(z).max())
        if float(np.abs(step).max()) <= 1e-14 * span:
            break

    scale = 1.0 + float(np.abs(z).max())
    # approximations of an m-fold root stall on a circle of radius about
    # eps**(1/m) around it, far beyond cluster_eps; each point's recent
    # step size tracks that stall radius, so it widens the merge test
    # exactly where the stall happens while simple roots (steps near
    # machine epsilon) keep the tight radius.  The window minimum, not
    # maximum: on early convergence the window still holds large
    # approach steps, and only the settled size matters.
    err = np.minimum.reduce(list(recent))
    merged = _cluster_and_polish(monic, z, cluster_eps * scale, err)
    # polished centers of one multiple root can start as separate
    # clusters; polishing pulls them together, so merge until stable
    for _ in range(deg):
        remerged = _cluster_and_polish(
            monic,
            np.asarray([v for v, ell in merged for _ in range(ell)]),
            cluster_eps * scale,
        )
        if len(remerged) == len(merged):
            merged = remerged
            break
        merged = remerged
    out = [
        ScalarRoot(complex(v), ell, ell == 1)
        for v, ell in sorted(merged, key=lambda p: (p[0].real, p[0].imag))
    ]
    # step sizes are a poor health signal (an m-fold stall radius grows
    # with m), so settledness is judged where it matters: every polished
    # center must actually annihilate the polynomial
    bound = tol.root_eps * _poly_scale(monic)
    for r in out:
        if abs(npoly.polyval(r.value, monic)) > bound * max(
                1.0, abs(r.value)) ** deg:
            raise RootFindingFailed(
                f"no settled root near {r.value} after {max_iter} rounds",
                partial=out,
            )
    return out


def _cluster_and_polish(monic: np.ndarray, pts: np.ndarray, radius: float,
                        err: np.ndarray | None = None,
                        ) -> list[tuple[complex, int]]:
    m = len(pts)
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            limit = radius
            if err is not None:
                limit = max(limit, 8.0 * (err[i] + err[j]))
            if abs(pts[i] - pts[j]) <= limit:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(complex(pts[i]))
    out = []
    for members in groups.values():
        ell = len(members)
        center = sum(members) / ell
        target = monic
        for _ in range(ell - 1):
            target = npoly.polyder(target)
        center = _newton_refine(target, center)
        out.append((center, ell))
    return out


@dataclass(frozen=True)
class SpectralZero:
    """A zeon zero lifted from a simple scalar root.

    ``grade_trace`` records the minimum grade of the residual before
    each correction step; it is strictly increasing on a healthy run.
    """

    zero: Zeon
    seed: ScalarRoot
    iterations: int
    residual: float
    grade_trace: tuple[int, ...] = ()


def _deflate(monic: np.ndarray, lam0: complex, method: str) -> np.ndarray:
    """Quotient of the scalar polynomial by (u - lam0)."""
    if method == "synthetic":
        deg = len(monic) - 1
        q = np.zeros(deg, dtype=np.complex128)
        acc = monic[deg]
        for k in range(deg - 1, -1, -1):
            q[k] = acc
            acc = monic[k] + acc * lam0
        return q
    if method == "polydiv":
        q, _ = npoly.polydiv(monic, np.asarray([-lam0, 1.0 + 0j]))
        return np.asarray(q, dtype=np.complex128)
    raise ValueError(f"unknown deflation method {method!r}")


def spectrally_simple_zero(phi: ZeonPoly, lam0: complex,
                           tol: Tolerance | None = None,
                           _deflate_method: str = "synthetic") -> SpectralZero:
    """Lift a simple scalar root to the unique zeon zero above it.

    ``lam0`` must be a simple root of the scalar projection of ``phi``
    (it is polished by a few Newton steps first, so a seed accurate to a
    few digits suffices).  Each pass evaluates the polynomial at the
    current point, takes the lowest-grade part of the residual, and
    divides by the deflated scalar polynomial's value at the seed; that
    correction cancels the lowest grade without disturbing lower ones,
    so at most ``n`` passes are needed.
    """
    tol = _resolve(tol)
    monic_poly = phi.monic(tol)
    f = monic_poly.scalar_projection()
    scale = _poly_scale(f)
    lam0 = complex(_newton_refine(f, complex(lam0)))
    if abs(npoly.polyval(lam0, f)) > tol.root_eps * scale:
        raise NotSpectrallySimple(
            f"seed {lam0} is not a root of the scalar projection"
        )
    fp = npoly.polyder(f)
    if abs(npoly.polyval(lam0, fp)) <= tol.root_eps * _poly_scale(fp):
        raise NotSpectrallySimple(
            f"seed {lam0} is a multiple root of the scalar projection"
        )
    g = _deflate(f, lam0, _deflate_method)
    g0 = complex(npoly.polyval(lam0, g))
    n = phi.n
    lam = Zeon.scalar(n, lam0)
    trace: list[int] = []
    iterations = 0
    prev_grade = 0
    for _ in range(n + 1):
        rho = monic_poly.eval(lam)
        if abs(rho.scalar_part()) > tol.eq_eps * scale:
            raise NotSpectrallySimple(
                "scalar residual did not vanish at the polished seed"
            )
        rho = rho.dual_part()
        # grades at or below the last corrected one vanish exactly in
        # exact arithmetic, so anything surviving there is evaluation
        # dust; the absolute floor keeps higher-grade dust out too
        rho = Zeon(rho.n, [(ix, c) for ix, c in rho.terms()
                           if len(ix) > prev_grade
                           and abs(c) > tol.prune_eps * scale])
        if rho.is_zero():
            break
        m = rho.min_grade()
        trace.append(m)
        xi = rho.grade_part(m).scale(1.0 / g0)
        lam = lam - xi
        prev_grade = m
        iterations += 1
    residual = monic_poly.eval(lam).max_abs()
    if residual > tol.eq_eps * scale:
        raise RootFindingFailed(
            "grade-by-grade correction stalled above eq_eps",
            partial=lam,
        )
    return SpectralZero(
        zero=lam,
        seed=ScalarRoot(lam0, 1, True),
        iterations=iterations,
        residual=float(residual),
        grade_trace=tuple(trace),
    )


class ZeroSetKind(str, Enum):
    EMPTY = "Empty"
    FINITE_LIST = "FiniteList"
    MULTIPLICITY_FAMILY = "MultiplicityFamily"
    NILPOTENT_FAMILY = "NilpotentFamily"


@dataclass(frozen=True)
class FamilySpec:
    """Machine-readable description of an infinite zero family."""

    text: str
    scalar: complex
    nilpotency_bound: int | None = None
    base: Zeon | None = None
    direction: Zeon | None = None


@dataclass(frozen=True)
class ZeroSetDescription:
    kind: ZeroSetKind
    zeros: tuple[Zeon, ...] = ()
    family_spec: FamilySpec | None = None


@dataclass(frozen=True)
class SolveReport:
    """Everything ``split`` learned about a polynomial's zero set."""

    poly: ZeonPoly
    scalar_spectrum: tuple[ScalarRoot, ...]
    spectral_zeros: tuple[SpectralZero, ...]
    families: tuple[ZeroSetDescription, ...]
    warnings: tuple[str, ...]

    @cached_property
    def input_digest(self) -> str:
        """First 16 hex digits of the SHA-256 of the input's canonical text.

        Computed on first read, so ``split`` does not format its input.
        """
        from .textio import format_poly
        return hashlib.sha256(format_poly(self.poly).encode()).hexdigest()[:16]


def split(phi: ZeonPoly, tol: Tolerance | None = None,
          cluster_eps: float = 1e-7) -> SolveReport:
    """Factor the zero hunt through the scalar spectrum.

    Every simple scalar root is lifted to its spectral zero.  A multiple
    scalar root of an all-scalar polynomial contributes the full
    multiplicity family (scalar root plus any nilpotent of that
    nilpotency bound); with genuinely zeon coefficients no lift is
    attempted there and a warning is recorded instead.  A reported
    simple root whose lift fails its simplicity margin (possible when
    rounding splits an ill-conditioned multiple root) also degrades to
    a warning, so the report is always produced.
    """
    tol = _resolve(tol)
    if phi.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    monic_poly = phi.monic(tol)
    f = monic_poly.scalar_projection()
    spectrum = scalar_roots(f, cluster_eps=cluster_eps, tol=tol)
    scalar_only = phi.is_scalar(tol)
    zeros: list[SpectralZero] = []
    families: list[ZeroSetDescription] = []
    warnings: list[str] = []
    for root in spectrum:
        if root.multiplicity == 1:
            try:
                zeros.append(spectrally_simple_zero(phi, root.value, tol))
            except NotSpectrallySimple as exc:
                # rounding can split an ill-conditioned multiple root
                # into genuine simple roots whose derivative margin is
                # too thin to lift; report it instead of dying mid-split
                warnings.append(
                    f"scalar root {root.value} resisted lifting: {exc}"
                )
        elif scalar_only:
            base = Zeon.scalar(phi.n, root.value)
            families.append(ZeroSetDescription(
                kind=ZeroSetKind.MULTIPLICITY_FAMILY,
                zeros=(base,),
                family_spec=FamilySpec(
                    text=(
                        f"{root.value} + d for every nilpotent d with "
                        f"d**{root.multiplicity} = 0"
                    ),
                    scalar=root.value,
                    nilpotency_bound=root.multiplicity,
                    base=base,
                ),
            ))
        else:
            warnings.append(
                f"scalar root {root.value} has multiplicity "
                f"{root.multiplicity}; no spectrally simple zero exists "
                "above it and the zero set there was not determined"
            )
    return SolveReport(
        poly=phi,
        scalar_spectrum=tuple(spectrum),
        spectral_zeros=tuple(zeros),
        families=tuple(families),
        warnings=tuple(warnings),
    )


def classify_nilpotent_zeros(coeffs: Sequence[complex] | np.ndarray, n: int,
                             tol: Tolerance | None = None) -> ZeroSetDescription:
    """Nilpotent zeros of a complex polynomial, read off its valuation.

    Let ``d`` be the least index with a nonzero coefficient.  Writing
    ``f(u) = u**d (a_d + higher)`` with ``a_d`` invertible shows the
    nilpotent zeros are exactly the nilpotents with ``u**d = 0``, so
    ``d <= 1`` leaves none and ``d >= 2`` gives the infinite family of
    all nilpotents with nilpotency index at most ``d`` (every single
    blade qualifies).
    """
    tol = _resolve(tol)
    if n < 1:
        raise ValueError("need at least one generator")
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.size == 0 or not np.any(np.abs(c) > 0):
        raise ValueError("the zero polynomial is not classifiable")
    scale = float(np.abs(c).max())
    d = int(np.flatnonzero(np.abs(c) > tol.prune_eps * scale)[0])
    if d <= 1:
        return ZeroSetDescription(kind=ZeroSetKind.EMPTY)
    witness = Zeon.blade(n, (1,))
    return ZeroSetDescription(
        kind=ZeroSetKind.NILPOTENT_FAMILY,
        zeros=(witness,),
        family_spec=FamilySpec(
            text=(
                "a*z{I} for every nonzero complex a and nonempty index "
                f"set I; more generally every nilpotent u with u**{d} = 0"
            ),
            scalar=0j,
            nilpotency_bound=d,
            base=Zeon.zero(n),
        ),
    )


def _scalar_multiplicity(coeffs: np.ndarray, z: complex, tol: Tolerance) -> int:
    """Order of ``z`` as a root of the complex polynomial (0 if not one)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    deg = len(c) - 1
    for j in range(deg + 1):
        if abs(npoly.polyval(z, c)) > tol.root_eps * _poly_scale(c):
            return j
        c = npoly.polyder(c)
    return deg + 1


def is_extension_zero(coeffs: Sequence[complex] | np.ndarray, w: Zeon,
                      tol: Tolerance | None = None) -> bool:
    """Membership test for the zeon zero set of a complex polynomial.

    ``w`` is a zero of the coefficient-wise extension exactly when its
    scalar part is a root of the polynomial and the nilpotency index of
    its dual part stays within that root's multiplicity.
    """
    tol = _resolve(tol)
    c = np.asarray(coeffs, dtype=np.complex128)
    if len(c) < 1:
        raise ValueError("empty coefficient list")
    mu = _scalar_multiplicity(c, w.scalar_part(), tol)
    if mu == 0:
        return False
    kappa = w.dual_part().nilpotency_index()
    return kappa is not None and kappa <= mu


def multiple_zero_family(phi: ZeonPoly, w1: Zeon, w2: Zeon,
                         tol: Tolerance | None = None) -> ZeroSetDescription:
    """Infinite zero family from a spectrally non-simple situation.

    Accepts either two distinct zeros sharing a scalar part, or the same
    zero passed twice provided it divides the polynomial at least twice.
    Either way, adding any complex multiple of the full-index blade to a
    base zero gives another zero; the constructed family is verified on
    sample members before being returned.
    """
    tol = _resolve(tol)
    if phi.n != w1.n or phi.n != w2.n:
        raise DimensionMismatch("polynomial and zeros mix algebras")
    n = phi.n
    scale = max(1.0, max(c.max_abs() for c in phi.coeffs)) if phi.coeffs else 1.0
    for w in (w1, w2):
        if phi.eval(w).max_abs() > tol.eq_eps * scale:
            raise FamilyPreconditionError(
                "a claimed zero does not evaluate to zero"
            )
    if abs(w1.scalar_part() - w2.scalar_part()) > tol.eq_eps:
        raise FamilyPreconditionError(
            "the two zeros must share their scalar part"
        )
    if w1.isclose(w2, tol):
        linear = ZeonPoly([w1.scale(-1.0), Zeon.one(n)], n=n)
        once = divide(phi, linear, tol)
        if once.remainder.coeffs and once.remainder.coeff(0).max_abs() > tol.eq_eps * scale:
            raise FamilyPreconditionError("w does not divide the polynomial")
        twice = divide(once.quotient, linear, tol)
        if twice.remainder.coeffs and twice.remainder.coeff(0).max_abs() > tol.eq_eps * scale:
            raise FamilyPreconditionError(
                "equal zeros need multiplicity at least 2"
            )
    direction = Zeon.blade(n, tuple(range(1, n + 1)))
    for a in (1.0, -2.0, 0.5 + 1.0j):
        sample = w1 + direction.scale(a)
        if phi.eval(sample).max_abs() > tol.eq_eps * scale * 16.0:
            raise FamilyPreconditionError(
                "family verification failed on a sample member"
            )
    zeros = (w1,) if w1.isclose(w2, tol) else (w1, w2)
    return ZeroSetDescription(
        kind=ZeroSetKind.MULTIPLICITY_FAMILY,
        zeros=zeros,
        family_spec=FamilySpec(
            text="base + a * top blade for every complex a",
            scalar=w1.scalar_part(),
            base=w1,
            direction=direction,
        ),
    )
