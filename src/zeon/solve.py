"""Zero finding for zeon polynomials.

The route to a zeon zero goes through the scalar projection: find the
complex roots of the scalar-part polynomial, then lift each simple root
by a short iteration that corrects one grade per step.  The iteration
works on the polynomial as given and divides each residual by one
scalar, the derivative of the scalar projection at the seed, so each
pass strips the lowest surviving grade of the residual; it terminates
after at most ``n`` correction steps because grades only go up.

Scalar roots come from a simultaneous Aberth iteration followed by
cluster merging, which is what recovers multiplicities from the cloud
of nearby approximations a multiple root produces in floating point.
The scalar polynomials are lists of Python complexes, ascending, worked
by three helpers (Horner value, derivative, Taylor shift): at degree
``n`` of a few a numpy call costs more than the arithmetic, so this
module does not import numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from enum import Enum
from functools import partial

from .algebra import Tolerance, Zeon, _raw, default_tolerance
from .errors import (
    DimensionMismatch,
    FamilyPreconditionError,
    NotSpectrallySimple,
    RootFindingFailed,
)
from .poly import ZeonPoly

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


class ScalarRoot(namedtuple("ScalarRoot", "value multiplicity simple")):
    """A complex root of the scalar projection: its ``value``, its
    ``multiplicity`` and whether it is ``simple``."""

    __slots__ = ()


# machine epsilon: a Horner value at z is off by at most about
# deg * _EPS * sum_k |a_k| |z|**k
_EPS = 2.0 ** -52
_SQRT_EPS = 2.0 ** -26
# Aberth rounds between two checks of the steps against the noise radius
_STALL_ROUNDS = 32
# Aberth rounds after which an unsettled iteration is given up
_MAX_ROUNDS = 500


def _horner(c: list[complex], z: complex) -> complex:
    """Value at ``z`` of the polynomial with ascending coefficients ``c``."""
    acc = c[-1]
    for k in range(len(c) - 2, -1, -1):
        acc = c[k] + acc * z
    return acc


def _der(c: list[complex]) -> list[complex]:
    """Coefficients of the derivative; a constant's is ``[0j]``."""
    return [k * c[k] for k in range(1, len(c))] or [0j]


def _shift(c: list[complex], z: complex) -> list[complex]:
    """Coefficients of ``p(u + z)``: the Taylor coefficients
    ``p^(k)(z) / k!`` of the polynomial with ascending coefficients ``c``.

    Pass ``k`` runs Horner at ``z`` on the top ``len(c) - k``
    coefficients in place, the synthetic division of the previous
    quotient by ``u - z``.  Real ``c`` and ``z`` give real floats.
    """
    b = list(c)
    for k in range(len(b) - 1):
        for j in range(len(b) - 2, k - 1, -1):
            b[j] += z * b[j + 1]
    return b


def _ldexp(z: complex, e: int) -> complex:
    """``z * 2**e``, exact unless it leaves the float range."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _newton(f: Callable[[complex], complex],
            fp: Callable[[complex], complex], z: complex) -> complex:
    """Newton's iteration on the scalar function ``f`` with slope ``fp``.

    Each round evaluates ``f`` before ``fp``, so a residual that raises
    off its domain does so before the slope is asked for there.  Stops
    at a zero slope, at a step of at most ``1e-16 * (1 + |z|)`` or after
    80 rounds.  Once a step has fallen below ``sqrt(eps) * (1 + |z|)``,
    one that fails to shrink is rounding noise (Horner on large expanded
    coefficients makes such noise): it is not taken, and the loop stops.
    The caller judges the point returned.
    """
    last = math.inf
    for _ in range(80):
        value = f(z)
        slope = fp(z)
        if slope == 0:
            break
        step = value / slope
        size = abs(step)
        if size >= last:
            break
        z = z - step
        if size <= 1e-16 * (1.0 + abs(z)):
            break
        if size <= _SQRT_EPS * (1.0 + abs(z)):
            last = size
    return z


def scalar_roots(coeffs: Sequence[complex]) -> list[ScalarRoot]:
    """All roots of a complex polynomial with multiplicities.

    ``coeffs`` is ascending (any sequence of finite numbers, numpy
    arrays included); only exactly zero top coefficients lower the
    degree.  Runs the Aberth simultaneous iteration, merges, in one
    pass, approximations that fall within the tolerance's
    ``cluster_eps`` (relative to the root magnitude scale) of each
    other, and polishes each cluster center on the derivative of order
    multiplicity - 1, where the root is simple again.  A multiple root
    surfaces as a cluster: its Aberth approximations cannot
    individually do better than a radius that grows with the
    multiplicity, but they surround the true root, and the polish step
    then restores full accuracy.  A real polynomial's real roots come
    back real: a center within rounding noise of the real axis is
    polished in real arithmetic, from its real part.  Its other roots
    come back as exact conjugate pairs, each the mean of two polished
    centers.

    Results are sorted by (real, imaginary) part.  Raises
    :class:`RootFindingFailed` with partial results when the iteration
    has clearly not settled after ``_MAX_ROUNDS`` rounds.
    """
    tol = default_tolerance()
    c = [complex(a) for a in coeffs]
    if not all(map(cmath.isfinite, c)):
        raise ValueError("coefficients must be finite")
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if deg == 1:
        return [ScalarRoot(-c[0] / c[1], 1, True)]
    # work in v = u / 2**e, 2**e the power of two nearest the bound
    # max_k |a_k / a_n|**(1/(deg-k)) on the root moduli: the substitution
    # is exact, and the roots in v have moduli near 1 at any input scale
    top = math.log2(abs(c[-1]))
    e = round(max(((math.log2(abs(a)) - top) / (deg - k)
                   for k, a in enumerate(c[:-1]) if a), default=0.0))
    monic = [_ldexp(a, e * (k - deg)) / c[-1] for k, a in enumerate(c)]

    radius = 1.0 + max(map(abs, monic[:-1]))
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / deg + 0.4))
         * (0.3 + 0.7 * (0.5 + 0.5 * k / (deg - 1))) for k in range(deg)]
    d = _der(monic)
    for rounds in range(1, _MAX_ROUNDS + 1):
        # one Jacobi sweep: every correction reads the previous round
        steps = []
        for zi in z:
            dv = _horner(d, zi)
            # keep the Newton correction finite at critical points
            if abs(dv) < 1e-300:
                dv = 1e-300
            newton = _horner(monic, zi) / dv
            # the point itself, or one that landed on it, adds nothing
            repulse = sum(1.0 / (zi - zj) for zj in z if zj != zi)
            denom = 1.0 - newton * repulse
            if abs(denom) < 1e-300:
                denom = 1e-300
            steps.append(newton / denom)
        z = [zi - step for zi, step in zip(z, steps)]
        if max(map(abs, steps)) <= 1e-14 * (1.0 + max(map(abs, z))):
            break
        # on the stall circle of a multiple root (below) the steps stay
        # near the noise radius and the test above never fires; once it
        # has not for a while, stop when every step is inside that radius
        if rounds % _STALL_ROUNDS == 0 and all(
                abs(step) <= _noise_radius(monic, zi)
                for zi, step in zip(z, steps)):
            break

    scale = 1.0 + max(map(abs, z))
    # approximations of an m-fold root stall on a circle of radius about
    # eps**(1/m) around it, far beyond cluster_eps, where p is rounding
    # noise; each point's noise radius widens the merge test exactly
    # there, while at a simple root it stays near machine epsilon
    err = [_noise_radius(monic, zi) for zi in z]
    merged = _cluster_and_polish(monic, z, tol.cluster_eps * scale, err,
                                 not any(a.imag for a in c))
    merged.sort(key=lambda p: (p[0].real, p[0].imag))
    out = [ScalarRoot(_ldexp(v, e), ell, ell == 1) for v, ell in merged]
    # step sizes are a poor health signal (an m-fold stall radius grows
    # with m), so settledness is judged where it matters: every polished
    # center must be finite and actually annihilate the polynomial
    bound = tol.root_eps * max(map(abs, monic))
    for (v, _), r in zip(merged, out):
        if not (cmath.isfinite(v) and abs(_horner(monic, v))
                <= bound * max(1.0, abs(v)) ** deg):
            raise RootFindingFailed(
                f"no settled root near {r.value} after {_MAX_ROUNDS} rounds",
                partial=out,
            )
    return out


def _noise_radius(monic: list[complex], z: complex) -> float:
    """Radius of the disc about ``z`` on which ``p`` is rounding noise.

    With ``b_k`` the Taylor coefficients of ``p`` at ``z`` (``_shift``)
    and ``noise`` the rounding bound of evaluating ``p`` there, it is
    the least ``(noise / |b_k|)**(1/k)``: about eps**(1/m) on the stall circle
    of an m-fold root, and ``noise / |p'(z)|`` at a simple one.  The
    steps the iteration took are no such measure: on the stall circle
    ``p(z)`` often rounds to exactly 0, and the step with it.
    """
    noise = (len(monic) - 1) * _EPS * _horner([abs(a) for a in monic],
                                              abs(z))
    radius = math.inf
    for k, b in enumerate(map(abs, _shift(monic, z))):
        if k and b:
            radius = min(radius, (noise / b) ** (1.0 / k))
    return radius


def _cluster_and_polish(monic: list[complex], pts: list[complex],
                        radius: float, err: list[float], real: bool,
                        ) -> list[tuple[complex, int]]:
    # each point joins, and merges, every group holding a point within
    # the merge distance; groups by least index, indices ascending
    groups: list[list[int]] = []
    for i, p in enumerate(pts):
        near = [g for g in groups if any(abs(p - pts[j]) <= max(
            radius, 8.0 * (err[i] + err[j])) for j in g)]
        groups = sorted([g for g in groups if g not in near]
                        + [sorted(sum(near, [i]))])
    out = []
    for members in groups:
        ell = len(members)
        center = sum(pts[j] for j in members) / ell
        target = monic
        for _ in range(ell - 1):
            target = _der(target)
        # a real polynomial's root whose imaginary part is rounding
        # noise, judged at the unpolished center, is polished as real
        if real and abs(center.imag) <= 8.0 * _noise_radius(monic, center):
            target, center = [a.real for a in target], center.real
        center = _newton(partial(_horner, target),
                         partial(_horner, _der(target)), center)
        out.append((center, ell))
    # pair each upper root with its nearest lower mate of equal multiplicity
    lower = [j for j, (v, _) in enumerate(out) if real and v.imag < 0]
    for i, (v, ell) in enumerate(out):
        mates = [j for j in lower if v.imag > 0 and out[j][1] == ell]
        if mates:
            j = min(mates, key=lambda j: abs(out[j][0] - v.conjugate()))
            lower.remove(j)
            mean = 0.5 * (v + out[j][0].conjugate())
            out[i], out[j] = (mean, ell), (mean.conjugate(), ell)
    return out


class SpectralZero(namedtuple(
        "SpectralZero", "zero seed iterations residual grade_trace",
        defaults=((),))):
    """A zeon zero lifted from a simple scalar root.

    ``seed`` is that :class:`ScalarRoot`, ``iterations`` the correction
    steps taken and ``residual`` the largest coefficient magnitude of
    the value at ``zero``.  ``grade_trace`` records the minimum grade of
    the residual before each correction step; it is strictly increasing
    on a healthy run.
    """

    __slots__ = ()


def spectrally_simple_zero(phi: ZeonPoly, lam0: complex) -> SpectralZero:
    """Lift a simple scalar root to the unique zeon zero above it.

    ``phi`` needs an invertible lead, and ``lam0`` must be a simple
    root of its scalar projection ``f`` (it is polished by a few Newton
    steps first, so a seed accurate to a few digits suffices).  The lift
    (``_lift``) then starts at the polished scalar and divides by
    ``f'(lam0)``.  Thresholds scale with ``max |f_k|``.
    """
    tol = default_tolerance()
    phi._invertible_lead()
    f = phi.scalar_projection()
    scale = max(map(abs, f))
    fp = _der(f)
    lam0 = _newton(partial(_horner, f), partial(_horner, fp), complex(lam0))
    if abs(_horner(f, lam0)) > min(tol.root_eps, tol.eq_eps) * scale:
        raise NotSpectrallySimple(
            f"seed {lam0} is not a root of the scalar projection"
        )
    g0 = _horner(fp, lam0)
    if abs(g0) <= tol.root_eps * max(abs(f[-1]), max(map(abs, fp))):
        raise NotSpectrallySimple(
            f"seed {lam0} is a multiple root of the scalar projection"
        )
    zero, trace, residual = _lift(phi, Zeon.scalar(phi.n, lam0), g0, scale)
    return SpectralZero(zero, ScalarRoot(lam0, 1, True), len(trace),
                        residual, trace)


def _lift(phi: ZeonPoly, lam: Zeon, g0: complex,
          scale: float) -> tuple[Zeon, tuple[int, ...], float]:
    """Correct ``lam`` grade by grade to a zero of ``phi``; return it,
    the grade trace and the residual (at most ``eq_eps * scale``, else
    :class:`RootFindingFailed`).

    ``C(lam)`` must be a simple root of the scalar projection, of slope
    ``g0``; the dual part is a guess.  Each pass divides the residual's
    lowest grade by ``g0``, which cancels it and leaves lower grades be,
    so an exact zero takes no pass and any seed at most ``n``.
    """
    tol = default_tolerance()
    trace: list[int] = []
    while True:
        value = phi.eval(lam)
        # grades at or below the last corrected one (the scalar part
        # included) vanish exactly in exact arithmetic, so anything
        # surviving there is evaluation dust; the absolute floor keeps
        # higher-grade dust out too.  Grades rise strictly and stop at
        # n, so the loop ends after at most n corrections.
        done = trace[-1] if trace else 0
        live = [(m.bit_count(), m, c) for m, c in zip(*value._tuples())
                if m.bit_count() > done and abs(c) > tol.prune_eps * scale]
        if not live:
            break
        g = min(live)[0]
        trace.append(g)
        masks, coefs = zip(*[(m, c) for k, m, c in live if k == g])
        lam = lam.add(_raw(phi.n, masks, coefs).scale(-1.0 / g0))
    residual = value.max_abs()
    if residual > tol.eq_eps * scale:
        raise RootFindingFailed(
            "grade-by-grade correction stalled above eq_eps",
            partial=lam,
        )
    return lam, tuple(trace), float(residual)


class ZeroSetKind(str, Enum):
    EMPTY = "Empty"
    FINITE_LIST = "FiniteList"
    MULTIPLICITY_FAMILY = "MultiplicityFamily"
    NILPOTENT_FAMILY = "NilpotentFamily"


class FamilySpec(namedtuple(
        "FamilySpec", "text scalar nilpotency_bound base direction",
        defaults=(None, None, None))):
    """Machine-readable description of an infinite zero family: its
    ``text`` and ``scalar`` part, with the ``nilpotency_bound``, ``base``
    and ``direction`` where the family has them (else None)."""

    __slots__ = ()


class ZeroSetDescription(namedtuple(
        "ZeroSetDescription", "kind zeros family_spec", defaults=((), None))):
    """A :class:`ZeroSetKind` with its listed ``zeros`` and, for a
    family, its :class:`FamilySpec` (else None)."""

    __slots__ = ()


class SolveReport(namedtuple(
        "SolveReport",
        "poly scalar_spectrum spectral_zeros families warnings")):
    """Everything ``split`` learned about a polynomial's zero set: the
    input ``poly`` and tuples of its scalar roots, spectral zeros, zero
    set descriptions and warnings."""

    __slots__ = ()

    @property
    def input_digest(self) -> str:
        """First 16 hex digits of the SHA-256 of the input's canonical text.

        Computed on each read, so ``split`` does not format its input
        and only ``solve`` imports ``hashlib``.
        """
        import hashlib

        from .textio import format_poly
        return hashlib.sha256(format_poly(self.poly).encode()).hexdigest()[:16]


def split(phi: ZeonPoly) -> SolveReport:
    """Factor the zero hunt through the scalar spectrum.

    The leading coefficient must be invertible.  The spectrum is
    :func:`scalar_roots` of the scalar projection, so the tolerance's ``cluster_eps`` decides which roots are multiple.
    Every simple scalar root is lifted to its spectral zero.  A multiple
    scalar root of an all-scalar polynomial contributes the full
    multiplicity family (scalar root plus any nilpotent of that
    nilpotency bound); with genuinely zeon coefficients no lift is
    attempted there and a warning is recorded instead.  A reported
    simple root whose lift fails its simplicity margin or stalls above
    ``eq_eps`` (possible when rounding splits an ill-conditioned
    multiple root) also degrades to a warning, so once the spectrum is
    found the report is always produced.
    """
    if phi.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    phi._invertible_lead()
    spectrum = scalar_roots(phi.scalar_projection())
    scalar_only = phi.is_scalar()
    zeros: list[SpectralZero] = []
    families: list[ZeroSetDescription] = []
    warnings: list[str] = []
    for root in spectrum:
        if root.multiplicity == 1:
            try:
                zeros.append(spectrally_simple_zero(phi, root.value))
            except (NotSpectrallySimple, RootFindingFailed) as exc:
                # rounding can split an ill-conditioned multiple root
                # into genuine simple roots whose derivative margin is
                # too thin to lift, or whose lift stalls; report it
                # instead of dying mid-split
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


def classify_nilpotent_zeros(coeffs: Sequence[complex],
                             n: int) -> ZeroSetDescription:
    """Nilpotent zeros of a complex polynomial, read off its valuation.

    Let ``d`` be the least index with a nonzero coefficient.  Writing
    ``f(u) = u**d (a_d + higher)`` with ``a_d`` invertible shows the
    nilpotent zeros are exactly the nilpotents with ``u**d = 0``, so
    ``d <= 1`` leaves none and ``d >= 2`` gives the infinite family of
    all nilpotents with nilpotency index at most ``d`` (every single
    blade qualifies).  ``d`` is the multiplicity of 0 as a root, the one
    :func:`is_extension_zero` reads, so the two agree.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    c = [complex(a) for a in coeffs]
    if not any(c):
        raise ValueError("the zero polynomial is not classifiable")
    d = _scalar_multiplicity(c, 0j, default_tolerance())
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


def _scalar_multiplicity(c: list[complex], z: complex, tol: Tolerance) -> int:
    """Order of ``z`` as a root of the complex polynomial (0 if not one).

    Each Taylor coefficient at ``z`` is judged against the same one of
    the absolute values at ``|z|``, so the test scales with the
    coefficients and with ``|z|``.
    """
    b = _shift(c, z)
    bound = _shift([abs(a) for a in c], abs(z))
    return next((j for j in range(len(c))
                 if abs(b[j]) > tol.root_eps * bound[j]), len(c))


def is_extension_zero(coeffs: Sequence[complex], w: Zeon) -> bool:
    """Membership test for the zeon zero set of a complex polynomial.

    ``w`` is a zero of the coefficient-wise extension exactly when its
    scalar part is a root of the polynomial and the nilpotency index of
    its dual part stays within that root's multiplicity.
    """
    c = [complex(a) for a in coeffs]
    if len(c) < 1:
        raise ValueError("empty coefficient list")
    if not any(c):  # the zero polynomial vanishes everywhere
        return True
    mu = _scalar_multiplicity(c, w.scalar_part(), default_tolerance())
    if mu == 0:
        return False
    kappa = w.dual_part().nilpotency_index()
    return kappa is not None and kappa <= mu


def multiple_zero_family(phi: ZeonPoly, w1: Zeon,
                         w2: Zeon) -> ZeroSetDescription:
    """Infinite zero family from a spectrally non-simple situation.

    Accepts either two distinct zeros sharing a scalar part, or the same
    zero passed twice provided it divides the polynomial at least twice.
    Either way, adding any complex multiple of the full-index blade to a
    base zero gives another zero; the constructed family is verified on
    sample members before being returned.
    """
    eps = default_tolerance().eq_eps
    if phi.n != w1.n or phi.n != w2.n:
        raise DimensionMismatch("polynomial and zeros mix algebras")
    n = phi.n
    scale = max(1.0, max(c.max_abs() for c in phi.coeffs)) if phi.coeffs else 1.0
    for w in (w1, w2):
        if phi.eval(w).max_abs() > eps * scale:
            raise FamilyPreconditionError(
                "a claimed zero does not evaluate to zero"
            )
    if abs(w1.scalar_part() - w2.scalar_part()) > eps:
        raise FamilyPreconditionError(
            "the two zeros must share their scalar part"
        )
    # phi(w1) = 0 above, so (u - w1)**2 divides phi exactly when
    # phi'(w1) = 0 too: the remainder theorem applied twice
    if w1.isclose(w2) and phi.derivative().eval(w1).max_abs() > eps * scale:
        raise FamilyPreconditionError(
            "equal zeros need multiplicity at least 2"
        )
    direction = Zeon.blade(n, tuple(range(1, n + 1)))
    for a in (1.0, -2.0, 0.5 + 1.0j):
        sample = w1 + direction.scale(a)
        if phi.eval(sample).max_abs() > eps * scale * 16.0:
            raise FamilyPreconditionError(
                "family verification failed on a sample member"
            )
    zeros = (w1,) if w1.isclose(w2) else (w1, w2)
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
