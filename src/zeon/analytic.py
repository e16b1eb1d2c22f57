"""Zeon extensions of analytic functions.

An analytic ``f`` extends to the algebra through its Taylor expansion
around the scalar part: with ``u = s + d`` (``d`` the nilpotent dual
part),

    f(u) = sum_{k=0..n} f_k(s) / k! * d**k

and the sum is exact because ``d**k`` vanishes beyond grade ``n``; it is
the one finite sum behind inverses and k-th roots too (``_taylor_sum``).
Collecting the same coefficients as a polynomial in ``(u - s)`` gives a
degree-``n`` zeon polynomial that agrees with the extension on every
element sharing the scalar part ``s``.  Preimages lift the reverted
Taylor series to a zero of that form minus ``w``, dividing by ``f'`` at
the polished scalar preimage; the lift corrects any grade it misses.

Functions are described by their derivative sequence rather than code
for ``f`` alone, so the extension never needs numerical
differentiation.  The built-ins use principal branches; ``log``,
``sqrt`` and non-integer powers refuse the cut ``(-inf, 0]``.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import namedtuple
from collections.abc import Iterator

from .algebra import (Zeon, _same_algebra, _series_length, _taylor_sum,
                      default_tolerance)
from .errors import (
    NonFiniteResult,
    NotSpectrallySimple,
    OutsideDomain,
    RootFindingFailed,
    SeedMismatch,
)
from .poly import ZeonPoly
from .textio import format_complex

__all__ = [
    "AnalyticFunction",
    "EXP",
    "LOG",
    "SIN",
    "COS",
    "SQRT",
    "power_function",
    "by_name",
    "ZeonExtension",
    "extend_eval",
    "polynomial_form",
    "preimage",
]


class AnalyticFunction(namedtuple(
        "AnalyticFunction", "name derivative in_domain")):
    """An analytic function given by its derivative sequence.

    ``derivative(z, k)`` returns the k-th derivative at ``z`` (k = 0 is
    the function itself); ``in_domain(z)`` guards scalar arguments, and
    is tested with k = 0, which every path asks for first at a point.
    """

    __slots__ = ()


def _off_cut(z: complex) -> bool:
    # principal branch: reject the ray (-inf, 0]
    return not (z.imag == 0.0 and z.real <= 0.0)


def _exp_derivative(z: complex, k: int) -> complex:
    return cmath.exp(z)


def _log_derivative(z: complex, k: int) -> complex:
    if k == 0:
        return cmath.log(z)
    sign = 1.0 if k % 2 else -1.0
    return sign * math.factorial(k - 1) / z ** k


_SIN_CYCLE = (cmath.sin, cmath.cos, lambda z: -cmath.sin(z), lambda z: -cmath.cos(z))


def _sin_derivative(z: complex, k: int) -> complex:
    return _SIN_CYCLE[k % 4](z)


def _cos_derivative(z: complex, k: int) -> complex:
    return _SIN_CYCLE[(k + 1) % 4](z)


EXP = AnalyticFunction("exp", _exp_derivative, lambda z: True)
LOG = AnalyticFunction("log", _log_derivative, _off_cut)
SIN = AnalyticFunction("sin", _sin_derivative, lambda z: True)
COS = AnalyticFunction("cos", _cos_derivative, lambda z: True)


def power_function(p: complex) -> AnalyticFunction:
    """``z**p`` with the principal branch.

    A nonnegative integer ``p`` is entire (zero included); any other
    exponent keeps the branch cut exclusion.  A non-finite ``p`` raises
    ``ValueError``.  The name, ``pow(<p>)``, reads back through
    :func:`by_name`.
    """
    p = complex(p)
    if not cmath.isfinite(p):
        raise ValueError(f"exponent {p} is not finite")
    integral = p.imag == 0.0 and p.real.is_integer() and p.real >= 0

    def derivative(z: complex, k: int) -> complex:
        falling = 1.0 + 0j
        for j in range(k):
            falling *= p - j
        if falling == 0:
            return 0j
        e = p - k
        if z == 0:
            # only reachable for integral p; the exponent is then >= 0
            return falling if e == 0 else 0j
        return falling * cmath.exp(e * cmath.log(z))

    in_domain = (lambda z: True) if integral else _off_cut
    label = f"pow({format_complex(p).strip('()')})"
    return AnalyticFunction(label, derivative, in_domain)


SQRT = power_function(0.5)._replace(name="sqrt")

_NAMED = {"exp": EXP, "log": LOG, "sin": SIN, "cos": COS, "sqrt": SQRT}
_POW_RE = re.compile(r"^pow\((?P<arg>[^)]+)\)$")


def by_name(name: str) -> AnalyticFunction:
    """Look up a built-in: exp, log, sin, cos, sqrt, or pow(<exponent>)."""
    key = name.strip()
    if key in _NAMED:
        return _NAMED[key]
    m = _POW_RE.match(key)
    if m:
        return power_function(complex(m.group("arg").replace("i", "j")))
    raise ValueError(f"unknown analytic function {name!r}")


class ZeonExtension(namedtuple("ZeonExtension", "fn n")):
    """An analytic function ``fn`` extended to the ``n``-generator
    algebra."""

    __slots__ = ()

    def eval(self, u: Zeon) -> Zeon:
        return extend_eval(self, u)

    __call__ = eval


def extend_eval(ext: ZeonExtension, u: Zeon) -> Zeon:
    """Evaluate the extension at ``u`` by the finite Taylor sum in its
    dual part (see the module docstring)."""
    _same_algebra(ext, u)
    return _taylor_sum(u.dual_part(), _taylor_coeffs(ext, u.scalar_part()))


def _derivative(fn: AnalyticFunction, z: complex, k: int) -> complex:
    """``fn``'s ``k``-th derivative at ``z``; ``k = 0`` checks the domain."""
    if k == 0 and not fn.in_domain(z):
        raise OutsideDomain(f"{fn.name} is undefined at {format_complex(z)}")
    try:
        return fn.derivative(z, k)
    except OverflowError:
        # cmath's report of a derivative beyond the float range
        raise NonFiniteResult(
            f"derivative {k} of {fn.name} overflows at {format_complex(z)}"
        ) from None


def _taylor_coeffs(ext: ZeonExtension, s: complex) -> Iterator[complex]:
    for k in range(ext.n + 1):
        yield _derivative(ext.fn, s, k) / math.factorial(k)


def polynomial_form(ext: ZeonExtension, z0: complex) -> ZeonPoly:
    """The degree-``n`` polynomial matching the extension at scalar ``z0``.

    Returns ``sum_k f_k(z0)/k! (u - z0)**k`` expanded in ``u`` by a
    Taylor shift.  Its value at any ``u`` with scalar part ``z0`` equals
    ``extend_eval(u)``; elements with other scalar parts see only a
    truncation.
    """
    from .solve import _shift

    z0 = complex(z0)
    return ZeonPoly.from_scalars(
        ext.n, _shift(list(_taylor_coeffs(ext, z0)), -z0))


def _reversion(a: list[complex]) -> list[complex]:
    """Series reversion: ``b_1..b_n`` with ``sum_k a_k B(x)**k = x`` to
    order ``n = len(a) - 1``, ``B = sum_m b_m x**m``; only ``a[1]`` divides.
    ``p[k][m]``, the ``x**m`` coefficient of ``B**(k+1)``, needs ``b``
    below ``m`` alone; the ``x**m`` coefficient of the sum fixes ``b_m``."""
    b = [0j] * len(a)
    b[1] = 1 / a[1]
    p = [b] + [[0j] * len(a) for _ in a[2:]]
    for m in range(2, len(a)):
        tail = 0j  # sum_{k>=2} a_k [x**m] B**k
        for k in range(1, m):
            s = 0j
            for i in range(1, m - k + 1):
                s += b[i] * p[k - 1][m - i]
            p[k][m] = s
            tail += a[k + 1] * s
        b[m] = -tail / a[1]
    return b[1:]


def preimage(ext: ZeonExtension, w: Zeon, z0: complex) -> Zeon:
    """An element mapped onto ``w`` by the extension, near scalar ``z0``.

    ``z0`` seeds the scalar preimage of ``C(w)``: Newton's loop polishes
    it on ``f(z) - C(w)``, so it need only sit in the intended branch's
    basin (the library never picks a branch).  That residual raises
    :class:`OutsideDomain` at any iterate off the domain, before the
    slope is taken there.  The polished ``z`` needs a residual within
    ``r = root_eps * max(1, |C(w)|)`` (else :class:`SeedMismatch`) and a
    slope ``f'(z)`` above ``root_eps`` (else :class:`NotSpectrallySimple`);
    the reverted series in ``w``'s dual part is then lifted, dividing by
    that ``f'(z)``, to a zero of the polynomial form minus ``w``.  A
    slope whose square is at most ``r`` puts a critical value within
    ``r`` (``f(z) - f(c) ~ f'(z)**2 / 2f''``); the lift is then
    ill-conditioned, and its image must match ``w`` within
    ``eq_eps * max(1, max |w|)`` (else :class:`RootFindingFailed`).
    """
    # the zero finder loads here, so extend_eval alone never imports it
    from .solve import _lift, _newton

    tol = default_tolerance()
    _same_algebra(ext, w)
    fn = ext.fn
    target = w.scalar_part()
    bound = tol.root_eps * max(1.0, abs(target))

    def residual(z: complex) -> complex:
        return _derivative(fn, z, 0) - target

    z_at = _newton(residual, lambda z: _derivative(fn, z, 1), complex(z0))
    miss = residual(z_at)
    if abs(miss) > bound:
        target, z0, z_at = map(format_complex, (target, z0, z_at))
        raise SeedMismatch(f"no scalar preimage of {target} under {fn.name} "
                           f"from seed {z0}; reached {z_at}, {abs(miss)} away")
    # f(z_at), f'(z_at), ... as far as w's dual part reads the reverted
    # series; a scalar w still needs the slope
    dual = w.dual_part()
    a = list(_taylor_coeffs(
        ZeonExtension(fn, max(1, _series_length(dual) - 1)), z_at))
    slope = abs(a[1])
    if slope <= tol.root_eps:
        raise NotSpectrallySimple(
            f"{format_complex(z_at)} is a critical point of {fn.name}")
    if ext.n == 0:  # nothing to lift, and psi would be the zero polynomial
        return Zeon.scalar(0, z_at)
    form = polynomial_form(ext, z_at)
    psi = ZeonPoly([form.coeffs[0] - w, *form.coeffs[1:]], n=ext.n)
    try:
        seed = _taylor_sum(dual, [z_at, *_reversion(a)])
    except NonFiniteResult:
        seed = Zeon.scalar(ext.n, z_at)
    zero = _lift(psi, seed, a[1], max(map(abs, form.scalar_projection())))[0]
    if slope * slope <= bound:
        miss = (extend_eval(ext, zero) - w).max_abs()
        if miss > tol.eq_eps * max(1.0, w.max_abs()):
            raise RootFindingFailed(f"lift misses w by {miss}", partial=zero)
    return zero
