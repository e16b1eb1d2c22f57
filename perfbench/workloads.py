"""The benchmark's workloads: seeded inputs, the operations, their checks.

Every workload is a list of :class:`Op`, one pass.  A run repeats whole
passes, so each operation is attempted equally often.  Inputs come
from ``numpy.random.default_rng(seed)`` on a fixed schedule of shapes
(generator counts, term counts, degrees, function names): the seed
draws blades and coefficients, never the amount of work, which keeps
runs on different seeds comparable.  Every check goes through
:mod:`dense` and the constructed answers, never through ``zeon``.

Importing this module imports ``zeon``; the caller puts the
checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dense
import textread
from dense import close
import zeon
from zeon import Zeon, ZeonExtension, ZeonPoly, by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the preimages kept as failing operations: log and sqrt at n = 8 with
# scalar parts in [12, 50], where polynomial_form's top coefficient
# f^(8)(z0)/8! falls below the absolute eq_eps and ZeonPoly.monic
# raises LeadingCoefficientNotInvertible.  Fixed inputs, not seeded.
FAILING_PREIMAGES = tuple((fn, z0) for fn in ("log", "sqrt")
                          for z0 in (12.0, 20.0, 35.0, 50.0))
FAILING_DUAL = [((1,), 0.5), ((2, 3), 0.25), ((4, 5, 6), -0.125)]


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` judges its output.

    ``count`` is the number of operations the call stands for (the
    lines of a batch file).
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    count: int = 1


# -- drawing inputs -------------------------------------------------------


def indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def terms_of(vec: np.ndarray) -> list[tuple[tuple[int, ...], complex]]:
    return [(indices(int(m)), complex(vec[m])) for m in np.flatnonzero(vec)]


def vec(u: Zeon) -> np.ndarray:
    return dense.from_terms(u.n, u.terms())


def zeon_of(n: int, v: np.ndarray) -> Zeon:
    return Zeon(n, terms_of(v))


@lru_cache(maxsize=None)
def _grade_pools(n: int) -> dict[int, np.ndarray]:
    masks = np.arange(1, 1 << n)
    grade = np.bitwise_count(masks)
    return {g: masks[grade == g] for g in range(1, n + 1)}


class Draw:
    """Seeded draws of elements as dense vectors."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def normal(self, scale: float = 1.0) -> complex:
        re, im = self.rng.normal(scale=scale, size=2)
        return complex(re, im)

    def dyadic(self) -> complex:
        # quarters in [-2, 2]: sums and products of a few stay exact
        while True:
            re, im = self.rng.integers(-8, 9, size=2) / 4.0
            if re or im:
                return complex(re, im)

    def unit(self) -> complex:
        """A scalar of modulus in [1, 2], safely invertible."""
        return self.rng.uniform(1.0, 2.0) * cmath.exp(
            1j * self.rng.uniform(0.0, 2.0 * math.pi))

    def blades(self, n: int, count: int, grades=None) -> list[int]:
        """``count`` distinct nonempty blades (fewer if there are not
        that many), spread over ``grades`` in proportion to how many
        blades each grade has.

        The number per grade is fixed by ``n`` and ``count`` alone; the
        seed only picks which blades.  Grades decide how soon products
        vanish, so this keeps the amount of work alike across seeds.
        """
        pools = {g: p for g, p in _grade_pools(n).items()
                 if grades is None or g in grades}
        total = sum(len(p) for p in pools.values())
        count = min(count, total)
        quota = {g: count * len(p) / total for g, p in pools.items()}
        take = {g: int(q) for g, q in quota.items()}
        short = count - sum(take.values())
        for g in sorted(quota, key=lambda g: (take[g] - quota[g], g))[:short]:
            take[g] += 1
        out = []
        for g, pool in pools.items():
            out += self.rng.choice(pool, size=take[g], replace=False).tolist()
        return out

    def element(self, n: int, terms: int, s: complex = 0j,
                scale: float = 1.0, dyadic: bool = False,
                grades=None) -> np.ndarray:
        """Scalar part ``s`` plus ``terms`` nilpotent blades (fewer if
        the algebra is too small)."""
        v = dense.scalar(n, s)
        for m in self.blades(n, terms, grades):
            v[m] = self.dyadic() if dyadic else self.normal(scale)
        return v


# -- checks ---------------------------------------------------------------


def poly_vecs(p: ZeonPoly) -> list[np.ndarray]:
    return [vec(c) for c in p.coeffs]


def horner_scale(coeffs: list[np.ndarray], x: np.ndarray) -> float:
    # the same evaluation on magnitudes bounds every intermediate value
    r = dense.norm1(x)
    return sum(dense.norm1(c) * r ** k for k, c in enumerate(coeffs))


def polys_close(got: list[np.ndarray], want: list[np.ndarray],
                scale: float, rel: float = 1e-9) -> bool:
    size = max(len(got), len(want))
    zero = np.zeros_like((got or want)[0])
    return all(close(got[k] if k < len(got) else zero,
                     want[k] if k < len(want) else zero, scale, rel)
               for k in range(size))


def check_product(va, vb):
    want = dense.mul(va, vb)
    scale = dense.norm1(va) * dense.norm1(vb)
    return lambda out: close(vec(out), want, scale)


def inverse_ok(vu: np.ndarray, vo: np.ndarray) -> bool:
    """``u * v == 1``."""
    one = dense.scalar(dense.gens(vu), 1.0)
    return close(dense.mul(vu, vo), one, dense.norm1(vu) * dense.norm1(vo))


def check_inverse(vu):
    return lambda out: inverse_ok(vu, vec(out))


def roots_ok(roots: list[np.ndarray], vw: np.ndarray, k: int) -> bool:
    """``k`` roots with pairwise distinct scalar parts, each ``r**k == w``."""
    if len(roots) != k:
        return False
    scalars = [complex(r[0]) for r in roots]
    distinct = all(abs(a - b) > 1e-6 * abs(a)
                   for i, a in enumerate(scalars) for b in scalars[i + 1:])
    return distinct and all(
        close(dense.power(r, k), vw, dense.norm1(r) ** k) for r in roots)


def check_roots(vw, k):
    return lambda roots: roots_ok([vec(r) for r in roots], vw, k)


def check_value(want, scale, rel=1e-9):
    return lambda out: close(vec(out), want, scale, rel)


def division_ok(vphi, vpsi, q, r) -> bool:
    """``psi * q + r == phi`` with ``deg r < deg psi``."""
    if len(r) >= len(vpsi):
        return False
    back = dense.poly_add(dense.poly_mul(vpsi, q), r) if q else r
    scale = (sum(dense.norm1(c) for c in vpsi)
             * max([dense.norm1(c) for c in q] + [1.0])
             + sum(dense.norm1(c) for c in vphi))
    return polys_close(back or [np.zeros_like(vphi[0])], vphi, scale)


def check_division(vphi, vpsi):
    return lambda result: division_ok(vphi, vpsi, poly_vecs(result.quotient),
                                      poly_vecs(result.remainder))


def quad_residual_ok(va, vb, vc, vz) -> bool:
    value = dense.horner([vc, vb, va], vz)
    return close(value, np.zeros_like(value), horner_scale([vc, vb, va], vz))


def match_all(got: list[np.ndarray], want: list[np.ndarray],
              rel: float) -> bool:
    """``got`` is ``want`` up to order, each entry within ``rel``."""
    if len(got) != len(want):
        return False
    left = list(got)
    for w in want:
        hit = next((i for i, g in enumerate(left)
                    if close(g, w, dense.norm1(w), rel)), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


def taylor_bound(name: str, v: np.ndarray) -> float:
    s = complex(v[0])
    r = dense.norm1(v) - abs(s)
    deriv = dense.DERIVATIVES[name]
    return sum(abs(deriv(s, k)) / math.factorial(k) * r ** k
               for k in range(dense.gens(v) + 1))


# -- lib_sparse -----------------------------------------------------------


def lib_sparse(seed: int) -> list[Op]:
    """Criterion 5's shape: n in 1..8, at most 10 terms per element."""
    d = Draw(seed)
    ops = []
    for rep in range(4):
        for n in range(1, 9):
            for t in (2, 5, 10):
                dual = t - 1
                va = d.element(n, dual, d.normal())
                vb = d.element(n, dual, d.normal())
                a, b = zeon_of(n, va), zeon_of(n, vb)
                ops.append(Op("mul", lambda a=a, b=b: a.mul(b),
                              check_product(va, vb)))

                vu = d.element(n, dual, d.unit())
                u = zeon_of(n, vu)
                ops.append(Op("inverse", lambda u=u: u.inverse(),
                              check_inverse(vu)))

                k = 2 + (n + t + rep) % 4
                vw = d.element(n, dual, d.unit())
                w = zeon_of(n, vw)
                ops.append(Op("kth_roots",
                              lambda w=w, k=k: zeon.kth_roots(w, k),
                              check_roots(vw, k)))

                vp = [d.element(n, dual, d.normal()) for _ in range(4)]
                vx = d.element(n, dual, d.normal(0.5))
                p, x = ZeonPoly([zeon_of(n, c) for c in vp]), zeon_of(n, vx)
                ops.append(Op("eval", lambda p=p, x=x: p.eval(x),
                              check_value(dense.horner(vp, vx),
                                          horner_scale(vp, vx))))

                vphi = [d.element(n, dual, d.normal()) for _ in range(5)]
                vpsi = [d.element(n, dual, d.normal()),
                        d.element(n, dual, d.normal()),
                        d.element(n, dual, d.unit())]
                phi = ZeonPoly([zeon_of(n, c) for c in vphi])
                psi = ZeonPoly([zeon_of(n, c) for c in vpsi])
                ops.append(Op("divide",
                              lambda phi=phi, psi=psi: zeon.divide(phi, psi),
                              check_division(vphi, vpsi)))

                vr = [d.element(n, dual, d.normal()) for _ in range(4)]
                vz = d.element(n, dual, d.normal(0.5))
                r, z = ZeonPoly([zeon_of(n, c) for c in vr]), zeon_of(n, vz)
                ops.append(Op("remainder_at",
                              lambda r=r, z=z: zeon.remainder_at(r, z),
                              check_value(dense.horner(vr, vz),
                                          horner_scale(vr, vz))))
    return ops


# -- lib_dense ------------------------------------------------------------


def lib_dense(seed: int) -> list[Op]:
    """The same kernel on wide operands: n in 9..11, 64 to 256 terms."""
    d = Draw(seed)
    ops = []
    for rep in range(3):
        for n in (9, 10, 11):
            for t in (64, 128, 256):
                # most products at 128 terms, so the median latency sits
                # inside one class of operation rather than between two
                for _ in range(6 if t == 128 else 1):
                    va = d.element(n, t - 1, d.unit(), scale=0.2)
                    vb = d.element(n, t - 1, d.unit(), scale=0.2)
                    a, b = zeon_of(n, va), zeon_of(n, vb)
                    ops.append(Op("mul", lambda a=a, b=b: a.mul(b),
                                  check_product(va, vb)))
                vu = d.element(n, t - 1, d.unit(), scale=0.2)
                u = zeon_of(n, vu)
                ops.append(Op("inverse", lambda u=u: u.inverse(),
                              check_inverse(vu)))
    return ops


# -- lib_spectral ---------------------------------------------------------


SCALAR_DOMAINS = {
    # well-conditioned scalar parts: away from branch cuts and from the
    # critical points of each function
    "exp": lambda r: complex(r.uniform(-1, 1), r.uniform(-1, 1)),
    "sin": lambda r: complex(r.uniform(-1, 1), r.uniform(-0.5, 0.5)),
    "cos": lambda r: complex(r.uniform(0.5, 2.5), r.uniform(-0.5, 0.5)),
    "log": lambda r: r.uniform(0.5, 3.0) * cmath.exp(1j * r.uniform(-1, 1)),
    "sqrt": lambda r: r.uniform(0.5, 3.0) * cmath.exp(1j * r.uniform(-1, 1)),
}


def quadratic_inputs(d: Draw, n: int, kind: str):
    """``(alpha, beta, gamma, roots)`` as vectors, from known roots.

    Dyadic coefficients keep the construction exact, so a zero or
    purely nilpotent discriminant is exactly that in floating point.
    """
    if kind == "TwoDistinct":
        va = d.element(n, 2, 1.0 + d.dyadic().real / 4, dyadic=True)
        # scalar parts in the right and the left half-plane: distinct
        s1 = complex(1 + d.rng.integers(0, 4) / 4, d.rng.integers(-3, 4) / 4)
        s2 = complex(-1 - d.rng.integers(0, 4) / 4, d.rng.integers(-3, 4) / 4)
        r1 = d.element(n, 3, s1, dyadic=True)
        r2 = d.element(n, 3, s2, dyadic=True)
        vb = -dense.mul(va, r1 + r2)
        vc = dense.mul(va, dense.mul(r1, r2))
        return va, vb, vc, [r1, r2]
    alpha = dense.scalar(n, complex(1.0 + d.rng.integers(0, 4) / 4,
                                    d.rng.integers(-3, 4) / 4))
    m = d.element(n, 3, d.dyadic(), dyadic=True)
    vb = -2.0 * dense.mul(alpha, m)
    if kind == "NullSquareFamily":
        vc = dense.mul(alpha, dense.mul(m, m))
        return alpha, vb, vc, [m]
    if kind == "NilpotentDiscriminantRoots":
        # roots m +- delta/2 differ by a grade-1 nilpotent over at least
        # three generators, so the discriminant alpha^2 delta^2 is
        # nonzero, nilpotent and a square
        delta = d.element(n, d.rng.integers(3, n + 1), dyadic=True,
                          grades=(1,))
        r1, r2 = m + delta / 2, m - delta / 2
        vc = dense.mul(alpha, dense.mul(r1, r2))
        return alpha, vb, vc, [r1, r2]
    # NoZeros: the discriminant 4 alpha^2 eps has a grade-1 term, and a
    # square of a nilpotent never does
    eps = d.element(n, 2, dyadic=True, grades=(1, 2))
    eps[1] = d.dyadic()
    vc = dense.mul(alpha, dense.mul(m, m) - eps)
    return alpha, vb, vc, []


def quadratic_ok(kind, va, vb, vc, roots, got_kind, zs) -> bool:
    """The kind of the construction; zeros that satisfy the equation, and
    are the constructed roots where those are the only zeros."""
    if got_kind != kind:
        return False
    if kind == "NoZeros":
        return not zs
    if not zs or not all(quad_residual_ok(va, vb, vc, z) for z in zs):
        return False
    if kind in ("TwoDistinct", "NullSquareFamily"):
        return match_all(zs, roots, 1e-9)
    return True


def check_quadratic(kind, va, vb, vc, roots):
    return lambda outcome: quadratic_ok(kind, va, vb, vc, roots,
                                        outcome.kind.value,
                                        [vec(z) for z in outcome.zeros])


def slow_sqrt_input() -> np.ndarray:
    # (z{4} + 2 z{6} + z{1,2,5})**2 at n = 6: one grade-2 blade, so the
    # layered construction misses and the least-squares search finds it
    v = dense.from_terms(6, [((4,), 1.0), ((6,), 2.0), ((1, 2, 5), 1.0)])
    return dense.mul(v, v)


def check_square_root(vw):
    def check(out):
        vo = vec(out)
        return close(dense.mul(vo, vo), vw, dense.norm1(vo) ** 2)
    return check


def lib_spectral(seed: int) -> list[Op]:
    """Zero finding and analytic extension: split, preimage,
    extend_eval, quadratic_solve, nilpotent_sqrt."""
    d = Draw(seed)
    ops = []
    for rep in range(2):
        for deg in (2, 3, 4, 5):
            for n in (2, 4, 6, 8):
                turn = d.rng.uniform(0, 2 * math.pi)
                roots = []
                for j in range(deg):
                    s = 1.5 * cmath.exp(1j * (turn + 2 * math.pi * j / deg))
                    s += d.normal(0.05)
                    roots.append(d.element(n, 4, s, scale=0.5))
                want = dense.from_roots(roots)
                zroots = [zeon_of(n, r) for r in roots]
                ops.append(Op(
                    "from_roots",
                    lambda n=n, zr=zroots: ZeonPoly.from_roots(n, zr),
                    lambda p, want=want: polys_close(
                        poly_vecs(p), want,
                        max(dense.norm1(c) for c in want))))
                phi = ZeonPoly([zeon_of(n, c) for c in want])
                ops.append(Op("split", lambda phi=phi: zeon.split(phi),
                              lambda rep_, roots=roots: (
                                  not rep_.families and not rep_.warnings
                                  and match_all([vec(z.zero) for z in
                                                 rep_.spectral_zeros],
                                                roots, 1e-7))))
        for name in ("exp", "sin", "cos", "log", "sqrt"):
            for n in (2, 4, 6, 8):
                ext = ZeonExtension(by_name(name), n)
                # four preimages per extension: the median latency then
                # falls inside the preimages, not between two kinds
                for j in range(4):
                    s = SCALAR_DOMAINS[name](d.rng)
                    vl = d.element(n, 6, s, scale=0.3)
                    vw = dense.taylor(name, vl)
                    lam, w = zeon_of(n, vl), zeon_of(n, vw)
                    if j == 0:
                        ops.append(Op(
                            "extend_eval",
                            lambda ext=ext, lam=lam: zeon.extend_eval(ext,
                                                                      lam),
                            check_value(vw, taylor_bound(name, vl))))
                    ops.append(Op(
                        "preimage",
                        lambda ext=ext, w=w, s=s: zeon.preimage(ext, w, s),
                        check_value(vl, dense.norm1(vl), 1e-7)))
        for kind in ("TwoDistinct", "NullSquareFamily",
                     "NilpotentDiscriminantRoots", "NoZeros"):
            for n in (3, 4, 6, 8):
                va, vb, vc, roots = quadratic_inputs(d, n, kind)
                a, b, c = (zeon_of(n, x) for x in (va, vb, vc))
                ops.append(Op("quadratic_solve",
                              lambda a=a, b=b, c=c: zeon.quadratic_solve(
                                  a, b, c),
                              check_quadratic(kind, va, vb, vc, roots)))
    for name, z0 in FAILING_PREIMAGES:
        vl = dense.from_terms(8, [((), z0)] + FAILING_DUAL)
        ext = ZeonExtension(by_name(name), 8)
        w = zeon_of(8, dense.taylor(name, vl))
        ops.append(Op("preimage_large_scalar",
                      lambda ext=ext, w=w, z0=z0: zeon.preimage(ext, w, z0),
                      check_value(vl, dense.norm1(vl), 1e-7)))
    vw = slow_sqrt_input()
    w = zeon_of(6, vw)
    ops.append(Op("nilpotent_sqrt", lambda w=w: zeon.nilpotent_sqrt(w),
                  check_square_root(vw)))
    return ops


# -- CLI commands ---------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it prints."""

    argv: list[str]
    check: Callable[[str], bool]
    out_lines: int


def read_element(n: int, rendered: Any) -> np.ndarray:
    if isinstance(rendered, dict):
        if rendered.get("n") != n:
            raise ValueError("wrong n in JSON element")
        return dense.from_terms(n, [(tuple(t["index"]),
                                     complex(t["re"], t["im"]))
                                    for t in rendered["terms"]])
    return dense.from_terms(n, textread.read_zeon(rendered))


def read_poly_out(n: int, text: str, as_json: bool) -> list[np.ndarray]:
    if as_json:
        return [read_element(n, {"n": n, "terms": c}) for c in text["coeffs"]]
    return [dense.from_terms(n, c) for c in textread.read_poly(text)]


def _element_out(n, check_vec):
    """Check for a command printing one element (text or JSON)."""
    def check(stdout: str) -> bool:
        line = stdout.strip()
        rendered = json.loads(line) if line.startswith("{") else line
        return check_vec(read_element(n, rendered))
    return check


def _txt(v: np.ndarray) -> str:
    return textread.write_zeon(terms_of(v))


def _ptxt(vs: list[np.ndarray]) -> str:
    return textread.write_poly([terms_of(v) for v in vs])


def cli_commands(seed: int, n_values: tuple[int, ...], per_kind: int
                 ) -> list[Command]:
    """``per_kind`` invocations of each of the nine subcommands.

    Alternate invocations ask for ``--json``; the rest print text.
    """
    d = Draw(seed)
    out = []
    for i in range(per_kind):
        n = n_values[i % len(n_values)]
        flags = ["--n", str(n)]

        def add(name, args, check, lines, as_json):
            argv = [name] + flags + (["--json"] if as_json else []) + args
            out.append(Command(argv, check, 1 if as_json else lines))

        # eval
        as_json = i % 2 == 0
        vp = [d.element(n, 3, d.normal()) for _ in range(3)]
        vx = d.element(n, 3, d.normal(0.5))
        add("eval", [_ptxt(vp), _txt(vx)], _element_out(
            n, lambda v, vp=vp, vx=vx: close(v, dense.horner(vp, vx),
                                             horner_scale(vp, vx))),
            1, as_json)
        # inv
        as_json = not as_json
        vu = d.element(n, 4, d.unit())
        add("inv", [_txt(vu)], _element_out(
            n, lambda v, vu=vu: inverse_ok(vu, v)), 1, as_json)
        # root
        as_json = not as_json
        k = 2 + i % 3
        vw = d.element(n, 4, d.unit())
        add("root", ["--k", str(k), _txt(vw)],
            check_roots_out(n, vw, k, as_json), k, as_json)
        # divide
        as_json = not as_json
        vphi = [d.element(n, 3, d.normal()) for _ in range(4)]
        vpsi = [d.element(n, 3, d.normal()), d.element(n, 3, d.unit())]
        add("divide", [_ptxt(vphi), _ptxt(vpsi)],
            check_divide_out(n, vphi, vpsi, as_json), 2, as_json)
        # quad (kinds with zeros; NoZeros exits 2 by design)
        as_json = not as_json
        kind = ("TwoDistinct", "NullSquareFamily",
                "NilpotentDiscriminantRoots")[i % 3]
        va, vb, vc, roots = quadratic_inputs(d, max(n, 3), kind)
        qn = max(n, 3)
        out.append(Command(
            ["quad", "--n", str(qn)] + (["--json"] if as_json else [])
            + [_txt(va), _txt(vb), _txt(vc)],
            check_quad_out(qn, kind, va, vb, vc, roots), 1))
        # solve (split)
        as_json = not as_json
        deg = 2 + i % 2
        turn = d.rng.uniform(0, 2 * math.pi)
        roots = [d.element(n, 2, 1.5 * cmath.exp(1j * (turn + 2 * math.pi * j
                                                        / deg)), scale=0.5)
                 for j in range(deg)]
        add("solve", [_ptxt(dense.from_roots(roots))],
            check_solve_out(n, roots), 1, as_json)
        # classify
        as_json = not as_json
        val = i % 4
        coeffs = [dense.scalar(n, 0)] * val + [
            dense.scalar(n, d.dyadic()) for _ in range(2)]
        add("classify", [_ptxt(coeffs)], check_classify_out(val), 1, as_json)
        # extend
        as_json = not as_json
        name = ("exp", "sin", "cos", "log", "sqrt")[i % 5]
        vl = d.element(n, 4, SCALAR_DOMAINS[name](d.rng), scale=0.3)
        want = dense.taylor(name, vl)
        add("extend", ["--fn", name, _txt(vl)], _element_out(
            n, lambda v, want=want, b=taylor_bound(name, vl):
            close(v, want, b)), 1, as_json)
        # preimage
        as_json = not as_json
        name = ("log", "sqrt", "exp", "sin", "cos")[i % 5]
        s = SCALAR_DOMAINS[name](d.rng)
        vl = d.element(n, 4, s, scale=0.3)
        add("preimage", ["--fn", name, "--seed", textread.write_complex(s),
                         _txt(dense.taylor(name, vl))],
            _element_out(n, lambda v, vl=vl: close(v, vl, dense.norm1(vl),
                                                   1e-7)), 1, as_json)
    return out


def check_roots_out(n, vw, k, as_json):
    def check(stdout):
        if as_json:
            roots = [read_element(n, r) for r in json.loads(stdout)]
        else:
            roots = [read_element(n, line) for line in stdout.splitlines()]
        return roots_ok(roots, vw, k)
    return check


def check_divide_out(n, vphi, vpsi, as_json):
    def check(stdout):
        if as_json:
            obj = json.loads(stdout)
            q = read_poly_out(n, obj["quotient"], True)
            r = read_poly_out(n, obj["remainder"], True)
        else:
            qt, rt = stdout.splitlines()
            q, r = read_poly_out(n, qt, False), read_poly_out(n, rt, False)
        return division_ok(vphi, vpsi, q, r)
    return check


def check_quad_out(n, kind, va, vb, vc, roots):
    def check(stdout):
        report = json.loads(stdout)
        return quadratic_ok(kind, va, vb, vc, roots, report["kind"],
                            [read_element(n, z) for z in report["zeros"]])
    return check


def check_solve_out(n, roots):
    def check(stdout):
        report = json.loads(stdout)
        if report["families"] or report["warnings"]:
            return False
        zs = [read_element(n, z["zero"]) for z in report["spectral_zeros"]]
        return match_all(zs, roots, 1e-7)
    return check


def check_classify_out(valuation):
    def check(stdout):
        desc = json.loads(stdout)
        if valuation <= 1:
            return desc["kind"] == "Empty"
        return (desc["kind"] == "NilpotentFamily"
                and desc["family_spec"]["nilpotency_bound"] == valuation)
    return check


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_oneshot(seed: int) -> list[Op]:
    """One fresh ``python -m zeon.cli`` process per operation."""
    env = child_env()
    ops = []
    for cmd in cli_commands(seed, (2, 3, 4), 1):
        argv = [sys.executable, "-m", "zeon.cli"] + cmd.argv

        def run(argv=argv):
            return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)

        def check(proc, cmd=cmd):
            return proc.returncode == 0 and cmd.check(proc.stdout)
        ops.append(Op(cmd.argv[0], run, check))
    return ops


def cli_batch(seed: int, path: Path) -> list[Op]:
    """``zeon.cli.main(["--batch", FILE])`` in process, on one file."""
    import zeon.cli

    cmds = cli_commands(seed, (2, 3, 4, 5, 6), 20)
    path.write_text("".join(" ".join(shlex.quote(a) for a in c.argv) + "\n"
                            for c in cmds))

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = zeon.cli.main(["--batch", str(path)])
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        lines = stdout.splitlines()
        if code != 0 or len(lines) != sum(c.out_lines for c in cmds):
            return False
        at = 0
        for c in cmds:
            chunk = "\n".join(lines[at:at + c.out_lines])
            at += c.out_lines
            if not c.check(chunk):
                return False
        return True
    return [Op("batch", run, check, count=len(cmds))]


LIBRARY = {"lib_sparse": lib_sparse, "lib_dense": lib_dense,
           "lib_spectral": lib_spectral}
