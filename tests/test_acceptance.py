"""Acceptance checklist: one test per shipped guarantee.

Each test appends a (number, passed, detail) line to the terminal
summary so the whole checklist is visible in one place at the end of a
run.  Timed criteria measure wall clock after the session-level backend
warmup; nothing here reuses results between tests.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import (ACCEPTANCE_RESULTS, random_invertible, random_nilpotent,
                      random_zeon, to_dense)
from oracle import dense_mul, dense_poly_eval

from zeon import (Zeon, ZeonExtension, ZeonPoly, by_name,
                  classify_nilpotent_zeros, divide, extend_eval,
                  is_extension_zero, kth_roots, preimage, quadratic_solve,
                  remainder_at, split, spectrally_simple_zero)
from zeon.poly import QuadraticKind
from zeon.solve import ZeroSetKind


def record(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, passed, detail))
    assert passed, f"criterion {number}: {detail}"


def degree4_example() -> ZeonPoly:
    s = Zeon(4, [((1, 2), 1.0), ((1, 3), 1.0), ((1, 4), 1.0)])
    one = Zeon.one(4)
    return ZeonPoly([
        one.scale(3.0) - s,
        one.scale(-10.0) + s.scale(2.0),
        one.scale(12.0) - s,
        one.scale(-6.0),
        one,
    ])


def test_degree4_split(rng):
    poly = degree4_example()
    split(ZeonPoly.from_scalars(4, [-1, 0, 1]))  # warm the whole path
    t0 = time.perf_counter()
    report = split(poly)
    dt = time.perf_counter() - t0

    spectrum = {round(r.value.real): r.multiplicity
                for r in report.scalar_spectrum}
    want = Zeon(4, [((), 3.0), ((1, 2), 0.5), ((1, 3), 0.5), ((1, 4), 0.5)])
    devs = [(z.zero - want).max_abs() for z in report.spectral_zeros
            if abs(z.seed.value - 3) < 0.1]
    dev = min(devs) if devs else math.inf

    ok = spectrum == {3: 1, 1: 3} and dev <= 1e-9 and dt < 1.0
    record(1, ok, f"spectrum {spectrum}, zero dev {dev:.1e}, {dt * 1e3:.0f} ms")


def test_cosine_preimage():
    w = Zeon(4, [((), math.sqrt(3.0) / 2.0), ((1,), 3.0), ((1, 2), 1.0),
                 ((4,), -1.0)])
    ext = ZeonExtension(by_name("cos"), 4)
    preimage(ext, Zeon.scalar(4, 0.5), 1.0)  # warm the whole path
    t0 = time.perf_counter()
    lam = preimage(ext, w, math.pi / 3.0)
    dt = time.perf_counter() - t0

    printed = {(): 0.523599, (1,): -6.0, (1, 2): -2.0, (4,): 2.0,
               (1, 4): 20.7846, (1, 2, 4): 6.9282}
    got = dict(lam.terms())
    keys = set(printed) | set(got)
    coeff_dev = max(abs(got.get(k, 0.0) - printed.get(k, 0.0)) for k in keys)
    round_trip = (extend_eval(ext, lam) - w).max_abs()

    ok = coeff_dev <= 1e-3 and round_trip <= 1e-6 and dt < 1.0
    record(2, ok, f"coeff dev {coeff_dev:.1e}, round trip {round_trip:.1e}, "
                  f"{dt * 1e3:.0f} ms")


def test_quadratics_without_zeros():
    one, z1 = Zeon.one(2), Zeon.blade(2, (1,))
    z12 = Zeon.blade(2, (1, 2))
    quadratic_solve(one, one.scale(-3.0), one.scale(2.0))  # warm
    t0 = time.perf_counter()
    # (u - 1)**2 + z{1}
    first = quadratic_solve(one, one.scale(-2.0), one + z1)
    # (1 + z{1}) u**2 + (z{1,2} - 2) u + 1
    second = quadratic_solve(one + z1, z12 - one.scale(2.0), one)
    dt = time.perf_counter() - t0

    ok = (first.kind == QuadraticKind.NO_ZEROS
          and second.kind == QuadraticKind.NO_ZEROS
          and "minimum grade" in first.note
          and "minimum grade" in second.note
          and dt < 0.1)
    record(3, ok, f"both certified NoZeros, {dt * 1e3:.1f} ms")


def test_membership(rng):
    # (x + 1/2)**2: the double root takes every grade-1 perturbation
    double = [0.25, 1.0, 1.0]
    named = all(is_extension_zero(double, Zeon(1, [((), -0.5), ((1,), a)]))
                for a in (1.0, -3.0, 2.0 + 1.0j))
    random_a = all(
        is_extension_zero(double, Zeon(1, [((), -0.5), ((1,), a)]))
        for a in (rng.normal(size=50) + 1j * rng.normal(size=50)))

    # z**2 + z: both roots simple, so only the pure scalars belong
    simple = [0.0, 1.0, 1.0]
    exact = 0
    for i in range(200):
        scalar = (0.0, -1.0)[i % 2]
        if i % 2 == 0 and i % 4 == 0 or i % 5 == 0:
            dual = Zeon.zero(3)
        else:
            dual = random_nilpotent(rng, 3)
        candidate = Zeon.scalar(3, scalar) + dual
        accepted = is_extension_zero(simple, candidate)
        if accepted == (dual.max_abs() <= 1e-12):
            exact += 1
    rejects_outside = not is_extension_zero(simple, Zeon.scalar(3, 0.5))

    ok = named and random_a and exact == 200 and rejects_outside
    record(4, ok, f"double root family accepted, {exact}/200 simple-root "
                  "candidates classified exactly")


def test_property_suite(rng):
    cases = 10_000
    t0 = time.perf_counter()

    worst_inv = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        u = random_invertible(rng, n)
        worst_inv = max(worst_inv, (u * u.inverse() - Zeon.one(n)).max_abs())

    worst_root = 0.0
    roots_ok = True
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        w = random_invertible(rng, n)
        roots = kth_roots(w, k)
        scalars = [v.scalar_part() for v in roots]
        roots_ok &= len(roots) == k and all(
            abs(a - b) > 1e-9 for a, b in combinations(scalars, 2))
        worst_root = max(worst_root,
                         max((v.power(k) - w).max_abs() for v in roots))

    worst_div = 0.0
    degrees_ok = True
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        dphi = int(rng.integers(1, 5))
        dpsi = int(rng.integers(1, dphi + 1))
        phi = ZeonPoly([random_zeon(rng, n, max_terms=4)
                        for _ in range(dphi + 1)], n=n)
        psi = ZeonPoly([random_zeon(rng, n, max_terms=4)
                        for _ in range(dpsi)]
                       + [random_invertible(rng, n, max_terms=4)], n=n)
        res = divide(phi, psi)
        # psi * q + r rebuilt by the dense oracle, not by ZeonPoly
        back = [to_dense(c) for c in phi.coeffs]
        for i, a in enumerate(psi.coeffs):
            for j, b in enumerate(res.quotient.coeffs):
                back[i + j] -= dense_mul(to_dense(a), to_dense(b))
        for i, c in enumerate(res.remainder.coeffs):
            back[i] -= to_dense(c)
        worst_div = max(worst_div, max(np.abs(v).max() for v in back))
        degrees_ok &= res.remainder.degree < psi.degree

    worst_rem = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        phi = ZeonPoly([random_zeon(rng, n, max_terms=4)
                        for _ in range(d + 1)], n=n)
        z = random_zeon(rng, n, max_terms=4)
        want = dense_poly_eval([to_dense(c) for c in phi.coeffs],
                               to_dense(z))
        worst_rem = max(worst_rem, np.abs(
            to_dense(remainder_at(phi, z)) - want).max())

    dt = time.perf_counter() - t0
    ok = (worst_inv <= 1e-10 and worst_root <= 1e-8 and roots_ok
          and worst_div <= 1e-9 and degrees_ok and worst_rem <= 1e-9
          and dt < 60.0)
    record(5, ok, f"inv {worst_inv:.1e}, root {worst_root:.1e}, "
                  f"div {worst_div:.1e}, rem {worst_rem:.1e}, {dt:.1f} s")


def test_oracle_equivalence(rng):
    worst = 0.0
    for n in range(1, 7):
        for _ in range(1000):
            a = random_zeon(rng, n)
            b = random_zeon(rng, n)
            sparse = to_dense(a * b)
            dense = dense_mul(to_dense(a), to_dense(b))
            worst = max(worst, float(np.abs(sparse - dense).max()))
    record(6, worst <= 1e-12, f"max |sparse - dense| = {worst:.1e} "
                              "over 6000 pairs")


def test_lift_structure(rng):
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        deg = int(rng.integers(1, 7))
        lam0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        target = Zeon.scalar(n, lam0) + random_nilpotent(rng, n)
        others = []
        for _ in range(deg - 1):
            # keep the seed's scalar root simple
            shift = lam0 + 0.6 + rng.uniform(0.0, 2.0)
            others.append(Zeon.scalar(n, shift) + random_nilpotent(rng, n))
        phi = ZeonPoly.from_roots(n, [target] + others)
        res = spectrally_simple_zero(phi, lam0)
        trace = res.grade_trace
        if not (res.iterations <= n
                and all(a < b for a, b in zip(trace, trace[1:]))
                and res.residual < 1e-8):
            record(7, False,
                   f"failed at n={n} deg={deg}: iters {res.iterations}, "
                   f"trace {trace}, residual {res.residual:.1e}")
        checked += 1
    record(7, checked == 500,
           f"{checked}/500 lifts: <= n steps, increasing grades, "
           "residual < 1e-8")


def reassociated(poly: ZeonPoly, rng) -> ZeonPoly:
    """Rebuild every coefficient from randomly split, shuffled summands."""
    coeffs = []
    for i in range(poly.degree + 1):
        pieces = []
        for ix, c in poly.coeff(i).terms():
            t = float(rng.uniform(0.2, 0.8))
            pieces.append(Zeon(poly.n, [(ix, c * t)]))
            pieces.append(Zeon(poly.n, [(ix, c * (1.0 - t))]))
        acc = Zeon.zero(poly.n)
        for j in rng.permutation(len(pieces)):
            acc = acc + pieces[int(j)]
        coeffs.append(acc)
    return ZeonPoly(coeffs, n=poly.n)


def test_lift_insensitive_to_association(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        deg = int(rng.integers(1, 5))
        lam0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        target = Zeon.scalar(n, lam0) + random_nilpotent(rng, n)
        others = [Zeon.scalar(n, lam0 + 0.6 + rng.uniform(0.0, 2.0))
                  + random_nilpotent(rng, n) for _ in range(deg - 1)]
        phi = ZeonPoly.from_roots(n, [target] + others)
        base = spectrally_simple_zero(phi, lam0)
        # an invertible multiple has the same zeros, though every
        # coefficient and the lead change
        scaled = spectrally_simple_zero(phi * random_invertible(rng, n), lam0)
        mixed = spectrally_simple_zero(reassociated(phi, rng), lam0)
        worst = max(worst, (base.zero - scaled.zero).max_abs(),
                    (base.zero - mixed.zero).max_abs())
    record(8, worst <= 1e-9,
           f"max zero shift {worst:.1e} across scaling + summation order")


def test_classification_vs_search():
    amplitudes = (1.0, 1.0j, 2.0)
    agreed = True
    for n in range(1, 5):
        blades = [Zeon.blade(n, ix)
                  for size in range(1, n + 1)
                  for ix in combinations(range(1, n + 1), size)]
        for d in range(4):
            coeffs = [0.0] * d + [1.0, 1.0]
            poly = ZeonPoly.from_scalars(n, coeffs)
            desc = classify_nilpotent_zeros(coeffs, n)
            hits = sum(poly.eval(b.scale(a)).max_abs() <= 1e-12
                       for b in blades for a in amplitudes)
            if desc.kind == ZeroSetKind.EMPTY:
                agreed &= hits == 0
            else:
                agreed &= (desc.kind == ZeroSetKind.NILPOTENT_FAMILY
                           and hits == len(blades) * len(amplitudes))
    record(9, agreed, "classification matches single-blade search for "
                      "u^d (1 + u), d in 0..3, n in 1..4")
