"""Zero finding: scalar spectra, spectral lifts, families, membership."""

import cmath
import math

import numpy as np
import pytest

from zeon import (
    DimensionMismatch,
    FamilyPreconditionError,
    LeadingCoefficientNotInvertible,
    NotSpectrallySimple,
    RootFindingFailed,
    ScalarRoot,
    Tolerance,
    Zeon,
    ZeonPoly,
    ZeroSetKind,
    classify_nilpotent_zeros,
    generators,
    is_extension_zero,
    multiple_zero_family,
    scalar_roots,
    spectrally_simple_zero,
    split,
    parse_complex,
    tolerance,
)
from zeon.solve import _cluster_and_polish, _der, _horner, _lift, _shift

from conftest import random_nilpotent, random_zeon, to_dense
from dense import horner, scalar

Z1 = Zeon.blade(2, (1,))
Z2 = Zeon.blade(2, (2,))
Z12 = Zeon.blade(2, (1, 2))


def quartic_with_dual_coeffs():
    # (u-3)(u-1)^3 with the three top-grade-2 blades s = z{1,2} +
    # z{1,3} + z{1,4} spread over the middle coefficients; its scalar
    # projection keeps the spectrum {3: 1, 1: 3} and the unique zero
    # above 3 is 3 + s/2.
    s = Zeon(4, {(1, 2): 1, (1, 3): 1, (1, 4): 1})
    return ZeonPoly(
        [
            Zeon.scalar(4, 3.0) - s,
            Zeon.scalar(4, -10.0) + s.scale(2.0),
            Zeon.scalar(4, 12.0) - s,
            Zeon.scalar(4, -6.0),
            Zeon.one(4),
        ],
        n=4,
    )


def spectrum_dict(roots):
    return {complex(round(r.value.real, 6) + 1j * round(r.value.imag, 6)):
            r.multiplicity for r in roots}


# -- scalar spectra --------------------------------------------------------


class TestScalarRoots:
    def test_unsettled_root_raises_with_every_root(self, monkeypatch):
        # no plain input leaves a polished center off its root, so the
        # smallest center is moved off after polishing
        import zeon.solve

        polish = zeon.solve._cluster_and_polish

        def moved(*args):
            merged = polish(*args)
            i = min(range(len(merged)), key=lambda j: merged[j][0].real)
            v, ell = merged[i]
            merged[i] = (v * (1 + 1e-3), ell)
            return merged

        coeffs = [-6.0, 11.0, -6.0, 1.0]  # (u - 1)(u - 2)(u - 3)
        want = scalar_roots(coeffs)
        monkeypatch.setattr(zeon.solve, "_cluster_and_polish", moved)
        with pytest.raises(RootFindingFailed, match="no settled root") as info:
            scalar_roots(coeffs)
        partial = info.value.partial
        assert len(partial) == 3
        assert partial[0].value == pytest.approx(want[0].value * (1 + 1e-3))
        assert partial[1:] == want[1:]

    def test_unsettled_root_is_named_in_the_cli_grammar(self, monkeypatch):
        import zeon.solve

        polish = zeon.solve._cluster_and_polish

        def moved(*args):
            merged = polish(*args)
            merged[0] = (merged[0][0] * (1 + 1e-3), merged[0][1])
            return merged

        monkeypatch.setattr(zeon.solve, "_cluster_and_polish", moved)
        # (u - (1+2i))(u - 3)
        with pytest.raises(RootFindingFailed) as info:
            scalar_roots([3 + 6j, -4 - 2j, 1.0])
        point = str(info.value).split("no settled root near ")[1].split()[0]
        assert parse_complex(point) in {r.value for r in info.value.partial}

    def test_linear(self):
        (r,) = scalar_roots([3.0, -1.0])
        assert r.value == pytest.approx(3.0)
        assert r.multiplicity == 1 and r.simple

    def test_distinct_quadratic(self):
        roots = scalar_roots([2.0, -3.0, 1.0])
        assert [r.value for r in roots] == pytest.approx([1.0, 2.0])
        assert all(r.simple for r in roots)

    def test_conjugate_pair(self):
        roots = scalar_roots([1.0, 0.0, 1.0])
        assert [r.value for r in roots] == pytest.approx([-1j, 1j])

    def test_real_roots_of_real_polynomials_are_real(self):
        # 500 real-rooted polynomials of degree 2-6: every root comes
        # back with no imaginary part, near the constructed one
        rng = np.random.default_rng(1)
        for _ in range(500):
            want = np.sort(3 * rng.normal(size=int(rng.integers(2, 7))))
            roots = scalar_roots(np.poly(want)[::-1])
            assert all(r.value.imag == 0 for r in roots)
            got = [r.value.real for r in roots for _ in range(r.multiplicity)]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("coeffs, want", [
        ([1, 0, 1], [-1j, 1j]),
        ([1, 0, 0, 0, 1], [cmath.exp(1j * math.pi * (2 * k + 1) / 4)
                           for k in range(4)]),
        # (u - 2)**2 (u**2 + 1e-12): a pair 1e-6 off the real axis
        (np.polymul([1, -4, 4], [1, 0, 1e-12])[::-1], [-1e-6j, 1e-6j]),
    ])
    def test_real_polynomials_keep_non_real_roots(self, coeffs, want):
        non_real = [r.value for r in scalar_roots(coeffs) if r.value.imag]
        assert len(non_real) == len(want)
        for w in want:
            assert min(abs(v - w) for v in non_real) <= 1e-12

    @pytest.mark.parametrize("degree", [4, 6])
    def test_roots_of_u_to_the_degree_plus_one_are_conjugates(self, degree):
        coeffs = [1] + [0] * (degree - 1) + [1]
        values = [r.value for r in scalar_roots(coeffs)]
        assert sorted(values, key=lambda v: (v.real, v.imag)) == values
        assert {v.conjugate() for v in values} == set(values)
        for k in range(degree):
            want = cmath.exp(1j * math.pi * (2 * k + 1) / degree)
            assert min(abs(v - want) for v in values) <= 1e-15

    def test_real_polynomials_give_exact_conjugate_pairs(self):
        # 500 real polynomials of degree 2-6 built from real roots and
        # conjugate pairs: every non-real root's conjugate is a root of
        # the same multiplicity, bit for bit, near the constructed one
        rng = np.random.default_rng(2)
        for _ in range(500):
            pairs = 3 * rng.normal(size=int(rng.integers(1, 4))) * (
                1 + 1j * rng.uniform(0.05, 1.0))
            reals = 3 * rng.normal(size=int(rng.integers(0, 3)))
            want = [*pairs, *pairs.conjugate(), *reals]
            roots = scalar_roots(np.poly(want)[::-1].real)
            found = {r.value: r.multiplicity for r in roots}
            assert all(found.get(v.conjugate()) == ell
                       for v, ell in found.items())
            got = [r.value for r in roots for _ in range(r.multiplicity)]
            for v in want:
                assert min(abs(g - v) for g in got) <= 1e-9 * (1 + abs(v))

    def test_complex_polynomials_keep_unpaired_roots(self):
        # a root 1e-9 off the conjugate of another: with complex
        # coefficients the two are not averaged into a pair
        want = [1 + 1j, 1 - 1j + 1e-9]
        values = [r.value for r in scalar_roots(np.poly(want)[::-1])]
        assert len(values) == 2
        for v in want:
            assert min(abs(g - v) for g in values) <= 1e-14

    def test_zero_top_coefficient_lowers_degree(self):
        (r,) = scalar_roots([1, -1, 0])
        assert (r.value, r.multiplicity) == (1, 1)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            scalar_roots([math.nan, 1])

    def test_double_root(self):
        roots = scalar_roots([4.0, -4.0, 1.0])
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(2.0, abs=1e-9)
        assert roots[0].multiplicity == 2
        assert not roots[0].simple

    def test_triple_and_simple(self):
        # (u-3)(u-1)^3
        roots = scalar_roots([3.0, -10.0, 12.0, -6.0, 1.0])
        assert spectrum_dict(roots) == {1.0 + 0j: 3, 3.0 + 0j: 1}
        for r in roots:
            assert abs(r.value - round(r.value.real)) < 1e-7

    def test_multiplicities_sum_to_degree(self, rng):
        for _ in range(20):
            deg = int(rng.integers(1, 7))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            roots = scalar_roots(c)
            assert sum(r.multiplicity for r in roots) == deg
            for r in roots:
                assert abs(np.polyval(c[::-1], r.value)) < 1e-6 * max(
                    1.0, np.abs(c).max())

    def test_sorted_by_real_then_imag(self):
        roots = scalar_roots(np.poly([3.0, -1.0, 1j, -1j])[::-1])
        vals = [r.value for r in roots]
        assert vals == sorted(vals, key=lambda v: (v.real, v.imag))

    def test_scaled_input_same_roots(self):
        a = scalar_roots([2.0, -3.0, 1.0])
        b = scalar_roots([4.0, -6.0, 2.0])
        assert [r.value for r in a] == pytest.approx([r.value for r in b])

    @pytest.mark.parametrize("coeffs, modulus, deg", [
        # u**25 + 1e13: an Aberth start radius of 1 + 1e13 overflows
        # z**25, which once gave 25 nan roots flagged simple
        ([1e13] + [0] * 24 + [1], 1e13 ** (1 / 25), 25),
        # u**3 + 1e150 and u**2 + 1e300: the leading 1 was trimmed as
        # small next to the constant, leaving "degree 0"
        ([1e150, 0, 0, 1], 1e50, 3),
        ([1e300, 0, 1], 1e150, 2),
    ])
    def test_extreme_constant_terms(self, coeffs, modulus, deg):
        roots = scalar_roots(coeffs)
        # the roots of u**deg = -c are the deg-th roots of -1 scaled
        want = [modulus * cmath.exp(1j * cmath.pi * (2 * k + 1) / deg)
                for k in range(deg)]
        assert len(roots) == deg
        assert all(r.simple for r in roots)
        for w in want:
            got = min(roots, key=lambda r: abs(r.value - w))
            assert abs(got.value - w) <= 1e-12 * modulus

    def test_triple_root_stops_early(self, monkeypatch):
        # the stall circle of the triple root keeps every step above
        # the plain stop test; all 500 rounds took 4036 evaluations
        import zeon.solve as solve_mod

        calls = []
        horner = solve_mod._horner

        def counted(c, z):
            calls.append(z)
            return horner(c, z)

        monkeypatch.setattr(solve_mod, "_horner", counted)
        roots = scalar_roots(np.poly([1.0, 1.0, 1.0, 2.0])[::-1])
        assert spectrum_dict(roots) == {1.0 + 0j: 3, 2.0 + 0j: 1}
        assert len(calls) < 1000

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            scalar_roots([1.0])

    def test_high_multiplicity_cluster(self):
        # (u-1)^5: the approximations stall on a wide circle; the
        # cluster step must still collapse them to one root
        c = np.poly([1.0] * 5)[::-1]
        roots = scalar_roots(c)
        assert len(roots) == 1
        assert roots[0].multiplicity == 5
        assert roots[0].value == pytest.approx(1.0, abs=1e-6)

    def test_cluster_eps_comes_from_the_tolerance_in_force(self):
        # roots 1e-5 apart: simple at the default cluster_eps, one
        # double root at their mean once it is 1e-3
        c = np.poly([1.0, 1.0 + 1e-5])[::-1]
        apart = scalar_roots(c)
        assert [r.multiplicity for r in apart] == [1, 1]
        assert abs(apart[0].value - 1.0) <= 1e-10
        assert abs(apart[1].value - (1.0 + 1e-5)) <= 1e-10
        with tolerance(Tolerance(cluster_eps=1e-3)):
            (double,) = scalar_roots(c)
            assert (double.multiplicity, double.simple) == (2, False)
            assert double.value == pytest.approx(1.000005, abs=1e-12)
            (seen,) = split(ZeonPoly.from_scalars(1, list(c))).scalar_spectrum
            assert seen.multiplicity == 2
            assert seen.value == pytest.approx(1.000005, abs=1e-12)

    @pytest.mark.parametrize("roots", [[1.0, 2.0, 3.0], [1.0] * 4,
                                       [1.0, 1.0 + 1e-9, -2.0]])
    def test_approximations_merge_in_one_pass(self, monkeypatch, roots):
        import zeon.solve as solve_mod

        calls = []
        cluster = solve_mod._cluster_and_polish

        def counted(*args):
            calls.append(args)
            return cluster(*args)

        monkeypatch.setattr(solve_mod, "_cluster_and_polish", counted)
        scalar_roots(np.poly(roots)[::-1])
        assert len(calls) == 1

    def test_a_bridging_approximation_merges_two_groups(self):
        # 1 - d and 1 + d are 2d apart, beyond the merge distance 1.5d,
        # until 1 joins both; the groups come out by least index
        d = 0.01
        monic = list(np.poly([1.0, 1.0, 1.0, 5.0])[::-1])
        out = _cluster_and_polish(monic, [1 - d, 5.0, 1 + d, 1.0], 1.5 * d,
                                  [0.0] * 4, True)
        assert [ell for _, ell in out] == [3, 1]
        assert abs(out[0][0] - 1.0) < 1e-12
        assert abs(out[1][0] - 5.0) < 1e-12


def constructed_spectrum(seed: int) -> list[tuple[complex, int]]:
    """Roots in the square [-2, 2]**2, at least 0.5 apart, with
    multiplicities 1-3 summing to degree 1 + seed % 12; the first root's
    multiplicity cycles through 1, 2, 3 with the seed."""
    rng = np.random.default_rng(seed)
    left = 1 + seed % 12
    spec: list[tuple[complex, int]] = []
    while left:
        m = 1 + seed % 3 if not spec else int(rng.choice([1, 1, 2, 3]))
        m = min(m, left)
        while True:
            r = complex(*rng.uniform(-2.0, 2.0, size=2))
            if all(abs(r - s) >= 0.5 for s, _ in spec):
                break
        spec.append((r, m))
        left -= m
    return spec


class TestScalarRootsOracle:
    """Polynomials built from known roots; expected values come from the
    construction and from numpy's companion-matrix roots."""

    @pytest.mark.parametrize("seed", range(48))
    def test_constructed_roots(self, seed):
        from numpy.polynomial import polynomial as npoly

        spec = constructed_spectrum(seed)
        coeffs = np.poly([r for r, m in spec for _ in range(m)])[::-1]
        roots = scalar_roots(coeffs)
        assert len(roots) == len(spec)
        reference = npoly.polyroots(coeffs)
        for r, m in spec:
            got = min(roots, key=lambda x: abs(x.value - r))
            assert (got.multiplicity, got.simple) == (m, m == 1)
            assert abs(got.value - r) <= 1e-8
            # numpy's m roots nearest an m-fold root scatter about it by
            # about eps**(1/m); their mean is accurate to rounding
            near = reference[np.argsort(abs(reference - got.value))[:m]]
            assert abs(near - got.value).max() <= 10.0 ** (-8.0 / m)
            assert abs(near.mean() - got.value) <= 1e-7

    @pytest.mark.parametrize("c", [1e-20, 1e20])
    @pytest.mark.parametrize("seed", [s for s in range(48) if s % 12 < 5])
    def test_scaled_constructed_roots(self, seed, c):
        # p(u / c) has the constructed roots times c
        spec = constructed_spectrum(seed)
        coeffs = np.poly([r for r, m in spec for _ in range(m)])[::-1]
        roots = scalar_roots([a * c ** -k for k, a in enumerate(coeffs)])
        assert len(roots) == len(spec)
        for r, m in spec:
            got = min(roots, key=lambda x: abs(x.value - r * c))
            assert (got.multiplicity, got.simple) == (m, m == 1)
            assert abs(got.value - r * c) <= 1e-8 * c


# -- spectral lifts ---------------------------------------------------------


class TestShift:
    """``_shift(c, z)``: the Taylor coefficients at ``z``."""

    def random_case(self, rng):
        deg = int(rng.integers(1, 9))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        z = complex(rng.normal(), rng.normal())
        return [complex(x) for x in c], z

    def test_matches_scaled_derivatives(self, rng):
        from numpy.polynomial import polynomial as npoly

        for _ in range(50):
            c, z = self.random_case(rng)
            got = _shift(c, z)
            assert len(got) == len(c)
            for k, b in enumerate(got):
                der = npoly.polyder(c, k)
                want = npoly.polyval(z, der)
                scale = npoly.polyval(abs(z), np.abs(der))
                assert abs(b * math.factorial(k) - want) <= 1e-13 * scale

    def test_shift_back_restores(self, rng):
        for _ in range(50):
            c, z = self.random_case(rng)
            back = _shift(_shift(c, z), -z)
            assert np.allclose(back, c, rtol=0,
                               atol=1e-12 * (1 + abs(z)) ** len(c))

    def test_real_input_stays_real(self, rng):
        c = [float(x) for x in rng.normal(size=6)]
        got = _shift(c, -1.5)
        assert all(type(b) is float for b in got)
        assert all(type(b) is float for b in _shift([abs(a) for a in c], 1.5))


def lift_from(phi, seed):
    """The grade-by-grade lift of ``phi`` from the zeon ``seed``."""
    f = phi.scalar_projection()
    g0 = _horner(_der(f), seed.scalar_part())
    return _lift(phi, seed, g0, max(map(abs, f)))


class TestSpectrallySimpleZero:
    def test_linear_dual_root(self):
        phi = ZeonPoly.from_roots(2, [Zeon.scalar(2, 2.0) + Z1])
        out = spectrally_simple_zero(phi, 2.0)
        assert out.zero.isclose(Zeon.scalar(2, 2.0) + Z1)
        assert out.seed.value == pytest.approx(2.0)
        assert out.seed.simple

    def test_square_root_of_dual(self):
        # u^2 - (1+2 z1): zero above 1 is 1 + z1, one correction step
        phi = ZeonPoly([Zeon.scalar(2, -1.0) - Z1.scale(2.0),
                        Zeon.zero(2), Zeon.one(2)], n=2)
        out = spectrally_simple_zero(phi, 1.0)
        assert out.zero.isclose(Zeon.one(2) + Z1)
        assert out.grade_trace == (1,)
        assert out.iterations == 1

    def test_quartic_with_dual_coeffs(self):
        out = spectrally_simple_zero(quartic_with_dual_coeffs(), 3.0)
        want = Zeon(4, {(): 3, (1, 2): 0.5, (1, 3): 0.5, (1, 4): 0.5})
        assert out.zero.isclose(want)
        assert out.residual <= 1e-12
        assert out.grade_trace == (2,)

    def test_seed_is_polished(self):
        phi = ZeonPoly.from_roots(2, [Zeon.scalar(2, 2.0) + Z12])
        out = spectrally_simple_zero(phi, 2.0 + 1e-5)
        assert out.zero.isclose(Zeon.scalar(2, 2.0) + Z12)
        assert out.seed.value == pytest.approx(2.0, abs=1e-12)

    def test_scalar_invariant(self, rng):
        # C(zero) equals the polished seed exactly, and the grade trace
        # increases strictly
        for _ in range(10):
            roots = [random_zeon(rng, 3) for _ in range(2)]
            lam0 = roots[0].scalar_part()
            if abs(lam0 - roots[1].scalar_part()) < 1e-3:
                continue
            phi = ZeonPoly.from_roots(3, roots)
            out = spectrally_simple_zero(phi, lam0)
            assert out.zero.scalar_part() == out.seed.value
            assert all(a < b for a, b in
                       zip(out.grade_trace, out.grade_trace[1:]))
            assert phi.eval(out.zero).max_abs() < 1e-8

    def test_far_seed_polished_into_basin(self):
        # the seed is only a starting point: Newton pulls it to a root
        phi = ZeonPoly.from_scalars(2, [-1.0, 0.0, 1.0])
        assert spectrally_simple_zero(phi, 5.0).zero.isclose(Zeon.one(2))

    def test_non_root_seed_rejected(self):
        # 0 is the critical point of u**2 - 1; refinement goes nowhere
        phi = ZeonPoly.from_scalars(2, [-1.0, 0.0, 1.0])
        with pytest.raises(NotSpectrallySimple, match=r"^seed 0 is not a root "):
            spectrally_simple_zero(phi, 0.0)

    def test_multiple_root_seed_rejected(self):
        phi = ZeonPoly.from_scalars(2, [1.0, -2.0, 1.0])
        with pytest.raises(NotSpectrallySimple,
                           match=r"^seed 1 is a multiple root "):
            spectrally_simple_zero(phi, 1.0)

    def test_nilpotent_lead_rejected(self):
        phi = ZeonPoly([Zeon.one(2), Z1])
        with pytest.raises(LeadingCoefficientNotInvertible):
            spectrally_simple_zero(phi, 1.0)

    def test_lift_forms_no_inverse(self, rng, monkeypatch):
        # from_roots(...) * c has a lead with a nonzero dual part, so a
        # monic form would need c's inverse; the lift works on phi as
        # given, and its zeros are still the constructed roots
        n = 3
        c = Zeon(n, {(): 2.0 - 0.5j, (1,): 0.7, (2, 3): -1.3})
        roots = [Zeon.scalar(n, s) + random_nilpotent(rng, n)
                 for s in (-1.0, 0.5 + 1.0j, 2.0)]
        phi = ZeonPoly.from_roots(n, roots) * c
        assert not phi.lead.dual_part().is_zero()

        def no_inverse(self):
            raise AssertionError("the lift formed an inverse")

        monkeypatch.setattr(Zeon, "inverse", no_inverse)
        for r in roots:
            lifted = spectrally_simple_zero(phi, r.scalar_part()).zero
            assert (lifted - r).max_abs() <= 1e-9
        report = split(phi)
        assert report.warnings == ()
        assert len(report.spectral_zeros) == 3
        for r in roots:
            assert min((z.zero - r).max_abs()
                       for z in report.spectral_zeros) <= 1e-9

    def test_scalar_residual_is_checked_once(self, monkeypatch):
        # corrections carry no scalar part, so the residual's scalar
        # part is the polished seed's and is checked before the loop: a
        # four-pass lift reads no more scalar parts than a one-pass one
        n = 4
        other = Zeon(n, {(): -1.0, (2,): 1.0})
        roots = [Zeon(n, {(): 2.0, (1,): 1.0}),
                 Zeon(n, {(): 2.0, (1,): 1.0, (1, 2): 0.5, (1, 2, 3): 0.25,
                          (1, 2, 3, 4): 2.0})]
        phis = [ZeonPoly.from_roots(n, [r, other]) for r in roots]
        calls = []
        scalar_part = Zeon.scalar_part

        def counted(self):
            calls.append(self)
            return scalar_part(self)

        monkeypatch.setattr(Zeon, "scalar_part", counted)
        counts, traces = [], []
        for phi, r in zip(phis, roots):
            calls.clear()
            out = spectrally_simple_zero(phi, 2.0)
            counts.append(len(calls))
            traces.append(out.grade_trace)
            assert out.zero.isclose(r)
        assert traces == [(1,), (1, 2, 3, 4)]
        assert counts[0] == counts[1]

    def test_unpolished_seed_checked_at_the_tighter_bound(self,
                                                          monkeypatch):
        # with root_eps above eq_eps, a seed 1e-8 off the simple root 1
        # passes root_eps but not eq_eps; without Newton's polish it is
        # refused before the lift
        import zeon.solve

        monkeypatch.setattr(zeon.solve, "_newton", lambda f, fp, z: z)
        phi = ZeonPoly.from_roots(2, [Zeon.one(2) + Z1,
                                      Zeon.scalar(2, 2.0) + Z2])
        with tolerance(Tolerance(root_eps=1e-6)):
            with pytest.raises(NotSpectrallySimple):
                spectrally_simple_zero(phi, 1.0 + 1e-8)
            assert spectrally_simple_zero(phi, 1.0).zero.isclose(
                Zeon.one(2) + Z1)

    def test_exact_zeon_seed_takes_no_correction(self, rng):
        # the lift shared with preimage starts from a zeon point
        for n in (2, 4, 6):
            roots = [Zeon.scalar(n, s) + random_nilpotent(rng, n)
                     for s in (-1.5, 0.5 - 1.0j, 2.0)]
            phi = ZeonPoly.from_roots(n, roots)
            for r in roots:
                zero, trace, _ = lift_from(phi, r)
                assert trace == ()
                assert zero.isclose(r)

    def test_seed_exact_below_grade_two_is_lifted_from_grade_two(self, rng):
        n = 4
        roots = [Zeon.scalar(n, s) + random_nilpotent(rng, n)
                 for s in (-1.5, 0.5 - 1.0j, 2.0)]
        phi = ZeonPoly.from_roots(n, roots)
        for r in roots:
            low = r.grade_part(0) + r.grade_part(1)
            want = spectrally_simple_zero(phi, r.scalar_part()).zero
            for junk in (0.0, 7.0):
                seed = low + Zeon.blade(n, (1, 2, 3)).scale(junk)
                zero, trace, _ = lift_from(phi, seed)
                assert all(g >= 2 for g in trace)
                assert zero.isclose(want)
            assert 3 in trace

    def test_lift_adds_each_correction_once(self, rng, monkeypatch):
        # the update adds the scaled correction; a subtraction would
        # negate it a second time
        n = 4
        roots = [Zeon.scalar(n, s) + random_nilpotent(rng, n)
                 for s in (-1.5, 0.5 - 1.0j, 2.0)]
        phi = ZeonPoly.from_roots(n, roots)

        def no_sub(self, other):
            raise AssertionError("the lift subtracted")

        monkeypatch.setattr(Zeon, "__sub__", no_sub)
        for r in roots:
            lifted = spectrally_simple_zero(phi, r.scalar_part()).zero
            assert lifted.add(r.scale(-1.0)).max_abs() <= 1e-9


# -- split ------------------------------------------------------------------


class TestSplit:
    def test_two_simple_dual_roots(self):
        # u^2 - (3+z1)u + (2+z1) = (u-1)(u-(2+z1))
        phi = ZeonPoly(
            [Zeon.scalar(2, 2.0) + Z1, Zeon.scalar(2, -3.0) - Z1,
             Zeon.one(2)], n=2)
        report = split(phi)
        assert spectrum_dict(report.scalar_spectrum) == {
            1.0 + 0j: 1, 2.0 + 0j: 1}
        zeros = sorted(
            (z.zero for z in report.spectral_zeros),
            key=lambda u: u.scalar_part().real)
        assert zeros[0].isclose(Zeon.one(2))
        assert zeros[1].isclose(Zeon.scalar(2, 2.0) + Z1)
        assert report.families == ()
        assert report.warnings == ()

    def test_quartic_report(self):
        report = split(quartic_with_dual_coeffs())
        assert spectrum_dict(report.scalar_spectrum) == {
            1.0 + 0j: 3, 3.0 + 0j: 1}
        assert len(report.spectral_zeros) == 1
        z = report.spectral_zeros[0]
        assert z.zero.isclose(
            Zeon(4, {(): 3, (1, 2): 0.5, (1, 3): 0.5, (1, 4): 0.5}))
        # the triple root has no spectrally simple zero and the
        # coefficients are not all scalar, so it surfaces as a warning
        assert len(report.warnings) == 1
        assert "multiplicity 3" in report.warnings[0]
        assert report.input_digest

    def test_scalar_multiple_root_family(self):
        # (u-1)^2 with scalar coefficients: full multiplicity family
        phi = ZeonPoly.from_scalars(2, [1.0, -2.0, 1.0])
        report = split(phi)
        (fam,) = report.families
        assert fam.kind is ZeroSetKind.MULTIPLICITY_FAMILY
        assert fam.family_spec.nilpotency_bound == 2
        assert fam.family_spec.base.isclose(Zeon.one(2))
        # spot-check: 1 + z1 + 5 z{1,2} has (d)**2 = 0, so it is a zero
        member = Zeon(2, {(): 1, (1,): 1, (1, 2): 5})
        assert phi.eval(member).max_abs() < 1e-12

    def test_cube_roots_of_unity(self):
        phi = ZeonPoly.from_scalars(2, [-1.0, 0.0, 0.0, 1.0])
        report = split(phi)
        assert len(report.spectral_zeros) == 3
        for z in report.spectral_zeros:
            assert abs(z.zero.scalar_part() ** 3 - 1) < 1e-9
            assert z.zero.dual_part().is_zero()

    def test_monicized_input(self):
        phi = 2.0 * ZeonPoly.from_scalars(1, [-2.0, 1.0])
        report = split(phi)
        assert report.spectral_zeros[0].zero.isclose(Zeon.scalar(1, 2.0))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            split(ZeonPoly.from_scalars(1, [5.0]))

    def test_nilpotent_lead_rejected(self):
        with pytest.raises(LeadingCoefficientNotInvertible):
            split(ZeonPoly([Zeon.one(2), Z1]))

    def test_digest_tracks_input(self):
        a = split(ZeonPoly.from_scalars(1, [-1.0, 1.0]))
        b = split(ZeonPoly.from_scalars(1, [-2.0, 1.0]))
        assert a.input_digest != b.input_digest

    def test_rounded_multiple_root_degrades_to_warning(self):
        # four roots sharing a scalar part: expansion rounding splits the
        # 4-fold scalar root into nearby simple ones whose lift has no
        # simplicity margin; the report must still come back whole
        base = Zeon.scalar(2, 2.0 + 0.1j)
        roots = [base + Z1, base + Z2, base + Z1 + Z2,
                 base + Z12.scale(2.0)]
        report = split(ZeonPoly.from_roots(2, roots))
        assert report.warnings
        assert sum(r.multiplicity for r in report.scalar_spectrum) == 4

    def test_stalled_lift_degrades_to_warning(self):
        # scalar parts 1e-6 apart: the lift above the reported root near
        # 1.000001 divides by a derivative of about 1e-6 and stalls above
        # eq_eps; the report lifts the other root and warns on this one
        phi = ZeonPoly.from_roots(3, [
            Zeon(3, {(): 1, (1,): 1, (3,): 1}),
            Zeon(3, {(): 1.000001, (2,): 1, (1, 2, 3): 1})])
        report = split(phi)
        assert len(report.spectral_zeros) == 1
        assert abs(report.spectral_zeros[0].zero.scalar_part() - 1) < 1e-9
        (warning,) = report.warnings
        assert "stalled" in warning

    def test_points_read_back_as_cli_literals(self):
        # a family's text and each warning name the scalar root in the
        # CLI's complex grammar, so the point parses back to the root
        c = Zeon.scalar(2, 0.5 - 1.25j)
        cases = [
            (ZeonPoly.from_roots(2, [c, c]),
             lambda r: r.families[0].family_spec.text, " + d for every "),
            (ZeonPoly.from_roots(2, [c, c + Z1]),
             lambda r: r.warnings[0], " has multiplicity "),
            (ZeonPoly.from_roots(3, [
                Zeon(3, {(): 1, (1,): 1, (3,): 1}),
                Zeon(3, {(): 1.000001, (2,): 1, (1, 2, 3): 1})]),
             lambda r: r.warnings[0], " resisted lifting: "),
        ]
        for phi, text_of, after in cases:
            report = split(phi)
            text = text_of(report)
            point = text.removeprefix("scalar root ").split(after)[0]
            assert parse_complex(point) in {
                r.value for r in report.scalar_spectrum}, text

    def test_real_coefficients_lift_real_roots_to_real_zeros(self, rng):
        # with real zeon coefficients, every correction of the lift above
        # a real scalar root is real: the zero has no imaginary part
        def real_zeon(n, scalar):
            terms = [((), scalar)]
            for _ in range(int(rng.integers(1, 8))):
                size = int(rng.integers(1, n + 1))
                terms.append((tuple(sorted(rng.choice(
                    np.arange(1, n + 1), size=size, replace=False).tolist())),
                    float(rng.normal())))
            return Zeon(n, terms)

        lifts = 0
        for _ in range(200):
            n, degree = int(rng.integers(1, 7)), int(rng.integers(2, 7))
            phi = ZeonPoly([real_zeon(n, float(rng.normal()))
                            for _ in range(degree)]
                           + [real_zeon(n, 1.0 + float(rng.uniform()))])
            for out in split(phi).spectral_zeros:
                if out.seed.value.imag == 0:
                    lifts += 1
                    assert not any(complex(c).imag
                                   for _, c in out.zero.terms()), phi
        assert lifts > 200


# -- nilpotent zero classification ------------------------------------------


class TestClassify:
    def test_valuation_two_gives_family(self):
        out = classify_nilpotent_zeros([0.0, 0.0, 1.0], n=3)
        assert out.kind is ZeroSetKind.NILPOTENT_FAMILY
        assert out.family_spec.nilpotency_bound == 2
        (witness,) = out.zeros
        assert witness == Zeon.blade(3, (1,))

    def test_valuation_one_empty(self):
        out = classify_nilpotent_zeros([0.0, 1.0], n=2)
        assert out.kind is ZeroSetKind.EMPTY

    def test_nonzero_constant_empty(self):
        out = classify_nilpotent_zeros([1.0, 0.0, 0.0, 1.0], n=2)
        assert out.kind is ZeroSetKind.EMPTY

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            classify_nilpotent_zeros([0.0, 0.0], n=2)

    def test_tiny_constant_agrees_with_membership(self):
        # f(z{1}) = 1e-20, not 0: the classification and the membership
        # test read the same valuation, 0, so neither finds a zero
        coeffs = [1e-20, 0.0, 1.0]
        out = classify_nilpotent_zeros(coeffs, n=2)
        assert out.kind is ZeroSetKind.EMPTY
        assert not is_extension_zero(coeffs, Zeon.blade(2, (1,)))

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError):
            classify_nilpotent_zeros([0.0, 0.0, 1.0], n=0)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_agrees_with_exhaustive_blade_search(self, d):
        # f(u) = u**d (1 + u) over n = 4: check every single-blade
        # candidate a*z{I} directly against the classification
        n = 4
        coeffs = [0.0] * d + [1.0, 1.0]
        out = classify_nilpotent_zeros(coeffs, n=n)
        phi = ZeonPoly.from_scalars(n, coeffs)
        hits = []
        for mask in range(1, 1 << n):
            ix = tuple(i + 1 for i in range(n) if mask >> i & 1)
            for a in (1.0, 1j, 2.0):
                cand = Zeon.blade(n, ix).scale(a)
                if phi.eval(cand).max_abs() < 1e-12:
                    hits.append(cand)
        if out.kind is ZeroSetKind.EMPTY:
            assert not hits
        else:
            # every single blade is nilpotent of index 2 <= d
            assert len(hits) == 3 * ((1 << n) - 1)


# -- zero set membership ------------------------------------------------------


class TestIsExtensionZero:
    def test_simple_root_scalar_only(self):
        assert is_extension_zero([0.0, 1.0, 1.0], Zeon.scalar(2, -1.0))

    def test_simple_root_rejects_dual_part(self):
        w = Zeon.scalar(2, -1.0) + Z1
        assert not is_extension_zero([0.0, 1.0, 1.0], w)

    def test_double_root_takes_null_square(self):
        # (u + 1/2)^2: -1/2 + a z1 is a zero for every a
        w = Zeon.scalar(2, -0.5) + Z1.scale(3.7j)
        assert is_extension_zero([0.25, 1.0, 1.0], w)

    def test_double_root_rejects_index_three(self):
        # kappa(z1 + z2) = 3 exceeds multiplicity 2
        w = Zeon.scalar(2, -0.5) + Z1 + Z2
        assert not is_extension_zero([0.25, 1.0, 1.0], w)

    def test_quartic_accepts_every_dual(self):
        # (u-1)^4 over n=2: kappa of any dual part is at most 3
        coeffs = [1.0, -4.0, 6.0, -4.0, 1.0]
        assert is_extension_zero(coeffs, Zeon(2, {(): 1, (1,): 2, (2,): -1j}))

    def test_non_root_scalar_part(self):
        assert not is_extension_zero([0.0, 1.0, 1.0], Zeon.scalar(2, 5.0))

    def test_zero_polynomial_takes_every_element(self, rng):
        # the extension of the zero polynomial vanishes at every element,
        # nilpotent duals of any index included
        for n in range(1, 5):
            blades = sum(generators(n), Zeon.zero(n))
            for w in (random_zeon(rng, n), blades, blades + 2.5,
                      Zeon.scalar(n, -1j)):
                for deg in range(3):
                    zeros = [scalar(n, 0)] * (deg + 1)
                    assert not horner(zeros, to_dense(w)).any()
                    assert is_extension_zero([0.0] * (deg + 1), w)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            is_extension_zero([], Zeon.one(1))

    def test_matches_direct_evaluation(self, rng):
        # membership agrees with evaluating the polynomial extension
        coeffs = [0.25, 1.0, 1.0]
        phi = ZeonPoly.from_scalars(3, coeffs)
        for _ in range(40):
            w = random_zeon(rng, 3)
            if rng.random() < 0.5:
                w = Zeon.scalar(3, -0.5) + w.dual_part()
            direct = phi.eval(w).max_abs() < 1e-9
            assert is_extension_zero(coeffs, w) == direct

    @pytest.mark.parametrize("c", [1e-11, 1.0, 1e20])
    def test_root_test_scales_with_the_coefficients(self, c):
        # u**2 - 2c**2 has the simple root sqrt(2) c at every scale, and
        # (u - c)**2 the double root c: the root test must scale with
        # the coefficients, or small ones make every root look multiple
        w = Zeon.scalar(1, math.sqrt(2.0) * c)
        dual = Zeon.blade(1, (1,))
        assert not is_extension_zero([-2.0 * c * c, 0.0, 1.0], w + dual)
        assert is_extension_zero([-2.0 * c * c, 0.0, 1.0], w)
        assert is_extension_zero([c * c, -2.0 * c, 1.0],
                                 Zeon.scalar(1, c) + dual)


# -- multiple zero families ---------------------------------------------------


class TestMultipleZeroFamily:
    def test_distinct_zeros_same_scalar(self):
        w1 = Zeon.one(2) + Z1
        w2 = Zeon.one(2) + Z2
        phi = ZeonPoly.from_roots(2, [w1, w2])
        fam = multiple_zero_family(phi, w1, w2)
        assert fam.kind is ZeroSetKind.MULTIPLICITY_FAMILY
        assert fam.zeros == (w1, w2)
        assert fam.family_spec.direction == Z12
        # verified family: w1 + a z{1,2} is a zero for arbitrary a
        member = w1 + Z12.scale(-3.25 + 1j)
        assert phi.eval(member).max_abs() < 1e-12

    def test_same_zero_twice_with_multiplicity(self):
        w = Zeon(3, {(): 1, (1,): 1})
        for phi, w1 in (
                (ZeonPoly.from_roots(2, [Zeon.one(2), Zeon.one(2)]),
                 Zeon.one(2)),
                (ZeonPoly.from_roots(3, [w, w, Zeon.scalar(3, 2.0)]), w)):
            fam = multiple_zero_family(phi, w1, w1)
            assert fam.zeros == (w1,)
            assert fam.family_spec.base.isclose(w1)

    def test_rejects_non_zero(self):
        phi = ZeonPoly.from_roots(2, [Zeon.one(2), Zeon.one(2)])
        with pytest.raises(FamilyPreconditionError):
            multiple_zero_family(phi, Zeon.scalar(2, 2.0), Zeon.one(2))

    def test_rejects_different_scalar_parts(self):
        phi = ZeonPoly.from_roots(2, [Zeon.one(2), Zeon.scalar(2, 2.0)])
        with pytest.raises(FamilyPreconditionError):
            multiple_zero_family(phi, Zeon.one(2), Zeon.scalar(2, 2.0))

    def test_rejects_a_family_failing_on_a_sample_member(self):
        # phi = 0.01 (u - 2) at n = 1: w2 = 2 + 1e-8 z{1} evaluates to
        # 1e-10 z{1}, within eq_eps, and lies more than eq_eps from w1,
        # so both pass as zeros; but w1 + z{1} evaluates to 0.01 z{1}
        phi = ZeonPoly.from_scalars(1, [-0.02, 0.01])
        w1, w2 = Zeon.scalar(1, 2.0), Zeon(1, {(): 2.0, (1,): 1e-8})
        with pytest.raises(FamilyPreconditionError, match="sample member"):
            multiple_zero_family(phi, w1, w2)

    def test_rejects_simple_zero_passed_twice(self):
        # the second case shares its scalar root, but (u - w)**2 does
        # not divide it: phi'(w) = z{1} - z{2}
        w = Zeon(3, {(): 1, (1,): 1})
        for phi, w1 in (
                (ZeonPoly.from_roots(2, [Zeon.one(2), Zeon.scalar(2, 2.0)]),
                 Zeon.one(2)),
                (ZeonPoly.from_roots(3, [w, Zeon(3, {(): 1, (2,): 1})]), w)):
            with pytest.raises(FamilyPreconditionError):
                multiple_zero_family(phi, w1, w1)

    def test_rejects_mixed_n(self):
        phi = ZeonPoly.from_roots(2, [Zeon.one(2), Zeon.one(2)])
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=1$"):
            multiple_zero_family(phi, Zeon.one(1), Zeon.one(1))
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=1$"):
            multiple_zero_family(phi, Zeon.one(2), Zeon.one(1))
