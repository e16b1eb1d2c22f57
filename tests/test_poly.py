"""Polynomial layer: construction, division, discriminants, quadratics.

Frozen expected values in this file were computed with the dense
reference in ``oracle.py`` (see the derivation comments next to each).
"""

import numpy as np
import pytest

import zeon.poly
from zeon import (
    DimensionMismatch,
    DivisorNotMonicizable,
    LeadingCoefficientNotInvertible,
    QuadraticKind,
    SqrtNotFound,
    Zeon,
    ZeonPoly,
    discriminant,
    divide,
    nilpotent_sqrt,
    quadratic_solve,
    remainder_at,
)

from conftest import random_invertible, random_zeon, to_dense
from oracle import dense_mul, dense_poly_eval, dense_zero

Z1 = Zeon.blade(2, (1,))
Z2 = Zeon.blade(2, (2,))
Z12 = Zeon.blade(2, (1, 2))


def scalar_poly(n, *cs):
    return ZeonPoly.from_scalars(n, cs)


# -- construction and queries -------------------------------------------


class TestConstruction:
    def test_trailing_zero_coefficients_dropped(self):
        p = ZeonPoly([Zeon.one(2), Zeon.zero(2), Zeon.zero(2)], n=2)
        assert p.degree == 0
        assert len(p.coeffs) == 1

    def test_zero_polynomial_degree(self):
        assert ZeonPoly.zero(3).degree == -1
        assert ZeonPoly.zero(3).is_zero()

    def test_lead_of_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            ZeonPoly.zero(1).lead

    def test_scalars_coerced(self):
        p = ZeonPoly([1.0, 2.0 + 1j], n=2)
        assert p.coeff(0) == Zeon.scalar(2, 1.0)
        assert p.coeff(1) == Zeon.scalar(2, 2.0 + 1j)

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            ZeonPoly([Zeon.one(1), Zeon.one(2)])

    def test_n_inferred_from_coefficients(self):
        p = ZeonPoly([Z1, Z12])
        assert p.n == 2

    def test_coeff_beyond_degree_is_zero(self):
        p = scalar_poly(1, 1.0, 1.0)
        assert p.coeff(5) == Zeon.zero(1)

    def test_from_scalars(self):
        p = ZeonPoly.from_scalars(2, [1.0, 0.0, 3.0])
        assert p.degree == 2
        assert p.coeff(1) == Zeon.zero(2)

    def test_monomial(self):
        p = ZeonPoly.monomial(2, 3, 2.0)
        assert p.degree == 3
        assert p.coeff(3) == Zeon.scalar(2, 2.0)
        assert p.coeff(0) == Zeon.zero(2)

    def test_from_roots_expands_product(self):
        # (u - (1+z1)) (u - (1+z2)):
        #   c0 = (1+z1)(1+z2) = 1 + z1 + z2 + z{1,2}
        #   c1 = -(2 + z1 + z2), c2 = 1        [oracle-checked]
        p = ZeonPoly.from_roots(2, [Zeon.one(2).add(Z1), Zeon.one(2).add(Z2)])
        assert p.coeff(0) == Zeon(2, {(): 1, (1,): 1, (2,): 1, (1, 2): 1})
        assert p.coeff(1) == Zeon(2, {(): -2, (1,): -1, (2,): -1})
        assert p.coeff(2) == Zeon.one(2)

    def test_coeffs_immutable(self):
        p = scalar_poly(1, 1.0, 2.0)
        with pytest.raises(TypeError):
            p.coeffs[0] = Zeon.zero(1)
        with pytest.raises(AttributeError):
            p.n = 5

    def test_is_scalar(self):
        assert scalar_poly(2, 1.0, 2.0).is_scalar()
        assert not ZeonPoly([Z1, Zeon.one(2)]).is_scalar()

    def test_scalar_projection(self):
        # C(u^2 + z1 u + (2 + z{1,2})) = u^2 + 2
        p = ZeonPoly([Zeon.scalar(2, 2.0).add(Z12), Z1, Zeon.one(2)])
        assert np.allclose(p.scalar_projection(), [2.0, 0.0, 1.0])

    def test_scalar_projection_of_zero_polynomial(self):
        assert np.array_equal(ZeonPoly.zero(2).scalar_projection(), [0.0])


# -- evaluation ----------------------------------------------------------


class TestEval:
    def test_square_at_dual_point(self):
        # (1+z1)^2 = 1 + 2 z1
        p = ZeonPoly.monomial(2, 2)
        assert p.eval(Zeon.one(2).add(Z1)) == Zeon(2, {(): 1, (1,): 2})

    def test_constant(self):
        p = scalar_poly(2, 7.0)
        assert p.eval(Z12) == Zeon.scalar(2, 7.0)

    def test_scalar_quartic_at_root(self):
        # (u-3)(u-1)^3 = u^4 - 6u^3 + 12u^2 - 10u + 3 vanishes at 3
        p = scalar_poly(1, 3.0, -10.0, 12.0, -6.0, 1.0)
        assert p.eval(3.0).max_abs() < 1e-12

    def test_call_alias(self):
        p = scalar_poly(1, 1.0, 1.0)
        assert p(Z1.int_like()) if hasattr(Z1, "int_like") else True
        assert p(2.0) == Zeon.scalar(1, 3.0)

    def test_eval_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            scalar_poly(2, 1.0).eval(Zeon.one(3))

    def test_eval_matches_dense_oracle(self, rng):
        for n in (1, 2, 3, 4):
            coeffs = [random_zeon(rng, n) for _ in range(4)]
            p = ZeonPoly(coeffs, n=n)
            u = random_zeon(rng, n)
            want = dense_poly_eval([to_dense(c) for c in coeffs], to_dense(u))
            assert np.allclose(to_dense(p.eval(u)), want, atol=1e-12)


# -- arithmetic ----------------------------------------------------------


class TestArithmetic:
    def test_add_sub(self):
        p = scalar_poly(2, 1.0, 2.0)
        q = ZeonPoly([Z1], n=2)
        s = p + q
        assert s.coeff(0) == Zeon(2, {(): 1, (1,): 1})
        assert (s - q) == p

    def test_add_cancels_degree(self):
        p = scalar_poly(1, 0.0, 1.0)
        q = scalar_poly(1, 1.0, -1.0)
        assert (p + q).degree == 0

    def test_scalar_multiple(self):
        p = scalar_poly(1, 1.0, 1.0)
        assert (2.0 * p).coeff(1) == Zeon.scalar(1, 2.0)
        assert (p * 2.0).coeff(0) == Zeon.scalar(1, 2.0)

    def test_product_against_convolution(self, rng):
        n = 3
        a = [random_zeon(rng, n) for _ in range(3)]
        b = [random_zeon(rng, n) for _ in range(2)]
        prod = ZeonPoly(a, n=n) * ZeonPoly(b, n=n)
        for k in range(prod.degree + 1):
            acc = dense_zero(n)
            for i, ai in enumerate(a):
                j = k - i
                if 0 <= j < len(b):
                    acc = acc + dense_mul(to_dense(ai), to_dense(b[j]))
            assert np.allclose(to_dense(prod.coeff(k)), acc, atol=1e-12)

    def test_product_by_zero(self):
        p = scalar_poly(2, 1.0, 1.0)
        assert (p * ZeonPoly.zero(2)).is_zero()

    def test_neg(self):
        p = ZeonPoly([Z1, Zeon.one(2)])
        assert (-p).coeff(0) == Z1.scale(-1.0)

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            scalar_poly(1, 1.0) + scalar_poly(2, 1.0)

    def test_eq_and_hash(self):
        p = scalar_poly(2, 1.0, 2.0)
        q = ZeonPoly([Zeon.scalar(2, 1.0), Zeon.scalar(2, 2.0)], n=2)
        assert p == q
        assert hash(p) == hash(q)
        assert p != scalar_poly(2, 1.0)

    def test_isclose(self):
        p = scalar_poly(1, 1.0)
        q = scalar_poly(1, 1.0 + 1e-12)
        assert p.isclose(q)
        assert not p.isclose(scalar_poly(1, 1.0 + 1e-3))

    def test_repr_mentions_text_form(self):
        p = scalar_poly(1, 1.0, 2.0)
        assert "ZeonPoly" in repr(p)


class TestDerivativeMonic:
    def test_derivative(self):
        # d/du (u^3 + z1 u) = 3u^2 + z1
        p = ZeonPoly([Zeon.zero(2), Z1, Zeon.zero(2), Zeon.one(2)])
        d = p.derivative()
        assert d.coeff(0) == Z1
        assert d.coeff(2) == Zeon.scalar(2, 3.0)

    def test_derivative_of_constant(self):
        assert scalar_poly(1, 5.0).derivative().is_zero()

    def test_monic_divides_by_lead(self):
        p = ZeonPoly([Zeon.scalar(1, 2.0), Zeon.scalar(1, 2.0).add(
            Zeon.blade(1, (1,)).scale(2.0))], n=1)
        m = p.monic()
        assert m.lead.isclose(Zeon.one(1))
        # 2 * (2 + 2 z1)^-1 = (1 + z1)^-1 = 1 - z1
        assert m.coeff(0).isclose(
            Zeon.one(1) - Zeon.blade(1, (1,)))

    def test_monic_already_monic_returned_as_is(self):
        p = ZeonPoly([Z1, Zeon.one(2)])
        assert p.monic() is p

    def test_monic_rejects_nilpotent_lead(self):
        with pytest.raises(LeadingCoefficientNotInvertible):
            ZeonPoly([Zeon.one(2), Z1]).monic()

    def test_monic_rejects_zero_polynomial(self):
        with pytest.raises(LeadingCoefficientNotInvertible):
            ZeonPoly.zero(2).monic()


# -- division ------------------------------------------------------------


class TestDivide:
    def test_exact_division(self):
        # u^2 - z1 u ... pick phi = (u + z1) * (u - z1) = u^2 (z1*z1=0)
        # use phi = u^2, psi = u - z1: q = u + z1, r = z1*z1 = 0
        phi = ZeonPoly.monomial(2, 2)
        psi = ZeonPoly([Z1.scale(-1.0), Zeon.one(2)])
        out = divide(phi, psi)
        assert out.quotient == ZeonPoly([Z1, Zeon.one(2)])
        assert out.remainder.is_zero()

    def test_self_division(self):
        p = ZeonPoly([Zeon.one(2).add(Z1), Zeon.zero(2), Zeon.one(2)])
        out = divide(p, p)
        assert out.quotient == scalar_poly(2, 1.0)
        assert out.remainder.is_zero()

    def test_low_degree_numerator(self):
        p = scalar_poly(1, 1.0)
        out = divide(p, scalar_poly(1, 0.0, 1.0))
        assert out.quotient.is_zero()
        assert out.remainder == p

    def test_divisor_with_nilpotent_lead_rejected(self):
        with pytest.raises(DivisorNotMonicizable):
            divide(ZeonPoly.monomial(2, 2), ZeonPoly([Z1]))

    def test_zero_divisor_rejected(self):
        with pytest.raises(DivisorNotMonicizable):
            divide(scalar_poly(1, 1.0), ZeonPoly.zero(1))

    def test_recombination_random(self, rng):
        # psi*q + r == phi and deg r < deg psi, oracle-verified
        for n in (1, 2, 3):
            phi = ZeonPoly([random_zeon(rng, n) for _ in range(5)], n=n)
            psi = ZeonPoly(
                [random_zeon(rng, n), random_zeon(rng, n),
                 random_invertible(rng, n)], n=n)
            out = divide(phi, psi)
            assert out.remainder.degree < psi.degree
            back = psi * out.quotient + out.remainder
            for k in range(5):
                assert np.allclose(
                    to_dense(back.coeff(k)), to_dense(phi.coeff(k)),
                    atol=1e-9)

    def test_remainder_at_equals_eval(self, rng):
        p = ZeonPoly([random_zeon(rng, 3) for _ in range(4)], n=3)
        z = random_zeon(rng, 3)
        assert remainder_at(p, z).isclose(p.eval(z))

    def test_remainder_at_known_value(self):
        # u^2 at 1+z1 -> 1 + 2 z1
        p = ZeonPoly.monomial(2, 2)
        assert remainder_at(p, Zeon.one(2).add(Z1)) == Zeon(
            2, {(): 1, (1,): 2})

    def test_remainder_at_root_is_zero(self):
        p = ZeonPoly.from_roots(2, [Zeon.one(2).add(Z12)])
        assert remainder_at(p, Zeon.one(2).add(Z12)).max_abs() < 1e-14


# -- discriminant --------------------------------------------------------


class TestDiscriminant:
    def test_u2_minus_2u_plus_1_plus_z1(self):
        # disc(1, -2, 1+z1) = 4 - 4(1+z1) = -4 z1   [oracle-checked]
        d = discriminant(Zeon.one(2), Zeon.scalar(2, -2.0),
                         Zeon.one(2).add(Z1))
        assert d == Z1.scale(-4.0)

    def test_dual_coefficients(self):
        # disc(1+z1, z{1,2}-2, 1) = -4 z1 - 4 z{1,2}   [oracle-checked]
        d = discriminant(Zeon.one(2).add(Z1),
                         Z12.add(Zeon.scalar(2, -2.0)),
                         Zeon.one(2))
        assert d == Zeon(2, {(1,): -4, (1, 2): -4})

    def test_zero_discriminant(self):
        d = discriminant(Zeon.one(1), Zeon.scalar(1, -2.0), Zeon.one(1))
        assert d.is_zero()

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            discriminant(Zeon.one(1), Zeon.one(2), Zeon.one(2))


# -- nilpotent square roots ----------------------------------------------


class TestNilpotentSqrt:
    def test_even_grade_root(self):
        w = Z12.scale(2.0)
        v = nilpotent_sqrt(w)
        assert (v.mul(v) - w).max_abs() < 1e-9

    def test_zero_input(self):
        assert nilpotent_sqrt(Zeon.zero(2)).is_zero()

    def test_grade_one_certified(self):
        with pytest.raises(SqrtNotFound) as exc:
            nilpotent_sqrt(Z1)
        assert exc.value.certified

    def test_invertible_input_rejected(self):
        with pytest.raises(ValueError):
            nilpotent_sqrt(Zeon.one(2))

    @pytest.mark.parametrize("v0", [
        # 2 z{1,2,3} = (z1 + z{2,3})^2
        Zeon(3, {(1,): 1, (2, 3): 1}),
        # the bottom blade's scale 0.5 is read from the grade-4 part
        Zeon(5, {(1,): 0.5, (2, 3): 1, (4, 5): 1}),
        Zeon(5, {(1,): 2j, (2, 3): -1, (4, 5): 1, (2, 4): -0.5}),
    ])
    def test_odd_grade_root_found(self, v0, monkeypatch):
        # odd minimum grade: the bottom a z_B comes in closed form, so
        # least squares must not run
        def refuse(*args, **kwargs):
            raise AssertionError("least squares called")

        monkeypatch.setattr(zeon.poly, "least_squares", refuse)
        w = v0.mul(v0)
        v = nilpotent_sqrt(w)
        got = dense_mul(to_dense(v), to_dense(v))
        assert np.abs(got - to_dense(w)).max() < 1e-12

    def test_layered_root(self):
        # 2 z{1,2} + z{1,2,3,4}: bottom layer z1+z2, grade-3 correction
        w = Zeon(4, {(1, 2): 2, (1, 2, 3, 4): 1})
        v = nilpotent_sqrt(w)
        assert (v.mul(v) - w).max_abs() < 1e-8

    def test_unsolvable_even_case_uncertified(self):
        # 2 z{1,2} + 2 z{3,4}: v = a z1 + b z2 + c z3 + d z4 + higher
        # needs ab=1, cd=1, ac=ad=bc=bd=0, impossible; the search cannot
        # prove that, so the failure is reported uncertified.
        w = Zeon(4, {(1, 2): 2, (3, 4): 2})
        with pytest.raises(SqrtNotFound) as exc:
            nilpotent_sqrt(w)
        assert not exc.value.certified

    def test_random_squares_recovered(self, rng):
        for n in (2, 3, 4):
            for _ in range(5):
                v0 = random_zeon(rng, n).dual_part()
                w = v0.mul(v0)
                if w.is_zero():
                    continue
                v = nilpotent_sqrt(w)
                assert (v.mul(v) - w).max_abs() < 1e-8 * max(
                    1.0, w.max_abs())

    @pytest.mark.parametrize("c", [
        -1.0,
        0.5 + 0.5j,
        # first draw of test_random_squares_recovered: the square of
        # (-0.46-0.29i) z1 + (-0.49-0.84i) z2
        -0.04074422208202704 + 1.057615358821158j,
    ])
    def test_grade_two_blade_multiples(self, c):
        # c z{1,2} = (a z1 + b z2)^2 whenever 2ab = c
        w = Z12.scale(c)
        v = nilpotent_sqrt(w)
        got = dense_mul(to_dense(v), to_dense(v))
        assert np.abs(got - to_dense(w)).max() < 1e-12

    @pytest.mark.parametrize("v0", [
        Zeon(6, {(4,): 1, (6,): 2, (1, 2, 5): 1}),
        Zeon(4, {(1,): 1, (2,): 2, (3, 4): 1}),
        # linked third index: a_p**2 = t_pq t_pr / (2 t_qr)
        Zeon(4, {(1,): 1, (2,): 2, (3,): 3}),
    ])
    def test_grade_one_split_read_from_upper_grades(self, v0, monkeypatch):
        # the grade-2 part 4 z{p,q} fixes only a_p a_q = 2; the grade-3
        # blades 2 z{p}K and 4 z{q}K give a_p / a_q = 1/2, so the root
        # comes in closed form and least squares must not run
        def refuse(*args, **kwargs):
            raise AssertionError("least squares called")

        monkeypatch.setattr(zeon.poly, "least_squares", refuse)
        w = v0.mul(v0)
        v = nilpotent_sqrt(w)
        got = dense_mul(to_dense(v), to_dense(v))
        assert np.abs(got - to_dense(w)).max() < 1e-12

    @pytest.mark.parametrize("v0", [
        Zeon(5, {(1, 2): 1, (3, 4): 0.5}),
        Zeon(6, {(1, 2): 1 + 2j, (3, 4): -1, (1, 5, 6): 0.5}),
        Zeon(7, {(1, 2): 1, (3, 4): 1j, (5, 6): 2, (1, 3, 7): -0.5}),
        Zeon(8, {(1, 2): 0.5, (3, 4): 1, (5, 6): -1j, (7, 8): 1}),
        Zeon(6, {(1, 2, 3): 1, (4, 5, 6): 0.5}),
    ])
    def test_bottom_layer_of_grade_two_or_more(self, v0):
        # minimum grade 4 or 6: no closed form for the bottom layer, so
        # the root comes from the least-squares fit
        w = v0.mul(v0)
        v = nilpotent_sqrt(w)
        got = dense_mul(to_dense(v), to_dense(v))
        assert np.abs(got - to_dense(w)).max() < 1e-12


# -- quadratics ----------------------------------------------------------


class TestQuadraticSolve:
    def test_two_distinct_dual_roots(self):
        # u^2 - (3+z1) u + (2+z1) = (u - 1)(u - (2+z1)); w = 1+z1 is the
        # principal sqrt of disc = 1+2z1, so the (+) zero 2+z1 is listed
        # first.   [oracle-checked]
        out = quadratic_solve(
            Zeon.one(2),
            Zeon.scalar(2, -3.0) - Z1,
            Zeon.scalar(2, 2.0).add(Z1),
        )
        assert out.kind is QuadraticKind.TWO_DISTINCT
        assert len(out.zeros) == 2
        assert out.zeros[0].isclose(Zeon(2, {(): 2, (1,): 1}))
        assert out.zeros[1].isclose(Zeon.one(2))

    def test_two_distinct_scalar(self):
        # u^2 - 2u: zeros 2 and 0, (+) branch first
        out = quadratic_solve(Zeon.one(1), Zeon.scalar(1, -2.0),
                              Zeon.zero(1))
        assert out.kind is QuadraticKind.TWO_DISTINCT
        assert out.zeros[0].isclose(Zeon.scalar(1, 2.0))
        assert out.zeros[1].max_abs() < 1e-12

    def test_zeros_actually_vanish(self, rng):
        for _ in range(10):
            alpha = random_invertible(rng, 3)
            beta = random_zeon(rng, 3)
            gamma = random_zeon(rng, 3)
            out = quadratic_solve(alpha, beta, gamma)
            if out.kind is not QuadraticKind.TWO_DISTINCT:
                continue
            p = ZeonPoly([gamma, beta, alpha], n=3)
            scale = max(1.0, alpha.max_abs(), beta.max_abs(),
                        gamma.max_abs())
            for z in out.zeros:
                assert p.eval(z).max_abs() < 1e-9 * scale

    def test_null_square_family(self):
        # (u-1)^2: base 1, zeros are 1 + eta for null-square eta
        out = quadratic_solve(Zeon.one(2), Zeon.scalar(2, -2.0),
                              Zeon.one(2))
        assert out.kind is QuadraticKind.NULL_SQUARE_FAMILY
        assert out.family_base.isclose(Zeon.one(2))
        assert "eta" in out.note
        # spot-check a family member: eta = z{1,2} has eta^2 = 0
        member = out.family_base.add(Z12)
        p = ZeonPoly.from_scalars(2, [1.0, -2.0, 1.0])
        assert p.eval(member).max_abs() < 1e-12

    def test_no_zeros_certified_grade_one(self):
        # disc = -4 z1 has min grade 1, provably no square root
        out = quadratic_solve(Zeon.one(2), Zeon.scalar(2, -2.0),
                              Zeon.one(2).add(Z1))
        assert out.kind is QuadraticKind.NO_ZEROS
        assert out.zeros == ()
        assert out.discriminant == Z1.scale(-4.0)

    def test_no_zeros_certified_dual_lead(self):
        # (1+z1) u^2 + (z{1,2}-2) u + 1: disc = -4z1 - 4z{1,2}
        out = quadratic_solve(Zeon.one(2).add(Z1),
                              Z12.add(Zeon.scalar(2, -2.0)),
                              Zeon.one(2))
        assert out.kind is QuadraticKind.NO_ZEROS
        assert out.discriminant == Zeon(2, {(1,): -4, (1, 2): -4})

    def test_nilpotent_discriminant_roots(self):
        # u^2 - z{1,2}/2: disc = 2 z{1,2}, w = z1+z2 squares to it;
        # zeros +-(z1+z2)/2 both vanish exactly.
        gamma = Z12.scale(-0.5)
        out = quadratic_solve(Zeon.one(2), Zeon.zero(2), gamma)
        assert out.kind is QuadraticKind.NILPOTENT_DISCRIMINANT_ROOTS
        p = ZeonPoly([gamma, Zeon.zero(2), Zeon.one(2)], n=2)
        assert out.zeros
        for z in out.zeros:
            assert p.eval(z).max_abs() < 1e-9
        assert out.family_base is not None
        assert "blade" in out.note

    def test_undetermined(self):
        # disc = 2 z{1,2} + 2 z{3,4} has no square root but the search
        # cannot certify that
        gamma = Zeon(4, {(1, 2): -0.5, (3, 4): -0.5})
        out = quadratic_solve(Zeon.one(4), Zeon.zero(4), gamma)
        assert out.kind is QuadraticKind.UNDETERMINED
        assert out.zeros == ()

    def test_nilpotent_leading_coefficient_rejected(self):
        with pytest.raises(LeadingCoefficientNotInvertible):
            quadratic_solve(Z1, Zeon.one(2), Zeon.one(2))

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            quadratic_solve(Zeon.one(1), Zeon.one(2), Zeon.one(2))
