"""Polynomial layer: construction, division, discriminants, quadratics.

Frozen expected values in this file were computed with the dense
reference, ``perfbench/dense.py`` (see the derivation comments next to
each).
"""

import collections
import itertools
import warnings

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
    default_tolerance,
    discriminant,
    divide,
    mask_to_indices,
    nilpotent_sqrt,
    quadratic_solve,
    remainder_at,
)

from zeon.poly import MAX_UNKNOWNS, _pair_table, least_squares

from conftest import random_invertible, random_zeon, to_dense
from dense import horner, mul
from oracle import dense_zero

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

    @pytest.mark.parametrize("build, error", [
        (lambda: ZeonPoly.zero(40), ValueError),
        (lambda: ZeonPoly((), n=-3), ValueError),
        # used to store n=2.5 over n=2 coefficients
        (lambda: ZeonPoly([1, 2], n=2.5), TypeError),
        (lambda: ZeonPoly([1, 2]), ValueError),
        (lambda: ZeonPoly.monomial(2, -1), ValueError),
    ], ids=["zero-40", "empty-negative", "scalars-fractional",
            "scalars-without-n", "monomial-negative-degree"])
    def test_explicit_n_is_checked(self, build, error):
        with pytest.raises(error):
            build()

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
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=3$"):
            scalar_poly(2, 1.0).eval(Zeon.one(3))

    def test_eval_matches_dense_oracle(self, rng):
        for n in (1, 2, 3, 4):
            coeffs = [random_zeon(rng, n) for _ in range(4)]
            p = ZeonPoly(coeffs, n=n)
            u = random_zeon(rng, n)
            want = horner([to_dense(c) for c in coeffs], to_dense(u))
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
                    acc = acc + mul(to_dense(ai), to_dense(b[j]))
            assert np.allclose(to_dense(prod.coeff(k)), acc, atol=1e-12)

    def test_product_by_zero(self):
        p = scalar_poly(2, 1.0, 1.0)
        assert (p * ZeonPoly.zero(2)).is_zero()

    def test_neg(self):
        p = ZeonPoly([Z1, Zeon.one(2)])
        assert (-p).coeff(0) == Z1.scale(-1.0)

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
            scalar_poly(1, 1.0) + scalar_poly(2, 1.0)
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
            scalar_poly(1, 1.0) * scalar_poly(2, 1.0)
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
            divide(scalar_poly(1, 1.0), scalar_poly(2, 1.0))

    def test_scalar_operand_is_a_type_error(self):
        # not an AttributeError from reading other.n
        p = scalar_poly(1, 1.0, 1.0)
        for op in (lambda: p + 1, lambda: p - 1, lambda: 1 + p,
                   lambda: 1 - p, lambda: p + Zeon.one(1)):
            with pytest.raises(TypeError):
                op()

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
        # on unequal lengths the longer operand's tail is judged too
        near = ZeonPoly([1.0, 0.0, Zeon.blade(1, (1,), 1e-12)], n=1)
        far = ZeonPoly([1.0, 0.0, Zeon.blade(1, (1,), 1e-3)], n=1)
        assert p.isclose(near) and near.isclose(p)
        assert not p.isclose(far) and not far.isclose(p)
        assert p.isclose(far, eps=1e-2) and far.isclose(p, eps=1e-2)

    def test_isclose_with_a_non_polynomial_is_a_type_error(self):
        p = ZeonPoly([Z1])
        for other in (1, Z1):
            with pytest.raises(TypeError):
                p.isclose(other)
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=1$"):
            p.isclose(scalar_poly(1, 1.0))

    def test_add_adds_only_shared_degrees(self, monkeypatch):
        # a degree-8 plus a degree-0 polynomial shares one degree, so it
        # makes one coefficient add, not one per degree of the longer
        long = ZeonPoly([Zeon(2, {(): k + 1, (1,): 0.5}) for k in range(9)])
        short = ZeonPoly([Z2])
        calls = []
        add = Zeon.add

        def counted(a, b):
            calls.append(a)
            return add(a, b)

        monkeypatch.setattr(Zeon, "add", counted)
        for a, b in ((long, short), (short, long)):
            calls.clear()
            s = a + b
            assert len(calls) == 1
            assert s.coeffs[1:] == long.coeffs[1:]
            assert s.coeff(0) == Zeon(2, {(): 1, (1,): 0.5, (2,): 1})

    def test_sums_match_a_zero_padded_fold(self, rng):
        # every degree up to the longer operand added, the shorter one
        # padded with zeros: a sum must equal this coefficient by
        # coefficient, to the last bit
        def fold(a, b):
            pad = [Zeon.zero(n)] * max(len(a), len(b))
            return ZeonPoly([x.add(y) for x, y in zip(
                a + pad[len(a):], b + pad[len(b):])], n=n)

        for _ in range(20):
            n = int(rng.integers(1, 5))
            la, lb = rng.choice(np.arange(1, 7), size=2, replace=False)
            a = [random_zeon(rng, n) for _ in range(la)]
            b = [random_zeon(rng, n) for _ in range(lb)]
            p, q = ZeonPoly(a, n=n), ZeonPoly(b, n=n)
            neg_b = [y.scale(-1.0) for y in b]
            for got, want in ((p + q, fold(a, b)), (q + p, fold(b, a)),
                              (p - q, fold(a, neg_b))):
                assert got == want
                assert list(map(repr, got.coeffs)) == list(
                    map(repr, want.coeffs))

    def test_repr_mentions_text_form(self):
        p = scalar_poly(1, 1.0, 2.0)
        assert "ZeonPoly" in repr(p)

    @pytest.mark.parametrize("other", ["1", object(), Zeon.one(1)])
    def test_equality_with_a_foreign_object_is_false(self, other):
        p = scalar_poly(1, 1.0)
        assert p.__eq__(other) is NotImplemented
        assert (p == other) is False and (other == p) is False
        assert p != other


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

    def test_one_sweep_negates_the_divisor_once(self, monkeypatch):
        # the divisor's lower coefficients are negated once, before the
        # sweep, so a degree-8 dividend makes no more scale calls than a
        # degree-4 one; and the quotient is not pre-filled with zeros
        psi = ZeonPoly([Zeon.one(2).add(Z1), Z2, Zeon.one(2)])
        dividends = [ZeonPoly([Zeon(2, {(): k + 1, (1,): 0.5, (1, 2): k})
                               for k in range(d + 1)]) for d in (4, 8)]
        calls = []
        scale = Zeon.scale

        def counted(self, c):
            calls.append(c)
            return scale(self, c)

        def no_zero(cls, n):
            raise AssertionError("divide built a zero element")

        monkeypatch.setattr(Zeon, "scale", counted)
        monkeypatch.setattr(Zeon, "zero", classmethod(no_zero))
        counts = []
        for phi in dividends:
            calls.clear()
            divide(phi, psi)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @staticmethod
    def reference_divide(phi, psi):
        # long division as a plain fold over the quotient degrees, top
        # down: each factor is the top slot times the inverse lead, and
        # each negated divisor coefficient (the left operand) times the
        # factor is added into the slot it meets
        lead_inv = psi.lead.inverse()
        d = psi.degree
        rem = list(phi.coeffs)
        quot = {}
        for k in reversed(range(len(rem) - d)):
            quot[k] = rem[k + d].mul(lead_inv)
            for j in range(d):
                rem[k + j] = psi.coeffs[j].scale(-1.0).mul_add(
                    quot[k], rem[k + j])
        return ([quot[k] for k in sorted(quot)], rem[:d])

    def assert_matches_reference(self, phi, psi):
        out = divide(phi, psi)
        quot, rem = self.reference_divide(phi, psi)
        assert repr(out.quotient) == repr(ZeonPoly(quot, n=phi.n))
        assert repr(out.remainder) == repr(ZeonPoly(rem, n=phi.n))
        return out

    def test_matches_reference_fold(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            phi = ZeonPoly([random_zeon(rng, n)
                            for _ in range(int(rng.integers(1, 8)))], n=n)
            psi = ZeonPoly([random_zeon(rng, n)
                            for _ in range(int(rng.integers(0, 3)))]
                           + [random_invertible(rng, n)], n=n)
            self.assert_matches_reference(phi, psi)

    def test_exact_zero_tops(self):
        # u**6 + 1 = (u**2 + 1)(u**4 - u**2 + 1): every other top the
        # sweep meets is an exact zero, whose factor is zero
        out = self.assert_matches_reference(
            scalar_poly(2, 1, 0, 0, 0, 0, 0, 1), scalar_poly(2, 1, 0, 1))
        assert out.quotient == scalar_poly(2, 1, 0, -1, 0, 1)
        assert out.remainder.is_zero()
        # the same with dual parts: an even dividend over an even
        # divisor meets a zero top at every odd degree
        phi = ZeonPoly([Zeon.one(2), Zeon.zero(2), Z12, Zeon.zero(2),
                        Z1.scale(3.0), Zeon.zero(2), Zeon.one(2)])
        psi = ZeonPoly([Zeon.one(2).add(Z2), Zeon.zero(2), Zeon.one(2)])
        out = self.assert_matches_reference(phi, psi)
        back = psi * out.quotient + out.remainder
        assert back.isclose(phi)
        assert out.remainder.degree < psi.degree

    def test_remainder_at_equals_eval(self, rng):
        p = ZeonPoly([random_zeon(rng, 3) for _ in range(4)], n=3)
        z = random_zeon(rng, 3)
        want = horner([to_dense(c) for c in p.coeffs], to_dense(z))
        assert np.abs(to_dense(remainder_at(p, z)) - want).max() <= 1e-9

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
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
            discriminant(Zeon.one(1), Zeon.one(2), Zeon.one(2))
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=1$"):
            discriminant(Zeon.one(2), Zeon.one(2), Zeon.one(1))


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
        # no grade-4 blade is disjoint from z1; the scale is read on
        # the grade-5 blade z{2,3,4,5,8}
        Zeon(8, {(1,): 0.5, (2, 3): 1, (4, 5, 8): 1}),
    ])
    def test_odd_grade_root_found(self, v0, monkeypatch):
        # odd minimum grade: the bottom a z_B comes in closed form, so
        # least squares must not run
        def refuse(*args, **kwargs):
            raise AssertionError("least squares called")

        monkeypatch.setattr(zeon.poly, "least_squares", refuse)
        w = v0.mul(v0)
        v = nilpotent_sqrt(w)
        got = mul(to_dense(v), to_dense(v))
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
        got = mul(to_dense(v), to_dense(v))
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
        got = mul(to_dense(v), to_dense(v))
        assert np.abs(got - to_dense(w)).max() < 1e-12

    @pytest.mark.parametrize("v0", [
        Zeon(5, {(1, 2): 1, (3, 4): 0.5}),
        Zeon(6, {(1, 2): 1 + 2j, (3, 4): -1, (1, 5, 6): 0.5}),
        Zeon(7, {(1, 2): 1, (3, 4): 1j, (5, 6): 2, (1, 3, 7): -0.5}),
        Zeon(8, {(1, 2): 0.5, (3, 4): 1, (5, 6): -1j, (7, 8): 1}),
        Zeon(6, {(1, 2, 3): 1, (4, 5, 6): 0.5}),
        # minimum grade 4 with a grade-1 bottom z2
        Zeon(8, {(2,): 1, (1, 5, 6): 1, (4, 5, 8): 0.5}),
        # the grade-2 fit misses; the single-blade bottom z4 roots it
        Zeon(8, {(4,): 0.658 + 0.151j, (1, 5, 7): 0.659 - 0.200j,
                 (1, 5, 8): 0.041 + 0.748j, (3, 6, 8): 1.835 - 0.592j}),
        # minimum grade 2: no layer stack verifies; the all-layer fit
        # started from the first one finds a root of order one, where a
        # constant start drifted to coefficients of order 1e5
        Zeon(8, {(6,): 0.628 - 0.289j, (2, 7): -0.075 - 0.118j,
                 (8,): 0.808 + 1.132j, (5, 8): 1.070 - 0.810j}),
    ])
    def test_bottom_layer_of_grade_two_or_more(self, v0):
        # the bottom comes from the grade-m/2 least-squares fit or as a
        # single null-square blade of lower grade; failing both, the
        # all-layer fit runs
        w = v0.mul(v0)
        v = nilpotent_sqrt(w)
        got = mul(to_dense(v), to_dense(v))
        assert np.abs(got - to_dense(w)).max() < 1e-12

    @pytest.mark.parametrize("v0", [
        # corpus square 229, rounded: z{4,5} links the split z{1,3}|z{7,8}
        Zeon(8, {(1, 3): 0.234 + 0.465j, (4, 5): 0.911 - 0.731j,
                 (1, 2, 6): -0.493 - 0.782j, (1, 4, 8): -0.820 + 0.732j,
                 (7, 8): 0.414 - 0.336j}),
        # one grade-4 term: the free split a_B**2 = t_BC / 2
        Zeon(6, {(1, 2): 1, (3, 4): 2, (1, 5, 6): 1}),
        Zeon(8, {(1, 2): 1 + 2j, (3, 4): -0.5j, (5, 6): 2,
                 (1, 3, 7): 0.5 - 1j}),
        # minimum grade 6, read on grade-3 blades
        Zeon(9, {(1, 2, 3): 1, (4, 5, 6): -0.5j, (7, 8, 9): 2}),
    ], ids=["corpus-229", "free-split", "complex", "grade-three"])
    def test_closed_form_bottom_at_half_the_minimum_grade(self, v0,
                                                          monkeypatch):
        # with every least-squares fit refused, the bottom layer at grade
        # m/2 comes in closed form from the splits of w's grade-m part
        monkeypatch.setattr(zeon.poly, "least_squares",
                            lambda *args, **kwargs: None)
        w = v0.mul(v0)
        v = nilpotent_sqrt(w)
        want = to_dense(w)
        got = mul(to_dense(v), to_dense(v))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_square_corpus(self):
        # 432 squares v*v of 2-5 random blades of grade 1-3 at n = 4-8,
        # every one rooted to rounding
        for w in square_corpus():
            v = nilpotent_sqrt(w)
            want = to_dense(w)
            got = mul(to_dense(v), to_dense(v))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_overflowing_fit_warns_nothing(self):
        # the grade-2 fit from a constant start overflows in its first
        # product: with numpy's warnings off it reads that as a non-finite
        # residual, refuses, and the layered search roots w
        w = Zeon.blade(4, (1, 2, 3, 4), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = nilpotent_sqrt(w)
        assert (v.mul(v) - w).max_abs() <= 1e-12 * w.max_abs()

    @pytest.mark.parametrize("s", [1e200, 1e250, 1e300])
    def test_large_scale_rooted_like_unit_scale(self, s):
        # rooted at s = 1 and 1e150; unverified candidates built at the
        # input's own scale used to overflow and abort the search here
        w = Zeon(4, {(1, 2): -0.459 + 0.711j, (1, 3, 4): -0.109 + 0.551j,
                     (2, 3, 4): 2.308 + 0.249j,
                     (1, 2, 3, 4): -0.765 - 0.554j}).scale(s)
        v = nilpotent_sqrt(w)
        assert (v.mul(v) - w).max_abs() <= 1e-15 * w.max_abs()

    def test_term_pruned_at_unit_scale_is_dropped(self):
        # at unit scale z{1,2} falls below prune_eps, and the search runs
        # on minimum grade 4
        w = Zeon(4, {(1, 2): 1e-10, (1, 2, 3, 4): 1e20})
        v = nilpotent_sqrt(w)
        assert (v.mul(v) - w).max_abs() <= 1e-15 * w.max_abs()

    @pytest.mark.parametrize("k", [-5, 10, 70, 500])
    def test_root_of_scaled_square_is_scaled_root(self, k):
        # the search runs at unit scale, so scaling w by 4**k scales the
        # root by 2**k, bit for bit
        for w in square_corpus()[:60]:
            try:
                v = nilpotent_sqrt(w)
            except SqrtNotFound:
                continue
            assert nilpotent_sqrt(w.scale(4.0 ** k)) == v.scale(2.0 ** k)

    def test_squares_scaled_to_1e300_never_overflow(self):
        # every one is rooted: no NonFiniteResult and no SqrtNotFound
        for w in square_corpus():
            nilpotent_sqrt(w.scale(1e300 / w.max_abs()))


# the six grade-2 blades at n = 4
GRADE_TWO_OF_4 = [a | b for a, b in itertools.combinations((1, 2, 4, 8), 2)]


class TestLeastSquares:
    @pytest.mark.parametrize("w, cands", [
        (Z12, []),
        (Zeon.blade(9, (1, 2)), list(range(1, MAX_UNKNOWNS + 2))),
        # z{1,2} times itself vanishes: no pair, no system
        (Z12, [0b11]),
        # from a constant start of order 1e154 the first product overflows
        (Zeon.blade(4, (1, 2, 3, 4), 1e308), GRADE_TWO_OF_4),
    ], ids=["no-candidates", "too-many", "no-disjoint-pair", "non-finite"])
    def test_refusals_are_none_without_a_warning(self, w, cands):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert least_squares(w, cands, default_tolerance()) is None

    def test_non_finite_fit_is_refused(self, monkeypatch):
        # a step that overflows the unknowns ends the loop (it is not
        # smaller than the unknowns), and the fit is refused; no plain
        # input reaches this check, so lstsq is made to return that step
        lstsq = np.linalg.lstsq
        steps = []

        def overflowing(a, b, rcond=None):
            steps.append(np.full(a.shape[1], np.inf + 0j))
            return (steps[-1], *lstsq(a, b, rcond=rcond)[1:])

        monkeypatch.setattr(np.linalg, "lstsq", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert least_squares(Z12.scale(2.0), [0b01, 0b10],
                                 default_tolerance()) is None
        assert len(steps) == 1

    def test_pair_table_matches_a_double_loop(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 11))
            left, right = (rng.choice(1 << n, int(rng.integers(
                0, min(12, 1 << n) + 1)), replace=False).tolist()
                for _ in range(2))
            target = random_zeon(rng, n)
            src, col, row, values = _pair_table(left, right, target)
            pairs = [(i, j) for i, a in enumerate(left)
                     for j, b in enumerate(right) if not a & b]
            rows = sorted(set(target.support_masks())
                          | {left[i] | right[j] for i, j in pairs})
            assert list(zip(src.tolist(), col.tolist())) == pairs
            assert [rows[r] for r in row.tolist()] == [
                left[i] | right[j] for i, j in pairs]
            assert values.tolist() == [
                target.coeff(mask_to_indices(mk)) for mk in rows]


def random_blades(rng, n, count, grades):
    """``count`` blades of grade drawn from ``grades`` over n generators,
    with complex normal coefficients (a later draw of a blade wins)."""
    terms = {}
    for _ in range(count):
        g = int(rng.integers(*grades))
        indices = rng.choice(np.arange(1, n + 1), g, replace=False)
        terms[tuple(sorted(indices.tolist()))] = complex(rng.normal(),
                                                         rng.normal())
    return Zeon(n, terms)


def square_corpus():
    rng = np.random.default_rng(8080)
    squares = []
    while len(squares) < 432:
        n = int(rng.integers(4, 9))
        v = random_blades(rng, n, int(rng.integers(2, 6)), (1, 4))
        w = v.mul(v)
        if not w.is_zero():
            squares.append(w)
    return squares


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

    def test_close_root_pairs_determined(self):
        # roots s + nil1 and s + nil2 share a scalar part, so the
        # discriminant (nil1 - nil2)**2 is nilpotent and has a root
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            s = complex(rng.normal(), rng.normal())
            roots = [s + random_blades(rng, n, int(rng.integers(2, 5)),
                                       (1, 3))
                     for _ in range(2)]
            gamma, beta, alpha = ZeonPoly.from_roots(n, roots).coeffs
            out = quadratic_solve(alpha, beta, gamma)
            assert out.kind is not QuadraticKind.UNDETERMINED, out.note
            coeffs = [to_dense(c) for c in (gamma, beta, alpha)]
            for z in out.zeros:
                assert np.abs(horner(coeffs, to_dense(z))).max() \
                    < 1e-9

    @staticmethod
    def scaled_quadratic(roots, c):
        gamma, beta, alpha = (x.scale(c) for x in
                              ZeonPoly.from_roots(roots[0].n, roots).coeffs)
        return (alpha, beta, gamma), quadratic_solve(alpha, beta, gamma)

    @staticmethod
    def assert_zeros_vanish(coeffs, zeros):
        # every listed zero satisfies the quadratic under the dense oracle
        dense = [to_dense(c) for c in coeffs[::-1]]
        scale = max(1.0, *(c.max_abs() for c in coeffs))
        assert zeros
        for z in zeros:
            assert np.abs(horner(dense, to_dense(z))).max() \
                <= 1e-9 * scale

    def test_discriminant_dust_certifies_nothing(self):
        # r1 = 1.7 + (-2.3+0.7i) z1 is a zero of c (u - r1)(u - r2) with
        # r2 = 1.7 + 0.7 z2, c = 3.1-0.4i; the computed discriminant
        # carries dust of 1.4e-14 at grade 0 and 2.8e-14 at z1, which
        # once certified NoZeros
        r1 = Zeon(2, {(): 1.7, (1,): -2.3 + 0.7j})
        r2 = Zeon(2, {(): 1.7, (2,): 0.7})
        coeffs, out = self.scaled_quadratic([r1, r2], 3.1 - 0.4j)
        assert out.kind is QuadraticKind.NILPOTENT_DISCRIMINANT_ROOTS
        assert out.discriminant.min_grade() == 2
        self.assert_zeros_vanish(coeffs, out.zeros)
        # the public discriminant is the one reported, and has roots
        delta = discriminant(*coeffs)
        assert repr(delta) == repr(out.discriminant)
        w = nilpotent_sqrt(delta)
        assert w.mul(w).isclose(delta)

    def test_small_grade_one_term_still_certifies(self):
        # 1000 (u - 1)**2 + e z1: the discriminant is -4000 e z1, whose
        # floor comes from its own products only: 4 eps 4 * 1000 e
        alpha, beta = Zeon.scalar(2, 1e3), Zeon.scalar(2, -2e3)
        for e in (1e-10, 1e-13):
            gamma = Zeon(2, {(): 1e3, (1,): e})
            out = quadratic_solve(alpha, beta, gamma)
            assert out.kind is QuadraticKind.NO_ZEROS
            assert out.discriminant.coeff([1]) == pytest.approx(-4e3 * e)

    def test_nilpotent_products_that_vanish_raise_no_floor(self):
        # z1 * z1 = 0, so the large nilpotent parts meet only the small
        # scalar ones: the scalar term -4e-6 stands, and u = +-1e-3 i
        # lead two distinct zeros
        alpha = Zeon(1, {(): 1.0, (1,): 1e5})
        gamma = Zeon(1, {(): 1e-6, (1,): 1e5})
        out = quadratic_solve(alpha, Zeon.zero(1), gamma)
        assert out.kind is QuadraticKind.TWO_DISTINCT
        assert out.discriminant.scalar_part() == pytest.approx(-4e-6)
        assert sorted(z.scalar_part().imag for z in out.zeros) \
            == pytest.approx([-1e-3, 1e-3])

    def test_floor_is_finite_wherever_the_discriminant_is(self):
        # the discriminant -4e200 z1 is finite, and so is its floor:
        # the grade-1 term certifies that there are no zeros
        alpha = Zeon(1, {(): 1.0, (1,): 1e200})
        gamma = Zeon(1, {(1,): 1e200})
        out = quadratic_solve(alpha, Zeon.zero(1), gamma)
        assert out.kind is QuadraticKind.NO_ZEROS
        assert out.discriminant.coeff([1]) == -4e200

    def test_double_roots_over_four_generators(self, rng):
        # c (u - r)**2 with r full at every grade of n = 4 (a grade-g
        # discriminant term sums 2**(g+1) products), terms and c spread
        # over six decades
        blades = [b for g in range(5)
                  for b in itertools.combinations(range(1, 5), g)]
        for _ in range(20):
            r = Zeon(4, {b: complex(*rng.normal(size=2))
                         * 10 ** rng.uniform(-3, 3) for b in blades})
            c = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-3, 3)
            _, out = self.scaled_quadratic([r, r], c)
            assert out.kind is QuadraticKind.NULL_SQUARE_FAMILY
            assert (out.family_base - r).max_abs() <= 1e-12 * r.max_abs()

    GRID = list(itertools.product(
        (1.7, -0.3, 5), (1, 3.1 - 0.4j, -2 + 7j),
        (-2.3 + 0.7j, 0.5, 1j), (0.7, -1.1j), (1, 1e-3, 1e3)))

    def test_distinct_roots_sharing_a_scalar_part(self):
        # c (u - s - d1 t z1)(u - s - d2 z2): a nilpotent discriminant
        # with a square root, over 162 scalings
        kinds = collections.Counter()
        for s, c, d1, d2, t in self.GRID:
            roots = [Zeon(2, {(): s, (1,): d1 * t}),
                     Zeon(2, {(): s, (2,): d2})]
            coeffs, out = self.scaled_quadratic(roots, c)
            kinds[out.kind] += 1
            if out.kind is QuadraticKind.NILPOTENT_DISCRIMINANT_ROOTS:
                self.assert_zeros_vanish(coeffs, out.zeros)
        assert kinds == {QuadraticKind.NILPOTENT_DISCRIMINANT_ROOTS: 162}

    def test_double_roots(self):
        # c (u - r)**2 with r = s + d1 z1 + d2 t z2: a zero discriminant
        # whose computed form is all dust, over 162 scalings
        kinds = collections.Counter()
        for s, c, d1, d2, t in self.GRID:
            r = Zeon(2, {(): s, (1,): d1, (2,): d2 * t})
            _, out = self.scaled_quadratic([r, r], c)
            kinds[out.kind] += 1
            if out.kind is QuadraticKind.NULL_SQUARE_FAMILY:
                assert out.discriminant.is_zero()
                assert (out.family_base - r).max_abs() \
                    <= 1e-12 * max(1.0, r.max_abs())
        assert kinds == {QuadraticKind.NULL_SQUARE_FAMILY: 162}

    def test_nilpotent_leading_coefficient_rejected(self):
        with pytest.raises(LeadingCoefficientNotInvertible):
            quadratic_solve(Z1, Zeon.one(2), Zeon.one(2))

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
            quadratic_solve(Zeon.one(1), Zeon.one(2), Zeon.one(2))
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=1$"):
            quadratic_solve(Zeon.one(2), Zeon.one(2), Zeon.one(1))
