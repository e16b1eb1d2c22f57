"""Analytic extensions: truncated Taylor evaluation and preimages."""

import cmath
import hashlib
import math

import numpy as np
import pytest

import zeon.analytic
import zeon.poly
import zeon.solve
from zeon import (
    AnalyticFunction,
    DimensionMismatch,
    NotSpectrallySimple,
    OutsideDomain,
    RootFindingFailed,
    SeedMismatch,
    Zeon,
    ZeonError,
    ZeonExtension,
    ZeonPoly,
    by_name,
    default_tolerance,
    extend_eval,
    kth_roots,
    mask_to_indices,
    polynomial_form,
    power_function,
    preimage,
    principal_kth_root,
)
from zeon.analytic import _reversion
from zeon.textio import format_poly

from conftest import from_dense, random_nilpotent, random_zeon, to_dense
from oracle import dense_taylor

Z1 = Zeon.blade(2, (1,))
Z2 = Zeon.blade(2, (2,))
Z12 = Zeon.blade(2, (1, 2))


def ext(name, n):
    return ZeonExtension(by_name(name), n)


def cosine_pair():
    # cos maps pi/6 - 6 z1 - 2 z{1,2} + 2 z4 + 12 sqrt(3) z{1,4}
    #          + 4 sqrt(3) z{1,2,4}
    # onto sqrt(3)/2 + 3 z1 + z{1,2} - z4.        [derivation frozen]
    s3 = math.sqrt(3.0)
    lam = Zeon(4, {
        (): math.pi / 6,
        (1,): -6.0,
        (1, 2): -2.0,
        (4,): 2.0,
        (1, 4): 12.0 * s3,
        (1, 2, 4): 4.0 * s3,
    })
    w = Zeon(4, {(): s3 / 2.0, (1,): 3.0, (1, 2): 1.0, (4,): -1.0})
    return lam, w


def log_taylor(s, n):
    """Taylor coefficients of log at ``s``, k = 0..n."""
    return [cmath.log(s)] + [(-1) ** (k + 1) / (k * s ** k)
                             for k in range(1, n + 1)]


def exp_taylor(s, n):
    return [cmath.exp(s) / math.factorial(k) for k in range(n + 1)]


def trig_taylor(name, s, n):
    """Taylor coefficients of sin or cos at ``s``, k = 0..n."""
    cycle = [cmath.sin(s), cmath.cos(s), -cmath.sin(s), -cmath.cos(s)]
    shift = 0 if name == "sin" else 1
    return [cycle[(k + shift) % 4] / math.factorial(k) for k in range(n + 1)]


def sqrt_taylor(s, n):
    """Taylor coefficients binom(1/2, k) s**(1/2 - k) of sqrt at ``s``."""
    out, a = [], cmath.sqrt(s)
    for k in range(n + 1):
        out.append(a)
        a *= (0.5 - k) / ((k + 1) * s)
    return out


# -- function table ---------------------------------------------------------


class TestByName:
    @pytest.mark.parametrize("name", ["exp", "log", "sin", "cos", "sqrt"])
    def test_builtins(self, name):
        assert by_name(name).name == name

    def test_pow_integer(self):
        fn = by_name("pow(2)")
        assert fn.derivative(3.0, 0) == pytest.approx(9.0)
        assert fn.derivative(3.0, 1) == pytest.approx(6.0)
        assert fn.in_domain(0.0)
        assert fn.in_domain(-5.0)

    def test_pow_half(self):
        fn = by_name("pow(0.5)")
        assert fn.derivative(4.0, 0) == pytest.approx(2.0)
        assert not fn.in_domain(-1.0)

    def test_pow_matches_sqrt(self):
        a = by_name("sqrt").derivative(2.0 + 1j, 1)
        b = by_name("pow(0.5)").derivative(2.0 + 1j, 1)
        assert a == pytest.approx(b)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            by_name("gamma")

    def test_whitespace_tolerated(self):
        assert by_name(" exp ").name == "exp"

    @pytest.mark.parametrize("p, name", [
        (0.5, "pow(0.5)"), (2, "pow(2)"), (-3, "pow(-3)"),
        (1 - 2j, "pow(1-2i)"), (-0.5j, "pow(-0.5i)"),
        (1e308, "pow(1e+308)"), (1e-20, "pow(1e-20)"),
    ])
    def test_pow_name_reads_back(self, p, name):
        # the first derivative at 1 is the exponent itself
        assert power_function(p).name == name
        assert by_name(name).name == name
        assert by_name(name).derivative(1.0, 1) == complex(p)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan,
                                   complex(0.5, math.inf)])
    def test_pow_non_finite_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="not finite"):
            power_function(p)


# -- extension evaluation -----------------------------------------------------


class TestExtendEval:
    def test_exp_of_one_generator(self):
        assert ext("exp", 2).eval(Z1) == Zeon(2, {(): 1, (1,): 1})

    def test_exp_of_two_generators(self):
        # exp(z1 + z2) = 1 + z1 + z2 + z{1,2}   [oracle-checked]
        got = ext("exp", 2).eval(Z1 + Z2)
        assert got.isclose(Zeon(2, {(): 1, (1,): 1, (2,): 1, (1, 2): 1}))

    def test_cosine_of_dual_shift(self):
        lam, w = cosine_pair()
        assert extend_eval(ZeonExtension(by_name("cos"), 4), lam).isclose(
            w, eps=1e-9)

    def test_scalar_argument_matches_cmath(self):
        for name, f in [("exp", cmath.exp), ("sin", cmath.sin),
                        ("cos", cmath.cos), ("log", cmath.log)]:
            got = ext(name, 2).eval(Zeon.scalar(2, 0.7 + 0.3j))
            assert got.scalar_part() == pytest.approx(f(0.7 + 0.3j))
            assert got.dual_part().is_zero()

    def test_pow_two_is_square(self, rng):
        u = random_zeon(rng, 3)
        assert ext("pow(2)", 3).eval(u).isclose(u.mul(u))

    def test_integral_power_at_zero(self):
        # the scalar part 0 takes the exact branch of z**p at 0
        u = Z1 + Z2
        assert extend_eval(ZeonExtension(power_function(2), 2), u) \
            == Z12.scale(2.0)

    def test_pow_zero_is_one(self, rng):
        u = random_zeon(rng, 3)
        assert ext("pow(0)", 3).eval(u).isclose(Zeon.one(3))

    def test_exp_is_homomorphism(self, rng):
        e = ext("exp", 4)
        for _ in range(5):
            u, v = random_zeon(rng, 4), random_zeon(rng, 4)
            assert e.eval(u + v).isclose(e.eval(u).mul(e.eval(v)), eps=1e-8)

    def test_log_inverts_exp(self, rng):
        e, l = ext("exp", 3), ext("log", 3)
        for _ in range(5):
            u = random_zeon(rng, 3)
            # keep exp(C(u)) off the branch cut
            u = u - Zeon.scalar(3, 1j * u.scalar_part().imag)
            assert l.eval(e.eval(u)).isclose(u, eps=1e-8)

    def test_sqrt_squares_back(self, rng):
        s = ext("sqrt", 3)
        for _ in range(5):
            u = random_zeon(rng, 3) + Zeon.scalar(3, 4.0)
            r = s.eval(u)
            assert r.mul(r).isclose(u, eps=1e-8)

    def test_pythagorean_identity(self, rng):
        u = random_zeon(rng, 4)
        sn, cs = ext("sin", 4).eval(u), ext("cos", 4).eval(u)
        assert (sn.mul(sn) + cs.mul(cs)).isclose(Zeon.one(4), eps=1e-8)

    @pytest.mark.parametrize("name, taylor, u", [
        # d*d = 2e-16 z{1,2} is below prune_eps, the term -z{1,2} is not
        ("log", log_taylor, Zeon(2, {(): 1e-8, (1,): 1e-8, (2,): 1e-8})),
        # d*d = 2e-20 z{1,2}; the term is -2.5e-9 z{1,2}
        ("sqrt", sqrt_taylor, Zeon(2, {(): 1e-8, (1,): 1e-10, (2,): 1e-10})),
        ("log", log_taylor,
         Zeon(3, {(): 2 + 1j, (1,): 0.5, (2, 3): -1j, (3,): 4.0})),
        ("sqrt", sqrt_taylor,
         Zeon(3, {(): 1e6, (1,): 1e3, (2,): 1e3, (3,): 1e3})),
        # a finite 1e290 z{1,2} on the way to -2.5e269 z{1,2}
        ("sqrt", sqrt_taylor,
         Zeon(2, {(): 1e20, (1,): 1e150, (2,): 1e150})),
        # every coefficient e**-100/k! is below prune_eps, the term
        # 3.7e-4 z{1} is not
        ("exp", exp_taylor, Zeon(1, {(): -100.0, (1,): 1e40})),
    ])
    def test_matches_dense_taylor(self, name, taylor, u):
        want = dense_taylor(to_dense(u.dual_part()),
                            taylor(u.scalar_part(), u.n))
        got = to_dense(ext(name, u.n).eval(u))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("u", [
        Zeon(2, {(): 1e-8, (1,): 1e-10, (2,): 1e-10}),
        Zeon(3, {(): 3 - 4j, (1,): 1.0, (2,): 2j, (1, 3): -0.5}),
    ])
    def test_sqrt_matches_principal_root(self, u):
        got = to_dense(ext("sqrt", u.n).eval(u))
        want = to_dense(principal_kth_root(u, 2))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name, s", [("sin", 0.0), ("cos", 0.0),
                                         ("sin", math.pi), ("cos", math.pi)])
    def test_sin_cos_match_dense_taylor(self, rng, name, s):
        # every other Taylor coefficient vanishes at 0 and is rounding
        # dust at pi; the terms after it must survive
        cycle = [math.sin(s), math.cos(s), -math.sin(s), -math.cos(s)]
        shift = 0 if name == "sin" else 1
        for n in range(1, 7):
            for _ in range(5):
                u = random_nilpotent(rng, n)
                coeffs = [cycle[(k + shift) % 4] / math.factorial(k)
                          for k in range(n + 1)]
                want = dense_taylor(to_dense(u), coeffs)
                got = to_dense(ext(name, n).eval(Zeon.scalar(n, s) + u))
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_log_on_cut_rejected(self):
        with pytest.raises(OutsideDomain,
                           match=r"^log is undefined at -1$"):
            ext("log", 2).eval(Zeon.scalar(2, -1.0) + Z1)

    def test_sqrt_at_zero_rejected(self):
        with pytest.raises(OutsideDomain):
            ext("sqrt", 2).eval(Z1)

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=3$"):
            ext("exp", 2).eval(Zeon.one(3))


def embedding_draws():
    """200 invertible elements at n = 2-6 with 1-4 random blades and a
    scalar part of modulus 1e-3 to 1e3, then 10 with 17-24 blades at
    n = 7 (array form); each with a root order k from 2 to 5."""
    rng = np.random.default_rng(17)
    for n, count in [(int(rng.integers(2, 7)), (1, 5))] * 200 + [
            (7, (17, 25))] * 10:
        masks = rng.choice(np.arange(1, 1 << n), min(
            int(rng.integers(*count)), (1 << n) - 1), replace=False)
        s = cmath.rect(10 ** rng.uniform(-3, 3),
                       rng.uniform(-math.pi, math.pi))
        terms = [((), s)] + [(mask_to_indices(int(mk)),
                              complex(rng.normal(), rng.normal()))
                             for mk in masks]
        yield Zeon(n, terms), Zeon(n + 1, terms), int(rng.integers(2, 6))


def outcome(op, x):
    """The terms of each element ``op(x)`` returns, or its error."""
    try:
        return [r.terms() for r in op(x)]
    except ZeonError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_results_do_not_depend_on_the_ambient_n():
    # the same element in n and n + 1 generators: each Taylor sum reads
    # as many coefficients in both, so every result (or error, as exp
    # overflowing at a scalar part of 1e3) agrees bit for bit
    for u, wide, k in embedding_draws():
        ops = [lambda x: [x.inverse()], lambda x: kth_roots(x, k)] + [
            lambda x, name=name: [extend_eval(ext(name, x.n), x)]
            for name in ("exp", "log", "sqrt")]
        for op in ops:
            assert outcome(op, wide) == outcome(op, u)


# -- polynomial form ----------------------------------------------------------


class TestPolynomialForm:
    def test_exp_at_zero(self):
        p = polynomial_form(ext("exp", 2), 0.0)
        assert p.degree == 2
        assert p.coeff(0).isclose(Zeon.one(2))
        assert p.coeff(1).isclose(Zeon.one(2))
        assert p.coeff(2).isclose(Zeon.scalar(2, 0.5))

    def test_identity_function(self):
        p = polynomial_form(ext("pow(1)", 2), 3.0)
        assert p.degree <= 1
        assert p.coeff(1).isclose(Zeon.one(2))
        assert p.coeff(0).max_abs() < 1e-12

    def test_matches_extension_on_fiber(self, rng):
        # at scalar part z0 the polynomial form reproduces the extension
        for name, z0 in [("exp", 0.3 - 0.2j), ("sin", 1.1), ("log", 2.0),
                         ("sqrt", 4.0)]:
            e = ext(name, 3)
            p = polynomial_form(e, z0)
            u = Zeon.scalar(3, z0) + random_zeon(rng, 3).dual_part()
            assert p.eval(u).isclose(e.eval(u), eps=1e-9)

    def test_degree_bounded_by_n(self):
        assert polynomial_form(ext("exp", 4), 0.0).degree <= 4

    def test_off_domain_rejected(self):
        with pytest.raises(OutsideDomain):
            polynomial_form(ext("log", 2), -2.0)

    # sha256 prefixes of ``format_poly(polynomial_form(ext(name, 8), z0))``
    # for z0 = 0.7, 3, 12 and 50: the text holds every coefficient to
    # full precision, so any change to the expansion's arithmetic shows.
    PINNED = {
        "exp": ("b788935acbc6b94a", "8616961bed7535a0",
                "d6aff861bfdac4ea", "36785e20bf2ffe64"),
        "log": ("8294929a58e62e5d", "f472319870f8f8fc",
                "46527fe1a44783aa", "60c0b8bac9040c8f"),
        "sin": ("3e9a2879fb7afdcc", "8e3479aafde106ac",
                "5a9b07682ec2182e", "faa241303573cc1b"),
        "cos": ("f8804b57eb95a5dc", "81ea72d956ea48ca",
                "202a74e6d5324d97", "f34172be8216f58b"),
        "sqrt": ("9f53d223792d9cd9", "6dd535b34c2a6256",
                 "76a361ec259288d8", "a94b8185e94ec0ad"),
        "pow(0.5+1i)": ("0f1eed710320b516", "f277f0985b57548b",
                        "5f772488f5d99ebe", "264746902f33a53c"),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_forms_are_unchanged(self, name):
        for z0, pinned in zip((0.7, 3.0, 12.0, 50.0), self.PINNED[name]):
            text = format_poly(polynomial_form(ext(name, 8), z0))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned


# -- preimages ----------------------------------------------------------------


class TestPreimage:
    def test_exp_preimage_of_one_plus_generator(self):
        got = preimage(ext("exp", 2), Zeon.one(2) + Z1, 0.0)
        assert got.isclose(Z1, eps=1e-9)

    def test_cosine_preimage_from_exact_seed(self):
        lam, w = cosine_pair()
        got = preimage(ZeonExtension(by_name("cos"), 4), w, math.pi / 6)
        assert got.isclose(lam, eps=1e-9)

    def test_cosine_preimage_from_coarse_seed(self):
        # pi/3 sits in the same Newton basin as the true scalar
        # preimage pi/6, so refinement lands on the same answer
        lam, w = cosine_pair()
        got = preimage(ZeonExtension(by_name("cos"), 4), w, math.pi / 3)
        assert got.isclose(lam, eps=1e-9)

    def test_square_root_branch_follows_seed(self):
        w = Zeon(2, {(): 4, (1,): 4})
        e = ext("pow(2)", 2)
        plus = preimage(e, w, 2.0)
        minus = preimage(e, w, -2.0)
        assert plus.isclose(Zeon(2, {(): 2, (1,): 1}), eps=1e-9)
        assert minus.isclose(Zeon(2, {(): -2, (1,): -1}), eps=1e-9)

    def test_round_trip_through_extension(self, rng):
        for name in ("exp", "sin", "log"):
            e = ext(name, 4)
            for _ in range(3):
                u = random_zeon(rng, 4)
                if name == "log":
                    u = u + Zeon.scalar(4, 3.0 - u.scalar_part())
                w = e.eval(u)
                back = preimage(e, w, u.scalar_part() + 0.05)
                assert back.isclose(u, eps=1e-7)

    def test_image_of_preimage_is_input(self, rng):
        e = ext("exp", 3)
        w = Zeon.one(3) + random_zeon(rng, 3).dual_part()
        z = preimage(e, w, 0.0)
        assert e.eval(z).isclose(w, eps=1e-9)

    def test_scalar_algebra_has_nothing_to_lift(self):
        # at n = 0 the polynomial form minus w is a pruned constant, the
        # zero polynomial, so the preimage is the polished scalar itself
        got = preimage(ext("exp", 0), Zeon.scalar(0, 2.0), 0.5)
        assert got.n == 0 and got.is_scalar()
        assert got.scalar_part() == pytest.approx(cmath.log(2), abs=1e-12)

    def test_seed_polish_stops_at_rounding(self, monkeypatch):
        # preimage polishes its seed once, on f itself; the spectral
        # lift of log's polynomial form minus w polishes on that form's
        # scalar projection, where the Horner residual is rounding
        # noise.  Newton stops there instead of running all 80 rounds
        import zeon.solve

        newton = zeon.solve._newton
        rounds = []

        def counted(f, fp, z):
            calls = []
            try:
                return newton(lambda x: calls.append(x) or f(x), fp, z)
            finally:
                rounds.append(len(calls))

        monkeypatch.setattr(zeon.solve, "_newton", counted)
        lam = Zeon(4, {(): 2.5, (1,): 0.5, (2,): 0.25})
        e = ext("log", 4)
        w = e.eval(lam)
        back = preimage(e, w, 2.5)
        assert back.isclose(lam, eps=1e-12)
        assert len(rounds) == 1 and max(rounds) <= 5
        form = polynomial_form(e, 2.5).coeffs
        psi = ZeonPoly([form[0] - w, *form[1:]], n=4)
        rounds.clear()
        assert zeon.solve.spectrally_simple_zero(psi, 2.5).zero.isclose(
            lam, eps=1e-12)
        assert len(rounds) == 1 and max(rounds) <= 5

    def test_no_scalar_preimage(self):
        # a real seed keeps Newton for sin(z) = 1.2 on the real line,
        # where no preimage exists; the iteration never settles
        with pytest.raises(SeedMismatch, match=r"^no scalar preimage of 1\.2 "
                           r"under sin from seed 0\.3; reached [0-9.]+, "):
            preimage(ext("sin", 2), Zeon(2, {(): 1.2, (1,): 1.0}), 0.3)

    def test_unreachable_value_hits_flat_slope(self):
        # chasing exp(z) = 0 drives z left until the slope dies; the
        # reached point has no simple scalar preimage
        with pytest.raises(NotSpectrallySimple):
            preimage(ext("exp", 2), Z1, 0.0)

    def test_critical_point_rejected(self):
        # C(w) = 1 forces the scalar preimage 0, where cos' vanishes
        with pytest.raises(NotSpectrallySimple,
                           match=r"^0 is a critical point of cos$"):
            preimage(ext("cos", 2), Zeon.one(2) + Z1, 0.0)

    def test_double_scalar_preimage_rejected(self):
        # cos' vanishes at pi, so -1 + z{1} has no preimage; the seed
        # creeps to within 3e-8 of pi, where the lift misses w
        with pytest.raises(RootFindingFailed):
            preimage(ext("cos", 2), Zeon(2, {(): -1, (1,): 1}), 3.0)

    def test_image_check_refuses_an_ill_conditioned_lift(self,
                                                          monkeypatch):
        # a scalar preimage 1e-6 from cos's critical point pi: the slope
        # squared is below the seed bound, so the lift's image is
        # checked.  Unpatched, the lift returns a point 4e-4 from the
        # constructed one whose image matches w exactly: that forward
        # error is beyond any image check.  A lift patched to miss w
        # by 1e-3 in grade 1 is refused
        z0 = math.pi - 1e-6
        e = ext("cos", 3)
        lam = Zeon(3, {(): z0, (1,): 0.5, (2,): 1.0, (3,): 1.5})
        w = extend_eval(e, lam)
        eq_eps = default_tolerance().eq_eps
        got = preimage(e, w, z0)
        assert (extend_eval(e, got) - w).max_abs() <= eq_eps
        assert 1e-4 < (got - lam).max_abs() < 1e-3
        lift = zeon.solve._lift

        def perturbed(*args):
            zero, trace, residual = lift(*args)
            return zero + Zeon.blade(3, (1,)).scale(1e-3), trace, residual

        monkeypatch.setattr(zeon.solve, "_lift", perturbed)
        with pytest.raises(RootFindingFailed, match="lift misses w") as info:
            preimage(e, w, z0)
        miss = (extend_eval(e, info.value.partial) - w).max_abs()
        assert miss > eq_eps * max(1.0, w.max_abs())

    def test_seed_outside_domain_rejected(self):
        # a seed on the cut, and a seed whose first Newton step for
        # log(z) = -1 lands on 0, where log' is undefined too
        for w, seed in ((Zeon.one(2), -1.0),
                        (Zeon(2, {(): -1, (1,): 1}), 1.0)):
            with pytest.raises(OutsideDomain):
                preimage(ext("log", 2), w, seed)

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=2 vs n=3$"):
            preimage(ext("exp", 2), Zeon.one(3), 0.0)


# -- preimages seeded by series reversion ------------------------------------


TAYLOR = {"exp": exp_taylor, "log": log_taylor, "sqrt": sqrt_taylor,
          "sin": lambda s, n: trig_taylor("sin", s, n),
          "cos": lambda s, n: trig_taylor("cos", s, n)}

# scalar parts away from branch cuts and critical points
DOMAINS = {
    "exp": lambda r: complex(r.uniform(-1, 1), r.uniform(-1, 1)),
    "sin": lambda r: complex(r.uniform(-1, 1), r.uniform(-0.5, 0.5)),
    "cos": lambda r: complex(r.uniform(0.5, 2.5), r.uniform(-0.5, 0.5)),
    "log": lambda r: r.uniform(0.5, 3.0) * cmath.exp(1j * r.uniform(-1, 1)),
    "sqrt": lambda r: r.uniform(0.5, 3.0) * cmath.exp(1j * r.uniform(-1, 1)),
}


def preimage_corpus(rng):
    """``(name, lam, w)`` with ``w`` the dense Taylor image of ``lam``:
    log, sqrt, exp, cos and sin at n = 2..10, two draws each."""
    for name in DOMAINS:
        for n in range(2, 11):
            for _ in range(2):
                s = DOMAINS[name](rng)
                lam = random_nilpotent(rng, n, scale=0.3) + s
                w = dense_taylor(to_dense(lam.dual_part()),
                                 TAYLOR[name](s, n))
                yield name, lam, from_dense(n, w)


class TestReversion:
    @pytest.mark.parametrize("z0", [0.3, 2.0, -1.5, 0.4 - 0.7j])
    def test_exp_reverts_to_the_log_series(self, z0):
        # exp(z0 + v) = exp(z0) + d gives v = log(1 + d e^-z0), so
        # b_m = (-1)**(m+1) e**(-m z0) / m
        b = _reversion(exp_taylor(z0, 12))
        for m in range(1, 13):
            want = (-1) ** (m + 1) * cmath.exp(-m * z0) / m
            assert abs(b[m - 1] - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("z0", [0.3, 3.0, 1.0 + 1.0j])
    def test_log_reverts_to_the_exp_series(self, z0):
        # log(z0 + v) = log(z0) + d gives v = z0 (e**d - 1), so
        # b_m = z0 / m!; the sums forming them cancel, and the relative
        # error grows with m (3e-7 at m = 12), so only m <= 6 is held
        # to 1e-12 here
        b = _reversion(log_taylor(z0, 12))
        assert len(b) == 12
        for m in range(1, 7):
            want = z0 / math.factorial(m)
            assert abs(b[m - 1] - want) <= 1e-12 * abs(want)

    def test_linear_series_has_nothing_above_the_first_term(self):
        assert _reversion([5.0, 2.0, 0.0, 0.0]) == [0.5, 0j, 0j]


class TestPreimageSeed:
    def test_corpus_matches_the_dense_oracle(self, rng):
        # each result sits on the constructed lam, and its own dense
        # Taylor image sits on w
        for name, lam, w in preimage_corpus(rng):
            got = preimage(ext(name, lam.n), w, lam.scalar_part())
            scale = max(1.0, float(np.abs(to_dense(lam)).max()))
            assert np.abs(to_dense(got) - to_dense(lam)).max() <= 1e-9 * scale
            image = dense_taylor(to_dense(got.dual_part()),
                                 TAYLOR[name](got.scalar_part(), lam.n))
            assert np.abs(image - to_dense(w)).max() <= 1e-9 * max(
                1.0, w.max_abs())

    def test_one_evaluation_per_preimage(self, rng, monkeypatch):
        # the reverted seed is the zero of the polynomial form to
        # rounding, so the lift's first residual confirms it
        calls = []
        eval_ = zeon.poly.ZeonPoly.eval

        def counted(self, u):
            calls.append(u)
            return eval_(self, u)

        monkeypatch.setattr(zeon.poly.ZeonPoly, "eval", counted)
        for name, lam, w in preimage_corpus(rng):
            calls.clear()
            preimage(ext(name, lam.n), w, lam.scalar_part())
            assert len(calls) == 1, (name, lam)

    def test_seed_near_a_critical_point_matches_the_oracle(self):
        # 1e-2 from cos's critical point pi the reverted seed is 4e-12
        # from lam; the scalar part is polished on cos alone, so the
        # polynomial form's rounding cannot move the seed off lam
        lam = Zeon(3, {(): math.pi - 1e-2, (1,): 0.5, (2,): 1.0, (3,): 1.5})
        w = from_dense(3, dense_taylor(to_dense(lam.dual_part()),
                                       TAYLOR["cos"](lam.scalar_part(), 3)))
        got = preimage(ext("cos", 3), w, lam.scalar_part())
        assert np.abs(to_dense(got) - to_dense(lam)).max() <= 1e-10

    def test_overflowing_seed_falls_back_to_the_scalar_point(self,
                                                             monkeypatch):
        monkeypatch.setattr(zeon.analytic, "_reversion",
                            lambda a: [math.inf] * (len(a) - 1))
        lam, w = cosine_pair()
        got = preimage(ZeonExtension(by_name("cos"), 4), w, math.pi / 6)
        assert got.isclose(lam, eps=1e-9)

    def test_slope_is_read_once_from_the_taylor_coefficients(self,
                                                             monkeypatch):
        # from an exact seed Newton takes no slope; f' at z is then read
        # once for the coefficients preimage reverts and once inside
        # polynomial_form, and the lift divides by the first of them
        counts = {}

        def derivative(z, k):
            counts[k] = counts.get(k, 0) + 1
            return by_name("cos").derivative(z, k)

        fn = AnalyticFunction("cos", derivative, lambda z: True)
        divisors = []
        lift = zeon.solve._lift

        def recorded(phi, lam, g0, scale):
            divisors.append(g0)
            return lift(phi, lam, g0, scale)

        monkeypatch.setattr(zeon.solve, "_newton", lambda f, fp, z: z)
        monkeypatch.setattr(zeon.solve, "_lift", recorded)
        lam, w = cosine_pair()
        got = preimage(ZeonExtension(fn, 4), w, math.pi / 6)
        assert got.isclose(lam, eps=1e-9)
        assert counts[1] == 2
        assert divisors == [-math.sin(math.pi / 6)]


# -- preimages at large scalar parts ------------------------------------------


# the dual part of the benchmark's large-scalar preimages
LARGE_DUAL = {(1,): 0.5, (2, 3): 0.25, (4, 5, 6): -0.125}
# the inputs of the grid below that raise: the lift stalls above eq_eps
# on the polynomial form's expanded coefficients
LARGE_REFUSED = {("log", 35.0), ("log", 50.0), ("sqrt", 35.0),
                 ("sqrt", 50.0)}


def within(got, lam, eps):
    """``got`` matches ``lam`` within ``eps`` relative to ``|lam|_1``."""
    want = to_dense(lam)
    return np.abs(to_dense(got) - want).max() <= eps * np.abs(want).sum()


class TestPreimageAtLargeScalars:
    @pytest.mark.parametrize("name", ["exp", "sin", "cos", "log", "sqrt"])
    @pytest.mark.parametrize("z0", [0.7, 3.0, 12.0, 20.0, 35.0, 50.0])
    def test_grid_matches_the_dense_oracle_or_raises(self, name, z0):
        lam = Zeon(8, {(): z0, **LARGE_DUAL})
        w = from_dense(8, dense_taylor(to_dense(lam.dual_part()),
                                       TAYLOR[name](z0, 8)))
        if (name, z0) in LARGE_REFUSED:
            with pytest.raises(ZeonError):
                preimage(ext(name, 8), w, z0)
        else:
            assert within(preimage(ext(name, 8), w, z0), lam, 1e-12)

    def test_random_preimages_are_right_or_refused(self, rng):
        # complex scalar parts of modulus 0.7-35 (log and sqrt off their
        # cut) at n = 2..9: a result is within 1e-9 of lam, or a
        # ZeonError; refusals stay a small share
        names = ("exp", "sin", "cos", "log", "sqrt")
        refused = 0
        for i in range(500):
            name = names[i % 5]
            n = int(rng.integers(2, 10))
            turn = rng.uniform(-2.5, 2.5) if name in ("log", "sqrt") else (
                rng.uniform(-math.pi, math.pi))
            s = rng.uniform(0.7, 35.0) * cmath.exp(1j * turn)
            lam = random_nilpotent(rng, n, scale=0.3) + s
            w = from_dense(n, dense_taylor(to_dense(lam.dual_part()),
                                           TAYLOR[name](s, n)))
            try:
                got = preimage(ext(name, n), w, s)
            except ZeonError:
                refused += 1
                continue
            assert within(got, lam, 1e-9), (name, lam)
        assert refused <= 50
