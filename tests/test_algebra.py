"""Core element arithmetic, grading, inverses, and k-th roots.

Expected values marked "frozen" below were computed with the dense
brute-force expansion of the dense reference (``perfbench/dense.py``)
and pasted in as literals.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeon import (
    MAX_GENERATORS,
    NotInvertible,
    Tolerance,
    Zeon,
    default_tolerance,
    generators,
    indices_to_mask,
    kth_roots,
    mask_to_indices,
    principal_kth_root,
    tolerance,
)

from conftest import random_invertible, random_zeon, to_dense
from dense import power
from oracle import dense_taylor


def z(n, *terms):
    return Zeon(n, list(terms))


ONE1 = Zeon.one(1)
Z1 = Zeon.blade(1, (1,))


# -- construction and blades -------------------------------------------------


def test_blade_products():
    z1, z2, z3 = generators(3)
    assert z1 * z2 == Zeon.blade(3, (1, 2))
    assert (z1 * z1).is_zero()
    assert Zeon.one(3) * z3 == z3


def test_constructor_combines_duplicate_terms():
    u = Zeon(2, [((1,), 1.0), ((1,), 2.5), ((), 1.0)])
    assert u.coeff((1,)) == 3.5
    assert u.coeff(()) == 1.0


def test_constructor_prunes_dust():
    u = Zeon(1, [((1,), 1e-15), ((), 1.0)])
    assert u == Zeon.scalar(1, 1.0)


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        Zeon(2, [((0,), 1.0)])
    with pytest.raises(ValueError):
        Zeon(2, [((3,), 1.0)])
    with pytest.raises(ValueError):
        Zeon(2, [((1, 1), 1.0)])
    with pytest.raises(ValueError):
        Zeon(MAX_GENERATORS + 1, [])
    with pytest.raises(ValueError):
        Zeon(2, [((1,), float("nan"))])


def test_generator_count_must_be_integral():
    # int(n) used to truncate it: Zeon(2.5, ...) lived in n = 2
    with pytest.raises(TypeError):
        Zeon(2.5, {(1,): 1.0})
    with pytest.raises(TypeError):
        Zeon.zero(2.0)
    assert Zeon(np.int64(2), {(2,): 1.0}).n == 2


def test_scalar_rejects_what_the_constructor_rejects():
    for bad in (float("nan"), complex(1.0, float("inf")), float("-inf")):
        with pytest.raises(ValueError):
            Zeon.scalar(2, bad)
    with pytest.raises(ValueError):
        Zeon.scalar(MAX_GENERATORS + 1, 1)
    with pytest.raises(ValueError):
        Zeon.scalar(-1, 1)
    with pytest.raises(ValueError):
        Zeon.zero(MAX_GENERATORS + 1)
    with pytest.raises(ValueError):
        Zeon.one(MAX_GENERATORS + 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 complex("nan+1j")])
def test_scale_rejects_what_the_constructor_rejects(bad):
    # a NaN factor used to prune every term away and return zero, and an
    # infinite one stored inf+nanj coefficients that repr cannot format
    u = Zeon(2, {(): 2.0, (1,): 1.0, (1, 2): -0.5j})
    for product in (lambda: u.scale(bad), lambda: u * bad,
                    lambda: bad * u, lambda: Zeon.zero(2) * bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            product()


def test_scalar_prunes_at_prune_eps():
    eps = default_tolerance().prune_eps
    for c in (1e-16, eps, -eps, 1j * eps):
        u = Zeon.scalar(3, c)
        assert u.is_zero()
        assert u == Zeon.zero(3) == Zeon(3, {(): c})
    assert Zeon.scalar(3, 2 * eps).scalar_part() == 2 * eps
    with tolerance(Tolerance(prune_eps=1e-3, eq_eps=1e-2)):
        assert Zeon.scalar(1, 1e-3).is_zero()
        assert not Zeon.scalar(1, 2e-3).is_zero()


@pytest.mark.parametrize("n", [0, 1, 5, MAX_GENERATORS])
def test_unit_and_zero_match_general_constructor(n):
    cases = [
        (Zeon.one(n), Zeon(n, {(): 1})),
        (Zeon.zero(n), Zeon(n, ())),
        (Zeon.scalar(n, 2 - 1j), Zeon(n, [((), 2 - 1j)])),
    ]
    for fast, general in cases:
        assert fast == general
        assert hash(fast) == hash(general)
        assert fast.n == general.n == n
        assert fast.terms() == general.terms()
        assert fast.support_masks() == general.support_masks()
        assert fast.scalar_part() == general.scalar_part()


def test_elements_are_immutable():
    u = z(1, ((1,), 1.0))
    with pytest.raises(AttributeError):
        u.n = 2


def test_mask_helpers_round_trip():
    for indices in [(), (1,), (2, 5), (1, 2, 3)]:
        assert mask_to_indices(indices_to_mask(indices)) == indices
    with pytest.raises(ValueError):
        indices_to_mask((2, 2))


# -- linear structure ---------------------------------------------------------


def test_add_examples():
    a = z(1, ((), 1.0), ((1,), 1.0))
    b = z(1, ((), 1.0), ((1,), -1.0))
    assert a + b == Zeon.scalar(1, 2.0)
    u = random_zeon(np.random.default_rng(7), 4)
    assert u.scale(0.0).is_zero()
    z1, z2 = generators(2)
    assert z1 + z2 == z(2, ((1,), 1.0), ((2,), 1.0))


def test_mul_annihilation_and_frozen_squares():
    a = z(1, ((), 1.0), ((1,), 1.0))
    b = z(1, ((), 1.0), ((1,), -1.0))
    assert a * b == ONE1
    z1, z2 = generators(2)
    # frozen: (z1+z2)**2 expands to exactly 2*z{1,2}
    assert (z1 + z2) * (z1 + z2) == z(2, ((1, 2), 2.0))
    # frozen: (1+z1)**3 expands to 1 + 3*z1
    c = z(1, ((), 1.0), ((1,), 1.0))
    assert c.power(3) == z(1, ((), 1.0), ((1,), 3.0))


def test_mixed_dimension_operands_are_rejected():
    from zeon import DimensionMismatch

    with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
        Zeon.one(1) + Zeon.one(2)
    with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
        Zeon.one(1) * Zeon.one(2)
    with pytest.raises(DimensionMismatch, match=r"^operands live in different algebras: n=1 vs n=2$"):
        Zeon.one(1).mul_add(Zeon.one(1), Zeon.one(2))


# -- grading -------------------------------------------------------------------


def test_grade_part_examples():
    u = z(2, ((), 3.0), ((1,), 1.0), ((1, 2), 1.0))
    assert u.grade_part(0) == Zeon.scalar(2, 3.0)
    assert u.grade_part(2) == z(2, ((1, 2), 1.0))
    assert u.grade_part(1) == z(2, ((1,), 1.0))
    with pytest.raises(ValueError):
        u.grade_part(-1)


def test_grading_completeness(rng):
    u = random_zeon(rng, 5)
    total = Zeon.zero(5)
    for k in range(6):
        total = total + u.grade_part(k)
    assert total == u


def test_scalar_dual_split():
    u = z(1, ((), 3.0), ((1,), 1.0))
    assert u.scalar_part() == 3.0
    assert u.dual_part() == Z1
    assert z(2, ((1, 2), 1.0)).scalar_part() == 0.0


def test_scalar_plus_dual_reassembles(rng):
    u = random_zeon(rng, 4)
    assert Zeon.scalar(4, u.scalar_part()) + u.dual_part() == u


def test_min_grade():
    u = z(3, ((1, 2), 1.0), ((1, 2, 3), 1.0))
    assert u.min_grade() == 2
    assert u.min_grade_part() == z(3, ((1, 2), 1.0))
    v = z(1, ((), 5.0), ((1,), 1.0))
    assert v.min_grade() == 0
    assert v.min_grade_part() == Zeon.scalar(1, 5.0)
    # sentinel for the zero element sits one above the top grade
    assert Zeon.zero(3).min_grade() == 4


def test_nilpotency_index():
    assert Z1.nilpotency_index() == 2
    assert Zeon.zero(2).nilpotency_index() == 1
    z1, z2 = generators(2)
    # frozen: (z1+z2)**2 = 2*z{1,2} != 0 and (z1+z2)**3 = 0
    assert (z1 + z2).nilpotency_index() == 3
    assert Zeon.one(2).nilpotency_index() is None


# -- inverses ------------------------------------------------------------------


def test_inverse_examples():
    assert Zeon.scalar(1, 2.0).inverse() == Zeon.scalar(1, 0.5)
    u = z(1, ((), 1.0), ((1,), 1.0))
    assert u.inverse() == z(1, ((), 1.0), ((1,), -1.0))
    # frozen: inverse of 1+z1+z2, product with input returns exactly 1
    v = z(2, ((), 1.0), ((1,), 1.0), ((2,), 1.0))
    expected = z(2, ((), 1.0), ((1,), -1.0), ((2,), -1.0), ((1, 2), 2.0))
    assert v.inverse() == expected
    assert v * v.inverse() == Zeon.one(2)


def test_inverse_requires_invertible():
    with pytest.raises(NotInvertible):
        Z1.inverse()
    with pytest.raises(NotInvertible):
        Zeon.scalar(1, 1e-12).inverse()


def test_inverse_round_trip(rng):
    for n in range(1, 7):
        for _ in range(25):
            u = random_invertible(rng, n)
            prod = u * u.inverse()
            assert prod.isclose(Zeon.one(n), eps=1e-10)


def assert_matches(got: Zeon, want: np.ndarray) -> None:
    # coefficient by coefficient, so a small term is not hidden behind a
    # large one; terms at or below prune_eps may be dropped
    assert np.allclose(to_dense(got), want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("u", [
    # (-d/c)**2 = 5e-15 z{1,2} is below prune_eps, the term 5e-12 is not
    z(2, ((), 1e-3), ((1,), 5e-11), ((2,), 5e-11)),
    z(3, ((), 2.0), ((1,), 1.0), ((2, 3), -0.5j), ((1, 2), 3.0)),
    z(4, ((), -1j), ((1,), 1e6), ((2,), 1e-6), ((3, 4), 1.0)),
    Zeon.scalar(2, 4.0),
], ids=["near-prune", "mixed", "wide-range", "scalar"])
def test_inverse_matches_dense_taylor(u):
    # 1/(c + d) = sum_k (1/c) (-d/c)**k
    c = u.scalar_part()
    want = dense_taylor(-to_dense(u.dual_part()) / c, [1 / c] * (u.n + 1))
    assert_matches(u.inverse(), want)


def test_division_operator(rng):
    u = random_invertible(rng, 3)
    v = random_invertible(rng, 3)
    assert (u / v).isclose(u * v.inverse())
    assert (u / 2.0).isclose(u.scale(0.5))


def test_division_by_a_number_checks_invertibility():
    u = z(1, ((), 4.0), ((1,), 1.0))
    assert u / 2.0 == u.scale(0.5)
    # a plain number takes the same test as a scalar element
    for divisor in (1e-12, 0, Zeon.scalar(1, 1e-12)):
        with pytest.raises(NotInvertible):
            u / divisor


# -- powers --------------------------------------------------------------------


def test_power_examples(rng):
    assert Z1.power(2).is_zero()
    u = random_zeon(rng, 3)
    assert u.power(1) == u
    assert u.power(0) == Zeon.one(3)
    assert (u ** 2).isclose(u * u)
    with pytest.raises(ValueError):
        u.power(-1)


def test_power_refuses_a_non_integral_exponent():
    u = z(1, ((), 4.0), ((1,), 1.0))
    for k in (0.5, 2.7, 2.0):
        with pytest.raises(TypeError):
            u ** k
    assert u ** True == u
    assert u ** np.int64(3) == u.power(3)


@pytest.mark.parametrize("u, k", [
    (z(3, ((1,), 1.5), ((2, 3), -1j), ((1, 2), 0.5)), 2),
    (z(3, ((1,), 1.5), ((2, 3), -1j)), 3),
    (z(2, ((), 2.0 - 1j), ((1,), 1.0), ((2,), 0.5j)), 5),
    (z(3, ((), 2.0), ((1,), 1.0), ((2, 3), -0.5j)), 0),
    (z(2, ((), 1e3), ((1,), 1.0), ((1, 2), 2.0)), 3),
    (z(3, ((), cmath.exp(0.3j)), ((1,), 0.25), ((2,), -0.5), ((3,), 1j)), 64),
], ids=["nilpotent", "nilpotent-k-above-n", "k-above-n", "k-zero",
        "large-scalar", "unit-modulus-k64"])
def test_power_matches_dense(u, k):
    want = power(to_dense(u), k)
    assert np.allclose(to_dense(u.power(k)), want, rtol=1e-12,
                       atol=1e-12 * np.abs(want).max())


# -- k-th roots ----------------------------------------------------------------


def test_square_roots_of_4_plus_4z1():
    w = z(1, ((), 4.0), ((1,), 4.0))
    expected = z(1, ((), 2.0), ((1,), 1.0))
    roots = kth_roots(w, 2)
    assert len(roots) == 2
    assert roots[0].isclose(expected)
    assert roots[1].isclose(expected.scale(-1.0))
    for r in roots:
        assert (r * r).isclose(w)


def test_cube_roots_of_1_plus_3z1():
    w = z(1, ((), 1.0), ((1,), 3.0))
    roots = kth_roots(w, 3)
    assert roots[0].isclose(z(1, ((), 1.0), ((1,), 1.0)))
    # frozen: the other two roots are (1+z1) scaled by the cube roots of
    # unity; each cubes back to 1+3*z1 under the dense oracle
    omega = cmath.exp(2j * cmath.pi / 3)
    assert roots[1].isclose(z(1, ((), omega), ((1,), omega)))
    assert roots[2].isclose(z(1, ((), omega ** 2), ((1,), omega ** 2)))
    for r in roots:
        assert r.power(3).isclose(w, eps=1e-12)


def test_fourth_roots_of_unity():
    roots = kth_roots(Zeon.one(1), 4)
    values = [r.scalar_part() for r in roots]
    for got, want in zip(values, [1, 1j, -1, -1j]):
        assert abs(got - want) < 1e-12


def test_principal_roots():
    r = principal_kth_root(Zeon.scalar(1, -4.0), 2)
    assert abs(r.scalar_part() - 2j) < 1e-12
    w = z(1, ((), 4.0), ((1,), 4.0))
    assert principal_kth_root(w, 2).isclose(z(1, ((), 2.0), ((1,), 1.0)))
    w3 = z(1, ((), 1.0), ((1,), 3.0))
    assert principal_kth_root(w3, 3).isclose(z(1, ((), 1.0), ((1,), 1.0)))


def test_roots_keep_dual_parts_at_extreme_scalar_scales():
    # sqrt(s + d) = sqrt(s) + d / (2 sqrt(s)) to first order; d/s itself
    # sits below prune_eps here, so it must not be pruned on the way
    r = principal_kth_root(z(1, ((), 1e20), ((1,), 1e5)), 2)
    assert abs(r.coeff((1,)) - 5e-6) < 1e-18
    # and the other way round: d*d = 2e-20 z{1,2} is far below prune_eps
    # but contributes -d*d / (8 s**1.5) = -2.5e-9 to the root
    r = principal_kth_root(z(2, ((), 1e-8), ((1,), 1e-10), ((2,), 1e-10)), 2)
    assert abs(r.coeff((1, 2)) + 2.5e-9) < 1e-20


def binomial(p: complex, j: int) -> complex:
    out = 1.0 + 0j
    for i in range(j):
        out *= (p - i) / (i + 1)
    return out


@pytest.mark.parametrize("w, k", [
    (z(2, ((), 1e-8), ((1,), 1e-10), ((2,), 1e-10)), 2),
    (z(3, ((), 1e20), ((1,), 1e5), ((2,), 1e5), ((3,), 1e5)), 3),
    (z(4, ((), -4.0), ((1,), 1.0), ((2, 3), 2j), ((4,), -0.5)), 5),
    (z(2, ((), 2.0), ((1,), 1.0), ((2,), 1.0)), 1),
    # binom(1/2, 1) r / c = 5e-21 is below prune_eps, the term 5e19 z{1}
    # is not
    (z(1, ((), 1e40), ((1,), 1e40)), 2),
    # binom(1/2, 1) r / c * d*d = 1e290 z{1,2} is finite, r * d*d is not
    (z(2, ((), 1e20), ((1,), 1e150), ((2,), 1e150)), 2),
    # binom(1/2, 2) r / c**2 * d = 1.25e-31 z{1} is below prune_eps, the
    # term -0.25 z{1,2} is not
    (z(2, ((), 1e40), ((1,), 1e30), ((2,), 1e30)), 2),
    # binom(1/2, 1) r / c * d*d = 1e310 overflows, the term -2.5e289
    # z{1,2} does not
    (z(2, ((), 1e20), ((1,), 1e160), ((2,), 1e160)), 2),
    # the root's z{1..8} term, binom(1/2, 8) 8! 1e20 = -5.3e22, is finite
    (Zeon(8, {(): 1e40, **{(i,): 1e40 for i in range(1, 9)}}), 2),
])
def test_principal_root_matches_dense_taylor(w, k):
    # w**(1/k) = r sum_j binom(1/k, j) (d/c)**j, r the principal root of
    # c; powers of d/c, since d*d or c**j may overflow where the root
    # does not
    c = w.scalar_part()
    r = cmath.exp(cmath.log(c) / k)
    coeffs = [binomial(1 / k, j) * r for j in range(w.n + 1)]
    assert_matches(principal_kth_root(w, k),
                   dense_taylor(to_dense(w.dual_part()) / c, coeffs))


def test_kth_roots_reject_non_invertible():
    with pytest.raises(NotInvertible):
        kth_roots(Z1, 2)
    with pytest.raises(ValueError):
        kth_roots(ONE1, 0)


def test_kth_roots_keep_the_principal_root(rng, monkeypatch):
    # the first root is the principal one as computed, not a copy of it
    # scaled by 1; the other k - 1 are each one scaling of it
    w = random_invertible(rng, 4)
    calls = []
    scale = Zeon.scale

    def counted(self, c):
        calls.append(c)
        return scale(self, c)

    monkeypatch.setattr(Zeon, "scale", counted)
    for k in (1, 2, 5):
        calls.clear()
        principal = principal_kth_root(w, k)
        own = len(calls)
        roots = kth_roots(w, k)
        assert repr(roots[0]) == repr(principal)
        assert len(calls) - 2 * own == k - 1


def test_kth_roots_deterministic_and_distinct(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        w = random_invertible(rng, n)
        first = kth_roots(w, k)
        second = kth_roots(w, k)
        assert first == second
        scalars = [r.scalar_part() for r in first]
        for i in range(k):
            for j in range(i + 1, k):
                assert abs(scalars[i] - scalars[j]) > 1e-9
        for r in first:
            assert r.power(k).isclose(w, eps=1e-8)


# -- tolerances ----------------------------------------------------------------


@pytest.mark.parametrize("fields", [
    {"prune_eps": math.nan},
    {"eq_eps": math.inf},
    {"eq_eps": math.nan},
    {"root_eps": 0.0},
    {"root_eps": -1e-10},
    {"root_eps": math.nan},
    {"root_eps": math.inf},
    {"cluster_eps": -1.0},
    {"cluster_eps": math.nan},
    {"cluster_eps": math.inf},
])
def test_tolerance_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        Tolerance(**fields)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(prune_eps=-1.0)
    with pytest.raises(ValueError):
        Tolerance(prune_eps=1e-6, eq_eps=1e-9)


def test_tolerance_edges_accepted():
    # both ends of prune_eps's range and a zero cluster_eps are settings
    assert Tolerance(prune_eps=0.0, cluster_eps=0.0).prune_eps == 0.0
    assert Tolerance(prune_eps=1e-9, eq_eps=1e-9).eq_eps == 1e-9


def test_default_tolerance_swap():
    with tolerance(Tolerance(eq_eps=1e-6)):
        assert default_tolerance().eq_eps == 1e-6
        with pytest.raises(NotInvertible):
            Zeon.scalar(1, 1e-7).inverse()


COARSE = Tolerance(prune_eps=1e-3, eq_eps=1e-2)


def test_nested_tolerance_blocks_restore_the_outer_one():
    with tolerance(COARSE) as outer:
        assert outer is COARSE
        with tolerance(Tolerance(eq_eps=1e-6)):
            assert default_tolerance().eq_eps == 1e-6
        assert default_tolerance() is COARSE
        with pytest.raises(NotInvertible):
            with tolerance(Tolerance(eq_eps=1e-6)):
                Zeon.scalar(1, 1e-7).inverse()
        assert default_tolerance() is COARSE
    assert default_tolerance() == Tolerance()


def test_tolerance_refuses_a_non_tolerance():
    with pytest.raises(TypeError):
        tolerance(1e-6)


def test_threads_prune_by_their_own_tolerance():
    # both threads sit inside their blocks at once, so a setting shared
    # between them would make one of the two prune wrongly
    import threading

    barrier = threading.Barrier(2, timeout=10)
    kept = {}

    def work(name, tol):
        with tolerance(tol):
            barrier.wait()
            kept[name] = [not Zeon.scalar(1, 1e-4).is_zero()
                          for _ in range(200)]
            barrier.wait()

    threads = [threading.Thread(target=work, args=("coarse", COARSE)),
               threading.Thread(target=work, args=("fine", Tolerance()))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert kept == {"coarse": [False] * 200, "fine": [True] * 200}


def test_thread_started_inside_a_block_sees_the_defaults():
    import threading

    seen = []
    with tolerance(COARSE):
        t = threading.Thread(target=lambda: seen.append(default_tolerance()))
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    assert seen == [Tolerance()]


def test_inverse_prunes_by_the_tolerance_in_force():
    # the element is built at the defaults, so its 0.0001 z{1} is stored;
    # the coarse block drops that term of d/c, and with it every product
    u = Zeon(2, {(): 1, (1,): 1e-4, (2,): 1})
    with tolerance(COARSE):
        assert u.inverse() == Zeon(2, {(): 1, (2,): -1})
    assert u.inverse().isclose(
        Zeon(2, {(): 1, (1,): -1e-4, (2,): -1, (1, 2): 2e-4}), eps=1e-15)


def test_no_public_callable_takes_a_tolerance():
    import inspect

    import zeon

    assert not hasattr(zeon, "set_default_tolerance")
    checked = []
    for name in zeon.__all__:
        obj = getattr(zeon, name)
        # a class's own functions: methods, classmethods, __init__
        members = ([getattr(m, "__func__", m) for m in vars(obj).values()]
                   if inspect.isclass(obj) else [obj])
        for fn in filter(inspect.isfunction, members):
            assert "tol" not in inspect.signature(fn).parameters, fn
            checked.append(fn)
    # the methods that took one before are among those looked at
    assert Zeon.inverse in checked and zeon.ZeonPoly.monic in checked


def test_no_public_callable_takes_a_numeric_knob():
    # every threshold is a field of the one Tolerance in force; only
    # Tolerance's own constructor names them
    import inspect

    import zeon

    knobs = {"tol", "cluster_eps", "max_iter"}
    assert list(inspect.signature(Tolerance).parameters) == [
        "prune_eps", "eq_eps", "root_eps", "cluster_eps"]
    checked = []
    for name in zeon.__all__:
        obj = getattr(zeon, name)
        if obj is Tolerance:
            continue
        members = ([getattr(m, "__func__", m) for m in vars(obj).values()]
                   if inspect.isclass(obj) else [obj])
        for fn in filter(inspect.isfunction, members):
            params = inspect.signature(fn).parameters
            assert not knobs & set(params), fn
            # nor a hidden one: a leading underscore marks a knob too
            assert not [p for p in params if p.startswith("_")], fn
            checked.append(fn)
    assert list(inspect.signature(zeon.scalar_roots).parameters) == ["coeffs"]
    assert list(inspect.signature(zeon.split).parameters) == ["phi"]
    assert list(inspect.signature(zeon.spectrally_simple_zero).parameters
                ) == ["phi", "lam0"]
    assert zeon.scalar_roots in checked and zeon.split in checked
    assert zeon.spectrally_simple_zero in checked


def test_isclose_uses_eps():
    u = Zeon.scalar(1, 1.0)
    v = Zeon.scalar(1, 1.0 + 1e-12)
    assert u.isclose(v)
    assert not u.isclose(v, eps=1e-14)


# -- misc API -----------------------------------------------------------------


def test_terms_iteration_sorted():
    u = z(3, ((1, 2, 3), 1.0), ((), 2.0), ((2,), 3.0))
    indices = [t for t, _ in u.terms()]
    assert indices == [(), (2,), (1, 2, 3)]


def test_hash_and_equality():
    a = z(2, ((1,), 1.0))
    b = Zeon(2, [((1,), 0.5), ((1,), 0.5)])
    assert a == b and hash(a) == hash(b)
    assert a != z(2, ((1,), 1.0 + 1e-6))


def test_iteration_yields_the_terms():
    u = z(3, ((1, 2, 3), 1.0), ((), 2.0), ((2,), 3.0))
    assert list(u) == u.terms()
    assert list(Zeon.zero(2)) == []


@pytest.mark.parametrize("other", ["1", object(), None])
def test_equality_with_a_foreign_object_is_false(other):
    # Zeon.__eq__ defers to the other operand, and Python falls back to
    # identity: unequal, with no error
    u = Zeon.one(2)
    assert u.__eq__(other) is NotImplemented
    assert (u == other) is False and (other == u) is False
    assert u != other


def test_repr_shows_canonical_text():
    from zeon import format_zeon, parse_zeon

    u = z(2, ((), 1.5), ((1, 2), -2.0))
    assert format_zeon(u) in repr(u)
    assert parse_zeon(format_zeon(u), 2) == u


def test_scalar_algebra_without_generators():
    u = Zeon.scalar(0, 3.0)
    assert (u * u).scalar_part() == 9.0
    assert u.inverse().scalar_part() == pytest.approx(1 / 3)


def test_each_module_lists_its_exports():
    # a submodule's __all__ names exactly what zeon exports from it
    import importlib

    import zeon

    for module, names in zeon._EXPORTS.items():
        mod = importlib.import_module(f"zeon.{module}")
        assert set(mod.__all__) == set(names), module


# -- algebraic laws (hypothesis) ----------------------------------------------


def small_zeons(n):
    coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                               allow_nan=False, allow_infinity=False)
    index_sets = st.sets(st.integers(1, n), max_size=n).map(
        lambda s: tuple(sorted(s)))
    term = st.tuples(index_sets, coeff)
    return st.lists(term, max_size=6).map(lambda ts: Zeon(n, ts))


@settings(max_examples=60, deadline=None)
@given(small_zeons(3), small_zeons(3))
def test_multiplication_commutes(a, b):
    assert (a * b).isclose(b * a, eps=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_zeons(3), small_zeons(3), small_zeons(3))
def test_multiplication_associates(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    scale = max(1.0, left.max_abs(), right.max_abs())
    assert (left - right).max_abs() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(small_zeons(3), small_zeons(3), small_zeons(3))
def test_multiplication_distributes(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    scale = max(1.0, left.max_abs(), right.max_abs())
    assert (left - right).max_abs() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(small_zeons(4))
def test_square_of_dual_has_even_or_absent_support_floor(u):
    # minimum grade of a nonzero nilpotent square is always >= 2
    d = u.dual_part()
    sq = d * d
    if not sq.is_zero():
        assert sq.min_grade() >= 2
