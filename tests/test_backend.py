"""The term kernels against the dense oracle."""

import numpy as np
import pytest

from conftest import random_zeon, to_dense
from oracle import dense_from_terms, dense_mul
from zeon import Zeon, backend_name
from zeon import _backend
from zeon._backend import add_terms, combine_terms, mul_terms


class TestSelection:
    def test_active_backend_is_reported(self):
        assert backend_name() == "numpy"


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def dense_of(n: int, masks, coefs) -> np.ndarray:
    """Dense vector of raw (mask, coefficient) pairs, duplicates summed."""
    return dense_from_terms(n, [(indices_of(int(m)), complex(c))
                                for m, c in zip(masks, coefs)])


def assert_matches(got, want: np.ndarray, prune: float) -> None:
    """``got`` is canonical and holds exactly the terms of ``want`` above
    ``prune``, to rounding."""
    masks, coefs = got
    assert masks.dtype == np.uint64 and coefs.dtype == np.complex128
    assert masks.shape == coefs.shape
    assert np.all(masks[1:] > masks[:-1])
    assert np.all(np.abs(coefs) > prune)
    expected = np.flatnonzero(np.abs(want) > prune)
    assert masks.tolist() == expected.tolist()
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(coefs - want[expected]).max(initial=0.0) < 1e-14 * scale


def arrays_of(u: Zeon):
    """Kernel arrays of an element, read through its public API."""
    return (np.array(u.support_masks(), dtype=np.uint64),
            np.array([c for _, c in u.terms()], dtype=np.complex128))


def canonical(rng, n: int, size: int):
    """``size`` distinct ascending masks over n generators, random coefficients."""
    masks = np.sort(rng.choice(1 << n, size=size, replace=False))
    coefs = rng.normal(size=size) + 1j * rng.normal(size=size)
    return masks.astype(np.uint64), coefs


@pytest.fixture(params=["small", "wide"])
def path(request, monkeypatch):
    """Force every kernel onto its dict path or its numpy path."""
    limit = 10**9 if request.param == "small" else 0
    monkeypatch.setattr(_backend, "SMALL_PAIRS", limit)
    monkeypatch.setattr(_backend, "SMALL_TERMS", limit)
    return request.param


N = 8
# operand sizes around each threshold: pairs 90, 96, 100 against
# SMALL_PAIRS; totals 15, 16, 17 against SMALL_TERMS
MUL_SIZES = [(1, 1), (9, 10), (8, 12), (10, 10), (16, 16)]
ADD_SIZES = [(0, 3), (1, 1), (7, 8), (8, 8), (8, 9), (40, 40)]
RAW_SIZES = [1, 15, 16, 17, 100]


class TestSmallOperandPaths:
    def test_thresholds_sit_between_the_sizes_tested(self):
        pairs = sorted(a * b for a, b in MUL_SIZES)
        assert pairs[0] <= _backend.SMALL_PAIRS < pairs[-1]
        totals = sorted(a + b for a, b in ADD_SIZES)
        assert totals[0] <= _backend.SMALL_TERMS < totals[-1]

    @pytest.mark.parametrize("sizes", MUL_SIZES)
    def test_product_matches_oracle(self, rng, path, sizes):
        for _ in range(5):
            ia, ca = canonical(rng, N, sizes[0])
            ib, cb = canonical(rng, N, sizes[1])
            want = dense_mul(dense_of(N, ia, ca), dense_of(N, ib, cb))
            for prune in (0.0, 0.5):
                assert_matches(mul_terms(ia, ca, ib, cb, prune),
                               want, prune)

    @pytest.mark.parametrize("sizes", MUL_SIZES)
    def test_product_at_measured_threshold(self, rng, sizes):
        # no forcing: the size picks the path
        ia, ca = canonical(rng, N, sizes[0])
        ib, cb = canonical(rng, N, sizes[1])
        want = dense_mul(dense_of(N, ia, ca), dense_of(N, ib, cb))
        assert_matches(mul_terms(ia, ca, ib, cb, 1e-14), want, 1e-14)

    @pytest.mark.parametrize("sizes", ADD_SIZES)
    def test_sum_matches_oracle(self, rng, path, sizes):
        for _ in range(5):
            ia, ca = canonical(rng, N, sizes[0])
            ib, cb = canonical(rng, N, sizes[1])
            want = dense_of(N, ia, ca) + dense_of(N, ib, cb)
            for prune in (0.0, 0.5):
                assert_matches(add_terms(ia, ca, ib, cb, prune), want, prune)

    @pytest.mark.parametrize("sizes", ADD_SIZES)
    def test_sum_at_measured_threshold(self, rng, sizes):
        ia, ca = canonical(rng, N, sizes[0])
        ib, cb = canonical(rng, N, sizes[1])
        want = dense_of(N, ia, ca) + dense_of(N, ib, cb)
        assert_matches(add_terms(ia, ca, ib, cb, 1e-14), want, 1e-14)

    @pytest.mark.parametrize("size", RAW_SIZES)
    def test_combine_matches_oracle(self, rng, path, size):
        for _ in range(5):
            # few distinct masks, so most entries are duplicates
            masks = rng.integers(0, 16, size=size).astype(np.uint64)
            coefs = rng.normal(size=size) + 1j * rng.normal(size=size)
            want = dense_of(N, masks, coefs)
            for prune in (0.0, 0.5):
                assert_matches(combine_terms(masks, coefs, prune), want,
                               prune)

    def test_exact_cancellation(self, path):
        # (z1 + z2)(z1 - z2) = z1 z2 - z1 z2 = 0 exactly
        a, b = Zeon(2, {(1,): 1, (2,): 1}), Zeon(2, {(1,): 1, (2,): -1})
        assert (a * b).is_zero()
        u = Zeon(3, {(): 2.5, (1, 3): -1j, (2,): 0.125})
        assert (u + (-u)).is_zero()
        assert (u - u).is_zero()
        assert (u + (1 - u)) == Zeon.one(3)
        masks = np.array([5, 5, 2, 5, 2], dtype=np.uint64)
        coefs = np.array([1.5, -2.0, 1j, 0.5, -1j], dtype=np.complex128)
        m, c = combine_terms(masks, coefs, 0.0)
        assert m.size == 0 and c.size == 0

    def test_duplicate_masks_in_constructor(self, path):
        terms = [((1,), 1.0), ((), 2.0), ((1,), 2.5), ((2,), 1j),
                 ((1,), -3.5), ((), 0.25), ((1, 2), 1.0), ((1, 2), 1.0)]
        u = Zeon(2, terms)
        assert u.support_masks() == [0, 2, 3]
        assert np.array_equal(to_dense(u), dense_from_terms(2, terms))
        assert u.coeff((1,)) == 0

    def test_coefficient_exactly_at_prune_is_dropped(self, path):
        # every output term is pruned, not only the ones that collided
        prune = 1e-3
        one = np.array([1], dtype=np.uint64)
        two = np.array([2], dtype=np.uint64)
        at = np.array([prune], dtype=np.complex128)
        above = np.array([2 * prune], dtype=np.complex128)
        m, c = add_terms(one, at, two, above, prune)
        assert m.tolist() == [2] and c.tolist() == [2 * prune]
        m, c = add_terms(one, above, one, -at, prune)
        assert m.size == 0
        # an empty operand is no shortcut: the other one is pruned too
        empty_m, empty_c = one[:0], at[:0]
        assert add_terms(one, at, empty_m, empty_c, prune)[0].size == 0
        assert add_terms(empty_m, empty_c, one, at, prune)[0].size == 0
        # 0.5 * (2 * prune) is exactly prune
        m, c = mul_terms(one, np.array([0.5 + 0j]), two, above, prune)
        assert m.size == 0
        m, c = mul_terms(one, np.array([1 + 0j]), two, above, prune)
        assert m.tolist() == [3]
        m, c = combine_terms(np.array([4, 1], dtype=np.uint64),
                             np.array([prune, -2 * prune]), prune)
        assert m.tolist() == [1] and c.tolist() == [-2 * prune]

    def test_empty_operands(self, path):
        empty_m = np.empty(0, dtype=np.uint64)
        empty_c = np.empty(0, dtype=np.complex128)
        ia, ca = np.array([0, 3], dtype=np.uint64), np.array([1 + 0j, 2j])
        for got in (mul_terms(empty_m, empty_c, ia, ca, 0.0),
                    mul_terms(ia, ca, empty_m, empty_c, 0.0),
                    add_terms(empty_m, empty_c, empty_m, empty_c, 0.0),
                    combine_terms(empty_m, empty_c, 0.0)):
            assert got[0].size == 0 and got[1].size == 0
        m, c = add_terms(empty_m, empty_c, ia, ca, 0.0)
        assert m.tolist() == [0, 3] and c.tolist() == [1, 2j]


class TestKernelAgreement:
    def test_products_match_elementwise(self, rng):
        for n in range(1, 7):
            for _ in range(50):
                a = random_zeon(rng, n)
                b = random_zeon(rng, n)
                ia, ca = arrays_of(a)
                ib, cb = arrays_of(b)
                want = dense_mul(to_dense(a), to_dense(b))
                assert_matches(mul_terms(ia, ca, ib, cb, 0.0), want, 0.0)

    def test_empty_operand(self):
        z = Zeon.zero(2)
        u = Zeon.one(2)
        mi, mc = mul_terms(*arrays_of(z), *arrays_of(u), 0.0)
        assert mi.size == 0 and mc.size == 0


# numpy warns about the overflow before the kernel refuses the result
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestFiniteResults:
    """Finite operands whose result overflows are refused, never stored."""

    def test_overflow_is_refused(self, path):
        u = Zeon(2, {(1,): 1})
        huge = Zeon(2, {(): 1e200, (1,): 1e200})
        big = Zeon(2, {(): 1e308, (1,): 1.0})
        # the z1 coefficient of this product is -inf + inf = nan
        a = Zeon(1, {(): 1e300, (1,): 1e300})
        b = Zeon(1, {(): 1e300, (1,): -1e300})
        for result in (lambda: u * 1e308 * 10, lambda: huge ** 2,
                       lambda: huge * huge, lambda: big + big,
                       lambda: big - (-big), lambda: a * b,
                       lambda: Zeon(2, [((), 1e308), ((), 1e308)])):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                result()

    def test_non_finite_input_is_refused_on_either_kernel(self, path):
        for count in (1, 16, 17, 40):
            terms = [((1,), 1.0)] * (count - 1) + [((2,), float("nan"))]
            with pytest.raises(ValueError, match="coefficients must be finite"):
                Zeon(2, terms)

    def test_array_kernels_refuse_overflow(self, path):
        one = np.array([1], dtype=np.uint64)
        two = np.array([2], dtype=np.uint64)
        big = np.array([1e308 + 0j])
        with pytest.raises(ValueError, match="coefficients must be finite"):
            mul_terms(one, big, two, big, 0.0)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            add_terms(one, big, one, big, 0.0)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            combine_terms(np.array([1, 1], dtype=np.uint64),
                          np.array([1e308, 1e308], dtype=np.complex128), 0.0)


def dyadic_zeon(rng, n: int, size: int) -> Zeon:
    """``size`` distinct blades with small dyadic coefficients, so every
    sum and product below is exact whatever the summation order."""
    masks = rng.choice(1 << n, size=size, replace=False).tolist()
    coefs = rng.integers(-8, 9, size=(size, 2)) / 4
    return Zeon(n, [(indices_of(m), complex(re or 0.25, im))
                    for m, (re, im) in zip(masks, coefs.tolist())])


class TestStorageForms:
    """An element is the same whether it is held as tuples or arrays."""

    @staticmethod
    def assert_same(a: Zeon, b: Zeon) -> None:
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert a.terms() == b.terms()
        assert a.support_masks() == b.support_masks()

    def test_wide_product_cancelling_to_one(self, rng):
        n = 5
        u = 1 + dyadic_zeon(rng, n, 24).dual_part()
        v = u.inverse()
        assert len(u.terms()) > _backend.SMALL_TERMS
        one = u * v
        self.assert_same(one, Zeon.one(n))
        assert one == 1 and one.is_scalar()
        assert np.array_equal(dense_mul(to_dense(u), to_dense(v)),
                              to_dense(Zeon.one(n)))

    @pytest.mark.parametrize("size", [15, 16, 17])
    def test_either_form_at_the_boundary(self, rng, monkeypatch, size):
        n = 6
        a = dyadic_zeon(rng, n, size)
        b = dyadic_zeon(rng, n, 3)
        # a wide product whose grade >= 4 terms annihilate down to few
        c = dyadic_zeon(rng, n, 20).grade_part(3)

        def results(a, b, c):
            return [a, a * b, b * a, a + b, a - b.scale(0.5), a.dual_part(),
                    a.grade_part(2), a.grade_part(3) * c, c * c,
                    Zeon.one(n), a * a.dual_part().scale(0)]

        want = results(a, b, c)
        for limit in (0, 10**9):
            monkeypatch.setattr(_backend, "SMALL_PAIRS", limit)
            monkeypatch.setattr(_backend, "SMALL_TERMS", limit)
            got = results(*(Zeon(n, x.terms()) for x in (a, b, c)))
            monkeypatch.undo()
            for x, y in zip(want, got):
                self.assert_same(x, y)
        da, db, dc = to_dense(a), to_dense(b), to_dense(c)
        assert np.array_equal(to_dense(want[1]), dense_mul(da, db))
        assert np.array_equal(to_dense(want[3]), da + db)
        assert np.array_equal(to_dense(want[8]), dense_mul(dc, dc))
        assert np.array_equal(to_dense(a), dense_from_terms(n, a.terms()))
