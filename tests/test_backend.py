"""The term kernels against the dense oracle."""

import cmath
import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_zeon, to_dense
from dense import from_terms, inverse, mul
from oracle import sparse_mul
from zeon import (DimensionMismatch, NonFiniteResult, Tolerance, Zeon,
                  ZeonError, backend_name, tolerance)
from zeon import _backend
from zeon._backend import add_terms, combine_terms, mul_terms


class TestSelection:
    def test_active_backend_is_reported(self):
        assert backend_name() == "numpy"


def test_reference_imports_no_zeon():
    # the dense reference and the test helpers on it share no code with
    # the package, so agreement with them is evidence, not an echo
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "perfbench"), str(here)]
    script = f"""if True:
        import sys
        sys.path[:0] = {paths!r}
        import dense, oracle
        print(sorted(m for m in sys.modules if m.split(".")[0] == "zeon"))
    """
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def dense_of(n: int, masks, coefs) -> np.ndarray:
    """Dense vector of raw (mask, coefficient) pairs, duplicates summed."""
    return from_terms(n, [(indices_of(int(m)), complex(c))
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
    """Force elements and the sum kernels onto their dict path or their
    numpy path; ``mul_terms`` itself has only the numpy one."""
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
            want = mul(dense_of(N, ia, ca), dense_of(N, ib, cb))
            for prune in (0.0, 0.5):
                assert_matches(mul_terms(ia, ca, ib, cb, prune),
                               want, prune)

    @pytest.mark.parametrize("sizes", MUL_SIZES)
    def test_product_at_measured_threshold(self, rng, sizes):
        # no forcing: the pair count picks the path in Zeon.mul_add
        a, b = (zeon_of(N, *canonical(rng, N, k)) for k in sizes)
        want = mul(to_dense(a), to_dense(b))
        assert_matches(arrays_of(a.mul(b)), want, 1e-14)

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
        assert np.array_equal(to_dense(u), from_terms(2, terms))
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
                want = mul(to_dense(a), to_dense(b))
                assert_matches(mul_terms(ia, ca, ib, cb, 0.0), want, 0.0)

    def test_empty_operand(self):
        z = Zeon.zero(2)
        u = Zeon.one(2)
        mi, mc = mul_terms(*arrays_of(z), *arrays_of(u), 0.0)
        assert mi.size == 0 and mc.size == 0


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

    def test_overflow_raises_one_error_on_either_form(self, path):
        # NonFiniteResult, with no numpy warning before it (the suite
        # turns RuntimeWarning into an error)
        huge = Zeon(2, {(): 1e200, (1,): 1e200})
        big = huge.scale(1e108)
        for result in (lambda: huge * huge, lambda: huge * 1e200,
                       lambda: big + big):
            with pytest.raises(NonFiniteResult) as exc:
                result()
            assert isinstance(exc.value, ZeonError)

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
        assert np.array_equal(mul(to_dense(u), to_dense(v)),
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
        assert np.array_equal(to_dense(want[1]), mul(da, db))
        assert np.array_equal(to_dense(want[3]), da + db)
        assert np.array_equal(to_dense(want[8]), mul(dc, dc))
        assert np.array_equal(to_dense(a), from_terms(n, a.terms()))


def zeon_of(n: int, masks, coefs) -> Zeon:
    return Zeon(n, [(indices_of(int(m)), complex(c))
                    for m, c in zip(masks, coefs)])


class TestFusedProduct:
    """``addend + a * b`` in one kernel call, against the dense oracle."""

    # (left, right, addend) term counts: pairs 12 and 90 at or below
    # SMALL_PAIRS, 100 and 256 above it; addends on either side of
    # SMALL_TERMS
    SIZES = [(3, 4, 5), (9, 10, 8), (10, 10, 12), (16, 16, 40), (3, 4, 40)]

    @pytest.mark.parametrize("sizes", SIZES)
    def test_kernel_matches_oracle(self, rng, path, sizes):
        for _ in range(5):
            ia, ca = canonical(rng, N, sizes[0])
            ib, cb = canonical(rng, N, sizes[1])
            ic, cc = canonical(rng, N, sizes[2])
            want = (mul(dense_of(N, ia, ca), dense_of(N, ib, cb))
                    + dense_of(N, ic, cc))
            for prune in (0.0, 0.5):
                assert_matches(mul_terms(ia, ca, ib, cb, prune, ic, cc),
                               want, prune)

    @pytest.mark.parametrize("sizes", SIZES)
    def test_element_matches_oracle(self, rng, path, sizes):
        for _ in range(5):
            a, b, c = (zeon_of(N, *canonical(rng, N, k)) for k in sizes)
            want = mul(to_dense(a), to_dense(b)) + to_dense(c)
            assert_matches(arrays_of(a.mul_add(b, c)), want, 1e-14)

    def test_small_product_with_wide_addend(self, rng):
        # no forcing: tuple factors, an array addend
        a, b = (zeon_of(N, *canonical(rng, N, 3)) for _ in range(2))
        c = zeon_of(N, *canonical(rng, N, 40))
        assert len(c.terms()) > _backend.SMALL_TERMS
        want = mul(to_dense(a), to_dense(b)) + to_dense(c)
        assert_matches(arrays_of(a.mul_add(b, c)), want, 1e-14)

    def test_exact_cancellation(self, rng, path):
        # dyadic coefficients: every partial sum is exact
        for size in (3, 12):
            a, b = dyadic_zeon(rng, 6, size), dyadic_zeon(rng, 6, size)
            assert a.mul_add(b, (a * b).scale(-1.0)).is_zero()
        u, v = Zeon(2, {(1,): 1, (2,): 1}), Zeon(2, {(1,): 1, (2,): -1})
        assert u.mul_add(v, Zeon.zero(2)).is_zero()

    def test_sum_exactly_at_prune_is_dropped(self, path):
        prune = 2.0 ** -10
        with tolerance(Tolerance(prune_eps=prune, eq_eps=prune)):
            a, b = Zeon(2, {(1,): 2.0 ** -5}), Zeon(2, {(2,): 2.0 ** -6})
            # the product alone, 2**-11, is at or below prune ...
            assert (a * b).is_zero()
            # ... and counts once the addend joins: pruned once, after
            lifted = a.mul_add(b, Zeon(2, {(1, 2): 1.5 * prune}))
            assert lifted.terms() == [((1, 2), 2 * prune)]
            # a sum exactly at prune is dropped
            at = a.mul_add(b.scale(-1.0), Zeon(2, {(1, 2): 1.5 * prune}))
            assert at.is_zero()
        one = np.array([1], dtype=np.uint64)
        two = np.array([2], dtype=np.uint64)
        three = np.array([3], dtype=np.uint64)
        m, c = mul_terms(one, np.array([0.5 + 0j]), two,
                         np.array([-prune + 0j]), prune, three,
                         np.array([1.5 * prune + 0j]))
        assert m.size == 0 and c.size == 0

    def test_overflow_raises_on_either_form(self, path):
        huge = Zeon(2, {(): 1e200, (1,): 1e200})
        big = Zeon(2, {(): 1e308, (2,): 1.0})
        one = Zeon.one(2)
        # an overflowing product, then finite products whose sum with
        # the addend overflows
        for result in (lambda: huge.mul_add(huge, one),
                       lambda: big.mul_add(one, big),
                       lambda: one.mul_add(big, big)):
            with pytest.raises(NonFiniteResult):
                result()

    def test_addend_from_another_algebra(self, path):
        u = Zeon(2, {(): 1, (1,): 2})
        with pytest.raises(DimensionMismatch):
            u.mul_add(u, Zeon.one(3))
        with pytest.raises(DimensionMismatch):
            u.mul_add(Zeon.one(3), u)

    # sha256 prefixes of ``repr(a.mul(b).terms())``, pinned from the
    # product without an addend.  Every product sums three or more pairs
    # on some mask, so any change to the order of those sums changes
    # them.  Keys: n, then the operands' term counts, 88 pairs (dict
    # path) and 100 and 256 (array path).  The array-path prefixes assume
    # numpy's AVX2/AVX-512 loops, whose complex multiply fuses
    # multiply-add; numpy's baseline loops (NPY_DISABLE_CPU_FEATURES=
    # "X86_V4 X86_V3") round those products otherwise (README,
    # Reproducibility).
    PINNED = {(4, 8, 11): "3a2eb81ebc47fda1",
              (8, 10, 10): "e2c250d9aa631184",
              (8, 16, 16): "dcc213dd8ef105fb"}

    @pytest.mark.parametrize("key", list(PINNED))
    def test_product_without_addend_is_unchanged(self, key):
        n, *sizes = key
        gen = np.random.default_rng(20211)
        # blades of grade <= 2 only, so the pairs collide often
        low = [m for m in range(1 << n) if bin(m).count("1") <= 2]
        a, b = (zeon_of(n, np.sort(gen.choice(low, size=k, replace=False)),
                        gen.normal(size=k) + 1j * gen.normal(size=k))
                for k in sizes)
        got = repr(a.mul(b).terms()).encode()
        assert hashlib.sha256(got).hexdigest()[:16] == self.PINNED[key]


class TestProductRoute:
    """``Zeon.mul_add`` alone picks a product's path: at most
    ``SMALL_PAIRS`` pairs run the dict product, whatever form the
    factors and the addend hold, and more run ``mul_terms``."""

    # (left, right, addend) term counts, 0 for no addend: tuple factors,
    # a 17-48-term factor (arrays) with a 1-5-term one, wide addends
    SMALL = [(3, 3, 0), (8, 12, 0), (40, 2, 0), (2, 48, 0), (17, 5, 0),
             (3, 3, 40), (48, 2, 40), (2, 40, 3), (1, 1, 17)]

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mul_terms reached")
        monkeypatch.setattr(_backend, "mul_terms", refuse)

    @pytest.mark.parametrize("sizes", SMALL)
    def test_small_products_skip_the_array_kernel(self, rng, no_kernel,
                                                  sizes):
        for _ in range(3):
            a, b, c = (zeon_of(N, *canonical(rng, N, k)) for k in sizes)
            assert len(a.terms()) * len(b.terms()) <= _backend.SMALL_PAIRS
            want = mul(to_dense(a), to_dense(b)) + to_dense(c)
            got = a.mul_add(b, c) if sizes[2] else a.mul(b)
            assert_matches(arrays_of(got), want, 1e-14)

    def test_one_pair_more_reaches_the_array_kernel(self, rng, no_kernel):
        a = zeon_of(N, *canonical(rng, N, _backend.SMALL_PAIRS + 1))
        b = zeon_of(N, *canonical(rng, N, 1))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(AssertionError, match="mul_terms reached"):
                x.mul(y)

    # sha256 prefixes of ``repr(result.terms())`` at n = 10 with blades
    # of grade <= 2, so the pairs collide often and any change to the
    # order of the dict product's sums changes them.  Keys: the
    # operation, then the term counts of the factors and the addend.
    PINNED = {("mul", 40, 2): "4ab030125f953cb9",
              ("mul", 2, 40): "56d90f91019ab726",
              ("mul", 17, 5): "4043ae015e452777",
              ("mul_add", 3, 3, 40): "1ad7ca2a6c721323",
              ("mul_add", 48, 2, 40): "97683487637fbd48",
              ("mul_add", 2, 40, 3): "a5a285e8197a8923"}

    @pytest.mark.parametrize("key", list(PINNED))
    def test_mixed_forms_are_unchanged(self, key):
        op, *sizes = key
        n = 10
        gen = np.random.default_rng(20211)
        low = [m for m in range(1 << n) if bin(m).count("1") <= 2]
        a, b, *c = (zeon_of(n, np.sort(gen.choice(low, size=k, replace=False)),
                            gen.normal(size=k) + 1j * gen.normal(size=k))
                    for k in sizes)
        got = a.mul_add(b, c[0]) if c else a.mul(b)
        digest = hashlib.sha256(repr(got.terms()).encode()).hexdigest()
        assert digest[:16] == self.PINNED[key]


def sparse_canonical(rng, bits: int, size: int):
    """``size`` distinct ascending masks of grade 1 or 2 below bit
    ``bits``, one of them holding bit ``bits - 1``; random coefficients."""
    masks = {1 << (bits - 1)}
    while len(masks) < size:
        picked = rng.choice(bits, size=int(rng.integers(1, 3)), replace=False)
        masks.add(sum(1 << int(b) for b in picked))
    coefs = rng.normal(size=size) + 1j * rng.normal(size=size)
    return np.array(sorted(masks), dtype=np.uint64), coefs


def index_sets(masks, coefs) -> dict:
    """Raw (mask, coefficient) pairs as ``{frozenset: coefficient}``,
    duplicates summed."""
    out: dict = {}
    for m, c in zip(masks.tolist(), coefs.tolist()):
        key = frozenset(indices_of(m))
        out[key] = out.get(key, 0) + c
    return out


def plus(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


def assert_matches_sets(got, want: dict, prune: float) -> None:
    """Like :func:`assert_matches`, against index-set terms."""
    masks, coefs = got
    assert masks.dtype == np.uint64 and coefs.dtype == np.complex128
    expected = sorted((sum(1 << (i - 1) for i in k), c)
                      for k, c in want.items() if abs(c) > prune)
    assert masks.tolist() == [m for m, _ in expected]
    scale = max([1.0] + [abs(c) for c in want.values()])
    diff = np.abs(coefs - np.array([c for _, c in expected], dtype=complex))
    assert diff.max(initial=0.0) < 1e-14 * scale


class TestKeyWidths:
    """The array product runs on masks narrowed to the smallest unsigned
    dtype that holds them, and every kernel returns uint64 masks; results
    at each width's edge, checked against the index-set oracle (a dense
    one needs 2**n slots)."""

    # the widest mask's bit count: either side of 8, 16 and 32 bits, and
    # the full 64 that the kernels (not elements) accept
    BITS = [8, 9, 16, 17, 32, 33, 64]

    @pytest.fixture(autouse=True)
    def wide(self, monkeypatch):
        monkeypatch.setattr(_backend, "SMALL_PAIRS", 0)
        monkeypatch.setattr(_backend, "SMALL_TERMS", 0)

    @pytest.mark.parametrize("bits", BITS)
    def test_product(self, rng, bits):
        for _ in range(3):
            ia, ca = sparse_canonical(rng, bits, 16)
            ib, cb = sparse_canonical(rng, bits, 12)
            want = sparse_mul(index_sets(ia, ca), index_sets(ib, cb))
            for prune in (0.0, 0.5):
                assert_matches_sets(mul_terms(ia, ca, ib, cb, prune), want,
                                    prune)

    @pytest.mark.parametrize("bits", BITS)
    def test_product_with_addend(self, rng, bits):
        ia, ca = sparse_canonical(rng, bits, 16)
        ib, cb = sparse_canonical(rng, bits, 12)
        ic, cc = sparse_canonical(rng, bits, 20)
        want = plus(sparse_mul(index_sets(ia, ca), index_sets(ib, cb)),
                    index_sets(ic, cc))
        assert_matches_sets(mul_terms(ia, ca, ib, cb, 0.0, ic, cc), want, 0.0)

    @pytest.mark.parametrize("bits", [9, 17, 33])
    def test_addend_wider_than_the_factors(self, rng, bits):
        # the factors fit the next narrower dtype, the addend's top mask
        # does not: a width read off the factors would wrap it onto a
        # low blade (bit 8 of 256 is 0 in uint8)
        ia, ca = sparse_canonical(rng, bits - 1, 16)
        ib, cb = sparse_canonical(rng, bits - 1, 12)
        ic = np.array([0, 1, 1 << (bits - 1), (1 << (bits - 1)) | 1],
                      dtype=np.uint64)
        cc = np.array([1.0, 2j, 3.0, -4j])
        want = plus(sparse_mul(index_sets(ia, ca), index_sets(ib, cb)),
                    index_sets(ic, cc))
        got = mul_terms(ia, ca, ib, cb, 0.0, ic, cc)
        assert_matches_sets(got, want, 0.0)
        assert got[0][-1] == (1 << (bits - 1)) | 1

    @pytest.mark.parametrize("bits", BITS)
    def test_combine(self, rng, bits):
        # unsorted, mostly duplicates, the widest mask anywhere
        pool, _ = sparse_canonical(rng, bits, 10)
        masks = rng.choice(pool, size=60)
        coefs = rng.normal(size=60) + 1j * rng.normal(size=60)
        want = index_sets(masks, coefs)
        for prune in (0.0, 0.5):
            assert_matches_sets(combine_terms(masks, coefs, prune), want,
                                prune)

    @pytest.mark.parametrize("bits", BITS)
    def test_sum(self, rng, bits):
        ia, ca = sparse_canonical(rng, bits, 20)
        ib, cb = sparse_canonical(rng, bits - 1, 20)
        want = plus(index_sets(ia, ca), index_sets(ib, cb))
        for args in ((ia, ca, ib, cb), (ib, cb, ia, ca)):
            assert_matches_sets(add_terms(*args, 0.0), want, 0.0)

    @pytest.mark.parametrize("n", [9, 17, 32])
    def test_stored_arrays(self, rng, n):
        a, b, c = (zeon_of(n, *sparse_canonical(rng, n, k))
                   for k in (16, 12, 20))
        for u in (a * b, a.mul_add(b, c), a + c, Zeon(n, (a * b).terms())):
            assert not u.is_zero()
            for stored in (u._idx, u._coef):
                assert isinstance(stored, np.ndarray)
                assert not stored.flags.writeable
            assert u._idx.dtype == np.uint64
            assert u.support_masks()[-1] >> (n - 1) == 1


class TestDenseShapes:
    """Products and an inverse at the benchmark's dense shapes: random
    blades of every grade, 4-7% of the pairs disjoint and many masks
    summing three or more of them, so any change to the order of those
    sums changes the sha256 prefixes of ``repr(result.terms())`` pinned
    here.  They assume numpy's AVX2/AVX-512 loops, whose complex multiply
    fuses multiply-add; numpy's baseline loops (NPY_DISABLE_CPU_FEATURES=
    "X86_V4 X86_V3") round these products otherwise (README,
    Reproducibility)."""

    PINNED = {("mul", 10, 128, 128): "709f303ccf56e8e3",
              ("mul", 11, 256, 256): "065d666439ec6bdd",
              ("mul_add", 10, 128, 128, 128): "fd20baf987e57e3c",
              ("inverse", 10, 128): "8d5304a161df8d59"}

    @staticmethod
    def draw(gen, n: int, size: int, scalar=None) -> Zeon:
        """``size`` random blades; with ``scalar``, that scalar part and
        ``size - 1`` blades of grade one or more."""
        if scalar is None:
            masks = gen.choice(1 << n, size=size, replace=False)
        else:
            masks = np.concatenate([[0], gen.choice(
                np.arange(1, 1 << n), size=size - 1, replace=False)])
        coefs = 0.2 * (gen.normal(size=size) + 1j * gen.normal(size=size))
        if scalar is not None:
            coefs[0] = scalar
        return zeon_of(n, np.sort(masks), coefs)

    @pytest.mark.parametrize("key", list(PINNED))
    def test_result_is_unchanged(self, key):
        op, n, *sizes = key
        gen = np.random.default_rng(20211)
        if op == "inverse":
            got = self.draw(gen, n, sizes[0], scalar=1.5 - 0.5j).inverse()
        else:
            a, b, *c = (self.draw(gen, n, k) for k in sizes)
            got = a.mul_add(b, c[0]) if c else a.mul(b)
        digest = hashlib.sha256(repr(got.terms()).encode()).hexdigest()
        assert digest[:16] == self.PINNED[key]


def running_taylor(x: Zeon, a) -> Zeon:
    """``sum_k a[k] x**k`` for coefficients of non-increasing magnitude,
    as a running sum of ``Zeon.add``: each power is carried scaled to
    its coefficient, ``x**k a[k] = x**(k-1) a[k-1] * x * (a[k] / a[k-1])``,
    the steps the Taylor sum takes for such coefficients."""
    total = Zeon.scalar(x.n, a[0])
    p, size = x, 1.0
    for k in range(1, len(a)):
        if k > 1:
            p = p.mul(x)
        if p.is_zero():
            break
        if a[k] != size:
            p, size = p.scale(a[k] / size), a[k]
        total = total.add(p)
    return total


class TestInOrderSums:
    """``dict_sum`` and ``combine_terms`` both add each mask's
    coefficients left to right, as a running sum does.  So a sum of
    elements, a Taylor sum's scaled powers or the two operands of
    ``Zeon.add``, is canonicalised once, by one ``dict_sum`` when every
    part holds tuples and by one ``combine_terms`` call otherwise, and
    still gives the running sum's bits."""

    @pytest.fixture
    def combines(self, monkeypatch):
        """Sizes of the ``combine_terms`` calls made through the module."""
        calls = []
        kernel = _backend.combine_terms

        def counted(masks, coefs, prune):
            calls.append(masks.size)
            return kernel(masks, coefs, prune)

        monkeypatch.setattr(_backend, "combine_terms", counted)
        return calls

    def test_runs_sum_left_to_right(self, rng):
        # one mask per run length 3..13, shuffled through the input, with
        # magnitudes over twelve decades so that another order of the
        # additions rounds differently
        lengths = np.arange(3, 14)
        for _ in range(20):
            masks = np.repeat(lengths.astype(np.uint64) * 37, lengths)
            rng.shuffle(masks)
            coefs = ((rng.normal(size=masks.size)
                      + 1j * rng.normal(size=masks.size))
                     * 10.0 ** rng.uniform(-6, 6, size=masks.size))
            want = {}
            for m, c in zip(masks.tolist(), coefs.tolist()):
                want[m] = want[m] + c if m in want else c
            got = combine_terms(masks, coefs, 0.0)
            assert got[0].tolist() == sorted(want)
            assert repr(got[1].tolist()) == repr([want[m]
                                                  for m in sorted(want)])

    def test_wide_inverse_is_one_running_sum(self, combines):
        gen = np.random.default_rng(20211)
        n = 10
        u = TestDenseShapes.draw(gen, n, 128, scalar=1.5 - 0.5j)
        c = u.scalar_part()
        x = u.dual_part().scale(-1.0 / c)
        assert len(x.terms()) > _backend.SMALL_TERMS
        want = running_taylor(x, [1.0 / c] * (n + 1))
        combines.clear()
        got = u.inverse()
        assert len(combines) == 1
        assert repr(got.terms()) == repr(want.terms())

    def test_wide_exp_is_one_running_sum(self, combines):
        from zeon.analytic import EXP, ZeonExtension, extend_eval

        gen = np.random.default_rng(7)
        n = 9
        s = 0.3 + 0.2j
        u = TestDenseShapes.draw(gen, n, 128, scalar=s)
        a = [cmath.exp(s) / math.factorial(k) for k in range(n + 1)]
        want = running_taylor(u.dual_part(), a)
        combines.clear()
        got = extend_eval(ZeonExtension(EXP, n), u)
        assert len(combines) == 1
        assert repr(got.terms()) == repr(want.terms())

    def test_tuple_form_sum_never_combines(self, combines):
        # four disjoint atoms: every power and partial sum has at most
        # 2**4 terms, so it all stays in tuple form
        n = 8
        u = Zeon(n, {(): 3.0, (1,): 1.0, (2,): 2j, (3, 4): 1.0, (5,): -1.0})
        want = running_taylor(u.dual_part().scale(-1 / 3.0),
                              [1 / 3.0] * (n + 1))
        got = u.inverse()
        assert combines == []
        assert repr(got.terms()) == repr(want.terms())

    def test_tuple_powers_with_wide_total_never_combine(self, combines):
        # every power has at most 10 terms, but the sum has more than
        # SMALL_TERMS, so a running total would turn wide on the way
        n = 6
        u = Zeon(n, {(): 2.0, (1,): 1.0, (2,): 0.5j, (3, 4): 0.25,
                     (5,): -1.0, (1, 6): 0.3})
        c = u.scalar_part()
        x = u.dual_part().scale(-1.0 / c)
        want = running_taylor(x, [1.0 / c] * (n + 1))
        assert len(want.terms()) > _backend.SMALL_TERMS
        combines.clear()
        got = u.inverse()
        assert combines == []
        assert repr(got.terms()) == repr(want.terms())
        assert np.allclose(to_dense(got), inverse(to_dense(u)),
                           rtol=0.0, atol=1e-13)

    @staticmethod
    def spread(gen, n: int, masks) -> Zeon:
        """``1.5 - 0.5i`` plus the blades ``masks``, with coefficients
        over four decades, so that where a blade gathers the terms of
        three or more powers another order of their sum rounds
        differently."""
        masks = np.sort(masks)
        size = masks.size
        coefs = ((gen.normal(size=size) + 1j * gen.normal(size=size))
                 * 10.0 ** gen.uniform(-2, 2, size=size))
        return zeon_of(n, np.concatenate([[0], masks]),
                       np.concatenate([[1.5 - 0.5j], coefs]))

    def test_tuple_powers_sum_in_order(self, combines):
        # at n = 4 every element is in tuple form, so the whole sum is
        # one dict_sum
        gen = np.random.default_rng(3)
        n = 4
        pool = [m for m in range(1, 1 << n) if m.bit_count() <= 3]
        u = self.spread(gen, n, gen.choice(pool, size=11, replace=False))
        c = u.scalar_part()
        want = running_taylor(u.dual_part().scale(-1.0 / c),
                              [1.0 / c] * (n + 1))
        combines.clear()
        got = u.inverse()
        assert combines == []
        assert repr(got.terms()) == repr(want.terms())

    def test_tuple_element_with_wide_powers_combines_once(self, combines):
        # every generator and seven grade-2 blades: 15 terms, whose
        # square has more than SMALL_TERMS
        gen = np.random.default_rng(5)
        n = 8
        pairs = [m for m in range(1 << n) if m.bit_count() == 2]
        u = self.spread(gen, n, np.concatenate(
            [1 << np.arange(n), gen.choice(pairs, size=7, replace=False)]))
        c = u.scalar_part()
        x = u.dual_part().scale(-1.0 / c)
        assert type(x._idx) is tuple and type(x.mul(x)._idx) is not tuple
        want = running_taylor(x, [1.0 / c] * (n + 1))
        combines.clear()
        got = u.inverse()
        assert len(combines) == 1
        assert repr(got.terms()) == repr(want.terms())

    @staticmethod
    def folded(*parts) -> list:
        """Terms of the sum of ``parts``, each blade's coefficients added
        left to right and pruned once, at the default ``prune_eps``."""
        acc = {}
        for p in parts:
            for m, (_, c) in zip(p.support_masks(), p.terms()):
                acc[m] = acc[m] + c if m in acc else c
        prune = Tolerance().prune_eps
        return [(indices_of(m), c) for m, c in sorted(acc.items())
                if abs(c) > prune]

    @pytest.mark.parametrize("sizes", [(16, 16), (16, 40), (40, 16)])
    def test_add_is_one_in_order_sum(self, rng, sizes):
        n = 6
        ma, ca = canonical(rng, n, sizes[0])
        # b shares a's first four blades, the first with the opposite
        # coefficient, so that one cancels and is pruned after the sum
        rest = np.setdiff1d(np.arange(1 << n, dtype=np.uint64), ma)
        mb = np.sort(np.concatenate(
            [ma[:4], rng.choice(rest, size=sizes[1] - 4, replace=False)]))
        cb = rng.normal(size=sizes[1]) + 1j * rng.normal(size=sizes[1])
        cb[mb == ma[0]] = -ca[0]
        a, b = zeon_of(n, ma, ca), zeon_of(n, mb, cb)
        assert [type(u._idx) is tuple for u in (a, b)] == [
            k <= _backend.SMALL_TERMS for k in sizes]
        got = a.add(b)
        assert int(ma[0]) not in got.support_masks()
        assert repr(got.terms()) == repr(self.folded(a, b))
