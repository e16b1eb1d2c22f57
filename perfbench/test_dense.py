"""Hand-worked values for the benchmark's dense reference and text reader.

Run with ``python -m pytest perfbench``.
"""

import numpy as np

import dense
import textread


def vec(n, terms):
    return dense.from_terms(n, terms)


def test_generator_squares_to_zero():
    z1 = vec(1, [((1,), 1.0)])
    assert np.array_equal(dense.mul(z1, z1), np.zeros(2))


def test_disjoint_blades_multiply_to_their_union():
    z1, z2 = vec(2, [((1,), 1.0)]), vec(2, [((2,), 1.0)])
    assert np.array_equal(dense.mul(z1, z2), vec(2, [((1, 2), 1.0)]))


def test_one_plus_z1_times_one_minus_z1_is_one():
    a, b = vec(1, [((), 1.0), ((1,), 1.0)]), vec(1, [((), 1.0), ((1,), -1.0)])
    assert np.array_equal(dense.mul(a, b), dense.scalar(1, 1.0))


def test_inverse_of_two_plus_z1():
    got = dense.inverse(vec(1, [((), 2.0), ((1,), 1.0)]))
    assert np.array_equal(got, vec(1, [((), 0.5), ((1,), -0.25)]))


def test_inverse_runs_the_whole_series():
    # (1 + z1 + z2)^-1 = 1 - z1 - z2 + 2 z{1,2}
    got = dense.inverse(vec(2, [((), 1.0), ((1,), 1.0), ((2,), 1.0)]))
    want = vec(2, [((), 1.0), ((1,), -1.0), ((2,), -1.0), ((1, 2), 2.0)])
    assert np.array_equal(got, want)


def test_horner_and_from_roots():
    # (u - 1)(u - z1) = u^2 - (1 + z1) u + z1, which vanishes at u = 1
    n = 1
    one, z1 = dense.scalar(n, 1.0), vec(n, [((1,), 1.0)])
    coeffs = dense.from_roots([one, z1])
    want = [z1, -(one + z1), one]
    assert all(np.array_equal(c, w) for c, w in zip(coeffs, want))
    assert np.array_equal(dense.horner(coeffs, one), np.zeros(2))
    # and at u = 2 gives 4 - 2 (1 + z1) + z1 = 2 - z1
    assert np.array_equal(dense.horner(coeffs, 2 * one),
                          dense.scalar(n, 2.0) - z1)


def test_taylor_exp_of_nilpotent_sum():
    # exp(z1 + z2) = 1 + z1 + z2 + z{1,2}
    got = dense.taylor("exp", vec(2, [((1,), 1.0), ((2,), 1.0)]))
    want = vec(2, [((), 1.0), ((1,), 1.0), ((2,), 1.0), ((1, 2), 1.0)])
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_taylor_sqrt_and_log():
    # sqrt(4 + z1) = 2 + z1/4, log(2 + z1) = log 2 + z1/2
    got = dense.taylor("sqrt", vec(1, [((), 4.0), ((1,), 1.0)]))
    assert np.allclose(got, vec(1, [((), 2.0), ((1,), 0.25)]), atol=1e-15)
    got = dense.taylor("log", vec(1, [((), 2.0), ((1,), 1.0)]))
    assert np.allclose(got, vec(1, [((), np.log(2)), ((1,), 0.5)]),
                       atol=1e-15)


def test_read_zeon_text():
    text = "-1.5 + (0.5-2i)*z{1,3} - z{2} + 1e-05i*z{1}"
    assert textread.read_zeon(text) == [
        ((), -1.5 + 0j), ((1, 3), 0.5 - 2j), ((2,), -1 + 0j),
        ((1,), 1e-05j)]
    assert textread.read_zeon("0") == []
    assert textread.read_poly("1; -z{1}") == [[((), 1 + 0j)],
                                               [((1,), -1 + 0j)]]


def test_written_text_reads_back():
    terms = [((), -0.5 + 2j), ((1, 2), 1e-20 - 3j)]
    assert textread.read_zeon(textread.write_zeon(terms)) == terms
