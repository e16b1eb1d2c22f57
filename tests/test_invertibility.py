"""Where invertibility starts: every entry point that needs an invertible
scalar part or leading coefficient draws the line at the same ``eq_eps``.

Under ``eq_eps = 1e-3`` a scalar part of exactly ``1e-3`` is refused and
one of ``1.001e-3`` is accepted.  The accepted results are checked
against the dense oracle in ``oracle.py``.
"""

import numpy as np
import pytest

from zeon import (
    DivisorNotMonicizable,
    LeadingCoefficientNotInvertible,
    NotInvertible,
    Tolerance,
    Zeon,
    ZeonPoly,
    divide,
    kth_roots,
    nilpotent_sqrt,
    principal_kth_root,
    quadratic_solve,
    spectrally_simple_zero,
    split,
    tolerance,
)

from conftest import to_dense
from oracle import dense_inverse, dense_mul, dense_pow

EPS = 1e-3
REFUSED, ACCEPTED = EPS, 1.001e-3


def element(c: complex) -> Zeon:
    """Scalar part ``c`` plus a dual part whose square is not zero."""
    return Zeon(2, {(): c, (1,): 0.5, (2,): 0.25})


def inverting(c: complex) -> ZeonPoly:
    """``element(c) * u - 1``: its one zero is ``element(c)``'s inverse."""
    return ZeonPoly([Zeon.scalar(2, -1.0), element(c)])


# name: (error when refused, the library's result at an accepted c as a
# dense vector, the oracle's value for it from element(c) as a dense vector)
CASES = {
    "inverse": (
        NotInvertible,
        lambda c: to_dense(element(c).inverse()),
        dense_inverse),
    "kth_roots": (
        NotInvertible,
        lambda c: dense_pow(to_dense(kth_roots(element(c), 2)[1]), 2),
        lambda a: a),
    "principal_kth_root": (
        NotInvertible,
        lambda c: dense_pow(to_dense(principal_kth_root(element(c), 3)), 3),
        lambda a: a),
    "monic": (
        LeadingCoefficientNotInvertible,
        lambda c: to_dense(ZeonPoly([Zeon.one(2), element(c)]).monic()
                           .coeff(0)),
        dense_inverse),
    "divide": (
        DivisorNotMonicizable,
        lambda c: to_dense(divide(ZeonPoly.monomial(2, 1),
                                  ZeonPoly.monomial(2, 1, element(c)))
                           .quotient.coeff(0)),
        dense_inverse),
    "split": (
        LeadingCoefficientNotInvertible,
        lambda c: to_dense(split(inverting(c)).spectral_zeros[0].zero),
        dense_inverse),
    "spectrally_simple_zero": (
        LeadingCoefficientNotInvertible,
        lambda c: to_dense(spectrally_simple_zero(inverting(c), 1 / c).zero),
        dense_inverse),
    "quadratic_solve": (
        LeadingCoefficientNotInvertible,
        # element(c) * u**2 = 1, so each zero squares to the inverse
        lambda c: [dense_mul(v, v) for v in map(to_dense, quadratic_solve(
            element(c), Zeon.zero(2), Zeon.scalar(2, -1.0)).zeros)],
        dense_inverse),
}


@pytest.mark.parametrize("name", CASES)
def test_invertible_exactly_above_eq_eps(name):
    error, run, oracle = CASES[name]
    with tolerance(Tolerance(eq_eps=EPS)):
        with pytest.raises(error):
            run(REFUSED)
        got = run(ACCEPTED)
    want = oracle(to_dense(element(ACCEPTED)))
    for value in got if isinstance(got, list) else [got]:
        assert np.allclose(value, want, rtol=1e-9,
                           atol=1e-12 * np.abs(want).max())


def test_nilpotent_sqrt_takes_a_scalar_part_up_to_eq_eps_as_nilpotent():
    w = Zeon(2, {(1, 2): 2.0})
    with tolerance(Tolerance(eq_eps=EPS)):
        root = nilpotent_sqrt(w + REFUSED)
        with pytest.raises(ValueError, match="nilpotent"):
            nilpotent_sqrt(w + ACCEPTED)
    assert np.allclose(dense_mul(to_dense(root), to_dense(root)), to_dense(w))
