"""Result records and Tolerance: value semantics, immutability, repr."""

import copy
import inspect
import math
import pickle

import pytest

from zeon import (
    EXP,
    AnalyticFunction,
    DivisionResult,
    FamilySpec,
    QuadraticKind,
    QuadraticOutcome,
    ScalarRoot,
    SolveReport,
    SpectralZero,
    Tolerance,
    Zeon,
    ZeonExtension,
    ZeonPoly,
    ZeroSetDescription,
    ZeroSetKind,
    mask_to_indices,
    quadratic_solve,
    split,
    tolerance,
)

U = Zeon(2, {(): 1, (1,): 2})
P = ZeonPoly.from_scalars(2, [-1, 0, 1])
ROOT = ScalarRoot(1 + 0j, 1, True)

# one instance of each record class
RECORDS = [
    ScalarRoot(value=1 + 0j, multiplicity=1, simple=True),
    SpectralZero(zero=U, seed=ROOT, iterations=2, residual=0.0,
                 grade_trace=(1, 2)),
    FamilySpec(text="1 + eta", scalar=1 + 0j, nilpotency_bound=2),
    ZeroSetDescription(kind=ZeroSetKind.FINITE_LIST, zeros=(U,)),
    SolveReport(poly=P, scalar_spectrum=(ROOT,), spectral_zeros=(),
                families=(), warnings=("w",)),
    DivisionResult(quotient=P, remainder=P),
    QuadraticOutcome(kind=QuadraticKind.TWO_DISTINCT, zeros=(U, U),
                     discriminant=U),
    AnalyticFunction(name="exp", derivative=EXP.derivative,
                     in_domain=EXP.in_domain),
    ZeonExtension(fn=EXP, n=2),
    Tolerance(eq_eps=1e-8, cluster_eps=1e-6),
]
IDS = [type(r).__name__ for r in RECORDS]

# each class's fields in order, with their defaults
EMPTY = inspect.Parameter.empty
FIELDS = {
    ScalarRoot: [("value", EMPTY), ("multiplicity", EMPTY),
                 ("simple", EMPTY)],
    SpectralZero: [("zero", EMPTY), ("seed", EMPTY), ("iterations", EMPTY),
                   ("residual", EMPTY), ("grade_trace", ())],
    FamilySpec: [("text", EMPTY), ("scalar", EMPTY),
                 ("nilpotency_bound", None), ("base", None),
                 ("direction", None)],
    ZeroSetDescription: [("kind", EMPTY), ("zeros", ()),
                         ("family_spec", None)],
    SolveReport: [("poly", EMPTY), ("scalar_spectrum", EMPTY),
                  ("spectral_zeros", EMPTY), ("families", EMPTY),
                  ("warnings", EMPTY)],
    DivisionResult: [("quotient", EMPTY), ("remainder", EMPTY)],
    QuadraticOutcome: [("kind", EMPTY), ("zeros", EMPTY),
                       ("discriminant", EMPTY), ("family_base", None),
                       ("note", "")],
    AnalyticFunction: [("name", EMPTY), ("derivative", EMPTY),
                       ("in_domain", EMPTY)],
    ZeonExtension: [("fn", EMPTY), ("n", EMPTY)],
    Tolerance: [("prune_eps", 1e-14), ("eq_eps", 1e-9), ("root_eps", 1e-10),
                ("cluster_eps", 1e-7)],
}


def field_names(record):
    return [name for name, _ in FIELDS[type(record)]]


def test_every_record_class_is_covered():
    assert {type(r) for r in RECORDS} == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == FIELDS[cls]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_records_are_equal_and_hash_alike(record):
    twin = type(record)(**{f: getattr(record, f)
                           for f in field_names(record)})
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_are_immutable(record):
    for name in field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_names_the_fields(record):
    shown = ", ".join(f"{f}={getattr(record, f)!r}"
                      for f in field_names(record))
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_records_with_different_fields_differ():
    assert ScalarRoot(1, 1, True) != ScalarRoot(1, 2, True)
    assert Tolerance() != Tolerance(cluster_eps=1e-6)
    assert Tolerance() != tuple(v for _, v in FIELDS[Tolerance])


def test_solve_report_digest_is_a_property():
    report = RECORDS[4]
    digest = report.input_digest
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert report.input_digest == digest
    assert "input_digest" not in SolveReport._fields


def test_every_way_of_building_a_tolerance_validates():
    tol = RECORDS[-1]
    assert copy.copy(tol) == copy.deepcopy(tol) == tol
    assert pickle.loads(pickle.dumps(tol)) == tol
    # a Tolerance forged past __init__ cannot be copied or pickled
    # into a valid-looking one: both rebuild through the constructor
    forged = object.__new__(Tolerance)
    for name, value in zip(field_names(tol),
                           (1e-14, math.nan, 1e-10, 1e-7)):
        object.__setattr__(forged, name, value)
    for rebuild in (copy.copy, copy.deepcopy,
                    lambda t: pickle.loads(pickle.dumps(t))):
        with pytest.raises(ValueError):
            rebuild(forged)
    # and there is no constructor that skips the checks
    assert not hasattr(Tolerance, "_make")
    assert not hasattr(Tolerance, "_replace")
    with pytest.raises(ValueError):
        Tolerance(1e-14, math.nan)


# -- copies and pickles of elements --------------------------------------------

# 19 dual terms: past the small-element limit, so stored as arrays
WIDE = Zeon(5, [(mask_to_indices(m), 0.25 * m - 0.5j) for m in range(1, 20)])
SMALL_ROOT = Zeon(5, {(): 1, (1,): 2, (2, 3): -0.5j})
WIDE_ROOT = 3 + WIDE
CUBIC = ZeonPoly.from_roots(5, [SMALL_ROOT, WIDE_ROOT, -2])
QUADRATIC = ZeonPoly.from_roots(5, [SMALL_ROOT, WIDE_ROOT])
REBUILDS = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
REBUILD_IDS = ["copy", "deepcopy", "pickle"]


def assert_rebuilt(original, rebuilt):
    assert rebuilt == original
    assert hash(rebuilt) == hash(original)


@pytest.mark.parametrize("rebuild", REBUILDS, ids=REBUILD_IDS)
@pytest.mark.parametrize("value", [SMALL_ROOT, WIDE, CUBIC],
                         ids=["small", "wide", "poly"])
def test_elements_copy_and_pickle(value, rebuild):
    assert len(WIDE.terms()) == 19
    assert_rebuilt(value, rebuild(value))


@pytest.mark.parametrize("rebuild", REBUILDS, ids=REBUILD_IDS)
def test_records_holding_elements_copy_and_pickle(rebuild):
    report = split(CUBIC)
    outcome = quadratic_solve(*reversed(QUADRATIC.coeffs))
    assert len(report.spectral_zeros) == 3
    assert outcome.kind is QuadraticKind.TWO_DISTINCT
    assert max(len(z.terms()) for z in outcome.zeros) >= 17
    for record in (report, outcome, *report.spectral_zeros):
        assert_rebuilt(record, rebuild(record))
    for zero in (*outcome.zeros, outcome.discriminant,
                 *(z.zero for z in report.spectral_zeros)):
        assert_rebuilt(zero, rebuild(zero))


def test_element_copies_keep_terms_below_the_current_prune_eps():
    with tolerance(Tolerance(prune_eps=0.0)):
        fine = Zeon(1, {(): 1, (1,): 1e-20})
        poly = ZeonPoly([fine, 1e-20])
    for rebuild in REBUILDS:
        assert_rebuilt(fine, rebuild(fine))
        assert_rebuilt(poly, rebuild(poly))
