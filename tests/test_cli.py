"""Command line interface: exit codes, formats, files, batch mode."""

import hashlib
import json
import math
import subprocess
import sys
from collections import namedtuple
from io import StringIO

import pytest

import zeon.poly
from zeon import (
    FamilySpec,
    QuadraticOutcome,
    ScalarRoot,
    SolveReport,
    SpectralZero,
    Zeon,
    ZeroSetDescription,
    default_tolerance,
    parse_zeon,
)
from zeon.cli import _dispatch, main

Z1 = Zeon.blade(2, (1,))

QUARTIC = ("3 - z{1,2} - z{1,3} - z{1,4}; "
           "-10 + 2*z{1,2} + 2*z{1,3} + 2*z{1,4}; "
           "12 - z{1,2} - z{1,3} - z{1,4}; -6; 1")


def run(*argv):
    out, err = StringIO(), StringIO()
    code = _dispatch(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def error_name(err_text):
    return json.loads(err_text)["error"]


# -- happy paths --------------------------------------------------------------


class TestCommands:
    def test_inv(self):
        code, out, err = run("inv", "--n", "1", "1 + z{1}")
        assert (code, out, err) == (0, "1 - z{1}\n", "")

    def test_eval(self):
        code, out, _ = run("eval", "--n", "1", "1; 0; 1", "2 + z{1}")
        assert code == 0
        # (2 + z1)^2 + 1 = 5 + 4 z1
        assert out == "5 + 4*z{1}\n"

    def test_root_square(self):
        code, out, _ = run("root", "--n", "1", "--k", "2", "4 + 4*z{1}")
        assert code == 0
        assert out.splitlines() == ["2 + z{1}", "-2 - z{1}"]

    def test_root_default_k(self):
        code, out, _ = run("root", "--n", "1", "4")
        assert code == 0
        assert out.splitlines() == ["2", "-2"]

    def test_divide(self):
        code, out, _ = run("divide", "--n", "1", "0; 0; 1", "-z{1}; 1")
        assert code == 0
        assert out.splitlines() == ["z{1}; 1", "0"]

    def test_quad_two_distinct(self):
        code, out, _ = run("quad", "--n", "2", "1", "-3 - z{1}", "2 + z{1}")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "TwoDistinct"
        assert report["zeros"] == ["2 + z{1}", "1"]
        assert report["discriminant"] == "1 + 2*z{1}"

    def test_quad_family(self):
        code, out, _ = run("quad", "--n", "2", "1", "-2", "1")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "NullSquareFamily"
        assert report["family_base"] == "1"

    def test_solve_with_seed(self):
        code, out, _ = run("solve", "--n", "4", "--seed", "3", QUARTIC)
        assert code == 0
        assert out == "3 + 0.5*z{1,2} + 0.5*z{1,3} + 0.5*z{1,4}\n"

    def test_solve_full_report(self):
        code, out, _ = run("solve", "--n", "4", QUARTIC)
        assert code == 0
        report = json.loads(out)
        spectrum = {round(r["value"]["re"]): r["multiplicity"]
                    for r in report["scalar_spectrum"]}
        assert spectrum == {1: 3, 3: 1}
        (zero,) = report["spectral_zeros"]
        assert zero["zero"] == "3 + 0.5*z{1,2} + 0.5*z{1,3} + 0.5*z{1,4}"
        assert zero["grade_trace"] == [2]
        assert len(report["warnings"]) == 1
        assert report["input_digest"]

    def test_solve_real_cubic_is_real(self):
        # a real scalar projection, (u - 1)(u - 2)(u - 3): its roots and
        # the zeros above them carry no imaginary part
        code, out, _ = run("solve", "--n", "2", "-6 + z{1}; 11 - z{2}; -6; 1")
        assert code == 0
        report = json.loads(out)
        spectrum = report["scalar_spectrum"]
        assert [r["value"]["im"] for r in spectrum] == [0.0] * 3
        zeros = [z["zero"] for z in report["spectral_zeros"]]
        assert len(zeros) == 3
        assert not any("i" in z for z in zeros)

    # (u - (1 + z{1} + z{3})) (u - (1.000001 + z{2} + z{1,2,3})): the lift
    # above the root near 1.000001 stalls, which the report carries as
    # a warning while the other root is lifted
    STALLING = ("1.000001 + 1.000001*z{1} + z{2} + z{1,2} + 1.000001*z{3} "
                "+ z{2,3} + z{1,2,3}; -2.000001 - z{1} - z{2} - z{3} "
                "- z{1,2,3}; 1")

    def test_solve_stalled_lift_is_a_warning(self):
        code, out, err = run("solve", "--n", "3", self.STALLING)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert len(report["spectral_zeros"]) == 1
        (warning,) = report["warnings"]
        assert "stalled" in warning

    def test_classify(self):
        code, out, _ = run("classify", "--n", "3", "0; 0; 1")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "NilpotentFamily"
        assert report["zeros"] == ["z{1}"]
        assert report["family_spec"]["nilpotency_bound"] == 2

    def test_classify_empty(self):
        code, out, _ = run("classify", "--n", "2", "1; 1")
        assert code == 0
        assert json.loads(out)["kind"] == "Empty"

    def test_extend_exp(self):
        code, out, _ = run("extend", "--fn", "exp", "--n", "2", "z{1}")
        assert (code, out) == (0, "1 + z{1}\n")

    def test_extend_pow(self):
        code, out, _ = run("extend", "--fn", "pow(2)", "--n", "1", "2 + z{1}")
        assert (code, out) == (0, "4 + 4*z{1}\n")

    def test_preimage_exp(self):
        code, out, _ = run("preimage", "--fn", "exp", "--n", "2",
                           "--seed", "0", "1 + z{1}")
        assert (code, out) == (0, "z{1}\n")

    def test_preimage_in_scalar_algebra(self):
        code, out, _ = run("preimage", "--fn", "exp", "--n", "0",
                           "--seed", "0.5", "2")
        assert code == 0
        assert parse_zeon(out.strip(), 0).isclose(
            Zeon.scalar(0, math.log(2)), eps=1e-12)

    def test_preimage_cosine_round_trip(self):
        w_text = "0.8660254037844386 + 3*z{1} + z{1,2} - z{4}"
        code, out, _ = run("preimage", "--fn", "cos", "--n", "4",
                           "--seed", str(math.pi / 3), w_text)
        assert code == 0
        lam = parse_zeon(out.strip(), 4)
        s3 = math.sqrt(3.0)
        want = Zeon(4, {(): math.pi / 6, (1,): -6.0, (1, 2): -2.0,
                        (4,): 2.0, (1, 4): 12.0 * s3, (1, 2, 4): 4.0 * s3})
        assert lam.isclose(want, eps=1e-9)
        code, out, _ = run("extend", "--fn", "cos", "--n", "4", out.strip())
        assert code == 0
        assert parse_zeon(out.strip(), 4).isclose(parse_zeon(w_text, 4),
                                                  eps=1e-9)


# -- JSON emission ------------------------------------------------------------


class TestJsonOutput:
    def test_inv_json(self):
        code, out, _ = run("inv", "--n", "1", "--json", "1 + z{1}")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 1, "terms": [
            {"index": [], "re": 1.0, "im": 0.0},
            {"index": [1], "re": -1.0, "im": -0.0},
        ]}

    def test_root_json_list(self):
        code, out, _ = run("root", "--n", "1", "--json", "4")
        docs = json.loads(out)
        assert isinstance(docs, list) and len(docs) == 2

    def test_divide_json(self):
        code, out, _ = run("divide", "--n", "1", "--json", "0; 0; 1",
                           "-z{1}; 1")
        doc = json.loads(out)
        assert set(doc) == {"quotient", "remainder"}
        assert doc["quotient"]["n"] == 1

    def test_quad_json_embeds_objects(self):
        code, out, _ = run("quad", "--n", "2", "--json", "1", "-3 - z{1}",
                           "2 + z{1}")
        report = json.loads(out)
        assert report["zeros"][0]["n"] == 2
        assert isinstance(report["zeros"][0]["terms"], list)


# -- golden output ------------------------------------------------------------


def terms(*triples):
    """The ``--json`` terms of an element, from ``(index, re, im)``."""
    return [{"index": list(ix), "re": re, "im": im} for ix, re, im in triples]


def el(n, *triples):
    return {"n": n, "terms": terms(*triples)}


def line(doc):
    return json.dumps(doc) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def root(value, multiplicity=1):
    return {"value": {"re": value, "im": 0.0}, "multiplicity": multiplicity,
            "simple": multiplicity == 1}


def with_json(argv):
    return argv[:1] + ["--json"] + argv[1:]


# u**2 - (3 + z1) u + (2 + 2 z1): the discriminant (3 + z1)**2 - 4 (2 +
# 2 z1) = 1 - 2 z1 has the root 1 - z1, so the zeros are
# (3 + z1 +- (1 - z1)) / 2 = 2 and 1 + z1
TWO_DISTINCT = ["quad", "--n", "1", "1", "-3 - z{1}", "2 + 2*z{1}"]
# (u - 1)**2: discriminant 0, every 1 + eta with eta*eta = 0 is a zero
NULL_SQUARE = ["quad", "--n", "2", "1", "-2", "1"]
# u**2 - z{1,2} / 2: discriminant 2 z{1,2} = (z1 + z2)**2, zeros
# +-(z1 + z2) / 2
NILPOTENT_ROOTS = ["quad", "--n", "2", "1", "0", "0 - 0.5*z{1,2}"]
# discriminant z{1,2} + z{3,4}: the grade-2 part of (sum a_i z_i)**2 is
# 2 sum a_i a_j z{i,j}, which cannot hit z{1,2} and z{3,4} alone, so no
# root exists, though no grade obstruction certifies it
UNDETERMINED = ["quad", "--n", "4", "1", "0", "0 - 0.25*z{1,2} - 0.25*z{3,4}"]
# discriminant -4 z1 has a grade-1 term, which no square has
NO_ZEROS = ["quad", "--n", "2", "1", "-2", "1 + z{1}"]
NULL_NOTE = "zeros are base + eta for every eta with eta*eta = 0"
FAMILY_NOTE = ("each listed zero extends to an infinite family: adding any "
               "complex multiple of the full blade z{1,2} to the "
               "discriminant root leaves its square unchanged")
UNDETERMINED_NOTE = ("minimum grade 2: no square root found by the layered "
                     "or the all-layer search")
NO_ZEROS_ERR = line({"error": "NoZeros", "message": (
    "a nonzero square of a nilpotent has minimum grade >= 2, input has "
    "minimum grade 1")})

# u**2 - (1 + z1): zeros +-(1 + z1 / 2), each one correction step above
# its scalar root, where the residual -z1 has minimum grade 1
SIMPLE = "-1 - z{1}; 0; 1"
# (u - 1)**2, all scalar: the family 1 + d with d**2 = 0
DOUBLE = "1; -2; 1"
# (u - 1)(u - 1 - z1): a double scalar root under zeon coefficients
DOUBLE_ZEON = "1 + z{1}; -2 - z{1}; 1"
DOUBLE_WARNING = ("scalar root 1 has multiplicity 2; no spectrally "
                  "simple zero exists above it and the zero set there was "
                  "not determined")


def solve_report(text, spectrum, zeros=(), families=(), warnings=()):
    return line({"input_digest": digest(text),
                 "scalar_spectrum": list(spectrum),
                 "spectral_zeros": list(zeros), "families": list(families),
                 "warnings": list(warnings)})


def simple_zero(zero, value):
    return {"zero": zero, "seed": root(value), "iterations": 1,
            "residual": 0.0, "grade_trace": [1]}


def double_family(base):
    return {"kind": "MultiplicityFamily", "zeros": [base], "family_spec": {
        "text": "1 + d for every nilpotent d with d**2 = 0",
        "scalar": {"re": 1.0, "im": 0.0}, "nilpotency_bound": 2,
        "base": base, "direction": None}}


def nilpotent_family(witness, base):
    return {"kind": "NilpotentFamily", "zeros": [witness], "family_spec": {
        "text": ("a*z{I} for every nonzero complex a and nonempty index "
                 "set I; more generally every nilpotent u with u**2 = 0"),
        "scalar": {"re": 0.0, "im": 0.0}, "nilpotency_bound": 2,
        "base": base, "direction": None}}


def quad_report(kind, zeros, discriminant, family_base=None, note=""):
    return line({"kind": kind, "zeros": zeros, "discriminant": discriminant,
                 "family_base": family_base, "note": note})


# (argv, exit code, stdout, stderr): one invocation of each result shape,
# in text and in --json
GOLDEN = [
    # an element: (2 + z1)**2 + 1 = 5 + 4 z1
    (["eval", "--n", "1", "1; 0; 1", "2 + z{1}"], 0, "5 + 4*z{1}\n", ""),
    (["eval", "--json", "--n", "1", "1; 0; 1", "2 + z{1}"], 0,
     line(el(1, ((), 5.0, 0.0), ((1,), 4.0, 0.0))), ""),
    # a list of elements: the square roots +-(2 + z1) of 4 + 4 z1
    (["root", "--n", "1", "--k", "2", "4 + 4*z{1}"], 0,
     "2 + z{1}\n-2 - z{1}\n", ""),
    (["root", "--json", "--n", "1", "--k", "2", "4 + 4*z{1}"], 0,
     line([el(1, ((), 2.0, 0.0), ((1,), 1.0, 0.0)),
           el(1, ((), -2.0, 0.0), ((1,), -1.0, 0.0))]), ""),
    # a record of polynomials: u**2 = (u - z1)(u + z1) + 0
    (["divide", "--n", "1", "0; 0; 1", "-z{1}; 1"], 0, "z{1}; 1\n0\n", ""),
    (["divide", "--json", "--n", "1", "0; 0; 1", "-z{1}; 1"], 0,
     line({"quotient": {"n": 1, "coeffs": [terms(((1,), 1.0, 0.0)),
                                           terms(((), 1.0, 0.0))]},
           "remainder": {"n": 1, "coeffs": []}}), ""),
    (TWO_DISTINCT, 0,
     quad_report("TwoDistinct", ["2", "1 + z{1}"], "1 - 2*z{1}"), ""),
    (with_json(TWO_DISTINCT), 0, quad_report(
        "TwoDistinct",
        [el(1, ((), 2.0, 0.0)), el(1, ((), 1.0, 0.0), ((1,), 1.0, 0.0))],
        el(1, ((), 1.0, 0.0), ((1,), -2.0, 0.0))), ""),
    (NULL_SQUARE, 0,
     quad_report("NullSquareFamily", ["1"], "0", "1", NULL_NOTE), ""),
    (with_json(NULL_SQUARE), 0, quad_report(
        "NullSquareFamily", [el(2, ((), 1.0, -0.0))], el(2),
        el(2, ((), 1.0, -0.0)), NULL_NOTE), ""),
    (NILPOTENT_ROOTS, 0, quad_report(
        "NilpotentDiscriminantRoots",
        ["0.5*z{1} + 0.5*z{2}", "-0.5*z{1} - 0.5*z{2}"], "2*z{1,2}",
        "0.5*z{1} + 0.5*z{2}", FAMILY_NOTE), ""),
    (with_json(NILPOTENT_ROOTS), 0, quad_report(
        "NilpotentDiscriminantRoots",
        [el(2, ((1,), 0.5, 0.0), ((2,), 0.5, 0.0)),
         el(2, ((1,), -0.5, 0.0), ((2,), -0.5, 0.0))],
        el(2, ((1, 2), 2.0, -0.0)),
        el(2, ((1,), 0.5, 0.0), ((2,), 0.5, 0.0)), FAMILY_NOTE), ""),
    (UNDETERMINED, 0, quad_report(
        "Undetermined", [], "z{1,2} + z{3,4}", note=UNDETERMINED_NOTE), ""),
    (with_json(UNDETERMINED), 0, quad_report(
        "Undetermined", [],
        el(4, ((1, 2), 1.0, -0.0), ((3, 4), 1.0, -0.0)),
        note=UNDETERMINED_NOTE), ""),
    (NO_ZEROS, 2, "", NO_ZEROS_ERR),
    (with_json(NO_ZEROS), 2, "", NO_ZEROS_ERR),
    (["solve", "--n", "1", SIMPLE], 0, solve_report(
        SIMPLE, [root(-1.0), root(1.0)],
        [simple_zero("-1 - 0.5*z{1}", -1.0),
         simple_zero("1 + 0.5*z{1}", 1.0)]), ""),
    (["solve", "--json", "--n", "1", SIMPLE], 0, solve_report(
        SIMPLE, [root(-1.0), root(1.0)],
        [simple_zero(el(1, ((), -1.0, 0.0), ((1,), -0.5, 0.0)), -1.0),
         simple_zero(el(1, ((), 1.0, 0.0), ((1,), 0.5, -0.0)), 1.0)]), ""),
    (["solve", "--n", "1", DOUBLE], 0, solve_report(
        DOUBLE, [root(1.0, 2)], families=[double_family("1")]), ""),
    (["solve", "--json", "--n", "1", DOUBLE], 0, solve_report(
        DOUBLE, [root(1.0, 2)],
        families=[double_family(el(1, ((), 1.0, 0.0)))]), ""),
    (["solve", "--n", "2", DOUBLE_ZEON], 0, solve_report(
        DOUBLE_ZEON, [root(1.0, 2)], warnings=[DOUBLE_WARNING]), ""),
    (["solve", "--json", "--n", "2", DOUBLE_ZEON], 0, solve_report(
        DOUBLE_ZEON, [root(1.0, 2)], warnings=[DOUBLE_WARNING]), ""),
    # the zero of (u - 1)(u - 2 - z1) above 2
    (["solve", "--n", "1", "--seed", "2", "2 + z{1}; -3 - z{1}; 1"], 0,
     "2 + z{1}\n", ""),
    (["solve", "--json", "--n", "1", "--seed", "2",
      "2 + z{1}; -3 - z{1}; 1"], 0,
     line(el(1, ((), 2.0, 0.0), ((1,), 1.0, -0.0))), ""),
    # u**2: every nilpotent with u**2 = 0; u + 1: no nilpotent zero
    (["classify", "--n", "2", "0; 0; 1"], 0,
     line(nilpotent_family("z{1}", "0")), ""),
    (["classify", "--json", "--n", "2", "0; 0; 1"], 0,
     line(nilpotent_family(el(2, ((1,), 1.0, 0.0)), el(2))), ""),
    (["classify", "--n", "2", "1; 1"], 0,
     line({"kind": "Empty", "zeros": [], "family_spec": None}), ""),
    (["classify", "--json", "--n", "2", "1; 1"], 0,
     line({"kind": "Empty", "zeros": [], "family_spec": None}), ""),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN,
                         ids=[" ".join(g[0][:2]) for g in GOLDEN])
def test_golden_output(argv, code, out, err):
    assert run(*argv) == (code, out, err)


# -- report schema -------------------------------------------------------------


class TestReportSchema:
    """The JSON reports carry their records' field names, in order."""

    @pytest.mark.parametrize("argv", [TWO_DISTINCT, NULL_SQUARE,
                                      NILPOTENT_ROOTS, UNDETERMINED])
    def test_quad(self, argv):
        for args in (argv, with_json(argv)):
            code, out, _ = run(*args)
            assert code == 0
            assert tuple(json.loads(out)) == QuadraticOutcome._fields

    def test_classify(self):
        for fmt in ([], ["--json"]):
            _, out, _ = run("classify", *fmt, "--n", "2", "0; 0; 1")
            description = json.loads(out)
            assert tuple(description) == ZeroSetDescription._fields
            assert tuple(description["family_spec"]) == FamilySpec._fields

    @pytest.mark.parametrize("text", [SIMPLE, DOUBLE])
    def test_solve(self, text):
        for fmt in ([], ["--json"]):
            _, out, _ = run("solve", *fmt, "--n", "1", text)
            report = json.loads(out)
            assert tuple(report) == (
                ("input_digest",) + SolveReport._fields[1:])
            seeds = [z["seed"] for z in report["spectral_zeros"]]
            for root in report["scalar_spectrum"] + seeds:
                assert tuple(root) == ScalarRoot._fields
            for zero in report["spectral_zeros"]:
                assert tuple(zero) == SpectralZero._fields
            for family in report["families"]:
                assert tuple(family) == ZeroSetDescription._fields
                assert tuple(family["family_spec"]) == FamilySpec._fields
            assert report["spectral_zeros"] or report["families"]

    def test_new_record_field_reaches_json(self, monkeypatch):
        # a field added to SpectralZero shows in solve --json as it is
        import zeon.solve

        Conditioned = namedtuple("Conditioned",
                                 SpectralZero._fields + ("condition",))
        split = zeon.solve.split

        def conditioned_split(phi):
            report = split(phi)
            return report._replace(spectral_zeros=tuple(
                Conditioned(*z, condition=0.5 + 1j)
                for z in report.spectral_zeros))

        monkeypatch.setattr(zeon.solve, "split", conditioned_split)
        _, out, _ = run("solve", "--json", "--n", "1", SIMPLE)
        zeros = json.loads(out)["spectral_zeros"]
        assert [z["condition"] for z in zeros] == [{"re": 0.5, "im": 1.0}] * 2
        assert all(tuple(z) == Conditioned._fields for z in zeros)


# -- file input ---------------------------------------------------------------


class TestFileInput:
    def test_text_file_lines(self, tmp_path):
        f = tmp_path / "quad.txt"
        f.write_text("1\n-2\n1 + z{1}\n")
        code, out, err = run("quad", "--n", "2", "--in", str(f))
        assert code == 2
        assert error_name(err) == "NoZeros"

    def test_json_file_single_object(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text(json.dumps(
            {"n": 1, "terms": [{"index": [], "re": 1, "im": 0},
                               {"index": [1], "re": 1, "im": 0}]}))
        code, out, _ = run("inv", "--in", str(f))
        assert (code, out) == (0, "1 - z{1}\n")

    def test_json_file_list_for_two_slots(self, tmp_path):
        f = tmp_path / "pair.json"
        poly = {"n": 1, "coeffs": [[], [{"index": [], "re": 1, "im": 0}]]}
        point = {"n": 1, "terms": [{"index": [], "re": 42, "im": 0}]}
        f.write_text(json.dumps([poly, point]))
        code, out, _ = run("eval", "--in", str(f))
        assert (code, out) == (0, "42\n")

    def test_json_file_polynomial(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(
            {"n": 1, "coeffs": [[{"index": [], "re": -1, "im": 0}],
                                [{"index": [], "re": 1, "im": 0}]]}))
        code, out, _ = run("solve", "--in", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["spectral_zeros"][0]["zero"] == "1"

    def test_json_file_single_object_for_two_slots(self, tmp_path):
        # eval reads a polynomial and a point; one object fills one slot
        f = tmp_path / "p.json"
        f.write_text(json.dumps(
            {"n": 1, "coeffs": [[{"index": [], "re": 1, "im": 0}]]}))
        code, _, err = run("eval", "--in", str(f))
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_n_cross_check(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text(json.dumps(
            {"n": 2, "terms": [{"index": [], "re": 1, "im": 0}]}))
        code, _, err = run("inv", "--n", "3", "--in", str(f))
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_in_excludes_positionals(self, tmp_path):
        f = tmp_path / "u.txt"
        f.write_text("1\n")
        code, _, err = run("inv", "--n", "1", "--in", str(f), "1")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_missing_file(self):
        code, _, err = run("inv", "--n", "1", "--in", "/nonexistent/u.txt")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_malformed_json_file(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text("{broken")
        code, _, err = run("inv", "--in", str(f))
        assert code == 1
        assert error_name(err) == "ParseError"

    @pytest.mark.parametrize("command, where, body", [
        ("inv", "element", "terms"),
        ("solve", "polynomial", "coeffs"),
    ])
    @pytest.mark.parametrize("doc, message", [
        ([5], "expected a JSON object"),
        ({"BODY": []}, "missing 'n'"),
        ({"n": "2", "BODY": []}, "'n' must be an integer in 0..32"),
        ({"n": 2, "BODY": [], "x": 1}, "unknown keys ['x']"),
        ({"n": 2}, "missing 'BODY'"),
    ])
    def test_document_messages(self, tmp_path, command, where, body, doc,
                               message):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc).replace("BODY", body))
        code, out, err = run(command, "--in", str(f))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"{where}: " + message.replace("BODY", body)}


# -- tolerance precedence ------------------------------------------------------


class TestTolerance:
    MARGINAL = "1e-8 + z{1}"

    def test_builtin_accepts(self):
        code, _, _ = run("inv", "--n", "1", self.MARGINAL)
        assert code == 0

    def test_flag_overrides_builtin(self):
        code, _, err = run("inv", "--n", "1", "--tol", "1e-6", self.MARGINAL)
        assert code == 2
        assert error_name(err) == "NotInvertible"

    def test_config_overrides_builtin(self, tmp_path):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("# coarse equality\neq_eps = 1e-6\n")
        code, _, err = run("inv", "--n", "1", "--config", str(cfg),
                           self.MARGINAL)
        assert code == 2
        assert error_name(err) == "NotInvertible"

    def test_environment_sets_no_tolerance(self, monkeypatch):
        # the tolerance comes from --tol and --config alone
        want = run("inv", "--n", "1", self.MARGINAL)
        assert want[0] == 0
        for value in ("1e-6", "tight"):
            monkeypatch.setenv("ZEON_TOL", value)
            assert run("inv", "--n", "1", self.MARGINAL) == want

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("eq_eps = 1e-12\n")
        code, _, err = run("inv", "--n", "1", "--config", str(cfg),
                           "--tol", "1e-6", self.MARGINAL)
        assert code == 2

    def test_config_all_keys(self, tmp_path):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("prune_eps = 1e-14\neq_eps = 1e-9\n"
                       "root_eps = 1e-10\ncluster_eps = 1e-7\n")
        code, _, _ = run("inv", "--n", "1", "--config", str(cfg), "1")
        assert code == 0

    def test_bad_config_entry(self, tmp_path):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("bogus = 3\n")
        code, _, err = run("inv", "--n", "1", "--config", str(cfg), "1")
        assert code == 1
        assert error_name(err) == "ParseError"

    @pytest.mark.parametrize("entry", ["prune_eps = abc",
                                       "eq_eps = 1e-3 # c", "root_eps ="])
    def test_non_numeric_config_value(self, tmp_path, entry):
        # reported like an unknown key: where, and the line as written
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"# header\n{entry}\n")
        code, out, err = run("inv", "--n", "1", "--config", str(cfg), "1")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"{cfg}:2: bad entry {entry!r}"}

    # a coarse prune_eps drops the 0.0001 term while parsing; the
    # default keeps it and the inverse carries it to z{1,2}
    DUST = "1 + 0.0001 z{1} + z{2}"
    PRUNED = "1 - z{2}"
    KEPT = "1 - 0.0001*z{1} - z{2} + 0.0002*z{1,2}"

    def coarse_config(self, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("prune_eps = 1e-3\neq_eps = 1e-2\n")
        return cfg

    def test_config_prune_eps_applies(self, tmp_path):
        before = default_tolerance()
        code, out, err = run("inv", "--n", "2", "--config",
                             str(self.coarse_config(tmp_path)), self.DUST)
        assert (code, out, err) == (0, self.PRUNED + "\n", "")
        assert default_tolerance() is before
        code, out, _ = run("inv", "--n", "2", self.DUST)
        assert (code, out) == (0, self.KEPT + "\n")

    def test_config_does_not_leak_to_next_batch_line(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text(
            f'inv --n 2 --config {self.coarse_config(tmp_path)} "{self.DUST}"\n'
            f'inv --n 2 "{self.DUST}"\n')
        code, out, err = run("--batch", str(f))
        assert (code, err) == (0, "")
        assert out.splitlines() == [self.PRUNED, self.KEPT]

    # (u - 1)(u - 1.00001): two simple roots 1e-5 apart, or one double
    # root when cluster_eps is wider than their distance
    NEAR_DOUBLE = "1.00001; -2.00001; 1"

    def test_config_cluster_eps_applies(self, tmp_path):
        cfg = tmp_path / "cluster.cfg"
        cfg.write_text("cluster_eps = 1e-3\n")
        code, out, err = run("solve", "--n", "1", "--config", str(cfg),
                             self.NEAR_DOUBLE)
        assert (code, err) == (0, "")
        (root,) = json.loads(out)["scalar_spectrum"]
        assert (root["multiplicity"], root["simple"]) == (2, False)
        assert root["value"]["re"] == pytest.approx(1.000005, abs=1e-12)
        code, out, _ = run("solve", "--n", "1", self.NEAR_DOUBLE)
        assert code == 0
        spectrum = json.loads(out)["scalar_spectrum"]
        assert [r["multiplicity"] for r in spectrum] == [1, 1]

    def test_config_nan_cluster_eps_rejected(self, tmp_path):
        # a nan cluster_eps would merge no approximations and report
        # (u-1)**2 as two simple roots
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("cluster_eps = nan\n")
        code, out, err = run("solve", "--n", "1", "--config", str(cfg),
                             "1; -2; 1")
        assert (code, out) == (1, "")
        assert error_name(err) == "ParseError"

    def test_one_tolerance_reaches_every_handler(self, tmp_path):
        import inspect

        from zeon import Tolerance
        from zeon.cli import _COMMANDS, _build_parser, _resolve_tolerance

        cfg = tmp_path / "tol.cfg"
        cfg.write_text("root_eps = 1e-9\ncluster_eps = 1e-4\n")
        ns = _build_parser().parse_args(
            ["inv", "--n", "1", "--tol", "1e-8", "--config", str(cfg), "1"])
        assert _resolve_tolerance(ns) == Tolerance(
            eq_eps=1e-8, root_eps=1e-9, cluster_eps=1e-4)
        for handler in _COMMANDS.values():
            assert list(inspect.signature(handler).parameters) == [
                "ns", "out", "err"]


# -- failure modes -------------------------------------------------------------


class TestErrors:
    def test_no_command(self):
        code, _, err = run()
        assert code == 1

    def test_unknown_command(self):
        code, _, err = run("frobnicate")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_missing_n_for_text(self):
        code, _, err = run("inv", "1 + z{1}")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_wrong_input_count(self):
        code, _, err = run("quad", "--n", "1", "1", "2")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_bad_k(self):
        code, _, err = run("root", "--n", "1", "--k", "0", "4")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_preimage_needs_seed(self):
        code, _, err = run("preimage", "--fn", "exp", "--n", "1", "1")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_extend_needs_fn(self):
        code, _, err = run("extend", "--n", "1", "1")
        assert code == 1

    def test_classify_rejects_dual_coefficients(self):
        code, _, err = run("classify", "--n", "1", "z{1}; 1")
        assert code == 1
        assert error_name(err) == "UsageError"
        # a dual part within eq_eps is dropped, as ZeonPoly.is_scalar does
        code, out, _ = run("classify", "--n", "2", "0; 0; 1 + 1e-12 z{1}")
        assert code == 0
        assert "NilpotentFamily" in out

    def test_unparseable_element(self):
        code, _, err = run("inv", "--n", "1", "1 + q{1}")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_bare_star_is_parse_error(self):
        code, out, err = run("inv", "--n", "1", "1 + *z{1}")
        assert (code, out) == (1, "")
        assert error_name(err) == "ParseError"

    def test_not_invertible_exit_2(self):
        code, out, err = run("inv", "--n", "1", "z{1}")
        assert code == 2
        assert out == ""
        assert error_name(err) == "NotInvertible"

    def test_overflow_exit_2(self):
        # finite input whose inverse overflows is a result, not a parse,
        # failure
        code, out, err = run("inv", "--n", "2", "1e-5 + 1e305 z{1}")
        assert (code, out) == (2, "")
        assert error_name(err) == "NonFiniteResult"

    def test_non_finite_text_is_parse_error(self):
        code, _, err = run("inv", "--n", "1", "1 + 1e400 z{1}")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_non_finite_json_is_parse_error(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text('{"n": 1, "terms": [{"index": [], "re": 1, "im": 0},'
                     ' {"index": [1], "re": Infinity, "im": 0}]}')
        code, _, err = run("inv", "--in", str(f))
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_derivative_overflow_exit_2(self):
        # cmath.exp(1000) raises OverflowError; it is a result failure
        code, out, err = run("extend", "--fn", "exp", "--n", "1", "1000")
        assert (code, out) == (2, "")
        assert error_name(err) == "NonFiniteResult"

    def test_preimage_walk_overflow_exit_2(self):
        # Newton's first step for exp(z) = 1e5 from 0 lands near 1e5,
        # where cmath.exp overflows while the seed is refined
        code, out, err = run("preimage", "--fn", "exp", "--n", "1",
                             "--seed", "0", "100000 + z{1}")
        assert (code, out) == (2, "")
        assert error_name(err) == "NonFiniteResult"

    def test_integer_beyond_float_range_is_parse_error(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text('{"n": 1, "terms": [{"index": [], "re": 1%s, "im": 0}]}'
                     % ("0" * 400))
        code, out, err = run("inv", "--in", str(f))
        assert (code, out) == (1, "")
        assert error_name(err) == "ParseError"
        assert "finite numbers" in json.loads(err)["message"]

    def test_quad_no_zeros_exit_2(self):
        code, out, err = run("quad", "--n", "2", "1", "-2", "1 + z{1}")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "NoZeros"
        assert "minimum grade" in doc["message"]

    def test_divide_bad_divisor_exit_2(self):
        code, _, err = run("divide", "--n", "1", "0; 0; 1", "z{1}")
        assert code == 2
        assert error_name(err) == "DivisorNotMonicizable"

    def test_solve_multiple_root_seed_exit_2(self):
        code, _, err = run("solve", "--n", "1", "--seed", "1", "1; -2; 1")
        assert code == 2
        assert error_name(err) == "NotSpectrallySimple"

    def test_preimage_outside_domain_exit_2(self):
        # a seed on the cut, and one whose first Newton step lands on 0
        for n, seed, w in (("1", "-1", "1"), ("2", "1", "-1 + z{1}")):
            code, _, err = run("preimage", "--fn", "log", "--n", n,
                               "--seed", seed, w)
            assert code == 2
            assert error_name(err) == "OutsideDomain"

    def test_diagnostic_point_reads_back_as_a_seed(self):
        # the point a diagnostic names is written in the CLI's own
        # grammar, so it can be passed back as --seed
        args = ("preimage", "--fn", "log", "--n", "1", "--seed")
        code, _, err = run(*args, "-3", "1")
        message = json.loads(err)["message"]
        assert (code, message) == (2, "log is undefined at -3")
        code, out, err = run(*args, message.rsplit(" at ", 1)[1], "1")
        assert (code, out) == (2, "")
        assert error_name(err) == "OutsideDomain"

    def test_unknown_fn(self):
        code, _, err = run("extend", "--fn", "gamma", "--n", "1", "1")
        assert code == 1
        assert error_name(err) == "ParseError"

    @pytest.mark.parametrize("fn", ["pow(1e400)", "pow(nan)"])
    def test_non_finite_exponent_is_a_parse_error(self, fn):
        code, out, err = run("extend", "--fn", fn, "--n", "1", "2 + z{1}")
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert error_name(line) == "ParseError"
        assert "not finite" in json.loads(line)["message"]

    def test_too_deeply_nested_json_is_a_parse_error(self, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000)
        code, out, err = run("inv", "--in", str(f))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert error_name(line) == "ParseError"

    @pytest.mark.parametrize("argv, code, name", [
        (["inv", "--k"], 1, "UsageError"),
        (["inv", "1"], 1, "UsageError"),
        (["inv", "--n", "1", "1 +"], 1, "ParseError"),
        (["inv", "--n", "1", "z{1}"], 2, "NotInvertible"),
        (["quad", "--n", "1", "1", "0", "z{1}"], 2, "NoZeros"),
        (["--batch", "x", "inv"], 1, "UsageError"),
        (["--batch", "no-such-batch-file.txt"], 1, "ParseError"),
        ([], 1, "UsageError"),
    ])
    def test_diagnostic_is_one_json_line(self, argv, code, name):
        got, out, err = run(*argv)
        message = json.loads(err)["message"]
        assert (got, out) == (code, "")
        assert err == json.dumps({"error": name, "message": message}) + "\n"


# -- batch mode -----------------------------------------------------------------


class TestBatch:
    def test_outputs_in_input_order(self, tmp_path):
        lines = [f'inv --n 1 "1 + {k}*z{{1}}"' for k in range(2, 8)]
        f = tmp_path / "cmds.txt"
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run("--batch", str(f))
        assert code == 0
        assert out.splitlines() == [f"1 - {k}*z{{1}}" for k in range(2, 8)]
        assert err == ""

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('# heading\n\ninv --n 1 "1 + z{1}"\n   \n')
        code, out, _ = run("--batch", str(f))
        assert (code, out) == (0, "1 - z{1}\n")

    def test_exit_code_is_first_nonzero(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('inv --n 1 "1 + z{1}"\n'
                     'inv --n 1 "z{1}"\n'
                     'bogus\n')
        code, out, err = run("--batch", str(f))
        assert code == 2
        assert out == "1 - z{1}\n"
        errors = [json.loads(line)["error"] for line in err.splitlines()]
        assert errors == ["NotInvertible", "UsageError"]

    def test_help_line_does_not_end_the_batch(self, tmp_path, capsys):
        # argparse ends a --help line with SystemExit(0)
        f = tmp_path / "cmds.txt"
        f.write_text('inv --help\ninv --n 1 "1 + z{1}"\n')
        assert main(["--batch", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: zeon inv")
        assert out.endswith("\n1 - z{1}\n")

    def test_nested_batch_rejected(self, tmp_path):
        inner = tmp_path / "inner.txt"
        inner.write_text('inv --n 1 "1"\n')
        outer = tmp_path / "outer.txt"
        outer.write_text(f"--batch {inner}\n")
        code, _, err = run("--batch", str(outer))
        assert code == 1
        assert "nest" in json.loads(err)["message"]

    def test_batch_with_subcommand_rejected(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('inv --n 1 "1"\n')
        code, _, err = run("--batch", str(f), "inv")
        assert code == 1

    def test_missing_batch_file(self):
        code, _, err = run("--batch", "/nonexistent/cmds.txt")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_unclosed_quote_is_a_parse_error(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('inv --n 1 "1 + z{1}"\n\ninv --n 1 "1 + z{1\n')
        code, out, err = run("--batch", str(f))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert error_name(line) == "ParseError"
        assert json.loads(line)["message"].startswith(f"{f}:3: ")

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_bytes(b'inv --n 1 "1"\n\xff\n')
        code, out, err = run("--batch", str(f))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert error_name(line) == "ParseError"

    def test_too_deeply_nested_json_leaves_the_next_line(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        f = tmp_path / "cmds.txt"
        f.write_text(f'inv --in {deep}\ninv --n 1 "1 + z{{1}}"\n')
        code, out, err = run("--batch", str(f))
        assert (code, out) == (1, "1 - z{1}\n")
        (line,) = err.splitlines()
        assert error_name(line) == "ParseError"

    def test_empty_batch(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text("# nothing to do\n")
        code, out, err = run("--batch", str(f))
        assert (code, out, err) == (0, "", "")

    def test_mixed_commands(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('extend --fn exp --n 2 "z{1}"\n'
                     'root --n 1 "4"\n'
                     'classify --n 2 "0; 0; 1"\n')
        code, out, _ = run("--batch", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1 + z{1}"
        assert lines[1:3] == ["2", "-2"]
        assert json.loads(lines[3])["kind"] == "NilpotentFamily"


# -- public entry points ---------------------------------------------------------


class TestEntryPoints:
    def test_main_writes_to_stdio(self, capsys):
        assert main(["inv", "--n", "1", "1 + z{1}"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1 - z{1}\n"
        assert captured.err == ""

    def test_main_error_path(self, capsys):
        assert main(["inv", "--n", "1", "z{1}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_name(captured.err) == "NotInvertible"

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zeon.cli", "inv", "--n", "1", "1 + z{1}"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "1 - z{1}\n"

    def test_overflowing_square_root_fit_leaves_stderr_empty(self):
        # the discriminant's grade-2 fit overflows; numpy's warnings must
        # not reach stderr, which holds only the JSON diagnostic
        proc = subprocess.run(
            [sys.executable, "-m", "zeon.cli", "quad", "--n", "4", "1", "0",
             "0 - 1e300*z{1,2,3,4}"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["kind"] == "NilpotentDiscriminantRoots"

    def test_runs_with_docstrings_stripped(self):
        # under -OO every __doc__ is None; the parser must not need them
        argv = ["-m", "zeon.cli", "inv", "--n", "1", "1 + z{1}"]
        plain, stripped = (
            subprocess.run([sys.executable, *flags, *argv],
                           capture_output=True, text=True)
            for flags in ([], ["-OO"]))
        assert stripped.returncode == 0, stripped.stderr
        assert stripped.stdout == plain.stdout == "1 - z{1}\n"

    def test_cold_start_leaves_scipy_unimported(self):
        # numpy is the only dependency: with scipy and numba made
        # unimportable, a command and a square root whose bottom layer
        # is fitted by least squares (minimum grade 4) still run
        script = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "sys.modules['numba'] = None\n"
                  "from zeon.cli import main\n"
                  "from zeon import Zeon, nilpotent_sqrt\n"
                  "main(['inv', '--n', '1', '1 + z{1}'])\n"
                  "v0 = Zeon(5, {(1, 2): 1, (3, 4): 0.5})\n"
                  "v = nilpotent_sqrt(v0 * v0)\n"
                  "print((v * v - v0 * v0).max_abs() < 1e-12)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1 - z{1}", "True"]
        # a plain module attribute, so that it can be wrapped or patched
        assert callable(vars(zeon.poly)["least_squares"])

    def test_small_commands_leave_numpy_unimported(self):
        # the nine subcommands on small inputs run without numpy; a
        # product that comes out wide, and one with a wide operand, load
        # it and still match the dense oracle
        script = """if True:
            import json, sys
            from zeon.cli import main
            commands = [
                ["eval", "--n", "2", "1; 2; 1", "z{1}"],
                ["inv", "--n", "2", "1 + z{1}"],
                ["root", "--n", "2", "--k", "3", "8 + z{1} + z{1,2}"],
                ["divide", "--n", "2", "1; 0; 1", "1; 1"],
                ["quad", "--n", "2", "1", "0", "-1 + z{1}"],
                ["solve", "--n", "4", %r],
                ["classify", "--n", "2", "0; 0; 1"],
                ["extend", "--n", "3", "--fn", "exp", "1 + z{1} + z{2,3}"],
                ["preimage", "--n", "2", "--fn", "log", "--seed", "1",
                 "0.5 + z{1}"],
            ]
            for argv in commands:
                print("#", argv[0])
                assert main(argv) == 0, argv
            print("# numpy", "numpy" in sys.modules)
            from itertools import combinations
            from zeon import Zeon
            blades = [ix for k in range(6)
                      for ix in combinations(range(1, 6), k)]
            a = Zeon(5, {(): 1, (1,): 2, (2,): -1j, (1, 2): 0.5})
            b = Zeon(5, [(ix, k + 1) for k, ix in enumerate(blades)
                         if set(ix) <= {3, 4, 5}])
            w = Zeon(5, [(ix, (k + 1) * (1 - 0.5j))
                         for k, ix in enumerate(blades[:17])])
            print("# products")
            for x, y in ((a, b), (w, a)):
                print(json.dumps([[list(ix), c.real, c.imag]
                                  for ix, c in (x * y).terms()]))
            print("# numpy", "numpy" in sys.modules)
        """ % QUARTIC
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        sections: dict[str, list[str]] = {}
        for line in proc.stdout.splitlines():
            if line.startswith("# "):
                sections[line[2:]] = body = []
            else:
                body.append(line)
        assert len(sections) == 12
        assert json.loads(sections["quad"][0])["kind"] == "TwoDistinct"
        assert sections["solve"] and sections["preimage"]
        assert list(sections)[9:] == ["numpy False", "products", "numpy True"]
        products = [json.loads(line) for line in sections["products"]]
        # both products are wide elements (SMALL_TERMS is 16)
        assert all(len(p) > 16 for p in products)

        import numpy as np
        from dense import from_terms, mul
        from itertools import combinations
        blades = [ix for k in range(6)
                  for ix in combinations(range(1, 6), k)]
        a = from_terms(5, [((), 1), ((1,), 2), ((2,), -1j), ((1, 2), 0.5)])
        b = from_terms(5, [(ix, k + 1) for k, ix in enumerate(blades)
                           if set(ix) <= {3, 4, 5}])
        w = from_terms(5, [(ix, (k + 1) * (1 - 0.5j))
                           for k, ix in enumerate(blades[:17])])
        for got, want in zip(products, (mul(a, b), mul(w, a))):
            dense = from_terms(5, [(tuple(ix), complex(re, im))
                                   for ix, re, im in got])
            assert np.abs(dense - want).max() <= 1e-12 * np.abs(want).max()

    def test_package_binds_names_on_first_access(self):
        # import zeon loads no submodule; each public name then comes
        # from the submodule that defines it, as that module's object
        script = """if True:
            import importlib, json, sys
            import zeon
            report = {"after_import": sorted(
                m for m in sys.modules if m.startswith("zeon."))}
            from zeon import Zeon
            report["after_zeon"] = sorted(
                m for m in sys.modules if m.startswith("zeon."))
            try:
                zeon.nope
            except AttributeError as exc:
                report["nope"] = str(exc)
            report["backend"] = zeon.backend_name()
            report["undir"] = sorted(set(zeon.__all__) - set(dir(zeon)))
            report["all"] = list(zeon.__all__)
            foreign = []
            for module, names in zeon._EXPORTS.items():
                mod = importlib.import_module("zeon." + module)
                for name in names:
                    ns = {}
                    exec(f"from zeon import {name} as value", ns)
                    own = vars(mod)[name]
                    if ns["value"] is not own or getattr(
                            own, "__module__", mod.__name__) != mod.__name__:
                        foreign.append(name)
            report["foreign"] = foreign
            print(json.dumps(report))
        """
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["after_import"] == []
        assert report["after_zeon"] == ["zeon._backend", "zeon.algebra",
                                        "zeon.errors"]
        assert report["nope"] == "module 'zeon' has no attribute 'nope'"
        assert report["backend"] == "numpy"
        assert report["undir"] == []
        names = report["all"]
        assert len(names) == len(set(names)) == 71
        assert {"__version__", "backend_name"} <= set(names)
        assert report["foreign"] == []

    # each subcommand, the zeon modules it may load beyond the common
    # ones, and a small input for it
    FOOTPRINTS = {
        "eval": (set(), ["--n", "2", "1; 2; 1", "z{1}"]),
        "inv": (set(), ["--n", "2", "1 + z{1}"]),
        "root": (set(), ["--n", "2", "--k", "3", "8 + z{1} + z{1,2}"]),
        "divide": (set(), ["--n", "2", "1; 0; 1", "1; 1"]),
        "quad": (set(), ["--n", "2", "1", "0", "-1 + z{1}"]),
        "solve": ({"zeon.solve"}, ["--n", "4", QUARTIC]),
        "classify": ({"zeon.solve"}, ["--n", "2", "0; 0; 1"]),
        "extend": ({"zeon.analytic"},
                   ["--n", "3", "--fn", "exp", "1 + z{1} + z{2,3}"]),
        "preimage": ({"zeon.analytic", "zeon.solve"},
                     ["--n", "2", "--fn", "log", "--seed", "1",
                      "0.5 + z{1}"]),
    }

    @pytest.mark.parametrize("command", list(FOOTPRINTS))
    def test_each_command_loads_only_its_modules(self, command):
        extra, args = self.FOOTPRINTS[command]
        script = """if True:
            import contextlib, io, json, sys
            from zeon.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(sys.argv[1:])
            print(json.dumps([code, sorted(sys.modules)]))
        """
        proc = subprocess.run([sys.executable, "-c", script, command, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0
        common = {"zeon", "zeon._backend", "zeon.algebra", "zeon.cli",
                  "zeon.errors", "zeon.poly", "zeon.textio"}
        assert {m for m in modules if m.split(".")[0] == "zeon"} == (
            common | extra)
        assert not {"dataclasses", "inspect"} & set(modules)
