"""Text and JSON round-trips for elements and polynomials."""

import json
import math

import pytest

from zeon import (
    Zeon,
    ZeonPoly,
    format_complex,
    format_poly,
    format_zeon,
    parse_complex,
    parse_poly,
    parse_zeon,
    poly_from_dict,
    poly_from_json,
    poly_to_dict,
    poly_to_json,
    zeon_from_dict,
    zeon_from_json,
    zeon_to_dict,
    zeon_to_json,
)

from conftest import random_zeon

Z1 = Zeon.blade(2, (1,))
Z12 = Zeon.blade(2, (1, 2))


# -- complex literals ---------------------------------------------------------


class TestComplexText:
    @pytest.mark.parametrize("value,text", [
        (3.0, "3"),
        (-1.5, "-1.5"),
        (2j, "2i"),
        (-1j, "-1i"),
        (1 + 1j, "(1+1i)"),
        (-0.5 - 2j, "(-0.5-2i)"),
        (0.0, "0"),
    ])
    def test_format(self, value, text):
        assert format_complex(value) == text

    @pytest.mark.parametrize("text,value", [
        ("3", 3.0),
        ("-2.5", -2.5),
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("(1+2i)", 1 + 2j),
        ("( 1 - 2i )", 1 - 2j),
        ("1+2i", 1 + 2j),
        ("1e-3", 1e-3),
        ("(1.5e-3-2.5e+2i)", 1.5e-3 - 250j),
        ("2.5e2", 250.0),
    ])
    def test_parse(self, text, value):
        assert parse_complex(text) == pytest.approx(value)

    def test_round_trip_exact(self, rng):
        for _ in range(200):
            c = complex(rng.normal(), rng.normal()) * 10.0 ** float(
                rng.integers(-8, 9))
            assert parse_complex(format_complex(c)) == c

    @pytest.mark.parametrize("value", [
        complex(math.nan, 0), complex(math.inf, 0), complex(-math.inf, 0),
        complex(1, math.nan), complex(-math.inf, 2), complex(0, math.inf),
        complex(math.nan, math.nan)])
    def test_round_trip_non_finite(self, value):
        got = parse_complex(format_complex(value))
        for x, y in ((got.real, value.real), (got.imag, value.imag)):
            assert x == y or (math.isnan(x) and math.isnan(y))

    @pytest.mark.parametrize("bad", ["", "1+", "2x", "(1+2i", "i2", "--3",
                                     "1)"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_complex(bad)


# -- element text -------------------------------------------------------------


class TestZeonText:
    @pytest.mark.parametrize("u,text", [
        (Zeon.zero(2), "0"),
        (Zeon.one(2), "1"),
        (Zeon.scalar(2, -2.5), "-2.5"),
        (Z1, "z{1}"),
        (Z1.scale(-1.0), "-z{1}"),
        (Zeon.one(2) - Z1, "1 - z{1}"),
        (Zeon(2, {(): 3, (1, 2): 0.5}), "3 + 0.5*z{1,2}"),
        (Zeon(2, {(1,): 1j}), "1i*z{1}"),
        (Zeon(2, {(): 1 + 2j, (1,): -1, (1, 2): 0.5}),
         "(1+2i) - z{1} + 0.5*z{1,2}"),
        # a leading minus of the coefficient's literal joins the term
        (Zeon(2, {(1,): -2}), "-2*z{1}"),
        (Zeon.scalar(2, -3j), "-3i"),
        (Zeon(2, {(): 1, (2,): -1j}), "1 - 1i*z{2}"),
        (Zeon(2, {(1,): -1 + 2j}), "(-1+2i)*z{1}"),
        (Zeon.scalar(2, -1), "-1"),
        (Zeon(2, {(1,): 1e16}), "1e+16*z{1}"),
        (Zeon(2, {(1,): -1, (2,): 2.5j}), "-z{1} + 2.5i*z{2}"),
    ])
    def test_format(self, u, text):
        assert format_zeon(u) == text

    def test_ascending_blade_order(self):
        u = Zeon(3, {(2, 3): 1, (1,): 1, (1, 2, 3): 1})
        assert format_zeon(u) == "z{1} + z{2,3} + z{1,2,3}"

    @pytest.mark.parametrize("text,expect", [
        ("0", Zeon.zero(2)),
        ("1 - z{1}", Zeon.one(2) - Z1),
        ("3 + 0.5*z{1,2}", Zeon(2, {(): 3, (1, 2): 0.5})),
        ("-z{1} + z{1}", Zeon.zero(2)),
        ("2*z{2,1}", Zeon(2, {(1, 2): 2})),
        ("i*z{1}", Zeon(2, {(1,): 1j})),
        ("(1+1i)*z{1}", Zeon(2, {(1,): 1 + 1j})),
        ("1+z{1}", Zeon.one(2) + Z1),
        ("  1  +  z{1} ", Zeon.one(2) + Z1),
        ("z{1}", Z1),
        ("0.0001 z{1}", Zeon(2, {(1,): 0.0001})),
    ])
    def test_parse(self, text, expect):
        assert parse_zeon(text, 2) == expect

    def test_round_trip_random(self, rng):
        for n in (1, 2, 4, 6):
            for _ in range(50):
                u = random_zeon(rng, n)
                assert parse_zeon(format_zeon(u), n) == u

    def test_round_trip_thousand_terms(self, rng):
        # big element over n = 10: every coefficient survives the trip
        # bit for bit
        n = 10
        masks = rng.choice(1 << n, size=1000, replace=False)
        terms = []
        for m in masks:
            ix = tuple(i + 1 for i in range(n) if int(m) >> i & 1)
            terms.append((ix, complex(rng.normal(), rng.normal())))
        u = Zeon(n, terms)
        assert parse_zeon(format_zeon(u), n) == u

    @pytest.mark.parametrize("bad", [
        "z{0}", "z{3}", "z{1,1}", "z{2,1,2}", "z{}", "z{1", "1 +", "q*z{1}",
        "z{1}z{2}", "*z{1}", "-*z{1}", "1 + *z{2}", "  ",
    ])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_zeon(bad, 2)


# -- polynomial text ----------------------------------------------------------


class TestPolyText:
    def test_format(self):
        p = ZeonPoly([Zeon(2, {(): 1 + 2j, (1,): -1}), Zeon.one(2)])
        assert format_poly(p) == "(1+2i) - z{1}; 1"

    def test_zero_polynomial(self):
        assert format_poly(ZeonPoly.zero(2)) == "0"
        assert parse_poly("0", 2).is_zero()

    def test_parse(self):
        p = parse_poly("3 - z{1,2}; -10; 1", 2)
        assert p.degree == 2
        assert p.coeff(0) == Zeon(2, {(): 3, (1, 2): -1})
        assert p.coeff(1) == Zeon.scalar(2, -10.0)

    @pytest.mark.parametrize("bad", ["", " ; ", "1; z{3}"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad, 2)

    def test_internal_zero_coefficients_kept(self):
        p = parse_poly("1; 0; 0; 1", 1)
        assert p.degree == 3
        assert p.coeff(1).is_zero()

    def test_round_trip_random(self, rng):
        for _ in range(30):
            p = ZeonPoly([random_zeon(rng, 3) for _ in range(4)], n=3)
            assert parse_poly(format_poly(p), 3) == p


# -- JSON ---------------------------------------------------------------------


# a document with its messages, the same for both readers: BODY stands
# for the body key, 'terms' or 'coeffs'; checks run in this order
DOCUMENT_MESSAGES = [
    ('[]', "expected a JSON object"),
    ('{"BODY": []}', "missing 'n'"),
    ('{"n": 2.0, "BODY": []}', "'n' must be an integer in 0..32"),
    ('{"n": 33, "x": 1}', "'n' must be an integer in 0..32"),
    ('{"n": 2, "BODY": [], "b": 1, "a": 1}', "unknown keys ['a', 'b']"),
    ('{"n": 2, "x": 1}', "unknown keys ['x']"),
    ('{"n": 2}', "missing 'BODY'"),
]


@pytest.mark.parametrize("read, where, body", [
    (zeon_from_dict, "element", "terms"),
    (poly_from_dict, "polynomial", "coeffs"),
])
@pytest.mark.parametrize("doc, message", DOCUMENT_MESSAGES)
def test_document_messages(read, where, body, doc, message):
    with pytest.raises(ValueError) as exc:
        read(json.loads(doc.replace("BODY", body)))
    assert str(exc.value) == f"{where}: " + message.replace("BODY", body)


class TestZeonJson:
    def test_dict_shape(self):
        u = Zeon(2, {(): 1 + 2j, (1, 2): 0.5})
        assert zeon_to_dict(u) == {
            "n": 2,
            "terms": [
                {"index": [], "re": 1.0, "im": 2.0},
                {"index": [1, 2], "re": 0.5, "im": 0.0},
            ],
        }

    def test_round_trip_preserves_bits(self, rng):
        for n in (0, 1, 3, 6):
            for _ in range(25):
                u = random_zeon(rng, n) if n else Zeon.scalar(0, 1.7 - 2j)
                assert zeon_from_json(zeon_to_json(u)) == u

    def test_round_trip_thousand_terms(self, rng):
        n = 10
        masks = rng.choice(1 << n, size=1000, replace=False)
        terms = []
        for m in masks:
            ix = tuple(i + 1 for i in range(n) if int(m) >> i & 1)
            terms.append((ix, complex(rng.normal(), rng.normal())))
        u = Zeon(n, terms)
        assert zeon_from_json(zeon_to_json(u)) == u

    def test_json_text_is_valid_json(self):
        doc = json.loads(zeon_to_json(Zeon.one(2) + Z12))
        assert doc["n"] == 2

    @pytest.mark.parametrize("doc", [
        {"terms": []},                                        # no n
        {"n": -1, "terms": []},                               # bad n
        {"n": 33, "terms": []},                               # n too big
        {"n": 2, "terms": [{"index": [3], "re": 1, "im": 0}]},   # index > n
        {"n": 2, "terms": [{"index": [0], "re": 1, "im": 0}]},   # index < 1
        {"n": 2, "terms": [{"index": [1, 1], "re": 1, "im": 0}]},  # repeat
        {"n": 2, "terms": [{"index": [2, 1], "re": 1, "im": 0}]},  # order
        {"n": 2, "terms": [{"index": [1], "re": "x", "im": 0}]},  # non-number
        {"n": 2, "terms": [{"index": [1], "re": 0, "im": 0}]},    # zero term
        {"n": 2, "terms": [{"index": [1], "re": 1, "im": 0,
                            "extra": 1}]},                        # unknown key
        {"n": 2, "terms": [{"index": [1], "re": 1, "im": 0},
                           {"index": [1], "re": 2, "im": 0}]},    # dup index
        {"n": 2},                                             # no terms
        [],                                                   # not an object
        {"n": 2, "terms": {}},                                # not a list
        {"n": 2, "terms": [1]},                               # term not object
        {"n": 2, "terms": [{"re": 1, "im": 0}]},              # no index
        {"n": 2, "terms": [{"index": [True], "re": 1, "im": 0}]},  # bool
        {"n": 2, "terms": [], "extra": 1},                    # unknown key
    ])
    def test_strict_validation(self, doc):
        with pytest.raises(ValueError):
            zeon_from_dict(doc)

    def test_from_json_rejects_bad_text(self):
        with pytest.raises(ValueError):
            zeon_from_json("{not json")

    def test_missing_component_defaults_to_zero(self):
        # hand-written files may omit one of re/im
        u = zeon_from_dict({"n": 2, "terms": [{"index": [1], "re": 1}]})
        assert u == Z1


class TestPolyJson:
    def test_round_trip(self, rng):
        for _ in range(20):
            p = ZeonPoly([random_zeon(rng, 4) for _ in range(3)], n=4)
            assert poly_from_json(poly_to_json(p)) == p

    def test_dict_shape(self):
        p = ZeonPoly([Zeon.one(1), Zeon.blade(1, (1,))])
        assert poly_to_dict(p) == {
            "n": 1,
            "coeffs": [
                [{"index": [], "re": 1.0, "im": 0.0}],
                [{"index": [1], "re": 1.0, "im": 0.0}],
            ],
        }

    def test_internal_zero_coefficient(self):
        p = ZeonPoly([Zeon.one(1), Zeon.zero(1), Zeon.one(1)], n=1)
        back = poly_from_dict(poly_to_dict(p))
        assert back == p
        assert back.coeff(1).is_zero()

    @pytest.mark.parametrize("doc", [
        {"n": 1},                              # missing coeffs
        {"n": 1, "coeffs": {}},                # wrong container
        {"n": 1, "coeffs": [[{"index": [2], "re": 1, "im": 0}]]},  # bad index
        {"n": 1, "coeffs": [], "extra": 1},    # unknown key
    ])
    def test_strict_validation(self, doc):
        with pytest.raises(ValueError):
            poly_from_dict(doc)

    def test_body_keys_are_not_interchangeable(self):
        with pytest.raises(ValueError,
                           match=r"^element: unknown keys \['coeffs'\]$"):
            zeon_from_dict({"n": 1, "coeffs": []})
        with pytest.raises(ValueError,
                           match=r"^polynomial: unknown keys \['terms'\]$"):
            poly_from_dict({"n": 1, "terms": []})

    def test_text_and_json_agree(self, rng):
        p = ZeonPoly([random_zeon(rng, 3) for _ in range(3)], n=3)
        assert parse_poly(format_poly(p), 3) == poly_from_json(poly_to_json(p))
