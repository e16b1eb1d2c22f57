"""Text and JSON forms for elements and polynomials.

The text grammar is a sum of terms joined by ``+`` / ``-``; a term is a
coefficient, ``coeff*z{i,j,...}``, or a bare blade ``z{i,...}``.  A
coefficient is a complex literal in one of three shapes: ``a`` (real),
``ai`` (imaginary), or ``(a+bi)``.  Whitespace is insignificant.

Printing is canonical: terms in ascending blade-bitmask order, real
values rendered with Python's shortest exact representation (integers
shortened to bare digits), so ``parse(format(u)) == u`` reproduces the
element bit for bit.  A coefficient's leading minus joins its term
(``1 - 2*z{1}``); a blade drops a coefficient that reads ``1``.

The JSON form is ``{"n": int, "terms": [{"index": [i, ...], "re": f,
"im": f}, ...]}`` with the same ordering guarantee; a polynomial is
``{"n": int, "coeffs": [terms, terms, ...]}`` ascending by degree, with
no other key.  The polynomial text form is simply coefficient texts
joined by ``;``.
"""

from __future__ import annotations

import json
import sys

from .algebra import MAX_GENERATORS, Zeon
from .poly import ZeonPoly

__all__ = [
    "format_complex",
    "parse_complex",
    "format_zeon",
    "parse_zeon",
    "format_poly",
    "parse_poly",
    "zeon_to_dict",
    "zeon_from_dict",
    "zeon_to_json",
    "zeon_from_json",
    "poly_to_dict",
    "poly_from_dict",
    "poly_to_json",
    "poly_from_json",
]


# -- scalar literals --------------------------------------------------------


def _format_real(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_complex(c: complex) -> str:
    """Render a complex literal: ``a``, ``ai``, or ``(a+bi)``."""
    c = complex(c)
    re_, im = c.real, c.imag
    if im == 0.0:
        return _format_real(re_)
    if re_ == 0.0:
        return _format_real(im) + "i"
    sign = "+" if im > 0 or im != im else "-"
    return f"({_format_real(re_)}{sign}{_format_real(abs(im))}i)"


def _split_sum(body: str) -> list[str]:
    """Split at top-level +/- (never inside parens or after e/E)."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced ')' in literal")
        elif ch in "+-" and depth == 0 and i > start:
            if body[i - 1] in "eE":
                continue
            parts.append(body[start:i])
            start = i
    if depth != 0:
        raise ValueError("unbalanced '(' in literal")
    parts.append(body[start:])
    return parts


def _parse_simple_complex(token: str) -> complex:
    """One signed literal without parentheses: ``a`` or ``ai``."""
    if token in ("", "+", "-"):
        raise ValueError(f"empty numeric literal in {token!r}")
    if token.endswith(("i", "I")):
        mag = token[:-1]
        if mag in ("", "+"):
            return 1j
        if mag == "-":
            return -1j
        return complex(0.0, float(mag))
    return complex(float(token), 0.0)


def parse_complex(text: str) -> complex:
    """Parse a complex literal: ``a``, ``ai``, or ``(a+bi)``."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty complex literal")
    inner = s[1:-1] if s.startswith("(") and s.endswith(")") else s
    total = 0j
    for part in _split_sum(inner):
        total += _parse_simple_complex(part)
    return total


# -- element text -----------------------------------------------------------


def format_zeon(u: Zeon) -> str:
    """Canonical text for an element; parses back to the same element."""
    if u.is_zero():
        return "0"
    pieces = []
    for indices, c in u.terms():
        body, negative = _signed_body(c)
        if indices:
            blade = "z{" + ",".join(str(i) for i in indices) + "}"
            body = blade if body == "1" else f"{body}*{blade}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def _signed_body(c: complex) -> tuple[str, bool]:
    """``format_complex(c)`` without its leading minus, and whether it
    had one, for +/- joining."""
    text = format_complex(c)
    return text.removeprefix("-"), text.startswith("-")


def parse_zeon(text: str, n: int) -> Zeon:
    """Parse the element grammar into the ``n``-generator algebra."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty element text")
    terms = []
    for part in _split_sum(s):
        sign = 1.0
        if part and part[0] in "+-":
            sign = -1.0 if part[0] == "-" else 1.0
            part = part[1:]
        if not part:
            raise ValueError("dangling sign in element text")
        if "z{" in part:
            head, _, tail = part.partition("z{")
            if not tail.endswith("}"):
                raise ValueError(f"malformed blade in {part!r}")
            index_body = tail[:-1]
            if not index_body:
                raise ValueError(f"empty index set in {part!r}")
            try:
                indices = tuple(int(tok) for tok in index_body.split(","))
            except ValueError as exc:
                raise ValueError(f"bad index list in {part!r}") from exc
            if head.endswith("*"):
                head = head[:-1]
                if not head:
                    raise ValueError(f"no coefficient before '*' in {part!r}")
            coeff = parse_complex(head) if head else 1.0 + 0j
        else:
            indices = ()
            coeff = parse_complex(part)
        terms.append((indices, sign * coeff))
    try:
        return Zeon(n, terms)
    except ValueError as exc:
        raise ValueError(str(exc)) from exc


# -- polynomial text ----------------------------------------------------------


def format_poly(p: ZeonPoly) -> str:
    """Coefficient texts ascending by degree, joined by '; '."""
    if p.is_zero():
        return "0"
    return "; ".join(format_zeon(c) for c in p.coeffs)


def parse_poly(text: str, n: int) -> ZeonPoly:
    """Parse '; '-joined coefficient texts (ascending by degree)."""
    chunks = text.split(";")
    if not any(chunk.strip() for chunk in chunks):
        raise ValueError("empty polynomial text")
    return ZeonPoly([parse_zeon(chunk, n) for chunk in chunks], n=n)


# -- JSON ---------------------------------------------------------------------


def _terms_to_json(u: Zeon) -> list[dict[str, object]]:
    return [
        {"index": list(indices), "re": c.real, "im": c.imag}
        for indices, c in u.terms()
    ]


def _terms_from_json(
    terms: object, n: int, where: str
) -> list[tuple[tuple[int, ...], complex]]:
    if not isinstance(terms, list):
        raise ValueError(f"{where}: 'terms' must be a list")
    out = []
    seen: set[tuple[int, ...]] = set()
    for item in terms:
        if not isinstance(item, dict):
            raise ValueError(f"{where}: each term must be an object")
        extra = set(item) - {"index", "re", "im"}
        if extra:
            raise ValueError(f"{where}: unknown term keys {sorted(extra)}")
        if "index" not in item:
            raise ValueError(f"{where}: term missing 'index'")
        index = item["index"]
        if not isinstance(index, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in index
        ):
            raise ValueError(f"{where}: 'index' must be a list of integers")
        if index != sorted(index) or len(set(index)) != len(index):
            raise ValueError(f"{where}: 'index' must be sorted and unique")
        if index and (index[0] < 1 or index[-1] > n):
            raise ValueError(f"{where}: 'index' entries must lie in 1..{n}")
        re_ = item.get("re", 0.0)
        im = item.get("im", 0.0)
        # within the float range: no infinity, and no integer too large
        # to become a float
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max for v in (re_, im)):
            raise ValueError(f"{where}: 're'/'im' must be finite numbers")
        c = complex(re_, im)
        if c == 0:
            raise ValueError(f"{where}: zero coefficients are not stored")
        key = tuple(index)
        if key in seen:
            raise ValueError(f"{where}: duplicate term for index {index}")
        seen.add(key)
        out.append((key, c))
    return out


def _check_object(obj: object, where: str, body: str) -> int:
    """The ``n`` of a JSON object that holds ``n`` and ``body`` only."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if "n" not in obj:
        raise ValueError(f"{where}: missing 'n'")
    n = obj["n"]
    if type(n) is not int or not 0 <= n <= MAX_GENERATORS:
        raise ValueError(
            f"{where}: 'n' must be an integer in 0..{MAX_GENERATORS}")
    extra = set(obj) - {"n", body}
    if extra:
        raise ValueError(f"{where}: unknown keys {sorted(extra)}")
    if body not in obj:
        raise ValueError(f"{where}: missing '{body}'")
    return n


def zeon_to_dict(u: Zeon) -> dict[str, object]:
    return {"n": u.n, "terms": _terms_to_json(u)}


def zeon_from_dict(obj: object) -> Zeon:
    n = _check_object(obj, "element", "terms")
    return Zeon(n, _terms_from_json(obj["terms"], n, "element"))


def zeon_to_json(u: Zeon) -> str:
    return json.dumps(zeon_to_dict(u))


def zeon_from_json(text: str) -> Zeon:
    return zeon_from_dict(json.loads(text))


def poly_to_dict(p: ZeonPoly) -> dict[str, object]:
    return {"n": p.n, "coeffs": [_terms_to_json(c) for c in p.coeffs]}


def poly_from_dict(obj: object) -> ZeonPoly:
    n = _check_object(obj, "polynomial", "coeffs")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ValueError("polynomial: 'coeffs' must be a list")
    return ZeonPoly(
        [
            Zeon(n, _terms_from_json(terms, n, f"coefficient {k}"))
            for k, terms in enumerate(coeffs)
        ],
        n=n,
    )


def poly_to_json(p: ZeonPoly) -> str:
    return json.dumps(poly_to_dict(p))


def poly_from_json(text: str) -> ZeonPoly:
    return poly_from_dict(json.loads(text))
