"""Reader and writer for the CLI's element text, apart from ``zeon``.

The CLI prints an element as terms joined by `` + `` / `` - ``; a term
is a coefficient, ``coeff*z{i,j}`` or a bare ``z{i,j}``, and a
coefficient is ``a``, ``ai`` or ``(a+bi)``.  Polynomials join their
ascending coefficients with ``; ``.  The benchmark reads that output
back with this module so that its checks do not trust the program's
own parser.
"""

from __future__ import annotations

import re

_MAGNITUDE = r"(?:\d+(?:\.\d*)?(?:e[+-]?\d+)?|inf|nan)"
_REAL = rf"[+-]?{_MAGNITUDE}"
_PAIR = re.compile(rf"^\((?P<re>{_REAL})(?P<im>[+-]{_MAGNITUDE})i\)$")
_IMAG = re.compile(rf"^(?P<im>{_REAL})i$")
_BLADE = re.compile(r"^(?:(?P<coef>.+)\*)?z\{(?P<idx>\d+(?:,\d+)*)\}$")
_JOIN = re.compile(r" ([+-]) ")


def read_complex(text: str) -> complex:
    m = _PAIR.match(text)
    if m:
        return complex(float(m["re"]), float(m["im"]))
    m = _IMAG.match(text)
    if m:
        return complex(0.0, float(m["im"]))
    return complex(float(text), 0.0)


def read_zeon(text: str) -> list[tuple[tuple[int, ...], complex]]:
    """``(indices, coefficient)`` pairs of one printed element."""
    text = text.strip()
    if text == "0":
        return []
    signs = ["+"]
    pieces = _JOIN.split(text)
    bodies = pieces[0::2]
    signs += pieces[1::2]
    terms = []
    for sign, body in zip(signs, bodies):
        if body.startswith("-") and not terms:
            sign, body = "-", body[1:]
        m = _BLADE.match(body)
        if m:
            indices = tuple(int(i) for i in m["idx"].split(","))
            coef = read_complex(m["coef"]) if m["coef"] else 1.0 + 0j
        else:
            indices, coef = (), read_complex(body)
        terms.append((indices, -coef if sign == "-" else coef))
    return terms


def read_poly(text: str) -> list[list[tuple[tuple[int, ...], complex]]]:
    text = text.strip()
    if text == "0":
        return []
    return [read_zeon(chunk) for chunk in text.split("; ")]


def write_complex(c: complex) -> str:
    # always parenthesised, so a negative part never meets a joining sign
    return f"({c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i)"


def write_zeon(terms) -> str:
    """CLI input text for ``(indices, coefficient)`` pairs."""
    parts = []
    for indices, c in terms:
        coef = write_complex(complex(c))
        if indices:
            parts.append(f"{coef}*z{{{','.join(str(i) for i in indices)}}}")
        else:
            parts.append(coef)
    return " + ".join(parts) if parts else "0"


def write_poly(coeffs) -> str:
    return "; ".join(write_zeon(c) for c in coeffs)
