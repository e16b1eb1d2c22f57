"""Command-line interface.

Subcommands parse element/polynomial inputs (text grammar or JSON),
dispatch to one library operation each, and print the result: elements
and polynomials in the canonical text form (or JSON with ``--json``),
structured reports always as JSON objects.

Exit codes: 0 success; 1 usage, parse, or config problems; 2
mathematical non-existence or domain errors.  Exit-2 failures write
``{"error": <library error name>, "message": ...}`` to stderr.

Tolerance precedence: ``--tol`` flag, then ``--config`` file (key=value
lines: prune_eps, eq_eps, root_eps, cluster_eps), then the ZEON_TOL
environment variable (eq_eps only), then built-in defaults.

``--batch <file>`` runs one command per line (``#`` comments and blank
lines skipped); lines run one after another in this process, and each
line's output is emitted before the next line's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys
from io import StringIO
from pathlib import Path
from typing import Any, TextIO

from .algebra import (
    Tolerance,
    Zeon,
    default_tolerance,
    kth_roots,
    set_default_tolerance,
)
from .analytic import ZeonExtension, by_name, extend_eval, preimage
from .errors import ZeonError
from .poly import QuadraticKind, ZeonPoly, divide, quadratic_solve
from .solve import classify_nilpotent_zeros, spectrally_simple_zero, split
from .textio import (
    format_poly,
    format_zeon,
    parse_complex,
    parse_poly,
    parse_zeon,
    poly_from_dict,
    poly_to_dict,
    zeon_from_dict,
    zeon_to_dict,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exceptions.

    argparse's default error path calls sys.exit(2); exit code 2 is
    reserved here for domain errors, so usage problems must surface as
    exceptions and map to exit code 1.
    """

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="zeon", description=__doc__.splitlines()[0])
    parser.add_argument("--batch", metavar="FILE",
                        help="run one command per line from FILE")
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_: str, *, fn: bool = False, seed: bool = False,
            k: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int, default=None,
                       help="generator count of the ambient algebra")
        p.add_argument("--json", action="store_true",
                       help="emit elements/polynomials as JSON")
        p.add_argument("--tol", type=float, default=None,
                       help="override eq_eps")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="key=value tolerance defaults")
        p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                       help="read the inputs from FILE instead of arguments")
        if fn:
            p.add_argument("--fn", required=True,
                           help="analytic function name, e.g. exp, pow(0.5)")
        if seed:
            p.add_argument("--seed", default=None,
                           help="scalar seed (complex literal)")
        if k:
            p.add_argument("--k", type=int, default=2, help="root order")
        p.add_argument("inputs", nargs="*", metavar="INPUT",
                       help="input expressions (when --in is not used)")
        return p

    add("eval", "evaluate a polynomial at an element")
    add("inv", "multiplicative inverse of an element")
    add("root", "all k-th roots of an invertible element", k=True)
    add("divide", "polynomial division with remainder")
    add("quad", "solve a quadratic with invertible leading coefficient")
    add("solve", "zero set of a polynomial", seed=True)
    add("classify", "zero set of a scalar-coefficient polynomial")
    add("extend", "apply the extension of an analytic function", fn=True)
    add("preimage", "preimage of an element under an analytic extension",
        fn=True, seed=True)
    return parser


# -- input plumbing ----------------------------------------------------------


_SLOT_KINDS = {
    "eval": ("poly", "zeon"),
    "inv": ("zeon",),
    "root": ("zeon",),
    "divide": ("poly", "poly"),
    "quad": ("zeon", "zeon", "zeon"),
    "solve": ("poly",),
    "classify": ("poly",),
    "extend": ("zeon",),
    "preimage": ("zeon",),
}


def _slot_from_json(obj: Any, kind: str) -> Zeon | ZeonPoly:
    return poly_from_dict(obj) if kind == "poly" else zeon_from_dict(obj)


def _slot_from_text(text: str, kind: str, n: int) -> Zeon | ZeonPoly:
    return parse_poly(text, n) if kind == "poly" else parse_zeon(text, n)


def _load_inputs(ns: argparse.Namespace) -> list[Zeon | ZeonPoly]:
    kinds = _SLOT_KINDS[ns.command]
    if ns.infile is not None:
        if ns.inputs:
            raise _UsageError("--in replaces the positional inputs")
        content = Path(ns.infile).read_text()
        if content.lstrip().startswith(("{", "[")):
            data = json.loads(content)
            items = data if isinstance(data, list) else [data]
            if len(items) != len(kinds):
                raise ValueError(
                    f"{ns.command} expects {len(kinds)} input(s), "
                    f"file holds {len(items)}"
                )
            loaded = [_slot_from_json(o, k) for o, k in zip(items, kinds)]
            for item in loaded:
                if ns.n is not None and item.n != ns.n:
                    raise ValueError(
                        f"--n {ns.n} does not match n={item.n} in the file"
                    )
            return loaded
        texts = [line for line in content.splitlines() if line.strip()]
    else:
        texts = list(ns.inputs)
    if len(texts) != len(kinds):
        raise _UsageError(
            f"{ns.command} expects {len(kinds)} input(s), got {len(texts)}"
        )
    if ns.n is None:
        raise _UsageError("--n is required for text inputs")
    return [_slot_from_text(t, k, ns.n) for t, k in zip(texts, kinds)]


def _resolve_tolerance(ns: argparse.Namespace) -> tuple[Tolerance, float]:
    base = Tolerance()
    values = {
        "prune_eps": base.prune_eps,
        "eq_eps": base.eq_eps,
        "root_eps": base.root_eps,
        "cluster_eps": 1e-7,
    }
    env = os.environ.get("ZEON_TOL")
    if env is not None:
        try:
            values["eq_eps"] = float(env)
        except ValueError:
            raise ValueError(f"ZEON_TOL is not a number: {env!r}") from None
    if ns.config is not None:
        for lineno, raw in enumerate(Path(ns.config).read_text().splitlines(),
                                     start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in values:
                raise ValueError(f"{ns.config}:{lineno}: bad entry {raw!r}")
            values[key] = float(value.strip())
    if ns.tol is not None:
        values["eq_eps"] = ns.tol
    cluster_eps = values.pop("cluster_eps")
    return Tolerance(**values), cluster_eps


# -- output plumbing ---------------------------------------------------------


def _complex_json(c: complex) -> dict[str, float]:
    return {"re": c.real, "im": c.imag}


def _scalar_root_json(root) -> dict[str, Any]:
    return {"value": _complex_json(root.value),
            "multiplicity": root.multiplicity, "simple": root.simple}


def _render_zeon(u: Zeon, as_json: bool) -> Any:
    return zeon_to_dict(u) if as_json else format_zeon(u)


def _render_poly(p: ZeonPoly, as_json: bool) -> Any:
    return poly_to_dict(p) if as_json else format_poly(p)


def _print_zeon(u: Zeon, ns: argparse.Namespace, out: TextIO) -> None:
    rendered = _render_zeon(u, ns.json)
    print(json.dumps(rendered) if ns.json else rendered, file=out)


def _domain_error(err: TextIO, name: str, message: str) -> int:
    print(json.dumps({"error": name, "message": message}), file=err)
    return 2


# -- commands ----------------------------------------------------------------


def _cmd_eval(ns, tol, cluster_eps, out, err) -> int:
    poly, point = _load_inputs(ns)
    _print_zeon(poly(point), ns, out)
    return 0


def _cmd_inv(ns, tol, cluster_eps, out, err) -> int:
    (u,) = _load_inputs(ns)
    _print_zeon(u.inverse(tol), ns, out)
    return 0


def _cmd_root(ns, tol, cluster_eps, out, err) -> int:
    (u,) = _load_inputs(ns)
    if ns.k < 1:
        raise _UsageError("--k must be a positive integer")
    roots = kth_roots(u, ns.k, tol)
    if ns.json:
        print(json.dumps([zeon_to_dict(r) for r in roots]), file=out)
    else:
        for r in roots:
            print(format_zeon(r), file=out)
    return 0


def _cmd_divide(ns, tol, cluster_eps, out, err) -> int:
    dividend, divisor = _load_inputs(ns)
    result = divide(dividend, divisor, tol)
    if ns.json:
        print(json.dumps({
            "quotient": poly_to_dict(result.quotient),
            "remainder": poly_to_dict(result.remainder),
        }), file=out)
    else:
        print(format_poly(result.quotient), file=out)
        print(format_poly(result.remainder), file=out)
    return 0


def _cmd_quad(ns, tol, cluster_eps, out, err) -> int:
    alpha, beta, gamma = _load_inputs(ns)
    outcome = quadratic_solve(alpha, beta, gamma, tol)
    if outcome.kind is QuadraticKind.NO_ZEROS:
        return _domain_error(err, "NoZeros", outcome.note or
                             "the quadratic has no zeros")
    report = {
        "kind": outcome.kind.value,
        "zeros": [_render_zeon(z, ns.json) for z in outcome.zeros],
        "discriminant": _render_zeon(outcome.discriminant, ns.json),
        "family_base": (None if outcome.family_base is None
                        else _render_zeon(outcome.family_base, ns.json)),
        "note": outcome.note,
    }
    print(json.dumps(report), file=out)
    return 0


def _cmd_solve(ns, tol, cluster_eps, out, err) -> int:
    (poly,) = _load_inputs(ns)
    if ns.seed is not None:
        seed = parse_complex(ns.seed)
        result = spectrally_simple_zero(poly, seed, tol)
        _print_zeon(result.zero, ns, out)
        return 0
    report = split(poly, tol, cluster_eps=cluster_eps)
    payload = {
        "input_digest": report.input_digest,
        "scalar_spectrum": [_scalar_root_json(r)
                            for r in report.scalar_spectrum],
        "spectral_zeros": [
            {"zero": _render_zeon(z.zero, ns.json),
             "seed": _scalar_root_json(z.seed),
             "iterations": z.iterations,
             "residual": z.residual,
             "grade_trace": list(z.grade_trace)}
            for z in report.spectral_zeros
        ],
        "families": [_description_json(f, ns.json) for f in report.families],
        "warnings": list(report.warnings),
    }
    print(json.dumps(payload), file=out)
    return 0


def _description_json(description, as_json: bool) -> dict[str, Any]:
    return {
        "kind": description.kind.value,
        "zeros": [_render_zeon(z, as_json) for z in description.zeros],
        "family_spec": (None if description.family_spec is None
                        else _family_json(description.family_spec, as_json)),
    }


def _family_json(family, as_json: bool) -> dict[str, Any]:
    return {
        "text": family.text,
        "scalar": (None if family.scalar is None
                   else _complex_json(family.scalar)),
        "nilpotency_bound": family.nilpotency_bound,
        "base": (None if family.base is None
                 else _render_zeon(family.base, as_json)),
        "direction": (None if family.direction is None
                      else _render_zeon(family.direction, as_json)),
    }


def _cmd_classify(ns, tol, cluster_eps, out, err) -> int:
    (poly,) = _load_inputs(ns)
    coeffs = []
    for k, c in enumerate(poly.coeffs):
        if c.dual_part().max_abs() > tol.eq_eps:
            raise _UsageError(
                f"classify expects scalar coefficients; coefficient {k} "
                "is not scalar"
            )
        coeffs.append(c.scalar_part())
    description = classify_nilpotent_zeros(coeffs, poly.n, tol)
    print(json.dumps(_description_json(description, ns.json)), file=out)
    return 0


def _cmd_extend(ns, tol, cluster_eps, out, err) -> int:
    (u,) = _load_inputs(ns)
    ext = ZeonExtension(by_name(ns.fn), u.n)
    _print_zeon(extend_eval(ext, u), ns, out)
    return 0


def _cmd_preimage(ns, tol, cluster_eps, out, err) -> int:
    (w,) = _load_inputs(ns)
    if ns.seed is None:
        raise _UsageError("preimage requires --seed")
    seed = parse_complex(ns.seed)
    ext = ZeonExtension(by_name(ns.fn), w.n)
    _print_zeon(preimage(ext, w, seed, tol), ns, out)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "inv": _cmd_inv,
    "root": _cmd_root,
    "divide": _cmd_divide,
    "quad": _cmd_quad,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "extend": _cmd_extend,
    "preimage": _cmd_preimage,
}


# -- dispatch ----------------------------------------------------------------


def _dispatch(argv: list[str], out: TextIO, err: TextIO,
              in_batch: bool = False) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}),
              file=err)
        return 1
    if ns.batch is not None:
        if in_batch:
            print(json.dumps({"error": "UsageError",
                              "message": "--batch cannot nest"}), file=err)
            return 1
        if ns.command is not None:
            print(json.dumps({"error": "UsageError",
                              "message": "--batch takes no subcommand"}),
                  file=err)
            return 1
        return _run_batch(ns.batch, out, err)
    if ns.command is None:
        parser.print_usage(err)
        return 1
    try:
        tol, cluster_eps = _resolve_tolerance(ns)
        # elements prune against the process default, so parsing and
        # every intermediate must see the resolved tolerance; restoring
        # it keeps one batch line's tolerance out of the next
        previous = default_tolerance()
        set_default_tolerance(tol)
        try:
            return _COMMANDS[ns.command](ns, tol, cluster_eps, out, err)
        finally:
            set_default_tolerance(previous)
    except _UsageError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}),
              file=err)
        return 1
    except ZeonError as exc:
        return _domain_error(err, type(exc).__name__, str(exc))
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": "ParseError", "message": str(exc)}),
              file=err)
        return 1


def _run_batch(path: str, out: TextIO, err: TextIO) -> int:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        print(json.dumps({"error": "ParseError", "message": str(exc)}),
              file=err)
        return 1
    jobs = []
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            jobs.append(shlex.split(line))
    code = 0
    for args in jobs:
        buf_out, buf_err = StringIO(), StringIO()
        try:
            line_code = _dispatch(args, buf_out, buf_err, in_batch=True)
        except SystemExit as exc:
            line_code = exc.code if isinstance(exc.code, int) else 0
        out.write(buf_out.getvalue())
        err.write(buf_err.getvalue())
        if code == 0 and line_code != 0:
            code = line_code
    return code


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _dispatch(args, sys.stdout, sys.stderr)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
