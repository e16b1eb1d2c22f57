"""Command-line interface.

Subcommands parse element/polynomial inputs (text grammar or JSON),
dispatch to one library operation each, and print the result by one
rule: an element, a polynomial, or a list or record made only of them
prints one per line in the canonical text form, or as one JSON value
with ``--json``; any other result (the reports of quad, solve and
classify) prints as one JSON object.  A record prints as its fields in
order, so its JSON keys are its field names; the solve report gives
``input_digest`` in place of ``poly``.

Each subcommand is declared once, by ``@_command`` on its handler, with
its input kinds and extra options; the handler's docstring is its
``--help`` text.

Exit codes: 0 success; 1 usage, parse, or config problems; 2
mathematical non-existence or domain errors.  Exit-2 failures write
``{"error": <library error name>, "message": ...}`` to stderr.

Tolerance precedence: ``--tol`` flag, then ``--config`` file (key=value
lines, one per :class:`Tolerance` field: prune_eps, eq_eps, root_eps,
cluster_eps), then built-in defaults; nothing is read from the
environment.  Each command, a batch line too, parses its inputs and
runs inside ``with tolerance(...)`` for the one ``Tolerance`` it
resolved, so no setting outlives its command.

``--batch <file>`` runs one command per line (``#`` comments and blank
lines skipped); lines run one after another in this process, and each
line's output is emitted before the next line's.

A command imports the zero finder (``solve``) or the analytic
extensions (``analytic``) only when it runs them, so ``inv`` and the
other element and polynomial commands start without either.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
from collections.abc import Callable
from io import TextIOBase
from pathlib import Path

from .algebra import Tolerance, Zeon, kth_roots, tolerance
from .errors import ZeonError
from .poly import QuadraticKind, ZeonPoly, divide, quadratic_solve
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


_COMMANDS: dict[str, Callable[..., int]] = {}


def _command(name: str, *kinds: str, fn: bool = False, seed: bool = False,
             k: bool = False):
    """Declare the decorated handler as subcommand ``name``: its inputs
    are of ``kinds`` ("poly" or "zeon"), and ``fn``, ``seed`` and ``k``
    add those options."""
    def register(handler):
        handler.kinds, handler.fn, handler.seed, handler.k = kinds, fn, seed, k
        _COMMANDS[name] = handler
        return handler
    return register


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="zeon",
                     description=(__doc__ or "").partition("\n")[0])
    parser.add_argument("--batch", metavar="FILE",
                        help="run one command per line from FILE")
    sub = parser.add_subparsers(dest="command")
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
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
        if handler.fn:
            p.add_argument("--fn", required=True,
                           help="analytic function name, e.g. exp, pow(0.5)")
        if handler.seed:
            p.add_argument("--seed", default=None,
                           help="scalar seed (complex literal)")
        if handler.k:
            p.add_argument("--k", type=int, default=2, help="root order")
        p.add_argument("inputs", nargs="*", metavar="INPUT",
                       help="input expressions (when --in is not used)")
    return parser


# -- input plumbing ----------------------------------------------------------


def _load_inputs(ns: argparse.Namespace) -> list[Zeon | ZeonPoly]:
    kinds = _COMMANDS[ns.command].kinds
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
            loaded = [poly_from_dict(o) if k == "poly" else zeon_from_dict(o)
                      for o, k in zip(items, kinds)]
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
    return [parse_poly(t, ns.n) if k == "poly" else parse_zeon(t, ns.n)
            for t, k in zip(texts, kinds)]


def _resolve_tolerance(ns: argparse.Namespace) -> Tolerance:
    defaults = Tolerance()
    values = {key: getattr(defaults, key) for key in Tolerance.__slots__}
    if ns.config is not None:
        for lineno, raw in enumerate(Path(ns.config).read_text().splitlines(),
                                     start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            bad = ValueError(f"{ns.config}:{lineno}: bad entry {raw!r}")
            if not sep or key not in values:
                raise bad
            try:
                values[key] = float(value.strip())
            except ValueError:
                raise bad from None
    if ns.tol is not None:
        values["eq_eps"] = ns.tol
    return Tolerance(**values)


# -- output plumbing ---------------------------------------------------------


def _encode(obj: object, as_json: bool) -> object:
    """``obj`` as JSON data: elements and polynomials as their dicts
    (``as_json``) or text, records as ``{field: value}`` in field order."""
    if isinstance(obj, Zeon):
        return zeon_to_dict(obj) if as_json else format_zeon(obj)
    if isinstance(obj, ZeonPoly):
        return poly_to_dict(obj) if as_json else format_poly(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {key: _encode(value, as_json) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(item, as_json) for item in obj]
    return obj


def _emit(result: object, ns: argparse.Namespace, out: TextIOBase) -> int:
    """Print ``result`` by the output rule and return exit code 0."""
    items = result if isinstance(result, (list, tuple)) else (result,)
    if ns.json or not all(isinstance(x, (Zeon, ZeonPoly)) for x in items):
        print(json.dumps(_encode(result, ns.json)), file=out)
    else:
        for item in items:
            print(_encode(item, False), file=out)
    return 0


def _fail(err: TextIOBase, name: str, message: str, code: int = 1) -> int:
    """Write the one-line JSON diagnostic and return the exit code."""
    print(json.dumps({"error": name, "message": message}), file=err)
    return code


# -- commands ----------------------------------------------------------------


@_command("eval", "poly", "zeon")
def _cmd_eval(ns, out, err) -> int:
    """evaluate a polynomial at an element"""
    poly, point = _load_inputs(ns)
    return _emit(poly(point), ns, out)


@_command("inv", "zeon")
def _cmd_inv(ns, out, err) -> int:
    """multiplicative inverse of an element"""
    (u,) = _load_inputs(ns)
    return _emit(u.inverse(), ns, out)


@_command("root", "zeon", k=True)
def _cmd_root(ns, out, err) -> int:
    """all k-th roots of an invertible element"""
    (u,) = _load_inputs(ns)
    if ns.k < 1:
        raise _UsageError("--k must be a positive integer")
    return _emit(kth_roots(u, ns.k), ns, out)


@_command("divide", "poly", "poly")
def _cmd_divide(ns, out, err) -> int:
    """polynomial division with remainder"""
    dividend, divisor = _load_inputs(ns)
    return _emit(divide(dividend, divisor), ns, out)


@_command("quad", "zeon", "zeon", "zeon")
def _cmd_quad(ns, out, err) -> int:
    """solve a quadratic with invertible leading coefficient"""
    alpha, beta, gamma = _load_inputs(ns)
    outcome = quadratic_solve(alpha, beta, gamma)
    if outcome.kind is QuadraticKind.NO_ZEROS:
        return _fail(err, "NoZeros",
                     outcome.note or "the quadratic has no zeros", 2)
    return _emit(outcome, ns, out)


@_command("solve", "poly", seed=True)
def _cmd_solve(ns, out, err) -> int:
    """zero set of a polynomial"""
    from .solve import spectrally_simple_zero, split

    (poly,) = _load_inputs(ns)
    if ns.seed is not None:
        seed = parse_complex(ns.seed)
        return _emit(spectrally_simple_zero(poly, seed).zero, ns, out)
    report = split(poly)
    fields = report._asdict()
    del fields["poly"]
    return _emit({"input_digest": report.input_digest, **fields}, ns, out)


@_command("classify", "poly")
def _cmd_classify(ns, out, err) -> int:
    """zero set of a scalar-coefficient polynomial"""
    from .solve import classify_nilpotent_zeros

    (poly,) = _load_inputs(ns)
    if not poly.is_scalar():
        raise _UsageError("classify expects scalar coefficients")
    return _emit(classify_nilpotent_zeros(poly.scalar_projection(), poly.n),
                 ns, out)


@_command("extend", "zeon", fn=True)
def _cmd_extend(ns, out, err) -> int:
    """apply the extension of an analytic function"""
    from .analytic import ZeonExtension, by_name, extend_eval

    (u,) = _load_inputs(ns)
    ext = ZeonExtension(by_name(ns.fn), u.n)
    return _emit(extend_eval(ext, u), ns, out)


@_command("preimage", "zeon", fn=True, seed=True)
def _cmd_preimage(ns, out, err) -> int:
    """preimage of an element under an analytic extension"""
    from .analytic import ZeonExtension, by_name, preimage

    (w,) = _load_inputs(ns)
    if ns.seed is None:
        raise _UsageError("preimage requires --seed")
    seed = parse_complex(ns.seed)
    ext = ZeonExtension(by_name(ns.fn), w.n)
    return _emit(preimage(ext, w, seed), ns, out)


# -- dispatch ----------------------------------------------------------------


def _dispatch(argv: list[str], out: TextIOBase, err: TextIOBase,
              in_batch: bool = False) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(err, "UsageError", str(exc))
    except SystemExit as exc:  # argparse's exit after --help
        return exc.code if isinstance(exc.code, int) else 0
    if ns.batch is not None:
        if in_batch:
            return _fail(err, "UsageError", "--batch cannot nest")
        if ns.command is not None:
            return _fail(err, "UsageError", "--batch takes no subcommand")
        return _run_batch(ns.batch, out, err)
    if ns.command is None:
        usage = " ".join(parser.format_usage().split())
        return _fail(err, "UsageError", f"a command is required; {usage}")
    try:
        with tolerance(_resolve_tolerance(ns)):
            return _COMMANDS[ns.command](ns, out, err)
    except _UsageError as exc:
        return _fail(err, "UsageError", str(exc))
    except ZeonError as exc:
        return _fail(err, type(exc).__name__, str(exc), 2)
    except (ValueError, OSError, RecursionError) as exc:
        # RecursionError: json.loads on a document nested too deeply
        return _fail(err, "ParseError", str(exc))


def _run_batch(path: str, out: TextIOBase, err: TextIOBase) -> int:
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(err, "ParseError", str(exc))
    jobs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                jobs.append(shlex.split(line))
            except ValueError as exc:
                return _fail(err, "ParseError", f"{path}:{lineno}: {exc}")
    code = 0
    for args in jobs:
        line_code = _dispatch(args, out, err, in_batch=True)
        if code == 0 and line_code != 0:
            code = line_code
    return code


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    return _dispatch(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
