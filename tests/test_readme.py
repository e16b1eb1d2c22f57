"""The README's examples run as written and print what their comments say."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from zeon import Zeon, ZeonExtension, by_name, extend_eval, kth_roots, parse_zeon
from zeon.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.S | re.M)


def run_recorded(block):
    """Run a Python block; returns its namespace and the value of each
    expression statement (the lines whose comments state a value)."""
    tree = ast.parse(block)

    class Record(ast.NodeTransformer):
        def visit_Expr(self, node):
            target = ast.Subscript(ast.Name("_seen", ast.Load()),
                                   ast.Constant(node.lineno), ast.Store())
            return ast.copy_location(ast.Assign([target], node.value), node)

    tree = ast.fix_missing_locations(Record().visit(tree))
    ns = {"_seen": {}}
    exec(compile(tree, str(README), "exec"), ns)
    return ns, list(ns["_seen"].values())


def test_readme_examples(capsys):
    tour, tolerances = fenced("python")
    commands = next(b for b in fenced("sh") if b.startswith("zeon inv"))

    ns, (zero, kind) = run_recorded(tour)
    u = ns["u"]
    assert ns["v"].mul(u).isclose(Zeon.one(2))
    roots = kth_roots(u, 3)
    assert len(roots) == 3 and ns["w"] == roots[0]
    assert ns["w"].scalar_part() == pytest.approx(2 ** (1 / 3))
    assert ns["w"].power(3).isclose(u)
    # 1, then 2 + z{1}, each one rounding unit off: they print as
    # 1.0000000000000002 and 1.9999999999999998 + 1.0000000000000002*z{1}
    assert zero.isclose(Zeon.one(2), eps=1e-15)
    assert ns["report"].spectral_zeros[1].zero.isclose(
        parse_zeon("2 + z{1}", 2), eps=1e-15)
    assert kind == "NullSquareFamily"
    assert ns["out"].family_base == Zeon.one(2)
    assert ns["lam"].isclose(Zeon(2, {(): 0.5, (1,): 3.0}))

    ns, (inv, pruned, two, one) = run_recorded(tolerances)
    assert inv.isclose(parse_zeon("1 - 0.0001 z{1} - z{2} + 0.0002 z{1,2}", 2),
                       eps=1e-15)
    assert pruned == parse_zeon("1 - z{2}", 2)
    assert [r.simple for r in two] == [True, True]
    (double,) = one
    assert double.multiplicity == 2
    assert double.value == pytest.approx(1.000005, rel=1e-12)

    outputs = []
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "zeon"
        assert main(argv[1:]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    (inv, at_point, roots, division, quad, seeded, report, family, exp,
     pre) = outputs
    assert inv == "1 - z{1}\n"
    assert at_point == "5 + 4*z{1}\n"  # (2 + z{1})**2 + 1
    roots = [parse_zeon(t, 1) for t in roots.splitlines()]
    assert len(roots) == 2
    assert all(r.mul(r).isclose(parse_zeon("4 + 4*z{1}", 1)) for r in roots)
    assert division.splitlines() == ["z{1}; 1", "0"]
    assert json.loads(quad)["kind"] == "TwoDistinct"
    assert seeded == "3\n"
    assert [z["zero"] for z in json.loads(report)["spectral_zeros"]] == ["3"]
    assert json.loads(family)["kind"] == "NilpotentFamily"
    assert exp == "1 + z{1}\n"
    cos = ZeonExtension(by_name("cos"), 2)
    w = parse_zeon("0.8775825618903728 + z{1,2}", 2)
    lam = parse_zeon(pre.strip(), 2)
    assert lam.scalar_part() == pytest.approx(0.5)
    assert extend_eval(cos, lam).isclose(w)
