"""No float arithmetic in the package.

Every check of pqgeom computes on Python ints and Fractions, and the
report is the only place a float is formed.  This test walks the syntax
tree of each module of src/pqgeom and fails on a float conversion or a
float literal outside three places:

- ``cli.run_suite``, which converts each exact residual once, for the
  report;
- ``cli.REGISTRY``, whose tolerances are floats;
- ``reduction.weighted_level_sample_float``, the rounded image of the
  exact level sampler, which the benchmark in perfbench/ traces by name.

A float conversion is a call ``float(...)`` or ``float`` handed to a call
as an argument: ``map(float, ...)``, ``dtype=float``, and also the type
test ``isinstance(x, float)`` of a float branch, also where ``float`` is
one entry of a tuple argument, as in ``isinstance(x, (int, float))``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqgeom"

ALLOWED = {("cli.py", "run_suite"), ("cli.py", "REGISTRY"),
           ("reduction.py", "weighted_level_sample_float")}


def _is_float_name(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "float"


def _operands(call):
    """The callee and arguments of a call, with the entries of a tuple
    argument in place of the tuple."""
    for x in [call.func, *call.args, *(kw.value for kw in call.keywords)]:
        yield from x.elts if isinstance(x, ast.Tuple) else (x,)


def _float_lines(tree) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            lines += [node.lineno for x in _operands(node)
                      if _is_float_name(x)]
    return lines


def float_sites(filename: str, source: str) -> dict:
    """Lines of the float conversions and literals under each top-level
    statement, keyed by (filename, the name the statement defines)."""
    sites = {}
    for stmt in ast.parse(source).body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        name = getattr(stmt, "name", getattr(targets[0], "id", None))
        lines = _float_lines(stmt)
        if lines:
            sites.setdefault((filename, name), []).extend(lines)
    return sites


def test_no_float_outside_the_report():
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites.update(float_sites(path.name, path.read_text(encoding="utf-8")))
    assert {key: lines for key, lines in sites.items()
            if key not in ALLOWED} == {}
    # each exemption still forms a float: none is stale
    assert set(sites) == ALLOWED


def test_lint_finds_float_conversions_and_literals():
    source = ("def check(x):\n"
              "    return float(x) <= 1e-6\n"
              "TOL = 0.5\n"
              "def rows(xs):\n"
              "    return list(map(float, xs)), isinstance(xs, float)\n"
              "def typed(np):\n"
              "    return np.zeros(3, dtype=float)\n"
              "def coerce(x):\n"
              "    return isinstance(x, (int, Fraction, float))\n")
    assert float_sites("m.py", source) == {("m.py", "check"): [2, 2],
                                           ("m.py", "TOL"): [3],
                                           ("m.py", "rows"): [5, 5],
                                           ("m.py", "typed"): [7],
                                           ("m.py", "coerce"): [9]}
