"""One width decision in the package.

An integer array of pqgeom is held as int64 only under a checked bound,
and as Python ints otherwise; ``exactla.words`` makes that decision, and
``exactla`` alone reads dtypes and entry types.  This test walks the
syntax tree of every other module of src/pqgeom and fails on:

- a comparison on a dtype, such as ``arr.dtype == object`` or
  ``arr.dtype.kind in "fc"``;
- a scan of the entry types, ``map(type, ...)``;
- a cast to Python ints, ``.astype(object)``;
- a word bound of its own: the literals ``2 ** 62``, ``2 ** 63``,
  ``1 << 62`` and ``1 << 63``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqgeom"

ALLOWED = "exactla.py"

BOUNDS = {(ast.Pow, 2, 62), (ast.Pow, 2, 63), (ast.LShift, 1, 62),
          (ast.LShift, 1, 63)}


def _on_dtype(node) -> bool:
    """Whether node reads a dtype or an attribute of one."""
    while isinstance(node, ast.Attribute):
        if node.attr == "dtype":
            return True
        node = node.value
    return False


def _is_width_site(node) -> bool:
    if isinstance(node, ast.Compare):
        return any(map(_on_dtype, [node.left, *node.comparators]))
    if isinstance(node, ast.Call):
        func, args = node.func, node.args
        if (isinstance(func, ast.Name) and func.id == "map" and args
                and isinstance(args[0], ast.Name) and args[0].id == "type"):
            return True
        return (isinstance(func, ast.Attribute) and func.attr == "astype"
                and len(args) == 1 and isinstance(args[0], ast.Name)
                and args[0].id == "object")
    if isinstance(node, ast.BinOp):
        return (isinstance(node.left, ast.Constant)
                and isinstance(node.right, ast.Constant)
                and (type(node.op), node.left.value, node.right.value)
                in BOUNDS)
    return False


def width_sites(filename: str, source: str) -> dict:
    """Lines of the width sites under each top-level statement, keyed by
    (filename, the name the statement defines)."""
    sites = {}
    for stmt in ast.parse(source).body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        name = getattr(stmt, "name", getattr(targets[0], "id", None))
        lines = sorted(node.lineno for node in ast.walk(stmt)
                       if _is_width_site(node))
        if lines:
            sites.setdefault((filename, name), []).extend(lines)
    return sites


def test_only_exactla_decides_a_width():
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites.update(width_sites(path.name, path.read_text(encoding="utf-8")))
    assert {key: lines for key, lines in sites.items()
            if key[0] != ALLOWED} == {}
    # the decision itself is still made: the exemption is not stale
    assert (ALLOWED, "words") in sites


def test_lint_finds_dtype_tests_type_scans_casts_and_bounds():
    source = ("def wide(arr):\n"
              "    return arr if arr.dtype == object else arr.astype(object)\n"
              "def kinds(arr):\n"
              "    return set(map(type, arr)), arr.dtype.kind in 'fc'\n"
              "TOP = 2 ** 62\n"
              "def fits(x, n):\n"
              "    return x < 1 << 63 and n >= 2 ** 63\n"
              "def fine(np, arr):\n"
              "    out = np.zeros(3, dtype=arr.dtype)\n"
              "    return out.astype(arr.dtype), 2 ** 61, (out == 0).all()\n")
    assert width_sites("m.py", source) == {("m.py", "wide"): [2, 2],
                                           ("m.py", "kinds"): [4, 4],
                                           ("m.py", "TOP"): [5],
                                           ("m.py", "fits"): [7, 7]}
