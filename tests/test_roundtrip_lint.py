"""No Fraction round trip of an exact result in the package.

``exactla.solve``, ``inverse``, ``nullspace`` and ``frame_coordinates``
return scaled integers, an object array of Python ints and one positive
scale, and the module vectors, matrices and structures hold such pairs
with ``Fraction`` views formed on request.  Scaling a view back to
integers, or turning an elimination result into ``Fraction``s only to
hand it on, is a conversion the design removed.  This test walks the
syntax tree of each module of src/pqgeom and fails on a call
``scaled_integers(...)`` or
``from_scaled_integers(...)`` whose argument is directly

- the result of a call of ``solve``, ``inverse``, ``nullspace`` or
  ``frame_coordinates``, or
- a ``Fraction`` view: an attribute ``.J``, ``.g``, ``.matrix``,
  ``.horizontal`` or ``.entries``, or a call of ``.fractions()`` or
  ``.to_real()``,

where "directly" looks through unpacking (``*x``), indexing (``x[:2]``,
``x[0]``), transposition (``x.T``) and the reshaping methods
(``x.reshape(...)``, ``x.transpose(...)``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqgeom"

CONVERSIONS = {"scaled_integers", "from_scaled_integers"}
ELIMINATIONS = {"solve", "inverse", "nullspace", "frame_coordinates"}
VIEWS = {"J", "g", "matrix", "horizontal", "entries"}
VIEW_CALLS = {"fractions", "to_real"}
RESHAPES = {"reshape", "transpose"}


def _name(node):
    """The name of a Name node or the attribute of an Attribute node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _reshaped(node):
    """The array a reshaping call x.reshape(...) or x.transpose(...)
    acts on, or None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in RESHAPES):
        return node.func.value
    return None


def _is_round_trip(arg) -> bool:
    while (isinstance(arg, (ast.Starred, ast.Subscript))
           or isinstance(arg, ast.Attribute) and arg.attr == "T"
           or _reshaped(arg) is not None):
        arg = _reshaped(arg) or arg.value
    if isinstance(arg, ast.Call):
        return (_name(arg.func) in ELIMINATIONS
                or (isinstance(arg.func, ast.Attribute)
                    and arg.func.attr in VIEW_CALLS))
    return isinstance(arg, ast.Attribute) and arg.attr in VIEWS


def round_trip_lines(source: str) -> list[int]:
    """Lines of the conversion calls applied directly to an elimination
    result or a Fraction view."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and _name(node.func) in CONVERSIONS
            and any(_is_round_trip(arg) for arg in node.args)]


def test_no_round_trip_in_the_package():
    sites = {path.name: round_trip_lines(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {}


def test_lint_finds_round_trips():
    source = ("def f(H, R, P, X, exactla):\n"
              "    a = exactla.scaled_integers(exactla.inverse(P))\n"
              "    b = scaled_integers(H.g)\n"
              "    c = exactla.scaled_integers(H.J[0])\n"
              "    d = exactla.from_scaled_integers(*exactla.solve(P, X))\n"
              "    e = exactla.from_scaled_integers(*nullspace(P)[:2])\n"
              "    f = exactla.scaled_integers(R.fractions())\n"
              "    g = exactla.scaled_integers(frame_coordinates(P, X)[0])\n"
              "    h = exactla.scaled_integers(split.horizontal)\n"
              "    i = exactla.scaled_integers(B.matrix.T)\n"
              "    N, L = exactla.inverse(P)\n"
              "    j = exactla.from_scaled_integers(N, L)\n"
              "    k = exactla.scaled_integers(np.stack([P, X]))\n"
              "    m = exactla.scaled_integers(H.scaled_g)\n"
              "    n = exactla.scaled_integers(u.x.to_real())\n"
              "    o = scaled_integers(v.entries)\n"
              "    r = exactla.scaled_integers(u.x.to_real().reshape(-1, 4))\n"
              "    s = exactla.scaled_integers(u.x.scaled[0])\n"
              "    return exactla.rank(exactla.inverse(P)[0])\n")
    # 11 to 14 and 18 are no round trips
    assert round_trip_lines(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16,
                                        17]
