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

It also fails on a ``.J`` or ``.g`` view of a structure passed directly
to ``two_form`` or ``BilinearForm``: both scale their array argument to
integers, so the view is turned back into the integer pair
``scaled_J`` / ``scaled_g`` the structure already holds.

Here "directly" looks through unpacking (``*x``), indexing (``x[:2]``,
``x[0]``), transposition (``x.T``) and the reshaping methods
(``x.reshape(...)``, ``x.transpose(...)``).

Across routines the package hands on one exact format, the pair (N, L),
so a ``Fraction`` array is formed only where one is asked for: in the
views (``fractions()``, ``matrix``, ``array``, ``entries``,
``to_real()``, ``J``/``g``, ``vertical``/``horizontal``), the shared
``_fraction_view`` behind ``J``/``g``, and the text format
``curvature_to_text``.  The second rule fails on a call of
``exactla.from_scaled_integers`` (or a bare ``from_scaled_integers``)
in any other function; the classmethods ``PQVector.from_scaled_integers``
and ``PQMatrix.from_scaled_integers`` build integer-backed objects and
are not such calls.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqgeom"

CONVERSIONS = {"scaled_integers", "from_scaled_integers"}
ELIMINATIONS = {"solve", "inverse", "nullspace", "frame_coordinates"}
VIEWS = {"J", "g", "matrix", "horizontal", "entries"}
VIEW_CALLS = {"fractions", "to_real"}
RESHAPES = {"reshape", "transpose"}
# calls that scale an exact array argument to integers, and the structure
# views they must not be handed
SCALING_CALLS = {"two_form", "BilinearForm"}
STRUCTURE_VIEWS = {"J", "g"}
# the functions in which a pair may become a Fraction array
FRACTION_FORMERS = {"fractions", "matrix", "array", "entries", "to_real",
                    "J", "g", "vertical", "horizontal", "_fraction_view",
                    "curvature_to_text"}


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


def _unwrapped(arg):
    """The expression under unpacking, indexing, .T and reshaping."""
    while (isinstance(arg, (ast.Starred, ast.Subscript))
           or isinstance(arg, ast.Attribute) and arg.attr == "T"
           or _reshaped(arg) is not None):
        arg = _reshaped(arg) or arg.value
    return arg


def _is_structure_view(arg) -> bool:
    arg = _unwrapped(arg)
    return isinstance(arg, ast.Attribute) and arg.attr in STRUCTURE_VIEWS


def _is_round_trip(arg) -> bool:
    arg = _unwrapped(arg)
    if isinstance(arg, ast.Call):
        return (_name(arg.func) in ELIMINATIONS
                or (isinstance(arg.func, ast.Attribute)
                    and arg.func.attr in VIEW_CALLS))
    return isinstance(arg, ast.Attribute) and arg.attr in VIEWS


def round_trip_lines(source: str) -> list[int]:
    """Lines of the conversion calls applied directly to an elimination
    result or a Fraction view, and of the scaling calls applied directly
    to a structure view."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (_name(node.func) in CONVERSIONS
                 and any(map(_is_round_trip, node.args))
                 or _name(node.func) in SCALING_CALLS
                 and any(map(_is_structure_view, node.args)))]


def _forms_fraction_array(func) -> bool:
    """Is func exactla.from_scaled_integers or a bare
    from_scaled_integers?"""
    if isinstance(func, ast.Name):
        return func.id == "from_scaled_integers"
    return (isinstance(func, ast.Attribute)
            and func.attr == "from_scaled_integers"
            and isinstance(func.value, ast.Name)
            and func.value.id == "exactla")


def fraction_arrays_outside_views(source: str) -> list[str]:
    """Names of the innermost functions ("<module>" at the top level)
    that form a Fraction array from a pair outside FRACTION_FORMERS, one
    name per call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and _forms_fraction_array(child.func)
                    and owner not in FRACTION_FORMERS):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


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
              "    t = two_form(H.J[a], H.g)\n"
              "    v = forms.BilinearForm(H.g.T, 1)\n"
              "    w = two_form(J[a], g)\n"
              "    y = BilinearForm(*H.scaled_g)\n"
              "    z = BilinearForm(B.matrix)\n"
              "    return exactla.rank(exactla.inverse(P)[0])\n")
    # 11 to 14, 18 and 21 to 23 are no round trips
    assert round_trip_lines(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16,
                                        17, 19, 20]


def test_fraction_arrays_only_in_views():
    sites = {path.name: fraction_arrays_outside_views(
        path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in sites.items() if found} == {}


def test_lint_finds_fraction_arrays_outside_views():
    source = ("import exactla\n"
              "def ricci(R):\n"
              "    return exactla.from_scaled_integers(R.tensor, R.scale)\n"
              "def matrix(self):\n"
              "    return exactla.from_scaled_integers(*self.scaled)\n"
              "def structure_traces(R, H):\n"
              "    def inner(T):\n"
              "        return from_scaled_integers(T, 2)\n"
              "    return inner(R.tensor)\n"
              "def curvature_to_text(R):\n"
              "    return str(exactla.from_scaled_integers(*R.metric))\n"
              "def weighted_killing(U, L):\n"
              "    return PQVector.from_scaled_integers(U, L)\n"
              "view = exactla.from_scaled_integers(N, 1)\n")
    assert fraction_arrays_outside_views(source) == ["ricci", "inner",
                                                     "<module>"]
