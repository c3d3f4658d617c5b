"""Every function of the package runs in a CLI run, or is named here.

This test runs ``pqgeom --suite all`` and ``pqgeom --suite curvature
--n 1`` at seed 0 in a fresh interpreter under ``sys.setprofile``, and
collects the functions of src/pqgeom that were entered.  The functions
that the syntax tree of the package defines and that neither run entered
must be exactly the ones of ``ALLOWED``, each group with its reason.  A
helper added with no caller then fails here, and so does an entry that a
run now reaches.

The runs go to a fresh interpreter because a second run in one process
would not enter the functions that ``functools.cache`` has answered
already, and so that the imports of the package are profiled too.  The
interpreter pins itself to one CPU, so that ``--suite all`` runs every
suite in-process: ``sys.setprofile`` does not see into the workers that
the CLI forks on more CPUs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqgeom"

RUNS = (["--suite", "all", "--seed", "0"],
        ["--suite", "curvature", "--n", "1", "--seed", "0"])

# (file, first line, name) of every code object entered during the runs,
# on one CPU, with the report output of the CLI discarded
PROBE = """
import contextlib, io, json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
entered = set()
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(profile)
from pqgeom import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

ALLOWED = {
    # the Fraction views of the integer pairs, the routine that forms
    # them, and the entry of a user-built Fraction tensor: read by users
    # and by the tests' reference routes, never by the package's own chain
    "views": {
        "curvature.CurvatureTensor.fractions",
        "curvature.CurvatureTensor.from_fractions",
        "exactla.from_scaled_integers",
        "forms.BilinearForm.matrix", "forms.FourForm.array",
        "linalg.HermitianStructure.J", "linalg.HermitianStructure.g",
        "linalg.PQMatrix.entries", "linalg.PQVector.entries",
        "linalg.PQVector.to_real", "linalg._fraction_view",
    },
    # the text formats of matrices, structures and curvature tensors, and
    # exactla.fracarray, which reads their entries: input and output for
    # users; no suite reads or writes a file
    "text formats": {
        "curvature.curvature_from_text", "curvature.curvature_to_text",
        "exactla.fracarray",
        "linalg.format_matrix", "linalg.format_named_matrices",
        "linalg.parse_matrix", "linalg.parse_named_matrices",
        "linalg.structure_from_text", "linalg.structure_to_text",
    },
    # for the interactive reader
    "reprs": {
        "algebra.SplitQuaternion.__repr__", "linalg.PQMatrix.__repr__",
        "linalg.PQVector.__repr__", "projspace.SpherePoint.__repr__",
    },
    # the float image of the exact level sampler, a traced span of the
    # benchmark in perfbench/
    "benchmark span": {"reduction.weighted_level_sample_float"},
    # kept as API: the package builds its elements from integer pairs,
    # and users and the tests build theirs through these
    "kept as API": {
        # pairs with __eq__: equal quaternions hash equal
        "algebra.SplitQuaternion.__hash__",
        # the entry of a user-built integer tensor, which scans every
        # entry; the package's builders skip the scan
        "curvature.CurvatureTensor.__init__",
        # the user's matrix API: the entry constructors from exact
        # SplitQuaternions, equality, sum, negation and exact multiples
        "linalg.PQMatrix.__init__", "linalg.PQVector.__init__",
        "linalg.PQMatrix.__eq__", "linalg.PQMatrix.__add__",
        "linalg.PQMatrix.__neg__", "linalg.PQMatrix.scale",
        # the neutral scalar product on H'^n
        "linalg.module_scalar_product",
    },
}


def defined_functions(source: str) -> dict:
    """The qualified name of each function and method a module defines,
    keyed by (first line, name) as its code object reports them: the line
    of the first decorator, else of the def."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(first, child.name)] = prefix + child.name
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_every_function_runs_or_is_allowed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(RUNS)],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True).stdout
    entered = {tuple(x) for x in json.loads(out)}
    never = set()
    for path in sorted(PACKAGE.glob("*.py")):
        resolved = str(path.resolve())
        for (line, name), qualname in defined_functions(
                path.read_text(encoding="utf-8")).items():
            if (resolved, line, name) not in entered:
                never.add(f"{path.stem}.{qualname}")
    allowed = set().union(*ALLOWED.values())
    assert {"never run, not allowed": sorted(never - allowed),
            "allowed, but run": sorted(allowed - never)} == {
        "never run, not allowed": [], "allowed, but run": []}


def test_walker_keys_functions_as_their_code_objects():
    source = ("import functools\n"
              "def outer():\n"
              "    def inner():\n"
              "        pass\n"
              "class Box:\n"
              "    @property\n"
              "    @functools.cache\n"
              "    def size(self):\n"
              "        return [x for x in ()]\n")
    assert defined_functions(source) == {(2, "outer"): "outer",
                                         (3, "inner"): "outer.<locals>.inner",
                                         (6, "size"): "Box.size"}
    namespace = {}
    exec(compile(source, "m.py", "exec"), namespace)
    code = namespace["Box"].size.fget.__wrapped__.__code__
    assert (code.co_firstlineno, code.co_name) == (6, "size")
