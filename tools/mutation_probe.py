"""Hand-run mutation probe of the pqgeom CLI checks.

    python3 tools/mutation_probe.py [MODULE ...]

Copies ``src/pqgeom`` to a temporary directory (the checkout is never
edited), and for every ``+`` or ``-`` binary operation of the named
modules (default: algebra, exactla, linalg, forms, curvature, projspace
and reduction) writes a mutant in which that one operator is flipped.
Each mutant runs ``pqgeom --suite all`` and then ``pqgeom --suite
curvature --n 3``, one process at a time, each with a 60 s timeout.  A
mutant is killed when a run exits nonzero (a check fails or errors) or
times out; it survives when both runs pass.  The surviving sites are
printed as ``module.py:line:column expression``: the line and column of
the operation in the unmutated file (nested operations can share them)
and the unmutated expression, followed by the counts per module.

The probe is outside tier-1: it starts up to two CLI processes per site,
so all seven modules take a few minutes.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqgeom"
MODULES = ("algebra", "exactla", "linalg", "forms", "curvature",
           "projspace", "reduction")
RUNS = (["--suite", "all"], ["--suite", "curvature", "--n", "3"])
TIMEOUT_S = 60
FLIP = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def sites(tree: ast.AST) -> list[ast.BinOp]:
    """The + and - binary operations of a module, in source order."""
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and type(node.op) in FLIP]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def mutant(source: str, index: int) -> tuple[str, str]:
    """The source with the operator of site `index` flipped, and the
    site's position and expression in the unmutated source."""
    tree = ast.parse(source)
    node = sites(tree)[index]
    site = f"{node.lineno}:{node.col_offset} {ast.unparse(node)}"
    node.op = FLIP[type(node.op)]()
    return ast.unparse(tree), site


def killed(root: Path) -> bool:
    """Whether a CLI run of the package under `root` fails, errors or
    hangs."""
    env = dict(os.environ, PYTHONPATH=str(root),
               PYTHONDONTWRITEBYTECODE="1")
    for argv in RUNS:
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pqgeom", *argv], cwd=root, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True
        if result.returncode != 0:
            return True
    return False


def main(argv: list[str]) -> int:
    modules = argv or list(MODULES)
    unknown = [m for m in modules if not (PACKAGE / f"{m}.py").is_file()]
    if unknown:
        print(f"no module {', '.join(unknown)} in {PACKAGE}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(PACKAGE, root / "pqgeom",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if killed(root):
            print("the unmutated package fails a run", file=sys.stderr)
            return 1
        counts = []
        for module in modules:
            path = root / "pqgeom" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            total = len(sites(ast.parse(source)))
            survivors = 0
            for index in range(total):
                text, site = mutant(source, index)
                path.write_text(text, encoding="utf-8")
                if not killed(root):
                    survivors += 1
                    print(f"{module}.py:{site}", flush=True)
            path.write_text(source, encoding="utf-8")
            counts.append((module, total, survivors))
    for module, total, survivors in counts:
        print(f"{module}: {survivors} of {total} sites survive")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
