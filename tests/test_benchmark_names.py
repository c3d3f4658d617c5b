"""The package names the benchmark in perfbench/ depends on.

The benchmark traces the pqgeom functions it names (NAMED_SPANS of
perfbench/run.py), reads FourForm.array to count 4-form entries and
CurvatureTensor.tensor to count curvature entries; a refactor that drops
one of them must fail here, not only in a benchmark run.  The checks run
in subprocesses, because installing the tracer rebinds the pqgeom
functions of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COUNT_FOUR_FORM_ENTRIES = """
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from pqgeom import forms, linalg
forms.fundamental_four_form(linalg.structure_endos(1))
print(tracer.counts["forms.four_form_entries"])
"""


COUNT_TENSOR_ENTRIES = """
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from pqgeom import curvature, linalg
curvature.projective_curvature(linalg.structure_endos(1))
print(tracer.counts["curvature.tensor_entries"])
"""


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_names_resolve():
    selftest = run_python("perfbench/selftest.py", "Installed",
                          "BenchmarkFile")
    assert selftest.returncode == 0, selftest.stderr
    for snippet in (COUNT_FOUR_FORM_ENTRIES, COUNT_TENSOR_ENTRIES):
        count = run_python("-c", snippet)
        assert count.returncode == 0, count.stderr
        assert int(count.stdout) == 4 ** 4


def test_reduce_pq_exact_workload_runs():
    # the hand-run workload of perfbench/run.py; it is the one caller of
    # the pqgeom option --exact
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-pq-exact",
         "--seconds", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
