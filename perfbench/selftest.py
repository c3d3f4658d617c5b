"""Self-tests of the benchmark: tracer arithmetic, the traced report, the
correctness gate and the metric lists in BENCHMARK.json.

    python3 perfbench/selftest.py

Run from the repository root.  Takes a few seconds: the report checks use
small suites, not the benchmark workloads.
"""

import copy
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, install  # noqa: E402

# quick suites whose checks reach every layer but forms between them (every
# forms check builds 4-forms for half a minute; see Installed instead)
QUICK = (["--suite", "curvature", "--n", "1"], ["--suite", "reduce-s1"],
         ["--suite", "projspace"], ["--suite", "algebra", "--samples", "20"])


class TracerArithmetic(unittest.TestCase):
    def test_self_times_sum_to_outer_span(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.01)

        def failing():
            leaf()
            raise KeyError("inner")

        leaf = tracer.wrap("toy.leaf", leaf)
        failing = tracer.wrap("toy.failing", failing)

        def outer():
            leaf()
            try:
                failing()
            except KeyError:
                pass
            time.sleep(0.01)

        outer = tracer.wrap("toy.outer", outer)
        outer()
        spans = tracer.dump()["spans"]
        self.assertEqual(spans["toy.leaf"]["calls"], 2)
        self.assertEqual(spans["toy.failing"]["calls"], 1)
        total = sum(s["self_s"] for s in spans.values())
        self.assertAlmostEqual(total, spans["toy.outer"]["total_s"],
                               delta=1e-9)
        self.assertGreaterEqual(spans["toy.outer"]["self_s"], 0.01)
        edges = {(p, c): n for p, c, n in tracer.dump()["edges"]}
        self.assertEqual(edges[("toy.failing", "toy.leaf")], 1)
        self.assertEqual(edges[(None, "toy.outer")], 1)


class Installed(unittest.TestCase):
    def test_named_spans_and_rebinding(self):
        tracer = Tracer()
        install(tracer)
        for layer, names in run.NAMED_SPANS.items():
            for name in names:
                self.assertIn(f"{layer}.{name}", tracer.spans)
        cli = sys.modules["pqgeom.cli"]
        red = sys.modules["pqgeom.reduction"]
        # names imported with `from .x import f` are rebound too
        self.assertIs(cli.fundamental_four_form,
                      sys.modules["pqgeom.forms"].fundamental_four_form)
        curv = sys.modules["pqgeom.curvature"]
        self.assertIs(red.ambient_projective_curvature,
                      curv.ambient_projective_curvature)
        H = cli.structure_endos(1)
        cli.two_form(H.J[0], H.g)
        self.assertEqual(tracer.spans["forms.two_form"][0], 1)
        self.assertEqual(tracer.spans["linalg.HermitianStructure"][0], 1)


class TracedReports(unittest.TestCase):
    def child(self, tmp: Path, tag: str, trace: str, args: list[str]):
        result, report = tmp / f"{tag}.result.json", tmp / f"{tag}.report.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), trace,
               *args, "--format", "json", "--out", str(report)]
        subprocess.run(cmd, cwd=ROOT, env=run.child_env(ROOT), check=True)
        return (json.loads(result.read_text()), json.loads(report.read_text()))

    def test_traced_report_matches_and_self_times_sum_to_wall(self):
        calls = {layer: 0 for layer in run.LAYERS}
        with tempfile.TemporaryDirectory() as tmp:
            for i, args in enumerate(QUICK):
                tmp_dir = Path(tmp)
                plain_result, plain = self.child(tmp_dir, f"p{i}", "0", args)
                traced_result, traced = self.child(tmp_dir, f"t{i}", "1", args)
                self.assertIsNone(plain_result["trace"])
                self.assertEqual(run.without_wall_time(traced),
                                 run.without_wall_time(plain))
                spans = traced_result["trace"]["spans"]
                self_sum = sum(s["self_s"] for s in spans.values())
                self.assertAlmostEqual(self_sum, traced_result["wall_s"],
                                       delta=run.SELF_TIME_SLACK_S)
                for name, value in run.span_metrics(
                        traced_result["trace"]).items():
                    layer = name.split(".")[0]
                    if name == f"{layer}.calls":
                        calls[layer] += value
        self.assertTrue(all(n for layer, n in calls.items()
                            if layer != "forms"), calls)


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.expected = run.load_expected()
        checks = [{"name": name, "status": "pass", "max_residual": 0.0,
                   "tolerance": spec["tolerance"],
                   "sample_count": spec["sample_count"], "seed": 3,
                   "wall_time": 0.1, "anchor": "a"}
                  for name, spec in self.expected["curvature"].items()]
        self.report = {"version": "1", "config": {}, "checks": checks}

    def tally(self, report) -> tuple[int, int]:
        gate = run.Gate(self.expected, ["curvature"], 3)
        gate.check(({"exit_code": 0}, report))
        self.assertEqual(gate.failed, len(gate.problems))
        return gate.attempted, gate.failed

    def mutated(self, index, **fields):
        report = copy.deepcopy(self.report)
        report["checks"][index].update(fields)
        return report

    def test_clean_report_passes(self):
        self.assertEqual(self.tally(self.report), (9, 0))

    def test_each_mismatch_fails_one_check(self):
        for fields in ({"status": "fail"}, {"status": "error"},
                       {"sample_count": 0}, {"tolerance": 1e-3},
                       {"max_residual": 1e-30}, {"seed": 4}):
            with self.subTest(fields=fields):
                self.assertEqual(self.tally(self.mutated(0, **fields)), (9, 1))

    def test_residual_within_nonzero_tolerance_passes(self):
        names = [row["name"] for row in self.report["checks"]]
        index = names.index("solvable-oracle-nilpotent")
        self.assertEqual(self.tally(self.mutated(index, max_residual=1e-9)),
                         (9, 0))

    def test_missing_and_unexpected_checks_fail(self):
        report = copy.deepcopy(self.report)
        report["checks"].pop()
        self.assertEqual(self.tally(report), (9, 1))
        report = self.mutated(0)
        report["checks"].append({**report["checks"][0], "name": "new-check"})
        self.assertEqual(self.tally(report), (10, 1))

    def test_failed_process_fails_every_check(self):
        gate = run.Gate(self.expected, ["curvature"], 0)
        self.assertIsNone(gate.check(None))
        self.assertEqual((gate.attempted, gate.failed), (9, 9))


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.end_to_end_metrics())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_metrics(run.load_expected()))
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)
        names = {n for suite in run.load_expected().values() for n in suite}
        self.assertEqual(len(names), 39)


if __name__ == "__main__":
    unittest.main()
