"""Benchmark of the pqgeom verification CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; pqgeom is imported from ``src``.

Users run ``pqgeom --suite ...`` and wait for a report in which every check
passes, so a workload is one CLI invocation, run as a fresh single-threaded
``python`` process (``child.py`` calling ``pqgeom.cli.main``).  The loop is
closed with one client: the next process starts after the previous one
ended.  The seed goes to ``--seed``; every other input is fixed.

Workloads:

- ``suite-all``: ``--suite all`` at the defaults, the command users and CI
  run.  Materialising 4-forms is about half of it; it is the only
  workload where ``forms`` and the float level-set samplers do real work.
- ``curvature-n3``: ``--suite curvature --n 3``, the largest exact tensors
  (d=12, 20,736-entry 4-tensors, a 144x144 exact Ricci system).  The
  curvature builders and ``exactla`` do nearly all the work; ``forms``,
  ``algebra`` and ``reduction`` do none.
- ``reduce-pq-exact``: ``--suite reduce-pq --exact``, many small d=8
  curvature builds, 10,000 sphere samples through ``algebra``, and the
  reduction in exact arithmetic.  It is left out of BENCHMARK.json to
  keep a full comparison of two commits short (``suite-all`` alone runs
  for over a minute); it can be run by hand.

A run starts workload processes back to back while another one is expected
to end within ``--seconds`` (always at least one), and reports medians over
them.  Every report passes a correctness gate: the check names, statuses,
tolerances and sample counts must equal ``expected.json``, every check must
pass, and a check with tolerance 0 must have a residual of exactly 0.

End-to-end metrics (``--trace 0``):

- ``wall_s``: time of ``pqgeom.cli.main`` in the child, from argument
  parsing to the written report;
- ``setup_s``: median over fresh interpreters of the time to
  ``import pqgeom``;
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``check_pass_share``: the share of attempted checks that pass the gate.

Per-layer metrics (``--trace 1``) come from a process with the span tracer
of ``tracer.py`` installed, run side by side with an untraced partner so
that a traced run of ``suite-all`` ends within three minutes: calls and
self time per layer and per named function, three computed work counts,
the partner's per-check wall times, and ``trace.overhead_s`` (traced wall
minus the partner's wall).  A traced run also checks that the traced report
equals the untraced one apart from ``wall_time``, and that the self times of
all spans sum to the traced wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the versions, core count, git revision and seed.  Working files go
to ``.perfbench/`` in the checkout.  Exit code 0 when correct, 1 when a
check or self-test failed, 2 when the checkout has no pqgeom sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import COUNTS, LAYERS

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "suite-all": ["--suite", "all"],
    "curvature-n3": ["--suite", "curvature", "--n", "3"],
    "reduce-pq-exact": ["--suite", "reduce-pq", "--exact"],
}

# spans reported one by one, as <layer>.<name>.{calls,self_s}
NAMED_SPANS = {
    "algebra": ["SplitQuaternion.__mul__"],
    "exactla": ["solve", "rank", "nullspace", "inertia", "inverse", "max_abs"],
    "linalg": ["HermitianStructure", "structure_endos", "grassman_split",
               "real_rep"],
    "forms": ["fundamental_four_form", "hermitian_projector",
              "rotate_structure"],
    "curvature": ["projective_curvature", "curvature_from_bilinear",
                  "normalizes_structure", "ricci_split", "weyl_sample"],
    "projspace": ["random_sphere_point", "induced_geometry"],
    "reduction": ["reduced_jacobi", "weighted_level_sample",
                  "weighted_level_sample_float", "flat_reduced_structure",
                  "isotropy_moment_traces", "empty_levelset_check"],
}

SETUP_REPEATS = 9
DEADLINE_S = 170.0          # a run ends within this, whatever happens
SELF_TIME_SLACK_S = 1e-3    # self times vs traced wall


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics() -> list[tuple[str, str]]:
    return [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
            ("check_pass_share", "ratio")]


def per_layer_metrics(expected: dict) -> list[tuple[str, str]]:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    for layer, names in NAMED_SPANS.items():
        for name in names:
            out += [(f"{layer}.{name}.calls", "count"),
                    (f"{layer}.{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out.append(("trace.overhead_s", "s"))
    for suite in expected.values():
        out += [(f"cli.check.{name}.wall_s", "s") for name in suite]
    return out


class Gate:
    """Correctness tally over every report of a run: the checks must be
    exactly those of `expected` for the workload's suites, each `pass`,
    with the expected tolerance and sample count, the run's seed, and a
    residual of exactly 0 where the tolerance is 0."""

    def __init__(self, expected: dict, suites: list[str], seed: int):
        self.want = {name: spec for suite in suites
                     for name, spec in expected[suite].items()}
        self.seed = seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, outcome):
        """Tally one workload outcome and return it; None stands for a
        process that failed, and counts every expected check as failed."""
        if outcome is None:
            self.attempted += len(self.want)
            self.failed += len(self.want)
            self.problems.append("workload process failed")
            return None
        result, report = outcome
        if result["exit_code"] != 0:
            self.problems.append(f"pqgeom exit code {result['exit_code']}")
        rows = {row["name"]: row for row in report.get("checks", [])}
        for name, spec in self.want.items():
            row = rows.get(name)
            if row is None:
                why = "missing"
            elif row["status"] != "pass":
                why = f"status {row['status']}"
            elif row["tolerance"] != spec["tolerance"]:
                why = f"tolerance {row['tolerance']} != {spec['tolerance']}"
            elif row["sample_count"] != spec["sample_count"]:
                why = (f"sample_count {row['sample_count']} != "
                       f"{spec['sample_count']}")
            elif spec["tolerance"] == 0 and row["max_residual"] != 0:
                why = f"residual {row['max_residual']!r} with tolerance 0"
            elif row["seed"] != self.seed:
                why = f"seed {row['seed']} != {self.seed}"
            else:
                continue
            self.failed += 1
            self.problems.append(f"{name}: {why}")
        extra = sorted(set(rows) - set(self.want))
        self.problems += [f"{name}: unexpected check" for name in extra]
        self.attempted += len(self.want) + len(extra)
        self.failed += len(extra)
        return outcome


def without_wall_time(report: dict) -> dict:
    return {**report, "checks": [{k: v for k, v in row.items()
                                  if k != "wall_time"}
                                 for row in report["checks"]]}


# -- processes ---------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Processes:
    """Starts pqgeom processes from the checkout root and waits for them,
    killing any still running at the deadline."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root, self.workdir, self.deadline = root, workdir, deadline
        self.env = child_env(root)

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def import_time(self) -> float | None:
        """Seconds a fresh interpreter takes to import pqgeom, or None."""
        code = ("import time; t = time.perf_counter(); import pqgeom; "
                "print(time.perf_counter() - t)")
        try:
            proc = subprocess.run([sys.executable, "-c", code], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=self._timeout())
        except subprocess.TimeoutExpired:
            print("import pqgeom: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"import pqgeom: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return None
        return float(proc.stdout)

    def start(self, tag: str, cli_args: list[str], trace: bool):
        """Start one workload process; pass the handle to `finish`."""
        for suffix in ("result", "report"):
            (self.workdir / f"{tag}.{suffix}.json").unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"),
               str(self.workdir / f"{tag}.result.json"), "1" if trace else "0",
               *cli_args, "--format", "json",
               "--out", str(self.workdir / f"{tag}.report.json")]
        with open(self.workdir / f"{tag}.stderr", "w") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        return tag, proc

    def finish(self, started):
        """Wait for a started process; returns (child result, report), or
        None if it failed or hit the deadline (it is then killed)."""
        tag, proc = started
        try:
            code = proc.wait(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"{tag}: timed out", file=sys.stderr)
            return None
        if code != 0:
            print(f"{tag}: exit {code}\n"
                  + (self.workdir / f"{tag}.stderr").read_text(),
                  file=sys.stderr)
            return None
        with open(self.workdir / f"{tag}.result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        with open(self.workdir / f"{tag}.report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        return result, report


# -- metadata ----------------------------------------------------------------


def git_revision(root: Path) -> str | None:
    """The commit checked out at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed
                 if line.endswith(" " + ref)), None)


def run_metadata(root: Path, args, children: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "workload_processes": children,
        "command": ["pqgeom", *WORKLOADS[args.workload],
                    "--seed", str(args.seed)],
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "git_revision": git_revision(root),
    }


# -- main --------------------------------------------------------------------


def span_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    out = {}
    for layer in LAYERS:
        mine = [s for name, s in spans.items() if name.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(s["calls"] for s in mine)
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
    for layer, names in NAMED_SPANS.items():
        for name in names:
            span = spans[f"{layer}.{name}"]
            out[f"{layer}.{name}.calls"] = span["calls"]
            out[f"{layer}.{name}.self_s"] = span["self_s"]
    out.update(trace["counts"])
    return out


def trace_metrics(plain, traced, expected: dict, problems: list[str]) -> dict:
    """Per-layer metrics from a traced outcome and its untraced partner."""
    result, report = traced
    if without_wall_time(report) != without_wall_time(plain[1]):
        problems.append("traced report differs from the untraced one")
    self_sum = sum(s["self_s"] for s in result["trace"]["spans"].values())
    if abs(self_sum - result["wall_s"]) > SELF_TIME_SLACK_S:
        problems.append(f"span self times sum to {self_sum!r}, "
                        f"traced wall is {result['wall_s']!r}")
    values = span_metrics(result["trace"])
    values["trace.overhead_s"] = result["wall_s"] - plain[0]["wall_s"]
    walls = {row["name"]: row["wall_time"] for row in plain[1]["checks"]}
    for suite in expected.values():
        for name in suite:
            values[f"cli.check.{name}.wall_s"] = walls.get(name, 0.0)
    return {k: (values[k], unit) for k, unit in per_layer_metrics(expected)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "pqgeom" / "cli.py").is_file():
        print("no pqgeom sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    expected = load_expected()
    cli_args = [*WORKLOADS[args.workload], "--seed", str(args.seed)]
    runner = Processes(root, workdir, deadline)
    suite = WORKLOADS[args.workload][1]
    tally = Gate(expected, list(expected) if suite == "all" else [suite],
                 args.seed)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        # the traced process and its untraced partner run side by side, so
        # that a traced run of the longest workload ends within the deadline
        started = [runner.start("run0", cli_args, False),
                   runner.start("traced", cli_args, True)]
        plain, traced = [tally.check(runner.finish(s)) for s in started]
        if plain and traced:
            metrics = trace_metrics(plain, traced, expected, tally.problems)
            with open(workdir / "trace.json", "w", encoding="utf-8") as fh:
                json.dump(traced[0]["trace"], fh, indent=1)
        runs = [plain] if plain else []
    else:
        setup = [runner.import_time() for _ in range(SETUP_REPEATS)]
        if None in setup:
            tally.check(None)
        runs, spent = [], []
        start = time.perf_counter()
        while not tally.problems:
            t0 = time.perf_counter()
            outcome = tally.check(runner.finish(
                runner.start(f"run{len(runs)}", cli_args, False)))
            if outcome is None:
                break
            runs.append(outcome)
            spent.append(time.perf_counter() - t0)
            if (time.perf_counter() - start + statistics.median(spent)
                    > args.seconds):
                break
        if runs:
            units = dict(end_to_end_metrics())
            values = {
                "wall_s": statistics.median(r["wall_s"] for r, _ in runs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                 for r, _ in runs),
                "check_pass_share": 1 - tally.failed / tally.attempted,
            }
            metrics = {k: (v, units[k]) for k, v in values.items()}

    correct = not tally.problems and bool(metrics)
    for line in tally.problems:
        print(f"gate: {line}")
    for name, (value, unit) in metrics.items():
        label = "  (computed)" if name in COUNTS else ""
        print(f"{name:56s} {value!r:>24} {unit}{label}")
    meta = run_metadata(root, args, len(runs))
    print("meta " + json.dumps(meta, sort_keys=True))
    summary = {"correct": correct, "attempted": tally.attempted,
               "failed": tally.failed,
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
    with open(workdir / f"result-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**summary, "meta": meta, "problems": tally.problems}, fh,
                  indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
