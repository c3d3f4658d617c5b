"""The runner that spreads the suites of ``--suite all`` over the CPUs.

``workers.map_units`` returns ``[fn(u) for u in units]``; ``run_suite``
deals whole suites to it.  A report does not depend on how many CPUs ran
it, and a worker that dies costs error rows for exactly the checks it did
not report, never a dropped check or a child left behind.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pqgeom.cli as cli
from pqgeom import workers

SRC = Path(__file__).resolve().parents[1] / "src"

# the CLI in a fresh interpreter, pinned to one CPU when the first
# argument is "1"
CLI = """
import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from pqgeom.cli import main
sys.exit(main(sys.argv[2:]))
"""

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="the platform cannot pin a process to one CPU")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_units_keeps_the_order_of_the_units():
    units = list(range(20))
    assert workers.map_units(lambda u: (u, u * u), units) == [
        (u, u * u) for u in units]
    _no_child_left()


def test_a_single_unit_runs_in_this_process():
    assert workers.map_units(lambda u: os.getpid(), ["only"]) == [os.getpid()]


@needs_affinity
def test_one_cpu_runs_every_unit_in_this_process():
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        pids = workers.map_units(lambda u: os.getpid(), range(5))
    finally:
        os.sched_setaffinity(0, allowed)
    assert pids == [os.getpid()] * 5


def _report(seed: int, pinned: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run(
        [sys.executable, "-c", CLI, "1" if pinned else "0", "--suite", "all",
         "--seed", str(seed), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout)
    for row in report["checks"]:
        del row["wall_time"]
    return report


@needs_affinity
@pytest.mark.parametrize("seed", [0, 3])
def test_report_does_not_depend_on_the_cpus(seed):
    pinned = _report(seed, True)
    assert _report(seed, False) == pinned
    names = [row["name"] for row in pinned["checks"]]
    assert names == sorted(name for suite in cli.REGISTRY.values()
                           for name, *_ in suite)


def _wait_for_a_record(record: Path):
    deadline = time.monotonic() + 60
    while not (record.exists() and record.stat().st_size):
        if time.monotonic() > deadline:
            raise TimeoutError("no worker took a suite")
        time.sleep(0.005)


@pytest.fixture
def dying_workers(monkeypatch, tmp_path):
    """Plant every check so that it kills the worker that runs it, after
    recording its name; in this process a check first waits until a
    worker has died, so that this process cannot take every suite."""
    record, parent = tmp_path / "died.txt", os.getpid()

    def planted(name, fn):
        def check(config, rng):
            if os.getpid() != parent:
                with open(record, "a", encoding="utf-8") as fh:
                    fh.write(name + "\n")
                os._exit(0)
            _wait_for_a_record(record)
            return fn(config, rng)
        return check

    for suite, rows in list(cli.REGISTRY.items()):
        monkeypatch.setitem(cli.REGISTRY, suite, [
            (name, planted(name, fn), anchor, tol)
            for name, fn, anchor, tol in rows])

    return record


def _checks_of_the_dead_suites(record: Path) -> set:
    died = set(record.read_text(encoding="utf-8").split())
    return {name for rows in cli.REGISTRY.values()
            if died & {row[0] for row in rows} for name, *_ in rows}


@pytest.mark.skipif(workers.cpu_count() < 2,
                    reason="only one CPU is allowed: no worker is forked")
def test_a_dead_worker_costs_exactly_its_unreported_checks(dying_workers):
    reports = cli.run_suite("all")
    _no_child_left()
    unreported = _checks_of_the_dead_suites(dying_workers)
    assert unreported
    assert sorted(r.name for r in reports) == sorted(
        name for rows in cli.REGISTRY.values() for name, *_ in rows)
    assert {r.name for r in reports if r.status == "error"} == unreported
    assert all(r.status == "pass" for r in reports
               if r.name not in unreported)
    assert all(r.sample_count == 0 for r in reports if r.name in unreported)


@pytest.mark.skipif(workers.cpu_count() < 2,
                    reason="only one CPU is allowed: no worker is forked")
def test_a_dead_worker_makes_the_cli_exit_1(dying_workers, capsys):
    assert cli.main(["--suite", "all"]) == 1
    _no_child_left()
    assert _checks_of_the_dead_suites(dying_workers)
