import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pqgeom.cli import (REGISTRY, CheckConfig, InvalidConfigError,
                        ReportIOError, UnknownSuiteError, _check_rng,
                        emit_report, main, run_suite)


def test_algebra_suite_passes(capsys):
    assert main(["--suite", "algebra", "--samples", "5",
                 "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(c["status"] == "pass" for c in checks)


@pytest.mark.parametrize("args", [
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--n", "0"],
    ["--p", "2", "--q", "2"],
    ["--p", "2", "--q", "4"],
    ["--p", "0"],
])
def test_bad_configuration_exits_2(args, capsys):
    assert main(["--suite", "algebra"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")


@pytest.mark.parametrize("args", [
    ["--xi=-2,0,0"],
    ["--xi=-1,0"],
    ["--xi=a,b,c"],
])
def test_level_option_is_unknown(args):
    # the flat level is fixed, so --xi is an unknown option (argparse exit 2)
    with pytest.raises(SystemExit) as info:
        main(["--suite", "algebra"] + args)
    assert info.value.code == 2


@pytest.mark.parametrize("args", [["--tol", "1"], ["--tol=0.5"]])
def test_tolerance_option_is_unknown(args):
    # every check has its own tolerance; no flag overrides them
    with pytest.raises(SystemExit) as info:
        main(["--suite", "algebra"] + args)
    assert info.value.code == 2


def test_seed_zero_residuals_are_exact():
    # every check reports an exact 0, also where its tolerance is not 0
    residuals = {r.name: r.max_residual for r in run_suite("all")}
    assert len(residuals) == 39
    assert {name: res for name, res in residuals.items() if res != 0.0} == {}


@pytest.mark.parametrize("name, check", [
    (name, check) for rows in REGISTRY.values() for name, check, _, _ in rows])
def test_check_returns_exact_residual(name, check):
    # run_suite converts the residual to a float once, for the report; the
    # batched checks reduce int64 and object arrays, of one sample too
    for samples in (1, 10):
        config = CheckConfig(samples=samples)
        residual, _ = check(config, _check_rng(config, name))
        assert type(residual) in (int, Fraction)


def test_suite_run_imports_no_numpy_random():
    # the block sampler draws from random.Random alone; importing
    # numpy.random would cost every run its import time
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from pqgeom.cli import run_suite\n"
            "assert all(r.status == 'pass' for r in run_suite('all'))\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_empty_level_set_shortfall_is_a_failure(monkeypatch):
    # a point of the definite-axis control that misses the bound fails the
    # check
    import pqgeom.reduction as red
    monkeypatch.setattr(red, "empty_levelset_check", lambda *args: 1)
    reports = {r.name: r for r in run_suite("reduce-pq")}
    control = reports["definite-axis-empty-level-set"]
    assert control.status == "fail" and control.max_residual == 1.0
    assert control.sample_count == 10000


def _without_wall_time(report: dict) -> dict:
    return {**report, "checks": [{k: v for k, v in row.items()
                                  if k != "wall_time"}
                                 for row in report["checks"]]}


# the default command line keeps the id "float", its name from when it ran
# the ratio check in floating point
@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
@pytest.mark.parametrize("seed", range(5))
def test_reduce_pq_suite_passes(seed, exact, capsys):
    # --exact has no effect: its report is the default one
    def report(extra):
        assert main(["--suite", "reduce-pq", "--seed", str(seed),
                     "--format", "json"] + extra) == 0
        return _without_wall_time(json.loads(capsys.readouterr().out))

    got = report(exact)
    if exact:
        assert got == report([])


def test_curvature_suite_converts_no_tensor(monkeypatch):
    # curvature tensors stay scaled integers from builder to residual: at
    # n = 3 no array of d^4 = 12^4 entries (or more) is converted to or
    # from Fractions
    from pqgeom import exactla
    sizes = []
    for name in ("scaled_integers", "from_scaled_integers"):
        def record(arr, *rest, routine=getattr(exactla, name)):
            sizes.append(np.size(arr))
            return routine(arr, *rest)
        monkeypatch.setattr(exactla, name, record)
    reports = run_suite("curvature", CheckConfig(rank=3))
    assert all(r.status == "pass" for r in reports)
    assert sizes and max(sizes) < 12 ** 4


def test_report_config_keeps_fixed_level(capsys):
    assert main(["--suite", "algebra", "--samples", "2",
                 "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["xi"] == ["-1", "0", "0"]


def test_report_fields(capsys):
    # the schema-1 fields of the config and of every check row
    assert main(["--suite", "algebra", "--samples", "2", "--seed", "4",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "1"
    assert report["config"] == {"seed": 4, "samples": 2, "rank": 2, "p": 1,
                                "q": 2, "xi": ["-1", "0", "0"]}
    for row in report["checks"]:
        assert sorted(row) == ["anchor", "max_residual", "name",
                               "sample_count", "seed", "status",
                               "tolerance", "wall_time"]


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    # the suite runs but its report cannot be written: a message and the
    # bad-configuration code, not a traceback and the code of a failure
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["--suite", "algebra", "--samples", "1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("report error:")
    assert not out.exists()
    # library callers still get the exception
    with pytest.raises(ReportIOError):
        emit_report(run_suite("algebra", CheckConfig(samples=1)),
                    out=str(out))


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")
    assert main(["--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    CheckConfig(samples=0),
    CheckConfig(rank=0),
])
def test_run_suite_rejects_bad_config(config):
    with pytest.raises(InvalidConfigError):
        run_suite("algebra", config)


def test_wrong_fiber_gram_is_a_failure(monkeypatch):
    # induced_geometry raises DegenerateOrbitError when the fiber Gram is not
    # VERTICAL_GRAM; fiber-gram-signature counts each such sample as bad
    from pqgeom import exactla, projspace
    monkeypatch.setattr(projspace, "VERTICAL_GRAM",
                        exactla.fracarray([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    reports = {r.name: r for r in run_suite("projspace",
                                            CheckConfig(samples=50))}
    gram = reports["fiber-gram-signature"]
    assert gram.status == "fail"
    assert gram.max_residual == gram.sample_count == 5
