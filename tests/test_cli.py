import json

import numpy as np
import pytest

from pqgeom.cli import (CheckConfig, InvalidConfigError, UnknownSuiteError,
                        main, run_suite)


def test_algebra_suite_passes(capsys):
    assert main(["--suite", "algebra", "--samples", "5",
                 "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(c["status"] == "pass" for c in checks)


@pytest.mark.parametrize("args", [
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--n", "0"],
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
    # every check but the float ratio check reports an exact 0, also
    # where its tolerance is not 0
    residuals = {r.name: r.max_residual for r in run_suite("all")}
    assert len(residuals) == 39
    del residuals["ratio-direction-independence"]
    assert {name: res for name, res in residuals.items() if res != 0.0} == {}


@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
@pytest.mark.parametrize("seed", range(5))
def test_reduce_pq_suite_passes(seed, exact, capsys):
    assert main(["--suite", "reduce-pq", "--seed", str(seed)] + exact) == 0


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
    # tangent_split raises DegenerateOrbitError when the fiber Gram is not
    # VERTICAL_GRAM; fiber-gram-signature counts each such sample as bad
    from pqgeom import exactla, projspace
    monkeypatch.setattr(projspace, "VERTICAL_GRAM",
                        exactla.fracarray([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    reports = {r.name: r for r in run_suite("projspace",
                                            CheckConfig(samples=50))}
    gram = reports["fiber-gram-signature"]
    assert gram.status == "fail"
    assert gram.max_residual == gram.sample_count == 5
