"""Command-line front-door tests: exit-code contract, JSON schemas, output
determinism, and environment overrides.  Everything runs in-process through
cli.run() so exit codes and stdout are asserted directly."""

import json

import numpy as np
import pytest

from artifact import Domain, Path, StableParams, integral_I, parse_sigma_spec
from artifact import cli
from artifact import montecarlo as mc


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_exit_zero_and_schema(capsys):
    code, out, _ = _run(capsys, "classify", "--alpha", "0.5", "--rho", "0.5",
                        "--sigma", "power:c=1,theta=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["explosion"]["pm_inf"]["verdict"] == "tick"
    assert doc["entrance"]["pm_inf"]["verdict"] == "cross"


def test_classify_rejects_diffusive_alpha(capsys):
    code, _, err = _run(capsys, "classify", "--alpha", "2.0", "--rho", "0.5",
                        "--sigma", "power:c=1,theta=2")
    assert code == 2
    assert "alpha = 2" in err and "diffusive" in err


def test_classify_byte_deterministic(capsys):
    args = ("classify", "--alpha", "1.5", "--rho", "0.5",
            "--sigma", "power:c=1,theta=2")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_loadable_csv(tmp_path, capsys):
    target = tmp_path / "x.csv"
    code, _, _ = _run(capsys, "simulate", "--alpha", "1.5", "--rho", "0.5",
                      "--x0", "1.0", "--horizon", "2.0", "--step", "0.001",
                      "--seed", "42", "--output", str(target))
    assert code == 0
    path = Path.from_csv(str(target))
    assert path.alpha == 1.5 and path.seed == 42
    assert path.values[0] == 1.0
    assert path.times[-1] == pytest.approx(2.0)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--alpha", "1.5", "--rho", "0.5", "--x0", "1.0",
            "--horizon", "2.0", "--step", "0.001", "--seed", "42"]
    _run(capsys, *args, "--output", str(a))
    _run(capsys, *args, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_multiple_paths_numbered(tmp_path, capsys):
    base = tmp_path / "run"
    code, _, _ = _run(capsys, "simulate", "--alpha", "1.5", "--rho", "0.5",
                      "--x0", "0.0", "--horizon", "1.0", "--n", "3",
                      "--seed", "7", "--output", str(base))
    assert code == 0
    files = sorted(tmp_path.glob("run_*.csv"))
    assert [f.name for f in files] == ["run_0000.csv", "run_0001.csv", "run_0002.csv"]
    # distinct seeds per path
    v = [Path.from_csv(str(f)).values[-1] for f in files]
    assert len(set(v)) == 3


def test_simulate_with_sigma_records_time_change(tmp_path, capsys):
    target = tmp_path / "z.csv"
    code, _, _ = _run(capsys, "simulate", "--alpha", "0.5", "--rho", "0.5",
                      "--x0", "0.0", "--horizon", "1.0",
                      "--sigma", "power:c=1,theta=2", "--step", "0.0005",
                      "--seed", "3", "--output", str(target))
    assert code == 0
    path = Path.from_csv(str(target))
    assert path.meta.get("transform") == "time_change"
    assert path.times[-1] <= 1.0


# ---------------------------------------------------------------------------
# oracle-eval


def test_oracle_eval_schema_and_value(capsys):
    code, out, _ = _run(capsys, "oracle-eval", "--name", "h_function",
                        "--alpha", "1.5", "--rho", "0.5", "--x", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["name"] == "h_function"
    assert doc["inputs"]["alpha"] == 1.5 and doc["inputs"]["x"] == 2.0
    assert doc["value"] == pytest.approx(1.1283791670955128, rel=1e-12)


def test_oracle_eval_expected_explosion_time(capsys):
    for x0, expected in (("0.0", 2.958675119188628), ("1.0", 2.706350783028827)):
        code, out, _ = _run(capsys, "oracle-eval", "--name", "expected_explosion_time",
                            "--alpha", "0.5", "--rho", "0.5",
                            "--sigma", "power:c=1,theta=2", "--x0", x0)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("domain, expected", [
    ("positive", Domain.POS_HALF), ("negative", Domain.NEG_HALF),
    ("two_sided", Domain.FULL_LINE),
])
def test_oracle_eval_integral_test_each_domain(capsys, domain, expected):
    code, out, _ = _run(capsys, "oracle-eval", "--name", "integral_test",
                        "--alpha", "1.5", "--rho", "0.5",
                        "--sigma", "power:c=1,theta=2", "--domain", domain)
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["domain"] == domain
    assert doc["verdict"] == integral_I(parse_sigma_spec("power:c=1,theta=2"), 1.5,
                                        expected).to_dict()


@pytest.mark.parametrize("alpha, rho", [("1.5", "0.5"), ("0.5", "0.9")])
def test_oracle_eval_cauchy_potential_needs_the_cauchy_driver(capsys, alpha, rho):
    args = ("oracle-eval", "--name", "cauchy_potential", "--sigma", "power:c=1,theta=2",
            "--x", "2.0", "--y", "3.0")
    code, out, err = _run(capsys, *args, "--alpha", alpha, "--rho", rho)
    assert code == 2 and out == ""
    assert "cauchy_potential" in err
    code, out, _ = _run(capsys, *args, "--alpha", "1", "--rho", "0.5")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.07297036638221358, rel=1e-12)


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, (required, _) in cli._ORACLES.items() for flag in required
])
def test_oracle_eval_missing_required_flag(capsys, name, flag):
    given = {"sigma": "power:c=1,theta=2", "x": "2.0", "y": "3.0", "z": "0.7",
             "kind": "radial"}
    argv = ["oracle-eval", "--name", name, "--alpha", "1.5", "--rho", "0.5"]
    for k, v in given.items():
        if k != flag:
            argv += [f"--{k}", v]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"--{flag} is required for oracle {name}" in err


def test_oracle_eval_unknown_name_usage_error(capsys):
    code, _, err = _run(capsys, "oracle-eval", "--name", "nonsense",
                        "--alpha", "1.5", "--rho", "0.5")
    assert code == 2
    assert "nonsense" in err


def test_oracle_eval_wrong_branch_maps_to_usage_error(capsys):
    code, _, err = _run(capsys, "oracle-eval", "--name", "creep_probability",
                        "--alpha", "1.5", "--rho", "0.5", "--x", "0.5")
    assert code == 2
    assert "spectrally negative" in err


# ---------------------------------------------------------------------------
# validate


def test_validate_ks_self_passes_and_deterministic(capsys):
    args = ("validate", "--suite", "ks-self", "--alpha", "1.5", "--rho", "0.5",
            "--n", "5000", "--seed", "0")
    code, out1, _ = _run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["name"] == "ks_self_test" and doc["passed"] is True
    assert "runtime_s" not in doc
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_validate_exit_one_on_failure(capsys, monkeypatch):
    fail = mc.ValidationOutcome(name="doomed", statistic=1.0, threshold=0.1,
                                passed=False, n_paths=10, seed=0, runtime_s=0.0)
    monkeypatch.setattr(cli, "_run_suite", lambda *a, **k: [fail])
    code, out, _ = _run(capsys, "validate", "--suite", "ks-self", "--alpha", "1.5")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_validate_unknown_suite_usage_error(capsys):
    code, _, _ = _run(capsys, "validate", "--suite", "nope", "--alpha", "1.5")
    assert code == 2


def test_validate_alpha_zero_is_usage_error(capsys):
    code, out, err = _run(capsys, "validate", "--suite", "overshoot", "--alpha", "0",
                          "--n", "200")
    assert code == 2
    assert out == ""
    assert "alpha" in err


def test_validate_alpha_optional(capsys):
    code, out, _ = _run(capsys, "validate", "--suite", "ks-self", "--n", "2000")
    assert code == 0
    assert json.loads(out)["name"] == "ks_self_test"


@pytest.mark.parametrize("suite", ["strip", "perpetual"])
def test_validate_no_paths_is_usage_error(capsys, suite):
    code, out, err = _run(capsys, "validate", "--suite", suite, "--n", "0")
    assert code == 2
    assert out == ""
    assert "n_paths" in err


@pytest.mark.parametrize("suite", ["ks-self", "overshoot", "strip"])
def test_ks_suites_report_runtime(suite):
    (out,) = cli._run_suite(suite, 0, 300, None, None, None)
    assert out.runtime_s > 0


# ---------------------------------------------------------------------------
# parser-level behavior and environment overrides


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("ARTIFACT_SEED", "7")
    _, out, _ = _run(capsys, "validate", "--suite", "ks-self",
                     "--alpha", "1.5", "--rho", "0.5", "--n", "2000")
    assert json.loads(out)["seed"] == 7
