"""Command-line front-door tests: exit-code contract, JSON schemas, output
determinism, and environment overrides.  Everything runs in-process through
cli.run() so exit codes and stdout are asserted directly."""

import json
import time

import numpy as np
import pytest

from artifact import (
    Domain,
    ExponentKind,
    LevyExponent,
    Path,
    StableParams,
    esscher_zero_check,
    halfline_killed_potential,
    integral_I,
    killed_potential_density,
    mean_at_one,
    parse_sigma_spec,
)
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


def test_simulate_sigma_stops_at_the_driver_step_budget(capsys):
    # the clock of theta = 1.05 at alpha 0.5 grows too slowly to cover 1000:
    # each retry quadruples the driver, so the run must stop at a size, not
    # after a number of retries (the twelfth would draw about 1.7e10 steps)
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "simulate", "--alpha", "0.5", "--rho", "0.5",
                          "--sigma", "power:c=1,theta=1.05", "--horizon", "1000")
    assert code == 2
    assert out == ""
    assert "steps" in err
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("n", ["0", "-2"])
def test_simulate_without_paths_is_usage_error(capsys, n):
    code, out, err = _run(capsys, "simulate", "--alpha", "1.5", "--rho", "0.5", "--n", n)
    assert code == 2
    assert out == ""
    assert "--n" in err


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


_SN = (1.5, 1.0 / 1.5)  # a spectrally negative driver


def _oracle_payload(res) -> dict:
    return {"value": res.value, "abs_error_estimate": res.abs_error_estimate}


def _complex_payload(val: complex) -> dict:
    return {"value": {"re": val.real, "im": val.imag}, "abs_error_estimate": 0.0}


@pytest.mark.parametrize("name, alpha_rho, flags, want", [
    ("killed_potential", (1.5, 0.5), ("--x", "0.3", "--y", "0.8"),
     lambda p: _oracle_payload(killed_potential_density(p, 0.3, 0.8))),
    ("halfline_potential", _SN, ("--x", "0.5", "--y", "1.2"),
     lambda p: _oracle_payload(halfline_killed_potential(p, 0.5, 1.2))),
    ("exponent", (1.5, 0.5), ("--kind", "censored", "--z", "0.7"),
     lambda p: _complex_payload(LevyExponent(p, ExponentKind.CENSORED).eval(0.7 + 0j))),
    ("exponent_mean", (1.5, 0.5), ("--kind", "cond_positive"), lambda p: {
        "value": mean_at_one(LevyExponent(p, ExponentKind.COND_POSITIVE)),
        "abs_error_estimate": 0.0}),
    ("esscher_zero", (1.5, 0.5), (), lambda p: _complex_payload(esscher_zero_check(p))),
])
def test_oracle_eval_payload_is_the_library_call(capsys, name, alpha_rho, flags, want):
    alpha, rho = alpha_rho
    code, out, _ = _run(capsys, "oracle-eval", "--name", name, "--alpha", repr(alpha),
                        "--rho", repr(rho), *flags)
    assert code == 0
    doc = json.loads(out)
    expected = want(StableParams(alpha, rho))
    assert {k: doc[k] for k in expected} == expected


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


@pytest.mark.parametrize("rho, point", [("1", "+inf"), ("0", "-inf"), ("0.5", "pm_inf")])
def test_validate_perpetual_witnesses_each_explosion_row(capsys, rho, point):
    code, out, _ = _run(capsys, "validate", "--suite", "perpetual", "--alpha", "0.5",
                        "--rho", rho, "--n", "2000")
    assert code == 0
    finite, infinite = (json.loads(line) for line in out.splitlines())
    assert finite["name"] == "perpetual_integral_finite" and finite["passed"] is True
    assert finite["extras"]["ticked"] == [point]
    assert finite["extras"]["sigma"] == "power:c=1,theta=3"
    assert infinite["name"] == "perpetual_integral_infinite" and infinite["passed"] is True
    assert infinite["extras"]["ticked"] == []
    assert infinite["extras"]["sigma"] == "power:c=1,theta=1"


def test_validate_perpetual_needs_alpha_below_one(capsys):
    code, out, err = _run(capsys, "validate", "--suite", "perpetual", "--alpha", "1.5")
    assert code == 2
    assert out == ""
    assert "alpha < 1" in err


@pytest.mark.parametrize("suite", ["explosion-time", "occupation", "lemma"])
def test_validate_one_path_is_usage_error(capsys, suite):
    # a mean with a standard error needs two samples; one used to print NaN
    code, out, err = _run(capsys, "validate", "--suite", suite, "--n", "1")
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_validate_occupation_without_spread_has_no_z_score(capsys):
    # at this seed both paths are killed before the window: mean 0, se 0
    # (4 is the smallest such seed)
    code, out, _ = _run(capsys, "validate", "--suite", "occupation", "--n", "2",
                        "--seed", "4")
    assert code == 1

    def refuse(name):  # json.loads accepts NaN and Infinity, which are not JSON
        raise ValueError(f"{name} is not JSON")

    extras = json.loads(out, parse_constant=refuse)["extras"]
    assert extras["mc_se"] == 0.0 and extras["z_score"] is None


@pytest.mark.parametrize("suite", ["ks-self", "overshoot", "strip"])
def test_ks_suites_report_runtime(suite):
    (out,) = cli._run_suite(suite, 0, 300, None, None, None)
    assert out.runtime_s > 0


def test_ks_suite_runtime_covers_the_draw(monkeypatch):
    draw = mc.passage_overshoot_samples

    def slow_draw(*args, **kwargs):
        time.sleep(0.2)
        return draw(*args, **kwargs)

    monkeypatch.setattr(mc, "passage_overshoot_samples", slow_draw)
    (out,) = cli._run_suite("overshoot", 0, 300, None, None, None)
    assert out.runtime_s >= 0.2


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
