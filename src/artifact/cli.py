"""Batch front door: classify, simulate, oracle-eval, validate.

Usage examples::

    python -m artifact classify --alpha 1.5 --rho 0.5 --sigma power:c=1,theta=2
    python -m artifact simulate --alpha 1.5 --rho 0.5 --horizon 1 --n 3 --output run
    python -m artifact oracle-eval --name h_function --alpha 1.5 --rho 0.5 --x 2.0
    python -m artifact validate --suite overshoot --seed 0 --n 100000

Exit codes: 0 success (an Undecided classification is still success — the
report carries the status), 1 validation failure, 2 usage error.
Machine output always carries a schema-version field; identical argv and
seed give byte-identical output.  Environment override: ARTIFACT_SEED for
the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import montecarlo as mc
from .boundary_classifier import UndecidedIntegralError, classify, integral_I
from .fluctuation_oracles import (
    cauchy_killed_potential,
    creep_probability,
    expected_explosion_time,
    h_function,
    halfline_killed_potential,
    killed_potential_density,
    overshoot_cdf,
)
from .sigma_model import PowerTail, parse_sigma_spec
from .stable_core import OutOfRangeError, StableParams, sample_path
from .transforms import ExponentKind, LevyExponent, esscher_zero_check, mean_at_one

SCHEMA_VERSION = "1"

__all__ = ["run", "main"]


def _env_seed(default: int = 0) -> int:
    raw = os.environ.get("ARTIFACT_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"ARTIFACT_SEED must be an integer, got {raw!r}") from exc


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="Stable-driven SDE toolkit: classify boundaries, simulate, "
        "evaluate closed forms, and cross-validate.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, required=True):
        sp.add_argument("--alpha", type=float, required=required, help="stability index in (0,2)")
        sp.add_argument("--rho", type=float, required=required, help="positivity parameter P(X_1>0)")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 0 or ARTIFACT_SEED)")
        sp.add_argument("--output", type=str, default=None, help="output file (default stdout)")

    sp = sub.add_parser("classify", help="boundary classification report (JSON)")
    common(sp)
    sp.add_argument("--sigma", type=str, required=True, help="sigma spec, e.g. power:c=1,theta=2")
    sp.add_argument(
        "--method", type=str, default="auto",
        choices=["auto", "analytic_tail", "adaptive_quadrature"],
    )

    sp = sub.add_parser("simulate", help="sample driving/solution paths to CSV")
    common(sp)
    sp.add_argument("--sigma", type=str, default=None,
                    help="if given, emit the time-changed solution of dZ = sigma(Z-)dX")
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=None, help="grid step (default horizon/1000)")
    sp.add_argument("--n", type=int, default=1, help="number of paths (default 1)")

    sp = sub.add_parser("oracle-eval", help="evaluate one closed form (JSON)")
    common(sp)
    sp.add_argument("--name", type=str, required=True, choices=[
        "h_function", "overshoot_cdf", "creep_probability",
        "expected_explosion_time", "killed_potential", "halfline_potential",
        "cauchy_potential", "integral_test", "exponent", "exponent_mean",
        "esscher_zero",
    ])
    sp.add_argument("--sigma", type=str, default=None)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--domain", type=str, default="two_sided",
                    choices=["positive", "negative", "two_sided"])
    sp.add_argument("--kind", type=str, default=None,
                    choices=[k.value for k in ExponentKind])

    sp = sub.add_parser("validate", help="run a named validation suite (JSON lines)")
    common(sp, required=False)
    sp.add_argument("--suite", type=str, required=True, choices=[
        "ks-self", "overshoot", "strip", "explosion-time", "occupation",
        "lemma", "perpetual", "entrance",
    ])
    sp.add_argument("--sigma", type=str, default=None)
    sp.add_argument("--n", type=int, default=None, help="paths (default per suite)")
    return ap


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _params(ns) -> StableParams:
    try:
        return StableParams(ns.alpha, ns.rho)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_classify(ns) -> int:
    if not (0.0 < ns.alpha < 2.0):
        raise UsageError(
            f"--alpha {ns.alpha} out of scope: the classifier covers 0 < alpha < 2 "
            "(alpha = 2 is the diffusive case, handled by classical Feller tests)"
        )
    p = _params(ns)
    s = parse_sigma_spec(ns.sigma)
    report = classify(p, s, method=ns.method)
    _emit(report.to_json(), ns.output)
    return 0


def _cmd_simulate(ns) -> int:
    p = _params(ns)
    seed = ns.seed if ns.seed is not None else _env_seed()
    if ns.horizon <= 0:
        raise UsageError("--horizon must be positive")
    step = ns.step if ns.step is not None else 1e-3 * ns.horizon
    sigma = parse_sigma_spec(ns.sigma) if ns.sigma else None
    outputs = []
    for i in range(ns.n):
        path = sample_path(p, x0=ns.x0, horizon=ns.horizon, step=step, rng=seed + i)
        if sigma is not None:
            from .sde_timechange import ExhaustedPathError, time_change_solve

            driver_horizon = ns.horizon
            for _ in range(12):
                try:
                    path_z = time_change_solve(path, sigma, ns.horizon)
                    break
                except ExhaustedPathError:
                    driver_horizon *= 4.0
                    path = sample_path(
                        p, x0=ns.x0, horizon=driver_horizon, step=step, rng=seed + i
                    )
            else:
                raise UsageError(
                    "driver horizon grew 4^12-fold without covering the requested "
                    "solution horizon; increase --horizon or check the coefficient"
                )
            path = path_z
        if ns.n == 1:
            target = ns.output
        else:
            base = ns.output or "path"
            target = f"{base}_{i:04d}.csv"
        csv_text = path.to_csv()
        if target:
            with open(target, "w") as fh:
                fh.write(csv_text)
            outputs.append(target)
        else:
            sys.stdout.write(csv_text)
    if outputs:
        sys.stderr.write("wrote " + ", ".join(outputs) + "\n")
    return 0


def _oracle_payload(ns) -> dict:
    p = _params(ns) if ns.alpha is not None else None
    name = ns.name
    inputs = {
        k: getattr(ns, k)
        for k in ("alpha", "rho", "x", "y", "z", "level", "x0", "domain", "kind", "sigma")
        if getattr(ns, k, None) is not None
    }
    if name == "h_function":
        _require(ns, "x")
        res = h_function(p, ns.x)
    elif name == "overshoot_cdf":
        _require(ns, "z", "y")
        res = overshoot_cdf(p, ns.z, ns.level, ns.y)
    elif name == "creep_probability":
        _require(ns, "x")
        res = creep_probability(p, ns.x)
    elif name == "expected_explosion_time":
        if ns.sigma is None:
            raise UsageError("--sigma is required for expected_explosion_time")
        res = expected_explosion_time(p, parse_sigma_spec(ns.sigma), ns.x0)
    elif name == "killed_potential":
        _require(ns, "x", "y")
        res = killed_potential_density(p, ns.x, ns.y)
    elif name == "halfline_potential":
        _require(ns, "x", "y")
        res = halfline_killed_potential(p, ns.x, ns.y)
    elif name == "cauchy_potential":
        if ns.sigma is None:
            raise UsageError("--sigma is required for cauchy_potential")
        _require(ns, "x", "y")
        res = cauchy_killed_potential(parse_sigma_spec(ns.sigma), ns.x, ns.y)
    elif name == "integral_test":
        if ns.sigma is None:
            raise UsageError("--sigma is required for integral_test")
        from .boundary_classifier import Domain

        verdict = integral_I(parse_sigma_spec(ns.sigma), ns.alpha, Domain(ns.domain))
        return {"schema_version": SCHEMA_VERSION, "name": name,
                "inputs": inputs, "verdict": verdict.to_dict()}
    elif name in ("exponent", "exponent_mean", "esscher_zero"):
        if name == "esscher_zero":
            val = esscher_zero_check(p)
            return {"schema_version": SCHEMA_VERSION, "name": name, "inputs": inputs,
                    "value": {"re": val.real, "im": val.imag},
                    "abs_error_estimate": 0.0}
        if ns.kind is None:
            raise UsageError("--kind is required for exponent evaluation")
        exp = LevyExponent(p, ExponentKind(ns.kind))
        if name == "exponent_mean":
            return {"schema_version": SCHEMA_VERSION, "name": name, "inputs": inputs,
                    "value": mean_at_one(exp), "abs_error_estimate": 1e-9}
        _require(ns, "z")
        val = exp.eval(complex(ns.z))
        return {"schema_version": SCHEMA_VERSION, "name": name, "inputs": inputs,
                "value": {"re": val.real, "im": val.imag},
                "abs_error_estimate": 0.0}
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown oracle {name}")
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "inputs": inputs,
        "value": res.value,
        "abs_error_estimate": res.abs_error_estimate,
    }


def _require(ns, *names):
    for nm in names:
        if getattr(ns, nm) is None:
            raise UsageError(f"--{nm} is required for oracle {ns.name}")


def _cmd_oracle(ns) -> int:
    payload = _oracle_payload(ns)
    _emit(json.dumps(payload, sort_keys=True), ns.output)
    return 0


_SUITE_DEFAULT_N = {
    "ks-self": 100_000,
    "overshoot": 100_000,
    "strip": 30_000,
    "explosion-time": 100_000,
    "occupation": 100_000,
    "lemma": 100_000,
    "perpetual": 5_000,
    "entrance": 4_000,
}


def _run_suite(suite: str, seed: int, n: int | None, alpha, rho, sigma_spec):
    n = n if n is not None else _SUITE_DEFAULT_N[suite]

    def params(default_alpha: float) -> StableParams:
        return StableParams(alpha if alpha is not None else default_alpha,
                            rho if rho is not None else 0.5)

    t0 = time.perf_counter()
    outcomes = []
    if suite == "ks-self":
        gen = np.random.default_rng(seed)
        u = gen.random(n)
        # inverse transform through an explicit CDF: exponential(1)
        samples = -np.log1p(-u)
        out = mc.ks_compare(
            samples, lambda x: -np.expm1(-np.maximum(x, 0.0)),
            threshold=0.02, name="ks_self_test", seed=seed,
        )
        out.runtime_s = time.perf_counter() - t0
        outcomes.append(out)
    elif suite == "overshoot":
        p = params(1.5)
        res = mc.passage_overshoot_samples(p, x0=2.0, level=0.0, n_paths=n, rng=seed)
        out = mc.ks_compare(
            res["depths"], lambda y: overshoot_cdf(p, 2.0, 0.0, y).value,
            threshold=0.02, name="overshoot_law", seed=seed,
            extras={"censored": res["censored"]},
        )
        out.runtime_s = time.perf_counter() - t0  # the KS evaluation included
        outcomes.append(out)
    elif suite == "strip":
        p = params(0.7)
        res = mc.strip_entry_samples(p, x0=2.0, half_width=1.0, n_paths=n, rng=seed)
        cdf = _strip_entry_cdf_callable(p, x0=2.0)
        out = mc.ks_compare(
            res["positions"], cdf, threshold=0.03, name="strip_entry_law", seed=seed,
            extras={"entry_fraction": res["entry_fraction"], "missed": res["missed"]},
        )
        out.runtime_s = time.perf_counter() - t0
        outcomes.append(out)
    elif suite == "explosion-time":
        p = params(0.5)
        s = parse_sigma_spec(sigma_spec or "power:c=1,theta=2")
        outcomes.append(_explosion_time_outcome(p, s, n, seed))
    elif suite == "occupation":
        p = params(1.5)
        s = parse_sigma_spec(sigma_spec or "power:c=1,theta=2")
        outcomes.append(mc.occupation_vs_potential(
            p, s, x0=0.5, window=(1.0, 2.0), n_paths=n, rng=seed,
        ))
    elif suite == "lemma":
        p = params(1.2)
        outcomes.append(mc.occupation_potential_lemma(p, n_paths=n, rng=seed))
    elif suite == "perpetual":
        outcomes.append(mc.perpetual_integral_law(
            1.0, lambda x: np.exp(-x), n_paths=n, rng=seed, expect="finite",
            name="perpetual_integral_exp",
        ))
        outcomes.append(mc.perpetual_integral_law(
            1.0, lambda x: 1.0 / (1.0 + np.abs(x)), n_paths=n, rng=seed,
            expect="infinite", name="perpetual_integral_harmonic",
        ))
    elif suite == "entrance":
        p = params(1.5)
        s = parse_sigma_spec(sigma_spec or "power:c=1,theta=2")
        outcomes.append(mc.entrance_proxy(
            p, s, level=10.0, starts=(100.0, 1000.0), n_paths=n, rng=seed,
            expect="stabilize",
        ))
    else:  # pragma: no cover
        raise UsageError(f"unknown suite {suite}")
    return outcomes


def _strip_entry_cdf_callable(p: StableParams, x0: float):
    from .fluctuation_oracles import strip_exit_density

    dens = lambda y: strip_exit_density(p, x0, y).value
    return mc.cdf_from_density(dens, -1.0, 1.0)


def _explosion_time_outcome(p, s, n, seed) -> mc.ValidationOutcome:
    from .sde_timechange import explosion_estimate

    t0 = time.perf_counter()
    target = expected_explosion_time(p, s, 0.0).value
    est = explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=n, rng=seed, batch=5000)
    samples = est.plateaued_samples
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / np.sqrt(samples.size)
    rel = abs(mean - target) / target
    return mc._judged("explosion_time_vs_potential", rel, 0.05, n, seed, t0, {
        "mc_mean": mean, "mc_se": se, "target": float(target),
        "plateau_fraction": est.plateau_fraction,
    })


def _cmd_validate(ns) -> int:
    seed = ns.seed if ns.seed is not None else _env_seed()
    outcomes = _run_suite(ns.suite, seed, ns.n, ns.alpha, ns.rho, ns.sigma)
    lines = "\n".join(o.to_json_line() for o in outcomes)
    _emit(lines, ns.output)
    return 0 if all(o.passed for o in outcomes) else 1


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if ns.subcommand == "classify":
            return _cmd_classify(ns)
        if ns.subcommand == "simulate":
            return _cmd_simulate(ns)
        if ns.subcommand == "oracle-eval":
            return _cmd_oracle(ns)
        if ns.subcommand == "validate":
            return _cmd_validate(ns)
        raise UsageError(f"unknown subcommand {ns.subcommand}")  # pragma: no cover
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OutOfRangeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UndecidedIntegralError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
