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
from .boundary_classifier import Domain, UndecidedIntegralError, classify, integral_I
from .fluctuation_oracles import (
    cauchy_killed_potential,
    creep_probability,
    expected_explosion_time,
    h_function,
    halfline_killed_potential,
    killed_potential_density,
    overshoot_cdf,
    strip_exit_density,
)
from .sde_timechange import explosion_estimate
from .sigma_model import parse_sigma_spec
from .stable_core import OutOfRangeError, StableParams, sample_path
from .transforms import ExponentKind, LevyExponent, esscher_zero_check, mean_at_one

SCHEMA_VERSION = "1"

__all__ = ["run", "main"]


def _env_seed() -> int:
    raw = os.environ.get("ARTIFACT_SEED")
    if raw is None:
        return 0
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
    sp.set_defaults(cmd=_cmd_classify)
    common(sp)
    sp.add_argument("--sigma", type=str, required=True, help="sigma spec, e.g. power:c=1,theta=2")
    sp.add_argument(
        "--method", type=str, default="auto",
        choices=["auto", "analytic_tail", "adaptive_quadrature"],
    )

    sp = sub.add_parser("simulate", help="sample driving/solution paths to CSV")
    sp.set_defaults(cmd=_cmd_simulate)
    common(sp)
    sp.add_argument("--sigma", type=str, default=None,
                    help="if given, emit the time-changed solution of dZ = sigma(Z-)dX")
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=None, help="grid step (default horizon/1000)")
    sp.add_argument("--n", type=int, default=1, help="number of paths (default 1)")

    sp = sub.add_parser("oracle-eval", help="evaluate one closed form (JSON)")
    sp.set_defaults(cmd=_cmd_oracle)
    common(sp)
    sp.add_argument("--name", type=str, required=True, choices=list(_ORACLES))
    sp.add_argument("--sigma", type=str, default=None)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--domain", type=str, default="two_sided", choices=list(_DOMAINS))
    sp.add_argument("--kind", type=str, default=None,
                    choices=[k.value for k in ExponentKind])

    sp = sub.add_parser("validate", help="run a named validation suite (JSON lines)")
    sp.set_defaults(cmd=_cmd_validate)
    common(sp, required=False)
    sp.add_argument("--suite", type=str, required=True, choices=list(_SUITES))
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
    p = _params(ns)
    s = parse_sigma_spec(ns.sigma)
    report = classify(p, s, method=ns.method)
    _emit(report.to_json(), ns.output)
    return 0


# simulate --sigma redraws the driver at 4x the horizon until the solution's
# clock covers --horizon; this caps the driver's size (8 MB an array)
_MAX_DRIVER_STEPS = 2 ** 20


def _cmd_simulate(ns) -> int:
    p = _params(ns)
    seed = ns.seed if ns.seed is not None else _env_seed()
    if ns.horizon <= 0:
        raise UsageError("--horizon must be positive")
    if ns.n < 1:
        raise UsageError("--n must be at least 1")
    step = ns.step if ns.step is not None else 1e-3 * ns.horizon
    sigma = parse_sigma_spec(ns.sigma) if ns.sigma else None
    outputs = []
    for i in range(ns.n):
        path = sample_path(p, x0=ns.x0, horizon=ns.horizon, step=step, rng=seed + i)
        if sigma is not None:
            from .sde_timechange import ExhaustedPathError, time_change_solve

            driver_horizon = ns.horizon
            while True:
                try:
                    path = time_change_solve(path, sigma, ns.horizon)
                    break
                except ExhaustedPathError:
                    driver_horizon *= 4.0
                    if round(driver_horizon / step) > _MAX_DRIVER_STEPS:
                        raise UsageError(
                            f"the driver would need more than {_MAX_DRIVER_STEPS} steps "
                            "to cover the requested solution horizon; increase --step, "
                            "shorten --horizon or check the coefficient"
                        ) from None
                    path = sample_path(
                        p, x0=ns.x0, horizon=driver_horizon, step=step, rng=seed + i
                    )
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


def _result(res) -> dict:
    return {"value": res.value, "abs_error_estimate": res.abs_error_estimate}


def _complex(val: complex) -> dict:
    return {"value": {"re": val.real, "im": val.imag}, "abs_error_estimate": 0.0}


def _cauchy_potential(ns, p) -> dict:
    if (ns.alpha, ns.rho) != (1.0, 0.5):
        raise UsageError(
            "cauchy_potential is the Cauchy row alpha = 1, rho = 0.5; "
            f"got alpha = {ns.alpha}, rho = {ns.rho}"
        )
    return _result(cauchy_killed_potential(parse_sigma_spec(ns.sigma), ns.x, ns.y))


# --domain spelling -> the classifier's domain
_DOMAINS = {"positive": Domain.POS_HALF, "negative": Domain.NEG_HALF,
            "two_sided": Domain.FULL_LINE}

# oracle-eval --name -> (flags it requires, payload(ns, p)).  Rows call library
# functions by module-global name so that a rebinding of those names (the
# benchmark's tracer does this) is seen at call time.
_ORACLES = {
    "h_function": (("x",), lambda ns, p: _result(h_function(p, ns.x))),
    "overshoot_cdf": (("z", "y"), lambda ns, p: _result(overshoot_cdf(p, ns.z, ns.level, ns.y))),
    "creep_probability": (("x",), lambda ns, p: _result(creep_probability(p, ns.x))),
    "expected_explosion_time": (("sigma",), lambda ns, p: _result(
        expected_explosion_time(p, parse_sigma_spec(ns.sigma), ns.x0))),
    "killed_potential": (("x", "y"), lambda ns, p: _result(
        killed_potential_density(p, ns.x, ns.y))),
    "halfline_potential": (("x", "y"), lambda ns, p: _result(
        halfline_killed_potential(p, ns.x, ns.y))),
    "cauchy_potential": (("sigma", "x", "y"), _cauchy_potential),
    "integral_test": (("sigma",), lambda ns, p: {"verdict": integral_I(
        parse_sigma_spec(ns.sigma), ns.alpha, _DOMAINS[ns.domain]).to_dict()}),
    "exponent": (("kind", "z"), lambda ns, p: _complex(
        LevyExponent(p, ExponentKind(ns.kind)).eval(complex(ns.z)))),
    "exponent_mean": (("kind",), lambda ns, p: {
        "value": mean_at_one(LevyExponent(p, ExponentKind(ns.kind))),
        "abs_error_estimate": 0.0}),
    "esscher_zero": ((), lambda ns, p: _complex(esscher_zero_check(p))),
}


def _cmd_oracle(ns) -> int:
    p = _params(ns)
    required, payload = _ORACLES[ns.name]
    for flag in required:
        if getattr(ns, flag) is None:
            raise UsageError(f"--{flag} is required for oracle {ns.name}")
    inputs = {
        k: getattr(ns, k)
        for k in ("alpha", "rho", "x", "y", "z", "level", "x0", "domain", "kind", "sigma")
        if getattr(ns, k, None) is not None
    }
    doc = {"schema_version": SCHEMA_VERSION, "name": ns.name, "inputs": inputs,
           **payload(ns, p)}
    _emit(json.dumps(doc, sort_keys=True), ns.output)
    return 0


def _ks(name: str, bound: float, draw):
    """A suite row that KS-tests draw(p, n, seed) -> (samples, cdf, extras)
    against a fixed bound; runtime_s covers the draw and the KS evaluation."""

    def run(p, s, n, seed):
        t0 = time.perf_counter()
        samples, cdf, extras = draw(p, n, seed)
        return [mc.ks_compare(samples, cdf, threshold=bound, name=name, seed=seed,
                              extras=extras, t0=t0)]

    return run


def _exponential(p, n, seed):
    u = np.random.default_rng(seed).random(n)
    # inverse transform through an explicit CDF: exponential(1)
    return -np.log1p(-u), lambda x: -np.expm1(-np.maximum(x, 0.0)), {}


def _overshoot_depths(p, n, seed):
    res = mc.passage_overshoot_samples(p, x0=2.0, level=0.0, n_paths=n, rng=seed)
    return (res["depths"], lambda y: overshoot_cdf(p, 2.0, 0.0, y).value,
            {"censored": res["censored"]})


def _strip_positions(p, n, seed):
    res = mc.strip_entry_samples(p, x0=2.0, half_width=1.0, n_paths=n, rng=seed)
    cdf = mc.cdf_from_density(lambda y: strip_exit_density(p, 2.0, y).value, -1.0, 1.0)
    return (res["positions"], cdf,
            {"entry_fraction": res["entry_fraction"], "missed": res["missed"]})


def _explosion_clock(p, s, n, seed):
    """n explosion clocks from 0, cut at X-time 1e6, in batches of 5,000 drivers."""
    return explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=n, rng=seed, batch=5000)


def _explosion_time(p, s, n, seed):
    t0 = time.perf_counter()
    target = expected_explosion_time(p, s, 0.0).value
    est = _explosion_clock(p, s, n, seed)
    mean, se, rel = mc._mean_vs_target(est.plateaued_samples, target)
    return [mc._judged("explosion_time_vs_potential", rel, 0.05, n, seed, t0, {
        "mc_mean": mean, "mc_se": se, "target": float(target),
        "plateau_fraction": est.plateau_fraction,
    })]


def _perpetual(p, s, n, seed):
    """Explosion clocks on two fixed coefficients (--sigma is ignored): >= 99 %
    plateau where classify ticks an explosion point, <= 1 % where it ticks
    none.  theta = 1 is the knife edge, where the clock diverges like a log."""
    if p.alpha >= 1.0:
        raise OutOfRangeError(f"explosion needs alpha < 1, got alpha = {p.alpha}")
    outcomes = []
    for sigma in (parse_sigma_spec("power:c=1,theta=3"), parse_sigma_spec("power:c=1,theta=1")):
        t0 = time.perf_counter()
        ticked = classify(p, sigma).ticks("explosion")
        frac = _explosion_clock(p, sigma, n, seed).plateau_fraction
        expect = "finite" if ticked else "infinite"
        outcomes.append(mc._judged(
            f"perpetual_integral_{expect}", 0.99 - frac if ticked else frac - 0.01, 0.0,
            n, seed, t0, {"plateau_fraction": frac, "expect": expect,
                          "sigma": sigma.describe(), "ticked": ticked}))
    return outcomes


# validate --suite -> (default alpha, default n, run(p, sigma, n, seed) -> outcomes).
# Rows call library functions by module-global name, as in _ORACLES.
_SUITES = {
    "ks-self": (1.5, 100_000, _ks("ks_self_test", 0.02, _exponential)),
    "overshoot": (1.5, 100_000, _ks("overshoot_law", 0.02, _overshoot_depths)),
    "strip": (0.7, 30_000, _ks("strip_entry_law", 0.03, _strip_positions)),
    "explosion-time": (0.5, 100_000, _explosion_time),
    "occupation": (1.5, 100_000, lambda p, s, n, seed: [mc.occupation_vs_potential(
        p, s, x0=0.5, window=(1.0, 2.0), n_paths=n, rng=seed)]),
    "lemma": (1.2, 100_000, lambda p, s, n, seed: [
        mc.occupation_potential_lemma(p, n_paths=n, rng=seed)]),
    "perpetual": (0.5, 5_000, _perpetual),
    "entrance": (1.5, 4_000, lambda p, s, n, seed: [mc.entrance_proxy(
        p, s, level=10.0, starts=(100.0, 1000.0), n_paths=n, rng=seed,
        expect="stabilize")]),
}


def _run_suite(suite: str, seed: int, n: int | None, alpha, rho, sigma_spec):
    default_alpha, default_n, run = _SUITES[suite]
    p = StableParams(alpha if alpha is not None else default_alpha,
                     rho if rho is not None else 0.5)
    s = parse_sigma_spec(sigma_spec or "power:c=1,theta=2")
    return run(p, s, n if n is not None else default_n, seed)


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
        return ns.cmd(ns)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UndecidedIntegralError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
