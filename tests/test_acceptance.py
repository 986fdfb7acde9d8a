"""Acceptance suite: one test per acceptance criterion, at the stated
parameters and tolerances.  Each test prints a single [PASS]/[FAIL] line with
the measured statistic (visible with ``pytest -v -s`` or on failure), then
asserts it.

Criteria (full scale, pinned seeds):
  1.  classifier verdict table over the power family grid        (exact)
  2.  first-passage overshoot law, alpha 1.5                     (KS <= 0.02)
  3.  strip-entry law, alpha 0.7, plus transience                (KS <= 0.03)
  4.  expected explosion time, alpha 0.5, sigma = 1 + x^2        (rel <= 5%)
  5.  occupation measure vs killed potential, alpha 1.5          (rel <= 5%)
  6.  exponent identities: zeros, means, Esscher zero            (1e-12/1e-6/1e-10)
  7.  harmonic-kernel inversion identity, 20 pairs x 100 points  (rel <= 1e-12)
  8.  path-transform round trips with modulus-of-continuity bound
  9.  occupation-potential lemma, two estimators                 (<= 3 SE)
  10. entrance proxy: stabilizing vs diverging interval-entry medians
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from artifact import (
    ExponentKind,
    LevyExponent,
    StableParams,
    classify,
    esscher_zero_check,
    expected_explosion_time,
    h_function,
    lamperti_forward,
    lamperti_inverse,
    parse_sigma_spec,
    sample_path,
)
from artifact import montecarlo as mc
from artifact.fluctuation_oracles import overshoot_cdf, strip_exit_density
from artifact.sde_timechange import (
    additive_functional,
    explosion_estimate,
    spatial_inversion,
    spatial_inversion_inverse,
    time_change_solve,
)
from artifact.transforms import mean_at_one


def _report(num, desc, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {desc} -- {detail}")


# ---------------------------------------------------------------------------
# criterion 1: the verdict tables


def test_criterion_01_classifier_tables():
    alphas = [0.5, 1.0, 1.3, 1.5, 1.8]
    thetas = [0.5, 1.0, 2.0]

    def sides(a):
        if a < 1.0:
            return [("two-sided", 0.5), ("spec-pos", 1.0), ("spec-neg", 0.0)]
        if a == 1.0:
            return [("two-sided", 0.5)]
        return [("two-sided", 0.5), ("spec-pos", 1.0 - 1.0 / a), ("spec-neg", 1.0 / a)]

    def expected(a, side, th):
        # integral tests on the power family: finite iff theta > 1; explosion
        # only below alpha = 1; entrance only at or above it.  Directions
        # follow the jump sidedness.
        direction = {"two-sided": ["pm_inf"], "spec-pos": ["+inf"], "spec-neg": ["-inf"]}
        explo = direction[side] if (a < 1.0 and th > 1.0) else []
        entr = direction[side] if (a >= 1.0 and th > 1.0) else []
        return explo, entr

    t0 = time.perf_counter()
    rows = mismatches = 0
    for a in alphas:
        for side, rho in sides(a):
            for th in thetas:
                rep = classify(StableParams(a, rho), parse_sigma_spec(f"power:c=1,theta={th}"))
                want_ex, want_en = expected(a, side, th)
                rows += 1
                if rep.ticks("explosion") != want_ex or rep.ticks("entrance") != want_en:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(1, "classifier verdict tables", ok,
            f"{rows} rows, {mismatches} mismatches, {elapsed:.2f}s (< 10s)")
    assert mismatches == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: overshoot law


def test_criterion_02_overshoot_law():
    p = StableParams(1.5, 0.5)
    n = 100_000
    t0 = time.perf_counter()
    res = mc.passage_overshoot_samples(p, x0=2.0, level=0.0, n_paths=n, rng=0)
    depths = res["depths"]

    ks = mc.ks_statistic(depths, lambda y: overshoot_cdf(p, 2.0, 0.0, y).value)
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.02 and elapsed <= 300.0
    _report(2, "overshoot law z=2, alpha=1.5, n=1e5, step 1e-4", ok,
            f"KS={ks:.4f} (<= 0.02), censored={res['censored']}, {elapsed:.0f}s (<= 300s)")
    assert depths.size >= n - res["censored"]
    assert ks <= 0.02
    assert elapsed <= 300.0


# ---------------------------------------------------------------------------
# criterion 3: strip-entry law


def test_criterion_03_strip_entry_law():
    p = StableParams(0.7, 0.5)
    n = 30_000
    res = mc.strip_entry_samples(p, x0=2.0, half_width=1.0, n_paths=n, rng=0)
    dens = lambda y: strip_exit_density(p, 2.0, y).value
    cdf = mc.cdf_from_density(dens, -1.0, 1.0)
    ks = mc.ks_statistic(res["positions"], cdf)
    entry = res["entry_fraction"]
    ok = ks <= 0.03 and entry < 1.0
    _report(3, "strip-entry law alpha=0.7 from x=2", ok,
            f"KS={ks:.4f} (<= 0.03), entry probability={entry:.4f} (< 1)")
    assert ks <= 0.03
    assert entry < 1.0  # transience: a positive fraction never enters


# ---------------------------------------------------------------------------
# criterion 4: expected explosion time


def test_criterion_04_expected_explosion_time():
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    target = expected_explosion_time(p, s, 0.0).value
    n = 100_000
    est = explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=n, rng=0)
    mean = float(np.mean(est.plateaued_samples))
    rel = abs(mean - target) / target
    ok = rel <= 0.05
    _report(4, "expected explosion time alpha=0.5, sigma=1+x^2, n=1e5", ok,
            f"MC {mean:.4f} vs quadrature {target:.4f}, rel err {rel:.4%} (<= 5%), "
            f"plateau fraction {est.plateau_fraction:.3f}")
    assert rel <= 0.05


# ---------------------------------------------------------------------------
# criterion 5: occupation vs potential


def test_criterion_05_occupation_vs_potential():
    p = StableParams(1.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    out = mc.occupation_vs_potential(p, s, x0=0.5, window=(1.0, 2.0),
                                     n_paths=100_000, rng=0)
    ok = out.passed and out.statistic <= 0.05
    _report(5, "occupation of killed solution vs potential integral, n=1e5", ok,
            f"rel err {out.statistic:.4%} (<= 5%), z={out.extras.get('z_score', float('nan')):.2f}")
    assert out.statistic <= 0.05


# ---------------------------------------------------------------------------
# criterion 6: exponent identities


def test_criterion_06_exponent_identities():
    t0 = time.perf_counter()
    z0 = []
    for alpha, rho, kind in [
        (1.5, 0.5, ExponentKind.CENSORED),
        (1.5, 0.5, ExponentKind.RADIAL),
        (1.5, 0.5, ExponentKind.COND_POSITIVE),
        (1.5, 1.0 - 1.0 / 1.5, ExponentKind.DAGGER_SPEC_POS),
        (1.5, 1.0 - 1.0 / 1.5, ExponentKind.HAT_UPARROW),
        (1.5, 0.5, ExponentKind.CENSORED_CIRC),
    ]:
        z0.append(abs(LevyExponent(StableParams(alpha, rho), kind).eval(0.0)))
    zero_ok = max(z0) <= 1e-12

    mean_errs = []
    for alpha in (1.2, 1.5, 1.8):
        p = StableParams(alpha, 1.0 - 1.0 / alpha)
        g = special.gamma(alpha)
        mean_errs.append(abs(mean_at_one(LevyExponent(p, ExponentKind.DAGGER_SPEC_POS)) + g))
        mean_errs.append(abs(mean_at_one(LevyExponent(p, ExponentKind.HAT_UPARROW)) - g))
    mean_ok = max(mean_errs) <= 1e-6

    ess = [esscher_zero_check(StableParams(a, 0.5)) for a in (1.2, 1.5, 1.8)]
    ess_ok = max(ess) <= 1e-10

    elapsed = time.perf_counter() - t0
    ok = zero_ok and mean_ok and ess_ok and elapsed < 1.0
    _report(6, "exponent identities (zeros, means, Esscher zero)", ok,
            f"max|Psi(0)|={max(z0):.1e} (<= 1e-12), max mean err={max(mean_errs):.1e} "
            f"(<= 1e-6), max Esscher={max(ess):.1e} (<= 1e-10), {elapsed:.2f}s (< 1s)")
    assert zero_ok and mean_ok and ess_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 7: harmonic-kernel identities


def test_criterion_07_h_identities():
    pairs = [
        (0.3, 0.5), (0.5, 0.3), (0.5, 0.5), (0.5, 1.0), (0.5, 0.0),
        (0.7, 0.6), (0.9, 0.85), (0.8, 0.2), (1.0, 0.5),
        (1.2, 0.5), (1.2, 0.55), (1.2, 1.0 / 1.2), (1.2, 1.0 - 1.0 / 1.2),
        (1.5, 0.5), (1.5, 1.0 / 1.5), (1.5, 1.0 - 1.0 / 1.5),
        (1.8, 0.5), (1.8, 1.0 / 1.8), (1.8, 1.0 - 1.0 / 1.8), (1.3, 0.7),
    ]
    assert len(pairs) == 20
    zs = np.logspace(-3, 3, 100)
    worst = 0.0
    for alpha, rho in pairs:
        p = StableParams(alpha, rho)
        for sign in (1.0, -1.0):
            for z in sign * zs:
                hz = h_function(p, z).value
                hinv = h_function(p, 1.0 / z).value
                lhs = abs(z) ** (2.0 * (alpha - 1.0)) * hinv
                scale = max(abs(hz), abs(lhs))
                if scale == 0.0:
                    continue  # one-sided kernel vanishes on the jumpless side
                worst = max(worst, abs(lhs - hz) / scale)
    ident_ok = worst <= 1e-12

    # spectrally negative closed form h(x) = x^(alpha-1)/Gamma(alpha), x > 0
    sn_worst = 0.0
    for alpha in (1.2, 1.5, 1.8):
        p = StableParams(alpha, 1.0 / alpha)
        for x in (0.2, 1.0, 9.0):
            want = x ** (alpha - 1.0) / special.gamma(alpha)
            sn_worst = max(sn_worst, abs(h_function(p, x).value - want) / want)
    sn_ok = sn_worst <= 1e-12

    ok = ident_ok and sn_ok
    _report(7, "h inversion identity, 20 pairs x 100 log-spaced points", ok,
            f"max rel dev {worst:.2e} (<= 1e-12), spec-neg closed form dev {sn_worst:.2e}")
    assert ident_ok and sn_ok


# ---------------------------------------------------------------------------
# criterion 8: path-transform round trips


def _two_step_modulus(values):
    v = np.asarray(values, dtype=float)
    one = np.max(np.abs(np.diff(v)))
    two = np.max(np.abs(v[2:] - v[:-2])) if v.size > 2 else one
    return max(one, two)


def test_criterion_08_path_transform_round_trips():
    p = StableParams(1.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")

    # (a) Lamperti inverse o forward
    xi = sample_path(p, 0.0, 1.0, step=1e-3, rng=21)
    x = lamperti_forward(xi, alpha=p.alpha)
    back = lamperti_inverse(x, alpha=p.alpha)
    val_dev_a = float(np.max(np.abs(back.values - xi.values)))
    w2 = _two_step_modulus(xi.values)
    bound_a = xi.times[-1] * math.sinh(p.alpha * w2 / 2.0) ** 2
    time_dev_a = float(np.max(np.abs(back.times - xi.times)))

    # (b) spatial inversion o co-inversion
    xpath = sample_path(p, 2.0, 3.0, step=1e-3, rng=3)
    y = spatial_inversion(xpath, s)
    xr = spatial_inversion_inverse(y, s)
    val_dev_b = float(np.max(np.abs(xr.values - xpath.values)))
    w2b = _two_step_modulus(np.log(np.abs(xpath.values)))
    bound_b = xpath.times[-1] * math.sinh(p.alpha * w2b / 2.0) ** 2
    time_dev_b = float(np.max(np.abs(xr.times - xpath.times)))

    # (c) exact value-multiset preservation under time change
    drv = sample_path(p, 0.0, 2.0, step=1e-3, rng=11)
    clock = additive_functional(drv, s)
    z = time_change_solve(drv, s, horizon=clock.final / 2.0)
    multiset_exact = np.array_equal(np.sort(z.values), np.sort(drv.values[: len(z)]))

    ok = (val_dev_a <= 1e-12 and time_dev_a <= bound_a
          and val_dev_b <= 1e-12 and time_dev_b <= bound_b and multiset_exact)
    _report(8, "Lamperti and inversion round trips + time-change multiset", ok,
            f"values {val_dev_a:.1e}/{val_dev_b:.1e} (<= 1e-12); time dev "
            f"{time_dev_a:.2e} <= {bound_a:.2e}, {time_dev_b:.2e} <= {bound_b:.2e}; "
            f"multiset exact={multiset_exact}")
    assert val_dev_a <= 1e-12 and val_dev_b <= 1e-12
    assert time_dev_a <= bound_a and time_dev_b <= bound_b
    assert multiset_exact


# ---------------------------------------------------------------------------
# criterion 9: the occupation-potential lemma


def test_criterion_09_occupation_potential_lemma():
    out = mc.occupation_potential_lemma(StableParams(1.2, 0.5), n_paths=100_000, rng=0)
    ok = out.passed and out.statistic <= 3.0
    _report(9, "potential-of-kernel vs truncated-lifetime estimators, n=1e5", ok,
            f"|z|={out.statistic:.3f} (<= 3 SE)")
    assert out.statistic <= 3.0


# ---------------------------------------------------------------------------
# criterion 10: entrance proxy


def test_criterion_10_entrance_proxy():
    p = StableParams(1.5, 0.5)
    grow = parse_sigma_spec("power:c=1,theta=2")
    flat = parse_sigma_spec("power:c=1,theta=0")

    stab = mc.entrance_proxy(p, grow, level=10.0, starts=(10.0, 100.0, 1000.0),
                             n_paths=4000, rng=0, expect="stabilize")
    div = mc.entrance_proxy(p, flat, level=10.0, starts=(10.0, 100.0, 1000.0),
                            n_paths=4000, rng=0, expect="diverge", horizon=3e7)
    m = div.extras["medians"]
    growth = m[1] / m[0]
    ok = stab.passed and div.passed and stab.statistic <= 0.1 and growth >= 2.0
    _report(10, "interval-entry time medians: stabilize (theta=2) vs diverge (sigma=1)", ok,
            f"spread {stab.statistic:.3f} (<= 0.10) over starts {stab.extras['starts']} "
            f"(start 10.0 skipped: on the boundary, entry time 0); "
            f"sigma=1 growth x{growth:.1f}/decade (>= 2)")
    assert stab.passed and stab.statistic <= 0.1
    assert stab.extras["skipped_degenerate_starts"] == [10.0]
    assert div.passed and growth >= 2.0
