"""Validation-harness tests: the KS machinery self-tests (with negative
controls), quadrature CDFs, simulation kernels at reduced path counts with
pinned seeds, and the outcome record format."""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from artifact import (
    StableParams,
    TooFewSamplesError,
    parse_sigma_spec,
)
from artifact import montecarlo as mc
from artifact.fluctuation_oracles import (
    _hit_zero_probability,
    creep_probability,
    overshoot_cdf,
    strip_exit_density,
)
from artifact.sde_timechange import explosion_estimate
from artifact.stable_core import OutOfRangeError, stream


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_statistic_hand_value():
    samples = np.array([0.1, 0.2, 0.7])
    uniform = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    got = mc.ks_statistic(samples, uniform)
    ref = stats.kstest(samples, "uniform").statistic
    assert got == pytest.approx(ref, rel=1e-12)


def test_ks_compare_self_and_negative_control():
    gen = np.random.default_rng(0)
    x = gen.standard_normal(20_000)
    good = mc.ks_compare(x, stats.norm.cdf, seed=0)
    assert good.passed and good.statistic < good.threshold
    # shifted law: must fail decisively
    bad = mc.ks_compare(x, lambda t: stats.norm.cdf(t, loc=0.15), seed=0)
    assert not bad.passed
    assert bad.statistic > 2 * bad.threshold


def test_ks_compare_default_threshold_scaling():
    gen = np.random.default_rng(1)
    for n in (400, 10_000):
        out = mc.ks_compare(gen.random(n), lambda x: np.clip(x, 0, 1))
        assert out.threshold == pytest.approx(1.628 / math.sqrt(n), rel=1e-12)


def test_ks_compare_times_from_t0_and_takes_no_seed():
    x = np.linspace(0.005, 0.995, 100)
    out = mc.ks_compare(x, lambda t: t, t0=time.perf_counter() - 1.0)
    assert out.runtime_s >= 1.0 and out.seed is None
    assert 0.0 < mc.ks_compare(x, lambda t: t, seed=4).runtime_s < 1.0


def test_ks_compare_rejects_tiny_samples():
    with pytest.raises(TooFewSamplesError):
        mc.ks_compare(np.arange(50, dtype=float) / 50.0, lambda x: x)


def test_cdf_from_density_mass_and_singular_edges():
    # integrable endpoint singularity (1-y)^-0.25 on (0,1)
    dens = lambda y: (1.0 - np.asarray(y)) ** -0.25
    cdf = mc.cdf_from_density(dens, 0.0, 1.0)
    assert cdf.total_mass == pytest.approx(4.0 / 3.0, rel=1e-6)
    ys = np.linspace(0.0, 1.0, 101)
    vals = cdf(ys)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] == pytest.approx(1.0, rel=1e-9)
    assert np.all(np.diff(vals) >= 0)
    # midpoint against direct quadrature of the normalized density
    from scipy import integrate

    m, _ = integrate.quad(dens, 0.0, 0.5)
    assert cdf(np.array([0.5]))[0] == pytest.approx(m / (4.0 / 3.0), rel=1e-6)


@pytest.mark.parametrize("x0", [2.0, -2.0])
def test_cdf_from_density_strip_law_with_strong_edge_singularities(x0):
    # alpha*rhohat = 0.69: QUADPACK nodes in the panels next to y = 1 round
    # onto the endpoint, where the entry density is undefined
    a, r = 0.88, 0.22
    p = StableParams(a, r)
    cdf = mc.cdf_from_density(lambda y: strip_exit_density(p, x0, y).value, -1.0, 1.0)
    # reference: the density is (1+y)^(-alpha rho) (1-y)^(-alpha rhohat) / (x-y)
    # up to a constant for x > 1 (mirrored for x < -1); QAWS takes the edge
    # weights
    x, sign = abs(x0), np.sign(x0)
    lo_e, hi_e = (-a * r, -a * (1 - r)) if x0 > 0 else (-a * (1 - r), -a * r)
    g = lambda y: 1.0 / (x - y)
    total = integrate.quad(g, -1, 1, weight="alg", wvar=(lo_e, hi_e))[0]
    for t in (-0.99, -0.5, 0.0, 0.5, 0.99):
        part = integrate.quad(lambda y: (1 - y) ** hi_e * g(y), -1, sign * t,
                              weight="alg", wvar=(lo_e, 0.0))[0] / total
        want = part if x0 > 0 else 1.0 - part
        assert cdf(t) == pytest.approx(want, abs=5e-3), t


# ---------------------------------------------------------------------------
# simulation kernels (reduced n, pinned seeds; full-scale runs live in the
# acceptance suite)


def test_overshoot_kernel_matches_oracle_small_n():
    p = StableParams(1.5, 0.5)
    res = mc.passage_overshoot_samples(p, x0=2.0, level=0.0, n_paths=3000, rng=0)
    depths = res["depths"]
    assert np.all(depths > 0)
    assert res["censored"] <= 0.01 * 3000
    ks = mc.ks_statistic(depths, lambda y: overshoot_cdf(p, 2.0, 0.0, y).value)
    assert ks < 1.628 / math.sqrt(depths.size), ks


def test_overshoot_kernel_deterministic():
    p = StableParams(1.5, 0.5)
    a = mc.passage_overshoot_samples(p, x0=2.0, level=0.0, n_paths=500, rng=3)
    b = mc.passage_overshoot_samples(p, x0=2.0, level=0.0, n_paths=500, rng=3)
    np.testing.assert_array_equal(a["depths"], b["depths"])


def test_creep_probability_is_the_upward_exit_fraction():
    # a spectrally negative driver leaves (0, 1) upward only by creeping, so
    # the upward count is binomial with p = x^(alpha-1); the Brownian p = x
    # is the negative control
    p, x, n = StableParams(1.5, 1.0 / 1.5), 0.5, 4000
    res = mc.exit_interval_samples(p, x, lo=0.0, hi=1.0, n_paths=n, rng=0)
    assert res["exit_positions"].size == n
    up = float(np.mean(res["exit_positions"] >= 1.0))

    def z(prob):
        return (up - prob) / math.sqrt(prob * (1.0 - prob) / n)

    assert abs(z(creep_probability(p, x).value)) <= 3.0
    assert abs(z(x)) > 10.0


def test_strip_entry_transient_misses_and_determinism():
    p = StableParams(0.7, 0.5)
    out = mc.strip_entry_samples(p, x0=2.0, half_width=1.0, n_paths=2000, rng=0)
    assert out["entry_fraction"] < 1.0
    assert out["missed"] > 0
    assert np.all(np.abs(out["positions"]) < 1.0)
    out2 = mc.strip_entry_samples(p, x0=2.0, half_width=1.0, n_paths=2000, rng=0)
    np.testing.assert_array_equal(out["positions"], out2["positions"])


def test_exit_interval_support_and_determinism():
    p = StableParams(1.5, 0.5)
    a = mc.exit_interval_samples(p, 0.2, lo=-1.0, hi=1.0, n_paths=1500, rng=0)
    assert np.all((a["exit_positions"] <= -1.0) | (a["exit_positions"] >= 1.0))
    b = mc.exit_interval_samples(p, 0.2, lo=-1.0, hi=1.0, n_paths=1500, rng=0)
    np.testing.assert_array_equal(a["exit_positions"], b["exit_positions"])


def _reference_overshoot(p, x0, level, n_paths, seed, coef, horizon, max_steps, batch):
    """The hand-written stepping loop the path engine replaced."""
    from artifact.stable_core import sample_increment, stream

    depths, censored = [], 0
    for bi, first in enumerate(range(0, n_paths, batch)):
        gen = stream(seed, bi)
        x = np.full(min(batch, n_paths - first), x0)
        t = np.zeros(x.size)
        for _ in range(max_steps):
            if x.size == 0:
                break
            dt = np.minimum(coef * (x - level) ** p.alpha, horizon - t)
            x = x + sample_increment(p, dt, gen)
            t = t + dt
            crossed = x <= level
            depths.append(level - x[crossed])
            alive = ~crossed & (t < horizon)
            censored += int(np.sum(~crossed & ~alive))
            x, t = x[alive], t[alive]
        censored += x.size
    return np.concatenate(depths), censored


@pytest.mark.parametrize("horizon, max_steps", [(1e6, 10_000_000), (0.05, 10_000_000),
                                                (1e6, 40)])
def test_overshoot_engine_matches_reference_loop(horizon, max_steps):
    p = StableParams(1.3, 0.4)
    res = mc.passage_overshoot_samples(p, 2.0, 0.0, 700, rng=2, horizon=horizon,
                                       max_steps=max_steps, batch=300)
    depths, censored = _reference_overshoot(p, 2.0, 0.0, 700, 2, 1e-4 / 0.1 ** 1.3,
                                            horizon, max_steps, 300)
    assert res["censored"] == censored
    np.testing.assert_array_equal(res["depths"], depths)


def test_interval_exit_unit_weight_sums_are_exit_times():
    out = mc.interval_exit_occupation(StableParams(1.2, 0.5), 0.1, -1.0, 1.0, 2e-3, 500,
                                      rng=4, weight=np.ones_like, batch=200)
    assert np.all(out["steps"] >= 1)
    np.testing.assert_allclose(out["weighted_sums"], out["steps"] * 2e-3, rtol=1e-9)


def test_capped_walk_is_interval_exit_truncated_at_the_cap():
    # the lemma's h-grid reads exits within k_cap steps off a walk capped at
    # k_cap: it stops the lanes the full walk stops by then, in order
    p = StableParams(1.2, 0.5)
    y, step, k_cap, n = 0.8, 2e-3, 250, 500
    full = mc.interval_exit_occupation(p, y, -1.0, 1.0, step, n, rng=stream(7, 1003), batch=n)
    ends = mc._walk(p, mc._batches(y, n, stream(7, 1003), n), lambda x: step,
                    lambda x: (x <= -1.0) | (x >= 1.0), max_steps=k_cap)
    s = int(np.sum(ends.stopped))
    assert 0 < s < n
    assert not np.any(ends.stopped[s:])
    assert np.all(full["steps"][:s] <= k_cap) and np.all(full["steps"][s:] > k_cap)
    np.testing.assert_array_equal(ends.steps[:s], full["steps"][:s])
    np.testing.assert_array_equal(ends.x[:s], full["exit_positions"][:s])


def _strip_case():
    # the entrance walk: strip step and stop, trapezoid clock, finite horizon
    p, sigma = StableParams(1.5, 0.5), parse_sigma_spec("power:c=1,theta=2")
    clock = mc._trapezoid(lambda z: np.asarray(sigma(z), dtype=float) ** -1.5)
    return p, (lambda x: 1e-3 + 3e-3 * (np.abs(x) - 10.0) ** 1.5, lambda x: np.abs(x) < 10.0), \
        dict(accumulate=clock, horizon=50.0, max_steps=5000)


def _capped_case():
    # the lemma's h-grid walk: a fixed step, capped at 250 steps
    return StableParams(1.2, 0.5), (lambda x: 2e-3, lambda x: (x <= -1.0) | (x >= 1.0)), \
        dict(max_steps=250)


def _cauchy_case():
    p = StableParams(1.0, 0.5)
    return p, (lambda x: 1e-3 + 3e-3 * np.abs(x), lambda x: np.abs(x) >= 1.0), \
        dict(accumulate=mc._left_endpoint(np.abs), max_steps=3000)


def _reach_case():
    # the occupation walk: jumps by reach, a trapezoid sum, no horizon
    return StableParams(1.5, 0.6), (
        lambda x: np.clip(3e-3 * np.abs(x) ** 1.5, 1e-6, 0.05), lambda x: np.abs(x) <= 1e-3), \
        dict(accumulate=mc._trapezoid(lambda z: np.where((z >= 1.0) & (z <= 2.0), 1.0, 0.0)),
             reach=_window_reach, max_steps=400)


@pytest.mark.parametrize("case, starts, budget, shared", [
    (_capped_case, (0.8, -0.95, 0.0), 1000, False),
    (_strip_case, (12.0, -30.0, 100.0), 1000, False),
    (_cauchy_case, (0.5, -0.2), 1000, False),
    (_reach_case, (0.5, 3.0, -0.7), 1000, False),
    (_capped_case, (0.8, -0.95, 0.0), 500, False),  # loops of two groups, then one
    (_capped_case, (0.8, -0.95, 0.0), 1000, True),  # one Generator: a loop each
], ids=["capped", "strip", "alpha_1", "reach", "two_loops", "one_generator"])
def test_packed_walk_equals_a_walk_per_group(monkeypatch, case, starts, budget, shared):
    # groups walked side by side end exactly where each walked alone ends,
    # with the same steps, stop flags and sums, group by group
    p, (step, stop), kw = case()
    calls = []
    draw = mc.sample_increment
    monkeypatch.setattr(mc, "sample_increment", lambda *a, **k: calls.append(1) or draw(*a, **k))

    def groups():
        one = stream(11, 0)
        return [(x0, 200 + 50 * j, one if shared else stream(11, j))
                for j, x0 in enumerate(starts)]

    packed = mc._walk(p, list(mc._loops(groups(), budget)), step, stop, **kw)
    n_packed = len(calls)
    alone = [mc._walk(p, [[g]], step, stop, **kw) for g in groups()]
    for name in ("x", "steps", "stopped", "acc"):
        parts = [getattr(e, name) for e in alone]
        got = getattr(packed, name)
        if parts[0] is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, np.concatenate(parts))
    assert packed.stopped.any() and not packed.stopped.all()
    if shared:
        assert n_packed == len(calls) - n_packed
    else:
        assert n_packed < len(calls) - n_packed


def test_loops_keep_groups_whole_and_streams_apart():
    a, b = stream(0, 0), stream(0, 1)
    groups = [(0.0, 3, a), (0.0, 4, b), (0.0, 9, a), (0.0, 2, b), (0.0, 1, a)]
    assert [[g[1] for g in run] for run in mc._loops(groups, 8)] == [[3, 4], [9], [2, 1]]
    assert [[g[1] for g in run] for run in mc._loops(groups, 100)] == [[3, 4], [9, 2], [1]]


def _lemma_without_walks(**kwargs):
    """The lemma with every path walk made an error: a rejected count must be
    rejected before the h-grid stage, which alone takes seconds."""

    def walk(*args, **kw):
        raise AssertionError("a path was walked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_walk", walk)
        return mc.occupation_potential_lemma(StableParams(1.2, 0.5), rng=0, **kwargs)


@pytest.mark.parametrize("batch", [0, -1])
@pytest.mark.parametrize("run", [
    lambda batch: mc.interval_exit_occupation(StableParams(1.5, 0.5), 0.2, -1.0, 1.0,
                                              2e-3, 100, rng=0, batch=batch),
], ids=["interval_exit_occupation"])
def test_batch_below_one_is_rejected(run, batch):
    with pytest.raises(OutOfRangeError, match="batch"):
        run(batch)


@pytest.mark.parametrize("run", [
    lambda: mc.interval_exit_occupation(StableParams(1.5, 0.5), 0.2, -1.0, 1.0,
                                        2e-3, 0, rng=0),
    lambda: explosion_estimate(StableParams(0.5, 0.5), parse_sigma_spec("power:c=1,theta=2"),
                               x0=0.0, horizon=10.0, n_paths=0, rng=0),
    lambda: _lemma_without_walks(n_paths=0),
], ids=["interval_exit_occupation", "explosion_estimate", "occupation_potential_lemma"])
def test_no_paths_is_rejected(run):
    with pytest.raises(OutOfRangeError, match="n_paths"):
        run()


def test_lemma_one_path_is_rejected_before_any_walk():
    with pytest.raises(mc.TooFewSamplesError, match="needs two"):
        _lemma_without_walks(n_paths=1)


# how each kernel reports paths that end at the horizon, run out of steps or
# are killed


def test_overshoot_tiny_horizon_censors_all():
    out = mc.passage_overshoot_samples(StableParams(1.5, 0.5), x0=2.0, level=0.0,
                                       n_paths=300, rng=0, horizon=1e-6)
    assert out["censored"] == 300
    assert out["depths"].size == 0


def test_strip_out_of_steps_counts_as_missed():
    out = mc.strip_entry_samples(StableParams(0.7, 0.5), x0=50.0, half_width=1.0,
                                 n_paths=200, rng=0, max_steps=1)
    assert out["missed"] == 200
    assert out["positions"].size == 0 and out["clocks"].size == 0


def test_occupation_out_of_steps_keeps_every_path():
    s = parse_sigma_spec("power:c=1,theta=2")
    out = mc.origin_kill_occupation(StableParams(1.5, 0.5), 0.5, s, (1.0, 2.0),
                                    n_paths=200, rng=0, max_steps=1)
    # one jump from 0.5 over (5e-5, 1 - 5e-5) kills some paths; the rest are
    # censored with the occupation they have, none, since jumps add nothing
    assert out["alive"] > 0 and out["killed"] > 0
    assert out["alive"] + out["killed"] == 200
    assert out["occupations"].size == 200 and np.all(out["occupations"] == 0.0)


@pytest.mark.parametrize("rho, jumps", [(1.0 / 1.5, False), (0.6, True)],
                         ids=["spectrally_negative", "two_sided"])
def test_occupation_jumps_only_for_two_sided_drivers(monkeypatch, rho, jumps):
    calls = []
    exact = mc.sample_interval_exit

    def counted(p, rng, size):
        calls.append(size)
        return exact(p, rng, size)

    monkeypatch.setattr(mc, "sample_interval_exit", counted)
    s = parse_sigma_spec("power:c=1,theta=2")
    out = mc.origin_kill_occupation(StableParams(1.5, rho), 0.5, s, (1.0, 2.0),
                                    n_paths=100, rng=0, max_steps=2000)
    assert bool(calls) is jumps
    assert out["alive"] + out["killed"] == 100


def test_walk_reach_refuses_a_clock():
    with pytest.raises(OutOfRangeError, match="infinite horizon"):
        mc._walk(StableParams(1.5, 0.5), mc._batches(0.5, 10, 0, 10), lambda x: 1e-3,
                 lambda x: np.abs(x) > 1.0, reach=lambda x: 1.0 - np.abs(x),
                 horizon=1.0, max_steps=10)


def _window_reach(x):
    return np.minimum(np.abs(x) - 1e-3, np.maximum(np.maximum(1.0 - x, x - 2.0), 0.0))


@pytest.mark.parametrize("reach", [None, _window_reach], ids=["steps", "jumps"])
def test_trapezoid_carries_the_integrand_from_step_to_step(reach):
    # the integrand is evaluated once at each position a lane reaches (and at
    # the start), and the sums are those of 0.5 (g(x) + g(x_new)) dt with g
    # evaluated at both ends, bit for bit on the same draws
    p, n = StableParams(1.5, 0.5), 300
    points = []

    def g(z):
        points.append(z.size)
        return np.where((z >= 1.0) & (z <= 2.0), (1.0 + z * z) ** -0.75, 0.0)

    def walk(accumulate):
        return mc._walk(p, mc._batches(0.5, n, 3, 150),
                        lambda x: np.clip(3e-3 * np.abs(x) ** 1.5, 1e-6, 0.05),
                        lambda x: np.abs(x) <= 1e-3, accumulate=accumulate, reach=reach,
                        max_steps=400)

    ends = walk(mc._trapezoid(g))
    assert sum(points) == n + int(np.sum(ends.steps))
    both = walk(mc._Sum(lambda x: x, lambda x, x_new, dt: 0.5 * (g(x) + g(x_new)) * dt))
    np.testing.assert_array_equal(ends.x, both.x)
    np.testing.assert_array_equal(ends.acc, both.acc)
    assert np.count_nonzero(ends.acc) > n // 10


@pytest.mark.parametrize("kernel", [
    lambda p: mc.exit_interval_samples(p, 0.2, n_paths=100, rng=0, max_steps=1),
    lambda p: mc.interval_exit_occupation(p, 0.2, -1.0, 1.0, 2e-3, 100, rng=0,
                                          max_steps=1),
])
def test_interval_exit_out_of_steps_raises(kernel):
    with pytest.raises(RuntimeError, match="max_steps"):
        kernel(StableParams(1.5, 0.5))


@pytest.mark.parametrize("alpha, rho, x", [(1.5, 0.5, 0.3), (1.8, 0.45, 0.5)])
def test_exit_interval_zero_hit_fraction_is_hit_zero_probability(alpha, rho, x):
    # with a kill ball of 1e-5 the zero hits are a binomial count with
    # p0(x), the subtracted weight of exit_density_avoid_zero; steps that
    # jump the ball undercount them
    p, n = StableParams(alpha, rho), 4000
    p0 = _hit_zero_probability(p, x)
    out = mc.exit_interval_samples(p, x, n_paths=n, rng=0, kill_eps=1e-5)
    assert abs(out["zero_hits"] / n - p0) <= 4.0 * math.sqrt(p0 * (1.0 - p0) / n)


def test_exit_interval_kill_accounts_for_every_path():
    out = mc.exit_interval_samples(StableParams(1.5, 0.5), 0.3, n_paths=400, rng=1,
                                   kill_eps=1e-2)
    exits = out["exit_positions"].size
    assert out["zero_hits"] > 0 and exits > 0
    assert out["zero_hits"] + exits == 400
    assert np.all(np.abs(out["exit_positions"]) >= 1.0)


def test_occupation_vs_potential_small_n():
    p = StableParams(1.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    out = mc.occupation_vs_potential(p, s, x0=0.5, window=(1.0, 2.0),
                                     n_paths=10_000, rng=0)
    assert out.passed, out.to_json_line()
    assert out.statistic < 0.04


def test_occupation_vs_potential_asymmetric_jumps():
    # rho = 0.6 exits intervals by Rogozin's law, not the symmetric one
    out = mc.occupation_vs_potential(StableParams(1.5, 0.6), parse_sigma_spec("power:c=1,theta=2"),
                                     x0=0.5, window=(1.0, 2.0), n_paths=10_000, rng=0)
    assert out.passed, out.to_json_line()


def test_occupation_potential_lemma_small_n():
    out = mc.occupation_potential_lemma(StableParams(1.2, 0.5), n_paths=6000,
                                        grid_paths=800, rng=0)
    assert out.passed, out.to_json_line()
    assert out.statistic < 1.0  # measured 0.12 at this seed; 3 SE is the gate


def test_entrance_proxy_skips_degenerate_start():
    p = StableParams(1.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    out = mc.entrance_proxy(p, s, level=10.0, starts=(10.0, 100.0, 1000.0),
                            n_paths=800, rng=0, expect="stabilize")
    assert out.passed
    assert out.extras["skipped_degenerate_starts"] == [10.0]
    assert out.extras["starts"] == [100.0, 1000.0]


def test_entrance_proxy_rejects_expect_before_any_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("strip_entry_samples ran before expect was checked")

    monkeypatch.setattr(mc, "strip_entry_samples", refuse)
    monkeypatch.setattr(mc, "_strip_walk", refuse)  # the walk entrance_proxy runs
    with pytest.raises(OutOfRangeError, match="expect"):
        mc.entrance_proxy(StableParams(1.5, 0.5), parse_sigma_spec("power:c=1,theta=2"),
                          level=10.0, starts=(100.0, 1000.0), n_paths=800, rng=0,
                          expect="stabilise")


def test_entrance_proxy_diverges_for_constant_sigma():
    p = StableParams(1.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=0")
    out = mc.entrance_proxy(p, s, level=10.0, starts=(100.0, 1000.0),
                            n_paths=800, rng=0, expect="diverge", horizon=3e7)
    assert out.passed
    m = out.extras["medians"]
    assert m[1] / m[0] >= 2.0


def test_entrance_proxy_counts_missed_paths_per_start():
    # the starts walk side by side; each start's entries and misses are those
    # of the strip kernel on the start's own stream
    p, s = StableParams(1.5, 0.5), parse_sigma_spec("power:c=1,theta=2")
    out = mc.entrance_proxy(p, s, level=10.0, starts=(1000.0, 100.0), n_paths=800, rng=0,
                            horizon=1e5)
    for j, x0 in enumerate((100.0, 1000.0)):
        res = mc.strip_entry_samples(p, x0, 10.0, 800, rng=stream(0, 2000 + j), sigma=s,
                                     horizon=1e5)
        assert out.extras["missed"][j] == res["missed"]
        assert out.extras["medians"][j] == float(np.median(res["clocks"]))
    assert out.extras["missed"][1] > 0


# ---------------------------------------------------------------------------
# outcome records


def test_outcome_json_line_is_deterministic_and_typed():
    out = mc.ValidationOutcome(
        name="demo", statistic=np.float64(0.5), threshold=1.0, passed=True,
        n_paths=10, seed=3, runtime_s=1.23456,
        extras={"a": np.int64(2), "b": np.array([1.0, 2.0])},
    )
    line = out.to_json_line()
    doc = json.loads(line)
    assert doc["schema_version"] == "1"
    assert "runtime_s" not in doc  # reruns must be byte-identical
    assert doc["extras"]["a"] == 2 and doc["extras"]["b"] == [1.0, 2.0]
    assert line == out.to_json_line()
    assert json.loads(out.to_json_line(include_runtime=True))["runtime_s"] == 1.235
    # keys sorted for stable byte layout
    assert list(doc.keys()) == sorted(doc.keys())


@pytest.mark.parametrize("field, value", [
    ("statistic", math.inf), ("statistic", math.nan), ("extras", {"z": -math.inf}),
    ("extras", {"se": np.float64("nan")}),
])
def test_outcome_json_line_refuses_non_finite_numbers(field, value):
    kw = dict(name="demo", statistic=0.5, threshold=1.0, passed=True, n_paths=10,
              seed=3, runtime_s=0.0)
    with pytest.raises(ValueError):
        mc.ValidationOutcome(**{**kw, field: value}).to_json_line()

