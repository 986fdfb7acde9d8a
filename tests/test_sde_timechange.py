"""Time-change engine tests: clock construction, horizon truncation and
explosion detection on single paths, the batched explosion estimator, the
spatial inversion surgery, and a coarse cross-validation of the solver law
against a direct Euler scheme."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from artifact import (
    ExhaustedPathError,
    HitZeroError,
    Path,
    PowerTail,
    SigmaFunction,
    StableParams,
    parse_sigma_spec,
    sample_increment,
    sample_path,
    sample_path_at,
)
from artifact.sde_timechange import (
    _ROWS,
    AdditiveFunctional,
    _explosion_grid,
    _plateaued,
    additive_functional,
    explosion_estimate,
    sample_increments_matrix,
    spatial_inversion,
    spatial_inversion_inverse,
    time_change_solve,
)
from artifact.stable_core import OutOfRangeError, _standard_draws, stream


# ---------------------------------------------------------------------------
# the clock


def test_additive_functional_constant_sigma_exact():
    # sigma = 2: A(s) = 2^-alpha s exactly (trapezoid is exact on constants)
    x = sample_path(StableParams(0.5, 0.5), 0.0, 3.0, step=1e-2, rng=1)
    af = additive_functional(x, PowerTail(c=2.0, theta=0.0))
    np.testing.assert_allclose(af.cumvals, 2.0 ** -0.5 * x.times, rtol=1e-12)
    assert af.final == pytest.approx(2.0 ** -0.5 * 3.0)


def test_additive_functional_container_invariants():
    with pytest.raises(ValueError):
        AdditiveFunctional(np.array([0.0, 1.0]), np.array([0.1, 0.2]))  # cum[0] != 0
    with pytest.raises(ValueError):
        AdditiveFunctional(np.array([0.0, 1.0]), np.array([0.0, -0.2]))  # decreasing


def test_clock_scale_covariance():
    # sigma -> 2 sigma divides the clock by 2^alpha, exactly, per sample
    p = StableParams(0.5, 0.5)
    x = sample_path(p, 0.0, 2.0, step=1e-2, rng=3)
    a1 = additive_functional(x, PowerTail(c=1.0, theta=2.0))
    a2 = additive_functional(x, PowerTail(c=2.0, theta=2.0))
    np.testing.assert_allclose(a2.cumvals, 2.0 ** -p.alpha * a1.cumvals, rtol=1e-12)


# ---------------------------------------------------------------------------
# single-path solving


def test_time_change_preserves_value_multiset_on_prefix():
    p = StableParams(1.5, 0.5)
    s = PowerTail(c=1.0, theta=2.0)
    x = sample_path(p, 0.0, 2.0, step=1e-3, rng=11)
    af = additive_functional(x, s)
    z = time_change_solve(x, s, horizon=af.final / 2.0)
    n = len(z)
    # the solution is the driver's value sequence carried onto the new clock
    np.testing.assert_array_equal(z.values, x.values[:n])
    assert z.times[0] == 0.0
    assert np.all(np.diff(z.times) > 0)
    assert z.times[-1] <= af.final / 2.0


def test_time_change_exhausted_driver_raises():
    p = StableParams(1.5, 0.5)
    s = PowerTail(c=1.0, theta=0.0)  # sigma = 1: clock = driver time
    x = sample_path(p, 0.0, 1.0, step=1e-3, rng=5)
    with pytest.raises(ExhaustedPathError):
        time_change_solve(x, s, horizon=2.0)


def test_time_change_detects_explosion_with_plateaued_clock():
    p = StableParams(0.5, 0.5)
    s = PowerTail(c=1.0, theta=2.0)
    ts = _explosion_grid(1e6, 5e-3, 1.04)
    x = sample_path_at(p, 0.0, ts, rng=7)
    z = time_change_solve(x, s, horizon=1e9)
    assert z.killed_at is not None
    assert z.meta.get("exploded") is True
    assert z.times[-1] <= z.killed_at
    af = additive_functional(x, s)
    assert z.killed_at == pytest.approx(af.final, rel=1e-12)


# ---------------------------------------------------------------------------
# batched explosion estimator


def test_explosion_estimate_deterministic_and_plateaued():
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    e1 = explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=600, rng=0, batch=300)
    e2 = explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=600, rng=0, batch=300)
    np.testing.assert_array_equal(e1.samples, e2.samples)
    assert e1.plateau_fraction > 0.9
    assert e1.samples.size == 600
    flags = np.asarray(e1.flags())
    assert set(np.unique(flags)) <= {"Plateaued", "StillGrowing"}
    assert int((flags == "Plateaued").sum()) == int(e1.plateaued.sum())
    # plateaued samples sit near the known mean explosion time, not at the
    # truncation scale
    assert np.median(e1.plateaued_samples) < 100.0


def test_explosion_estimate_batch_invariance():
    # the per-batch stream keying makes the estimate depend on (seed, batch),
    # so identical batch size reproduces; the estimator must also be
    # insensitive in law -- checked cheaply through the mean at two layouts
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    a = explosion_estimate(p, s, x0=0.0, horizon=1e5, n_paths=400, rng=1, batch=400)
    b = explosion_estimate(p, s, x0=0.0, horizon=1e5, n_paths=400, rng=1, batch=100)
    ma, mb = np.mean(a.samples), np.mean(b.samples)
    pooled = np.sqrt(np.var(a.samples) / 400 + np.var(b.samples) / 400)
    assert abs(ma - mb) < 6 * pooled


class _NoSeed:
    """An rng that fails the test as soon as a stream is keyed from it."""

    def __int__(self):
        raise AssertionError("a stream was drawn before the grid was checked")


@pytest.mark.parametrize("grid", [
    dict(growth=1.0, horizon=1e3),  # the geometric tail would never reach the horizon
    dict(growth=1.0 + 1e-6),  # about 6.2 million points
    dict(growth=0.5),
    dict(growth=math.nan),
    dict(head_step=0.0),
    dict(head_step=-1e-3),
    dict(head_step=math.nan),
    dict(horizon=0.0),
    dict(horizon=-1.0),
    dict(horizon=math.nan),
    dict(horizon=math.inf),
])
def test_explosion_estimate_rejects_a_bad_grid_before_any_draw(grid):
    grid = dict(horizon=1e3) | grid
    with pytest.raises(OutOfRangeError, match="explosion grid"):
        explosion_estimate(StableParams(0.5, 0.5), PowerTail(1.0, 2.0), x0=0.0,
                           n_paths=10, rng=_NoSeed(), **grid)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_explosion_estimate_reads_a_philox_generator_in_turn(alpha):
    # each batch's stream is read by position, which only Philox supports; a
    # Philox Generator is read batch after batch, as one sequential stream
    p, s = StableParams(alpha, 0.5), PowerTail(1.0, 2.0)
    est = explosion_estimate(p, s, x0=0.0, horizon=1e3, n_paths=150, rng=stream(3), batch=100)
    samples, flags = _explosion_reference(p, s, 0.0, 1e3, 150, stream(3), 100)
    np.testing.assert_array_equal(est.samples, samples)
    np.testing.assert_array_equal(est.plateaued, flags)
    with pytest.raises(OutOfRangeError, match="Philox"):
        explosion_estimate(p, s, x0=0.0, horizon=1e3, n_paths=10, rng=np.random.default_rng(0))


def test_explosion_plateau_flags_match_time_change_solve():
    # one plateau rule: a batch-0 driver of the estimator is flagged exactly
    # when time_change_solve on the same grid reports it exploded
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    n, horizon = 500, 1e3
    est = explosion_estimate(p, s, x0=0.0, horizon=horizon, n_paths=n, rng=0, batch=n)
    ts = _explosion_grid(horizon, 5e-3, 1.04)
    dts = np.diff(ts)
    incs = np.concatenate(list(
        sample_increments_matrix(p, dts, n, stream(0, 0))))
    drivers = np.concatenate((np.zeros((n, 1)), np.cumsum(incs, axis=1)), axis=1)
    exploded = []
    for values in drivers:
        try:
            z = time_change_solve(Path(ts, values, alpha=p.alpha), s, math.inf)
            exploded.append(z.meta["exploded"])
        except ExhaustedPathError:
            exploded.append(False)
    assert 0 < est.plateaued.sum() < n  # both verdicts occur
    np.testing.assert_array_equal(est.plateaued, exploded)


class _ReadOnlySquare(SigmaFunction):
    """sigma(x) = 1 + x^2, returned as a read-only view: the estimator must
    never write into what sigma returns."""

    def __call__(self, x):
        out = (1.0 + np.square(x))[...]
        out.flags.writeable = False
        return out


def _explosion_reference(p, s, x0, horizon, n_paths, seed, batch):
    """(samples, plateaued) of explosion_estimate written with one temporary
    per operation and nothing done in place; seed may be a Generator."""
    ts = _explosion_grid(horizon, 5e-3, 1.04)
    dts = np.diff(ts)
    k = int(np.searchsorted(ts, horizon / 10.0))
    samples, flags = [], []
    for bi, first in enumerate(range(0, n_paths, batch)):
        m = min(batch, n_paths - first)
        gen = seed if isinstance(seed, np.random.Generator) else stream(seed, bi)
        draws = _standard_draws(p, gen, m * dts.size).reshape(m, dts.size)
        incs = dts ** (1.0 / p.alpha) * draws
        x = np.concatenate((np.full((m, 1), x0), x0 + np.cumsum(incs, axis=1)), axis=1)
        f = np.asarray(s(x), dtype=float) ** (-p.alpha)
        a_inc = 0.5 * (f[:, 1:] + f[:, :-1]) * dts
        total = a_inc.sum(axis=1)
        samples.append(total)
        flags.append(_plateaued(total, a_inc[:, k:].sum(axis=1)))
    return np.concatenate(samples), np.concatenate(flags)


@pytest.mark.parametrize("p, s, x0, horizon", [
    (StableParams(0.5, 0.5), PowerTail(1.0, 2.0), 0.0, 1e6),
    (StableParams(0.7, 1.0), _ReadOnlySquare(), 0.5, 1e4),
])
def test_explosion_estimate_equals_the_unfused_reference(p, s, x0, horizon):
    est = explosion_estimate(p, s, x0=x0, horizon=horizon, n_paths=300, rng=0, batch=100)
    samples, flags = _explosion_reference(p, s, x0, horizon, 300, 0, 100)
    np.testing.assert_array_equal(est.samples, samples)
    np.testing.assert_array_equal(est.plateaued, flags)


@pytest.mark.parametrize("p, x0, horizon, n, batch", [
    (StableParams(1.0, 0.5), 0.0, 1e3, 300, 100),  # alpha = 1 draws no exponentials
    # a short last batch fills only the head of the first batch's buffer
    (StableParams(0.5, 0.5), 0.0, 1e6, 301, 100),
    # batches smaller than one row block, and batches of several blocks
    # with a short last block
    (StableParams(1.5, 0.4), 0.2, 1e2, 100, _ROWS // 2 - 1),
    (StableParams(0.5, 0.5), 0.0, 1e6, 2 * (3 * _ROWS + 5), 3 * _ROWS + 5),
])
def test_explosion_row_blocks_equal_the_unfused_reference(p, x0, horizon, n, batch):
    s = PowerTail(1.0, 2.0)
    est = explosion_estimate(p, s, x0=x0, horizon=horizon, n_paths=n, rng=0, batch=batch)
    samples, flags = _explosion_reference(p, s, x0, horizon, n, 0, batch)
    np.testing.assert_array_equal(est.samples, samples)
    np.testing.assert_array_equal(est.plateaued, flags)


def test_explosion_batches_hold_at_most_three_matrices():
    # increments, driver, sigma, integrand and trapezoid terms are each an
    # (m, len(ts)) float matrix; each is dropped once spent and none outlives
    # its batch, so three batches in a row never hold 3.5 of them at once
    p, s, m = StableParams(0.5, 0.5), PowerTail(1.0, 2.0), 1000
    matrix_bytes = m * _explosion_grid(1e6, 5e-3, 1.04).size * 8
    explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=10, rng=0, batch=10)
    tracemalloc.start()
    try:
        explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=3 * m, rng=0, batch=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * matrix_bytes, peak / matrix_bytes


@pytest.mark.parametrize("p", [StableParams(0.5, 0.5), StableParams(1.0, 0.5)])
def test_explosion_batches_hold_one_matrix(p):
    # a batch's uniforms fill one (m, len(ts) - 1) buffer that every batch
    # reuses; increments, driver, sigma and trapezoid terms live in row blocks
    s, m = PowerTail(1.0, 2.0), 2000
    matrix_bytes = m * (_explosion_grid(1e6, 5e-3, 1.04).size - 1) * 8
    explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=10, rng=0, batch=10)
    tracemalloc.start()
    try:
        explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=2 * m, rng=0, batch=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix_bytes, peak / matrix_bytes


def test_explosion_batches_hold_no_matrix():
    # each batch is read from its stream block by block: no (m, len(ts) - 1)
    # buffer of uniforms or of anything else exists
    p, s, m = StableParams(0.5, 0.5), PowerTail(1.0, 2.0), 8000
    matrix_bytes = m * (_explosion_grid(1e6, 5e-3, 1.04).size - 1) * 8
    explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=10, rng=0, batch=10)
    tracemalloc.start()
    try:
        explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=m, rng=0, batch=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * matrix_bytes, peak / matrix_bytes


# ---------------------------------------------------------------------------
# spatial inversion


def test_spatial_inversion_round_trip():
    p = StableParams(1.5, 0.5)
    s = PowerTail(c=1.0, theta=2.0)
    x = sample_path(p, 2.0, 3.0, step=1e-3, rng=3)
    y = spatial_inversion(x, s)
    np.testing.assert_allclose(y.values, 1.0 / x.values, rtol=1e-14)
    back = spatial_inversion_inverse(y, s)
    np.testing.assert_allclose(back.values, x.values, rtol=1e-12)
    # the time axis round-trips through two trapezoid passes: small, not exact
    assert np.max(np.abs(back.times - x.times)) < 0.1 * x.times[-1]


def test_spatial_inversion_rejects_zero_crossing():
    path = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 2.0]), alpha=1.5)
    with pytest.raises(HitZeroError):
        spatial_inversion(path, PowerTail(c=1.0, theta=0.0))


# ---------------------------------------------------------------------------
# cross-validation against a direct Euler scheme


def test_time_change_law_matches_euler_scheme():
    # dZ = sigma(Z-) dX, alpha = 1.5 symmetric, sigma = 1 + x^2, t = 0.05.
    # Route A: time-change solver on driver paths.  Route B: Euler stepping
    # with exact-in-law stable increments.  Same law; two-sample KS must not
    # separate them at MC resolution.
    p = StableParams(1.5, 0.5)
    s = PowerTail(c=1.0, theta=2.0)
    t_end = 0.05
    n = 4000

    vals_tc = np.empty(n)
    for i in range(n):
        horizon = 0.4
        for _ in range(8):
            x = sample_path(p, 0.0, horizon, step=horizon * 1e-3, rng=100 + i)
            try:
                z = time_change_solve(x, s, horizon=t_end)
                break
            except ExhaustedPathError:
                horizon *= 4.0
        vals_tc[i] = z.values[-1]

    gen = np.random.default_rng(999)
    dt = 1e-4
    zs = np.zeros(n)
    for _ in range(int(round(t_end / dt))):
        zs += s(zs) * sample_increment(p, dt, gen, size=n)
    d, pval = stats.ks_2samp(vals_tc, zs)
    assert pval > 1e-4, (d, pval)
