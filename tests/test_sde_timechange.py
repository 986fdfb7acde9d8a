"""Time-change engine tests: clock construction, horizon truncation and
explosion detection on single paths, the block-wise explosion estimator, the
spatial inversion surgery, and a coarse cross-validation of the solver law
against a direct Euler scheme."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

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
from artifact.stable_core import OutOfRangeError, _keyed, _standard_draws, stream

_DEFAULTS = inspect.signature(explosion_estimate).parameters
HEAD_STEP, GROWTH = _DEFAULTS["head_step"].default, _DEFAULTS["growth"].default


def _default_grid(horizon):
    """explosion_estimate's grid at its own default head step and growth."""
    return _explosion_grid(horizon, HEAD_STEP, GROWTH)


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


@pytest.mark.parametrize("horizon", [math.nan, -1.0])
def test_time_change_rejects_a_nan_or_negative_horizon(horizon):
    x = sample_path(StableParams(1.5, 0.5), 0.0, 1.0, step=1e-2, rng=5)
    with pytest.raises(OutOfRangeError, match="horizon"):
        time_change_solve(x, PowerTail(c=1.0, theta=2.0), horizon)


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
# block-wise explosion estimator


def test_explosion_estimate_deterministic_and_plateaued():
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    e1 = explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=600, rng=0)
    e2 = explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=600, rng=0)
    np.testing.assert_array_equal(e1.samples, e2.samples)
    assert e1.plateau_fraction > 0.9
    assert e1.samples.size == 600
    flags = np.asarray(e1.flags())
    assert set(np.unique(flags)) <= {"Plateaued", "StillGrowing"}
    assert int((flags == "Plateaued").sum()) == int(e1.plateaued.sum())
    # plateaued samples sit near the known mean explosion time, not at the
    # truncation scale
    assert np.median(e1.plateaued_samples) < 100.0


def test_explosion_blocks_do_not_depend_on_n_paths():
    # block k of _ROWS paths reads the stream keyed k whatever n_paths is, so
    # a longer run starts with a shorter one's paths, bit for bit
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    short = explosion_estimate(p, s, x0=0.0, horizon=1e5, n_paths=2 * _ROWS, rng=1)
    long = explosion_estimate(p, s, x0=0.0, horizon=1e5, n_paths=3 * _ROWS + 5, rng=1)
    np.testing.assert_array_equal(long.samples[:2 * _ROWS], short.samples)
    np.testing.assert_array_equal(long.plateaued[:2 * _ROWS], short.plateaued)


class _NoSeed:
    """An rng that fails the test as soon as a stream is keyed from it."""

    def __int__(self):
        raise AssertionError("a stream was drawn before the inputs were checked")


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


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_explosion_estimate_rejects_a_non_finite_start_before_any_draw(x0):
    with pytest.raises(OutOfRangeError, match="x0"):
        explosion_estimate(StableParams(0.5, 0.5), PowerTail(1.0, 2.0), x0=x0,
                           horizon=1e3, n_paths=10, rng=_NoSeed())


def _assert_generator_read_in_turn(alpha, bits):
    # a Generator is one sequential stream: each block reads its uniforms,
    # then its exponentials, where the last block stopped
    p, s = StableParams(alpha, 0.5), PowerTail(1.0, 2.0)
    est = explosion_estimate(p, s, x0=0.0, horizon=1e3, n_paths=150,
                             rng=np.random.Generator(bits(3)))
    samples, flags = _explosion_reference(p, s, 0.0, 1e3, 150, np.random.Generator(bits(3)))
    np.testing.assert_array_equal(est.samples, samples)
    np.testing.assert_array_equal(est.plateaued, flags)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_explosion_estimate_reads_a_philox_generator_in_turn(alpha):
    _assert_generator_read_in_turn(alpha, np.random.Philox)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_explosion_estimate_reads_a_pcg64_generator_in_turn(alpha):
    _assert_generator_read_in_turn(alpha, np.random.PCG64)


def test_explosion_plateau_flags_match_time_change_solve():
    # one plateau rule: a driver of the estimator is flagged exactly when
    # time_change_solve on the same grid reports it exploded
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    n, horizon = 500, 1e3
    est = explosion_estimate(p, s, x0=0.0, horizon=horizon, n_paths=n, rng=0)
    ts = _default_grid(horizon)
    dts = np.diff(ts)
    incs = np.concatenate([sample_increments_matrix(p, dts, min(_ROWS, n - first), stream(0, k))
                           for k, first in enumerate(range(0, n, _ROWS))])
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


def _explosion_reference(p, s, x0, horizon, n_paths, seed):
    """(samples, plateaued) of explosion_estimate written with one temporary
    per operation and nothing done in place; seed may be a Generator."""
    ts = _default_grid(horizon)
    dts = np.diff(ts)
    k = int(np.searchsorted(ts, horizon / 10.0))
    samples, flags = [], []
    for block, first in enumerate(range(0, n_paths, _ROWS)):
        m = min(_ROWS, n_paths - first)
        draws = _standard_draws(p, _keyed(seed, block), m * dts.size).reshape(m, dts.size)
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
    est = explosion_estimate(p, s, x0=x0, horizon=horizon, n_paths=300, rng=0)
    samples, flags = _explosion_reference(p, s, x0, horizon, 300, 0)
    np.testing.assert_array_equal(est.samples, samples)
    np.testing.assert_array_equal(est.plateaued, flags)


@pytest.mark.parametrize("p, x0, horizon, n", [
    (StableParams(1.0, 0.5), 0.0, 1e3, 300),  # alpha = 1 draws no exponentials
    (StableParams(0.5, 0.5), 0.0, 1e6, 4 * _ROWS + 1),  # a last block of one path
    (StableParams(1.5, 0.4), 0.2, 1e2, _ROWS // 2 - 1),  # fewer paths than one block
    # several blocks with a short last block
    (StableParams(0.5, 0.5), 0.0, 1e6, 2 * (3 * _ROWS + 5)),
])
def test_explosion_row_blocks_equal_the_unfused_reference(p, x0, horizon, n):
    s = PowerTail(1.0, 2.0)
    est = explosion_estimate(p, s, x0=x0, horizon=horizon, n_paths=n, rng=0)
    samples, flags = _explosion_reference(p, s, x0, horizon, n, 0)
    np.testing.assert_array_equal(est.samples, samples)
    np.testing.assert_array_equal(est.plateaued, flags)


@pytest.mark.parametrize("p, theta, x0", [
    (StableParams(0.5, 0.5), 2.0, 0.0),
    (StableParams(0.7, 0.3), 2.0, 1.5),
])
def test_default_head_step_on_common_paths_of_a_tenfold_finer_head(p, theta, x0):
    # a paired refinement: each path is drawn on a head ten times finer than
    # the default and its trapezoid clock summed on every node and on every
    # 10th head node, which is the default grid.  On 20,000 paths the
    # relative mean difference read at most 6.4e-5 and the difference sd
    # 0.6 % of the path sd; the bounds below are fixed at about 8x and 3x that
    s, n, horizon = PowerTail(1.0, theta), 4000, 1e6
    fine = _explosion_grid(horizon, HEAD_STEP / 10, GROWTH)
    n_head = int(np.sum(fine < 2.0))
    coarse = np.r_[np.arange(0, n_head, 10), np.arange(n_head, fine.size)]
    np.testing.assert_allclose(fine[coarse], _default_grid(horizon), rtol=0, atol=1e-12)
    fine_a, coarse_a = [], []
    for k in range(n // 1000):
        incs = sample_increments_matrix(p, np.diff(fine), 1000, stream(11, k))
        x = np.concatenate((np.full((1000, 1), x0), x0 + np.cumsum(incs, axis=1)), axis=1)
        f = s(x) ** (-p.alpha)
        fine_a.append(trapezoid(f, fine, axis=1))
        coarse_a.append(trapezoid(f[:, coarse], fine[coarse], axis=1))
    fine_a, coarse_a = np.concatenate(fine_a), np.concatenate(coarse_a)
    diff = coarse_a - fine_a
    assert abs(diff.mean() / fine_a.mean()) < 5e-4
    assert diff.std() / fine_a.std() < 0.02


def test_explosion_batches_hold_at_most_three_matrices():
    # increments, driver, sigma, integrand and trapezoid terms are each an
    # (m, len(ts)) float matrix; each is dropped once spent and none outlives
    # its block, so 3 m paths in a row never hold 3.5 of them at once
    p, s, m = StableParams(0.5, 0.5), PowerTail(1.0, 2.0), 1000
    matrix_bytes = m * _default_grid(1e6).size * 8
    explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=10, rng=0)
    tracemalloc.start()
    try:
        explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=3 * m, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * matrix_bytes, peak / matrix_bytes


@pytest.mark.parametrize("p", [StableParams(0.5, 0.5), StableParams(1.0, 0.5)])
def test_explosion_batches_hold_one_matrix(p):
    # nothing of size (m, len(ts) - 1) is held; increments, driver, sigma
    # and trapezoid terms live in row blocks
    s, m = PowerTail(1.0, 2.0), 2000
    matrix_bytes = m * (_default_grid(1e6).size - 1) * 8
    explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=10, rng=0)
    tracemalloc.start()
    try:
        explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=2 * m, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix_bytes, peak / matrix_bytes


def test_explosion_batches_hold_no_matrix():
    # each block of _ROWS paths is drawn from its own stream: no
    # (m, len(ts) - 1) buffer of uniforms or of anything else exists
    p, s, m = StableParams(0.5, 0.5), PowerTail(1.0, 2.0), 8000
    matrix_bytes = m * (_default_grid(1e6).size - 1) * 8
    explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=10, rng=0)
    tracemalloc.start()
    try:
        explosion_estimate(p, s, x0=0.0, horizon=1e6, n_paths=m, rng=0)
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
