"""Driver-core tests: parameter admissibility, the (alpha, rho) sampler
against an independent implementation, characteristic-exponent conventions,
RNG stream discipline, and Path CSV round trips."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from artifact import (
    InconsistentRhoError,
    OutOfRangeError,
    Path,
    Sidedness,
    StableParams,
    char_exponent,
    levy_density,
    sample_increment,
    sample_interval_exit,
    sample_path,
    sample_path_at,
    stream,
)
from artifact.stable_core import _draws, _standard_draws, _upward_exit_probability


# ---------------------------------------------------------------------------
# parameter admissibility


def test_params_basic_attributes():
    p = StableParams(1.5, 0.5)
    assert p.alpha == 1.5 and p.rho == 0.5
    assert p.rho_hat == pytest.approx(0.5)
    assert p.theta == pytest.approx(0.0)
    assert p.sidedness is Sidedness.TWO_SIDED


def test_params_alpha_range_enforced():
    for bad in (0.0, -0.3, 2.0, 2.4, math.inf, math.nan):
        with pytest.raises(OutOfRangeError):
            StableParams(bad, 0.5)


def test_params_cauchy_rho_pinned():
    StableParams(1.0, 0.5)
    with pytest.raises(InconsistentRhoError):
        StableParams(1.0, 0.6)


def test_params_rho_window_above_one():
    # alpha > 1 confines rho to [1 - 1/alpha, 1/alpha]
    a = 1.5
    StableParams(a, 1.0 / a)        # spectrally negative edge
    StableParams(a, 1.0 - 1.0 / a)  # spectrally positive edge
    with pytest.raises(InconsistentRhoError):
        StableParams(a, 0.75)
    with pytest.raises(InconsistentRhoError):
        StableParams(a, 0.25)


def test_params_monotone_branches_below_one():
    up = StableParams(0.5, 1.0)
    dn = StableParams(0.5, 0.0)
    assert up.is_monotone and dn.is_monotone
    assert up.sidedness is Sidedness.SPECTRALLY_POSITIVE
    assert dn.sidedness is Sidedness.SPECTRALLY_NEGATIVE
    assert not StableParams(0.5, 0.5).is_monotone


# ---------------------------------------------------------------------------
# sampler law: cross-check against scipy's independent S1 implementation
#
# With theta = pi*alpha*(1/2 - rho), the (alpha, rho) normalization matches
# scipy's levy_stable S1 with beta = -tan(theta)/tan(pi*alpha/2) and
# scale = cos(theta)^(1/alpha).


def _scipy_equivalent(p: StableParams):
    beta = -math.tan(p.theta) / math.tan(math.pi * p.alpha / 2.0)
    scale = math.cos(p.theta) ** (1.0 / p.alpha)
    return stats.levy_stable(alpha=p.alpha, beta=float(np.clip(beta, -1, 1)),
                             loc=0.0, scale=scale)


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.5), (0.7, 0.5), (1.5, 1.0 / 1.5), (1.2, 0.55)])
def test_unit_increment_matches_scipy_law(alpha, rho):
    p = StableParams(alpha, rho)
    n = 60_000
    ours = sample_increment(p, 1.0, rng=11, size=n)
    ref = _scipy_equivalent(p).rvs(size=n, random_state=np.random.default_rng(1234))
    d, pval = stats.ks_2samp(ours, ref)
    assert pval > 1e-4, (alpha, rho, d, pval)


def test_cauchy_branch_matches_scipy_cauchy():
    n = 20_000
    x = sample_increment(StableParams(1.0, 0.5), 1.0, rng=5, size=n)
    d, _ = stats.kstest(x, stats.cauchy.cdf)
    assert d <= 1.628 / math.sqrt(n), d


@pytest.mark.parametrize("alpha, rho, far", [(1.5, 0.5, 50.0), (0.7, 0.3, 1000.0)])
def test_levy_density_tail_mass_and_sampler_tail(alpha, rho, far):
    # Pi(x, inf) = Gamma(alpha) sin(pi alpha rho)/pi x^-alpha, and P(X_1 > x)
    # ~ Pi(x, inf) as x -> inf, with a relative correction of order x^-alpha:
    # at `far` it is under a quarter of the standard error of the count
    p = StableParams(alpha, rho)
    tail = lambda x, r: math.gamma(alpha) * math.sin(math.pi * alpha * r) / math.pi * x ** -alpha
    for x in (0.5, 2.0, 40.0):
        up, _ = integrate.quad(lambda y: levy_density(p, y), x, np.inf)
        down, _ = integrate.quad(lambda y: levy_density(p, -y), x, np.inf)
        assert up == pytest.approx(tail(x, rho), rel=1e-6)
        assert down == pytest.approx(tail(x, 1.0 - rho), rel=1e-6)
    n = 1_000_000
    hits = np.sum(sample_increment(p, 1.0, rng=6, size=n) > far)
    want = tail(far, rho)
    assert abs(hits / n - want) <= 4.0 * math.sqrt(want * (1.0 - want) / n), (hits, want * n)


@pytest.mark.parametrize("alpha", [0.5, 1.001, 1.3, 1.999])
def test_levy_density_is_zero_on_the_side_without_jumps(alpha):
    # at alpha > 1 the jumpless side has alpha rho = 1 (or alpha rhohat = 1),
    # where sin(pi) would leave a rounding error of either sign
    up, down = (1.0, 0.0) if alpha < 1 else (1.0 - 1.0 / alpha, 1.0 / alpha)
    for rho, jumpless, other in ((up, -1.0, 1.0), (down, 1.0, -1.0)):
        p = StableParams(alpha, rho)
        assert levy_density(p, jumpless * np.array([0.5, 1.0, 7.0])).tolist() == [0.0] * 3
        assert levy_density(p, other) > 0.0
    two = StableParams(alpha, 0.5)
    assert levy_density(two, 1.0) == (
        math.gamma(1.0 + alpha) / math.pi * math.sin(math.pi * alpha * 0.5))


def _extreme_cases():
    for alpha in (0.05, 0.999, 1.001, 1.999):
        ends = (1.0, 0.0) if alpha < 1 else (1.0 - 1.0 / alpha, 1.0 / alpha)
        for rho in (0.5,) + ends:
            yield alpha, rho


@pytest.mark.parametrize("alpha, rho", list(_extreme_cases()))
def test_sampler_at_the_extremes_is_finite_and_in_law(alpha, rho):
    # 10^6 draws of X_1 near alpha = 0, 1 and 2, two-sided and at both
    # one-sided ends.  On a side with jumps, the cut y is where the Levy tail
    # Pi(y, inf) = pi(1) y^-alpha / alpha expects 1,000 draws; P(X_1 > y)
    # matches it as a binomial once the next term of the tail's expansion,
    # Gamma(2 alpha) cos(pi alpha rho) / Gamma(alpha) y^-alpha relative to the
    # first, is below 1 %.  Where the jump weight is near 0 (alpha = 0.999
    # and 1.001 one-sided, alpha = 1.999) that cut lies in the bulk at 10^6
    # draws, so only finiteness and the jumpless side are checked there.
    p = StableParams(alpha, rho)
    n, expected = 1_000_000, 1000.0
    x = sample_increment(p, 1.0, rng=17, size=n)
    assert np.all(np.isfinite(x))
    cuts = {}
    for sign, r in ((1.0, rho), (-1.0, 1.0 - rho)):
        weight = levy_density(p, sign)
        if weight == 0.0:
            continue
        y = (n * weight / (alpha * expected)) ** (1.0 / alpha)
        cuts[sign] = y
        second = math.gamma(2 * alpha) * math.cos(math.pi * alpha * r) / math.gamma(alpha)
        if abs(second) * y ** -alpha <= 0.01:
            hits = int(np.sum(sign * x > y))
            assert abs(hits - expected) <= 4.0 * math.sqrt(expected), (sign, y, hits)
    for sign in (1.0, -1.0):
        if sign in cuts:
            continue
        # no jumps on this side: below alpha = 1 no draw at all; above it
        # the tail is lighter than exp(-c |x|^2), under 1e-12 beyond 10
        cut = 0.0 if alpha < 1 else max(cuts[-sign], 10.0)
        assert not np.any(sign * x > cut), (sign, cut, float(np.max(sign * x)))


def test_subordinator_branch_is_positive_and_kanter_laplace():
    # rho = 1, alpha < 1: one-sided increasing.  In this normalization
    # Psi(z) = z^alpha e^{-i pi alpha/2} for z > 0, which continues to the
    # Laplace transform E exp(-lam X_1) = exp(-lam^alpha).
    p = StableParams(0.5, 1.0)
    x = sample_increment(p, 1.0, rng=5, size=200_000)
    assert np.all(x > 0)
    for lam in (0.5, 1.0, 2.0):
        emp = np.mean(np.exp(-lam * x))
        want = math.exp(-lam ** p.alpha)
        se = np.std(np.exp(-lam * x)) / math.sqrt(x.size)
        assert abs(emp - want) < 5 * se + 1e-4, (lam, emp, want)


def test_decreasing_branch_is_negative():
    x = sample_increment(StableParams(0.5, 0.0), 1.0, rng=5, size=10_000)
    assert np.all(x < 0)


def test_increment_scaling_self_similarity():
    # X_dt =law dt^(1/alpha) X_1: same seed, dt factored out exactly
    p = StableParams(1.3, 0.5)
    a = sample_increment(p, 1.0, rng=42, size=5000)
    b = sample_increment(p, 16.0, rng=42, size=5000)
    np.testing.assert_allclose(b, 16.0 ** (1.0 / p.alpha) * a, rtol=1e-12)


def test_char_exponent_matches_empirical_cf():
    p = StableParams(1.5, 0.6)
    x = sample_increment(p, 1.0, rng=3, size=400_000)
    for z in (0.4, 1.0, -0.7):
        emp = np.mean(np.exp(1j * z * x))
        want = np.exp(-char_exponent(p, z))
        assert abs(emp - want) < 0.01, (z, emp, want)


def test_char_exponent_closed_form_and_symmetry():
    p = StableParams(1.5, 0.6)
    z = 2.0
    want = z ** p.alpha * np.exp(1j * p.theta)
    assert char_exponent(p, z) == pytest.approx(want, rel=1e-13)
    # Hermitian symmetry: conj at -z
    assert char_exponent(p, -z) == pytest.approx(np.conj(char_exponent(p, z)), rel=1e-13)
    assert char_exponent(p, 0.0) == 0.0


# ---------------------------------------------------------------------------
# the blocked CMS kernel and the step check


def _cms_expression(p, gen, n):
    """Chambers–Mallows–Stuck written as one numpy expression with libm's sine
    and cosine, a temporary per operation: the reference for the kernel."""
    u = gen.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    if p.alpha == 1.0:
        return np.tan(u)
    w = gen.standard_exponential(size=n)
    a, th = p.alpha, p.theta
    s = np.sin(a * u - th) / np.cos(u) ** (1.0 / a)
    t = (np.cos((1.0 - a) * u + th) / w) ** ((1.0 - a) / a)
    return s * t


# alpha 0.5 takes numpy's power fast path for (1-alpha)/alpha = 1, alpha 1 is
# tan(U); then the symmetric alpha > 1 cases and the one-sided endpoints
_KERNEL_CASES = [
    (0.5, 0.5), (1.0, 0.5), (1.2, 0.5), (1.5, 0.5), (1.9, 0.5), (0.7, 0.3),
    (0.5, 1.0), (0.5, 0.0), (1.5, 1.0 / 1.5), (1.5, 1.0 - 1.0 / 1.5),
]


@pytest.mark.parametrize("alpha, rho", _KERNEL_CASES)
def test_standard_draws_match_the_cms_expression(alpha, rho):
    # the half-angle tangents agree with libm's sine and cosine to about
    # 1e-11 relative; 10^5 draws span twelve full blocks and a partial one
    p = StableParams(alpha, rho)
    for n in (1, 7, 4099, 100_000):
        draws = _standard_draws(p, stream(3, n), n)
        np.testing.assert_allclose(draws, _cms_expression(p, stream(3, n), n), rtol=1e-9)
        assert draws.flags.owndata and draws.flags.writeable
    # the scaling by dt^(1/alpha), in place, gives the product it replaced
    dt = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    np.testing.assert_array_equal(
        sample_increment(p, dt, stream(4)),
        dt ** (1.0 / alpha) * _standard_draws(p, stream(4), 12).reshape(3, 4))
    np.testing.assert_array_equal(
        sample_increment(p, 0.3, stream(5), size=50),
        np.asarray(0.3) ** (1.0 / alpha) * _standard_draws(p, stream(5), 50))


class _FixedDraws:
    """A generator stand-in that hands the kernel chosen u and w = 0.7."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, low, high, size):
        return self.u.copy()

    def standard_exponential(self, size):
        return np.full(size, 0.7)


def _pole_hits(p):
    """The u in [-fl(pi/2), fl(pi/2)] within 64 ulps of the real solution at
    which (1-a) u + theta, in floats, is exactly +-fl(pi/2)."""
    a, th, hp = p.alpha, p.theta, math.pi / 2.0
    hits = []
    for target in (hp, -hp):
        lo = hi = (target - th) / (1.0 - a)
        for _ in range(64):
            hits += [u for u in (lo, hi) if abs(u) <= hp and u * (1.0 - a) + th == target]
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return sorted(set(hits))


@pytest.mark.parametrize("alpha, rho", _KERNEL_CASES + [
    (0.05, 1.0), (0.05, 0.0), (0.7, 0.0), (0.999, 1.0), (1.2, 1.0 / 1.2)])
def test_standard_draws_at_the_poles_of_their_cosines(alpha, rho):
    # u = +-fl(pi/2) puts cos(u) at its zero; on a one-sided driver some u
    # put (1-a) u + theta there too, and may round it just past (alpha 1.2,
    # rho 1/1.2 at u = fl(pi/2)).  No negative base may reach a fractional
    # power, and a monotone driver's draws keep their sign.
    p = StableParams(alpha, rho)
    hits = [] if p.sidedness is Sidedness.TWO_SIDED else _pole_hits(p)
    # at alpha 1.5 the float sums straddle +-fl(pi/2) without landing on it
    assert hits or p.sidedness is Sidedness.TWO_SIDED or alpha == 1.5
    u = [-math.pi / 2.0, math.pi / 2.0] + hits
    with np.errstate(invalid="raise"):
        x = _standard_draws(p, _FixedDraws(u), len(u))
    assert not np.any(np.isnan(x))
    if p.is_monotone:
        assert np.all(x >= 0.0) if rho == 1.0 else np.all(x <= 0.0)


@pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_sample_increment_rejects_negative_and_non_finite_steps(bad):
    p = StableParams(1.5, 0.5)
    with pytest.raises(OutOfRangeError):
        sample_increment(p, bad, rng=0)
    with pytest.raises(OutOfRangeError):
        sample_increment(p, np.array([0.1, bad, 0.2]), rng=0)


def test_sample_increment_accepts_empty_and_negative_zero_steps():
    p = StableParams(1.5, 0.5)
    assert sample_increment(p, np.empty(0), rng=0).shape == (0,)
    assert sample_increment(p, np.empty((0, 3)), rng=0).shape == (0, 3)
    assert sample_increment(p, -0.0, rng=0) == 0.0
    moves = sample_increment(p, np.array([-0.0, 0.0, 1.0]), rng=0)
    assert moves[0] == 0.0 and moves[1] == 0.0 and moves[2] != 0.0


# ---------------------------------------------------------------------------
# first exit from (-1, 1) started at 0


def _ks_on_float_grid(x, cdf) -> float:
    """KS distance that lets each draw sit one ulp from the real it rounds:
    the mass at or below a sample value v may reach cdf(next float), and the
    mass below v may fall to cdf(previous float).  Some laws here put a few
    per cent of their mass within an ulp of 1 (Beta(alpha/2, 1 - alpha/2)
    at alpha near 2, Rogozin's overshoot at alpha rho near 1); the plain
    statistic would read that atom as a gap."""
    x = np.sort(x)
    v = np.unique(x)
    at = np.searchsorted(x, v, "right") / x.size
    below = np.searchsorted(x, v, "left") / x.size
    return float(max(np.max(at - cdf(np.nextafter(v, np.inf))),
                     np.max(cdf(np.nextafter(v, -np.inf)) - below)))


@pytest.mark.parametrize("alpha", [0.05, 1.0, 1.5, 1.999])
def test_symmetric_interval_exit_is_blumenthal_getoor_ray(alpha):
    n = 20_000
    y = sample_interval_exit(StableParams(alpha, 0.5), 41, n)
    assert np.all(np.isfinite(y)) and np.all(np.abs(y) >= 1.0)
    d = _ks_on_float_grid(1.0 / y ** 2, stats.beta(alpha / 2.0, 1.0 - alpha / 2.0).cdf)
    assert d <= 1.628 / math.sqrt(n), d
    assert abs(np.sum(y > 0) - n / 2.0) <= 4.0 * math.sqrt(n) / 2.0


def _rogozin_side_mass(alpha, a):
    """Mass of Rogozin's exit density sin(pi a)/pi (y-1)^-a (y+1)^(a-alpha)/y
    above 1 when alpha rho = a, by quadrature in u = 1/y, where it reads
    sin(pi a)/pi u^(alpha-1) (1-u)^-a (1+u)^(a-alpha)."""
    val, _ = integrate.quad(lambda u: (1.0 + u) ** (a - alpha), 0.0, 1.0,
                            weight="alg", wvar=(alpha - 1.0, -a), epsabs=0.0, epsrel=1e-13)
    return math.sin(math.pi * a) / math.pi * val


def _rogozin_side_cdf(alpha, a):
    """CDF of the exit position y > 1 given an upward exit, when alpha rho = a.
    In t = (y-1)/(y+1) the density is proportional to t^-a (1-t)^(alpha-1)
    / (1+t); expanding 1/(1+t) = sum_k (1-t)^k / 2^(k+1) turns the CDF into a
    sum of incomplete beta functions, exact near y = 1, where a close to 1
    puts a fifth of the mass within 1e-9 of 1."""
    k = np.arange(60.0)[:, None]
    w = 0.5 ** (k + 1.0) * special.beta(1.0 - a, alpha + k)
    t = lambda y: np.clip((y - 1.0) / (y + 1.0), 0.0, 1.0)
    return lambda y: np.sum(w * special.betainc(1.0 - a, alpha + k, t(y)), axis=0) / np.sum(w)


@pytest.mark.parametrize("alpha, rho", [(1.5, 0.6), (1.2, 0.7), (0.7, 0.3)])
def test_asymmetric_interval_exit_is_rogozin(alpha, rho):
    p = StableParams(alpha, rho)
    a_up, a_down = alpha * rho, alpha * (1.0 - rho)
    up, down = _rogozin_side_mass(alpha, a_up), _rogozin_side_mass(alpha, a_down)
    p_up = _upward_exit_probability(p)
    assert p_up == pytest.approx(up, abs=1e-8)
    assert up + down == pytest.approx(1.0, abs=1e-8)
    n = 20_000
    y = sample_interval_exit(p, 43, n)
    assert np.all(np.isfinite(y)) and np.all(np.abs(y) >= 1.0)
    assert abs(np.sum(y > 0) - n * p_up) <= 4.0 * math.sqrt(n * p_up * (1.0 - p_up))
    for side, a in ((y[y > 0], a_up), (-y[y < 0], a_down)):
        assert _ks_on_float_grid(side, _rogozin_side_cdf(alpha, a)) <= 1.628 / math.sqrt(side.size)


@pytest.mark.parametrize("alpha, rho", [(1.5, 1.0 / 1.5), (1.5, 1.0 - 1.0 / 1.5),
                                        (0.5, 1.0), (0.5, 0.0)])
def test_interval_exit_refuses_one_sided_drivers(alpha, rho):
    with pytest.raises(OutOfRangeError, match="two-sided"):
        sample_interval_exit(StableParams(alpha, rho), 0, 10)


def test_interval_exit_deterministic_in_seed():
    p = StableParams(1.3, 0.6)
    np.testing.assert_array_equal(sample_interval_exit(p, 8, 500),
                                  sample_interval_exit(p, 8, 500))
    assert not np.array_equal(sample_interval_exit(p, 8, 500), sample_interval_exit(p, 9, 500))


# ---------------------------------------------------------------------------
# RNG streams


def test_stream_reproducible_and_keyed():
    a = stream(7, 1).standard_normal(4)
    b = stream(7, 1).standard_normal(4)
    c = stream(7, 2).standard_normal(4)
    d = stream(8, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_draws_from_cursors_are_each_streams_own(alpha):
    # (stream, n) sources on distinct streams concatenate their own draws
    p, n = StableParams(alpha, 0.5), 1000
    whole = _standard_draws(p, stream(3, 1), n)
    other = _standard_draws(p, stream(3, 2), 7)
    np.testing.assert_array_equal(_draws(p, [(stream(3, 1), n), (stream(3, 2), 7)]),
                                  np.concatenate((whole, other)))


def test_sample_path_deterministic_in_seed():
    p = StableParams(1.5, 0.5)
    x1 = sample_path(p, 1.0, 2.0, step=1e-2, rng=9)
    x2 = sample_path(p, 1.0, 2.0, step=1e-2, rng=9)
    np.testing.assert_array_equal(x1.values, x2.values)
    assert x1.values[0] == 1.0
    assert x1.times[0] == 0.0 and x1.times[-1] == pytest.approx(2.0)


def test_sample_path_at_arbitrary_grid():
    p = StableParams(0.8, 0.5)
    ts = np.array([0.0, 0.5, 0.6, 2.0, 10.0])
    x = sample_path_at(p, -1.0, ts, rng=2)
    np.testing.assert_array_equal(x.times, ts)
    assert x.values[0] == -1.0
    assert np.all(np.isfinite(x.values))


def test_sample_path_rejects_bad_grid():
    p = StableParams(0.8, 0.5)
    with pytest.raises(OutOfRangeError):
        sample_path(p, 0.0, -1.0)
    with pytest.raises((ValueError, OutOfRangeError)):
        sample_path_at(p, 0.0, np.array([0.0, 2.0, 1.0]), rng=0)


# ---------------------------------------------------------------------------
# Path container + CSV round trips


def test_path_invariants_enforced():
    with pytest.raises(ValueError):
        Path(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Path(np.array([0.0, 1.0]), np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Path(np.array([1.0, 0.5]), np.array([1.0, 2.0]))


def test_path_csv_round_trip_plain():
    p = StableParams(1.5, 0.5)
    x = sample_path(p, 1.0, 2.0, step=1e-2, rng=5)
    buf = io.StringIO()
    x.to_csv(buf)
    y = Path.from_csv(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(x.times, y.times)
    np.testing.assert_array_equal(x.values, y.values)
    assert (y.alpha, y.rho, y.seed, y.step) == (1.5, 0.5, 5, 1e-2)
    assert y.killed_at is None and y.meta == {}


def test_path_csv_round_trip_killed_and_meta_numpy_scalars():
    # numpy scalars in every slot: the writer must emit plain numbers
    t = np.linspace(0.0, 1.0, 7)
    v = np.sin(t)
    x = Path(t, v, alpha=np.float64(0.5), rho=0.5, seed=3, step=None,
             killed_at=np.float64(1.0), meta={"transform": "time_change", "exploded": True})
    text = x.to_csv()
    assert "np.float64" not in text
    y = Path.from_csv(io.StringIO(text))
    np.testing.assert_array_equal(y.times, x.times)
    np.testing.assert_array_equal(y.values, x.values)
    assert y.killed_at == 1.0
    assert y.meta == {"transform": "time_change", "exploded": True}


def test_path_csv_full_float_precision():
    t = np.array([0.0, 1.0 / 3.0])
    v = np.array([math.pi, -math.e])
    y = Path.from_csv(io.StringIO(Path(t, v).to_csv()))
    np.testing.assert_array_equal(y.times, t)
    np.testing.assert_array_equal(y.values, v)


def test_path_rejects_samples_beyond_kill_time():
    with pytest.raises(ValueError):
        Path(np.array([0.0, 2.0]), np.array([0.0, 1.0]), killed_at=1.0)


@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_path_csv_round_trip_property(n, seed):
    gen = np.random.default_rng(seed)
    t = np.sort(gen.uniform(0.0, 10.0, size=n))
    v = gen.standard_normal(n) * 10.0 ** gen.integers(-8, 8)
    x = Path(t, v)
    y = Path.from_csv(io.StringIO(x.to_csv()))
    np.testing.assert_array_equal(y.times, x.times)
    np.testing.assert_array_equal(y.values, x.values)


def test_path_with_values_and_len():
    x = Path(np.array([0.0, 1.0]), np.array([2.0, 3.0]), alpha=0.9)
    y = x.with_values(np.array([5.0, 6.0]))
    assert len(y) == 2 and y.alpha == 0.9
    np.testing.assert_array_equal(y.values, [5.0, 6.0])
    np.testing.assert_array_equal(x.values, [2.0, 3.0])
