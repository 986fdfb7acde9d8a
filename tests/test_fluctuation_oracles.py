"""Closed-form oracle tests: the harmonic kernel h, first-passage laws,
killed potentials, and interval exit/entry laws — checked against frozen
values, independent special-function routes, and internal identities."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from artifact import (
    DomainError,
    OutOfRangeError,
    LogPower,
    SigmaFunction,
    StableParams,
    UndecidedIntegralError,
    WrongBranchError,
    cauchy_killed_potential,
    creep_probability,
    expected_explosion_time,
    h_function,
    halfline_killed_potential,
    killed_potential_density,
    parse_sigma_spec,
)
from artifact.fluctuation_oracles import (
    exit_density_avoid_zero,
    overshoot_cdf,
    positive_exit_density,
    spectrally_positive_interval_exit,
    strip_exit_density,
)

# a QUADPACK warning marks an integral evaluated poorly; it fails the test
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")


# ---------------------------------------------------------------------------
# the harmonic kernel h


def test_h_closed_form_symmetric():
    # h(w) = |Gamma(1-alpha)|/pi * sin(pi alpha rho-hat) * w^(alpha-1), w > 0
    p = StableParams(1.5, 0.5)
    w = 2.0
    want = abs(special.gamma(1.0 - p.alpha)) / math.pi \
        * math.sin(math.pi * p.alpha * p.rho_hat) * w ** (p.alpha - 1.0)
    assert h_function(p, w).value == pytest.approx(want, rel=1e-13)
    assert h_function(p, 2.0).value == pytest.approx(1.1283791670955128, rel=1e-13)


def test_h_spectrally_negative_reduces_to_power_over_gamma():
    a = 1.5
    p = StableParams(a, 1.0 / a)
    for x in (0.25, 1.0, 7.0):
        assert h_function(p, x).value == pytest.approx(
            x ** (a - 1.0) / special.gamma(a), rel=1e-12)


def test_h_cauchy_constant_one():
    p = StableParams(1.0, 0.5)
    for x in (-3.0, 0.5, 40.0):
        assert h_function(p, x).value == pytest.approx(1.0, rel=1e-14)


def test_h_inversion_identity_spot():
    # |z|^(2(alpha-1)) h(1/z) = h(z), both signs of z
    for p in (StableParams(1.5, 0.5), StableParams(0.7, 0.6), StableParams(1.2, 0.55)):
        for z in (0.2, 3.0, -0.8, -12.0):
            lhs = abs(z) ** (2.0 * (p.alpha - 1.0)) * h_function(p, 1.0 / z).value
            assert lhs == pytest.approx(h_function(p, z).value, rel=1e-12), (p, z)


def test_h_against_mpmath_gamma():
    p = StableParams(0.7, 0.6)
    w = 1.7
    want = float(
        abs(mpmath.gamma(1 - mpmath.mpf("0.7"))) / mpmath.pi
        * mpmath.sin(mpmath.pi * mpmath.mpf("0.7") * (1 - mpmath.mpf("0.6")))
        * mpmath.mpf(w) ** (mpmath.mpf("0.7") - 1)
    )
    assert h_function(p, w).value == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# first passage below a level: overshoot law


def test_overshoot_cdf_betainc_route():
    # F(y) = I_{y/(z-L+y)}(1 - alpha rho-hat, alpha rho-hat)
    p = StableParams(1.5, 0.5)
    z, level = 2.0, 0.0
    for y in (0.01, 0.5, 3.0):
        t = y / (z - level + y)
        want = special.betainc(1.0 - p.alpha * p.rho_hat, p.alpha * p.rho_hat, t)
        assert overshoot_cdf(p, z, level, y).value == pytest.approx(want, rel=1e-12)


def test_overshoot_cdf_is_distribution():
    p = StableParams(1.5, 0.5)
    ys = np.linspace(0.0, 50.0, 200)
    vals = overshoot_cdf(p, 2.0, 0.0, ys).value
    assert vals.shape == ys.shape
    assert vals.tolist() == [overshoot_cdf(p, 2.0, 0.0, float(y)).value for y in ys]
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= 0)
    assert overshoot_cdf(p, 2.0, 0.0, 1e9).value == pytest.approx(1.0, abs=1e-4)


def test_overshoot_cdf_degenerate_branches():
    ys = np.array([-1.0, 0.0, 0.5, np.inf])
    cases = [
        (StableParams(1.5, 0.5), [0.0, 0.0, None, 1.0]),  # two-sided: F(inf) = 1
        (StableParams(1.5, 1.0 - 1.0 / 1.5), [0.0, 1.0, 1.0, 1.0]),  # creeps down: atom at 0
        (StableParams(0.5, 1.0), [0.0, 0.0, 0.0, 0.0]),  # increasing: never passes below
    ]
    for p, want in cases:
        got = overshoot_cdf(p, 2.0, 0.0, ys).value
        for y, g, w in zip(ys, got, want):
            scalar = overshoot_cdf(p, 2.0, 0.0, float(y)).value
            assert type(scalar) is float and scalar == g, (p, y)
            if w is not None:
                assert g == w, (p, y)
    with pytest.raises(DomainError):
        overshoot_cdf(StableParams(1.5, 0.5), 0.0, 0.0, ys)


def test_overshoot_cdf_translation_invariance():
    p = StableParams(1.5, 0.5)
    a = overshoot_cdf(p, 2.0, 0.0, 0.7).value
    b = overshoot_cdf(p, 5.0, 3.0, 0.7).value
    assert a == pytest.approx(b, rel=1e-14)


def test_overshoot_mpmath_high_precision():
    p = StableParams(1.2, 0.55)
    z, y = 1.5, 0.4
    t = y / (z + y)
    a_, b_ = 1.0 - p.alpha * p.rho_hat, p.alpha * p.rho_hat
    want = float(mpmath.betainc(a_, b_, 0, t, regularized=True))
    assert overshoot_cdf(p, z, 0.0, y).value == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# creep


def test_creep_probability_value_and_branch_guard():
    a = 1.5
    assert creep_probability(StableParams(a, 1.0 / a), 0.5).value == pytest.approx(
        math.sqrt(0.5), rel=1e-12)
    with pytest.raises(WrongBranchError):
        creep_probability(StableParams(1.5, 0.5), 0.5)


def _creep_by_exit_integral(alpha, x):
    """1 - sin(pi ahat)/pi x^ahat (1-x) int_1^inf (y-1)^-ahat y^-1 (y-1+x)^-1 dy,
    ahat = alpha - 1: one minus the mass of the jump exit law above 1."""
    ahat = alpha - 1.0
    ex = 1.0 / (1.0 - ahat)
    # near-edge piece [1,2] with u = (y-1)^(1-ahat), then the smooth tail
    near, _ = integrate.quad(lambda u: (1.0 + u ** ex) ** -1.0 / (u ** ex + x) * ex,
                             0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
    far, _ = integrate.quad(lambda y: (y - 1.0) ** -ahat / y / (y - 1.0 + x),
                            2.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    c = math.sin(math.pi * ahat) / math.pi * x ** ahat * (1.0 - x)
    return 1.0 - c * (near + far)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_creep_probability_matches_exit_integral(alpha):
    p = StableParams(alpha, 1.0 / alpha)
    for x in (0.01, 0.3, 0.7, 0.99):
        assert creep_probability(p, x).value == pytest.approx(
            _creep_by_exit_integral(alpha, x), abs=1e-12), x


# ---------------------------------------------------------------------------
# killed potentials


def test_killed_potential_equals_h_combination():
    # g(x, y) = h(x) + h(-y) - h(x - y): ties the compensated-kernel route
    # to the harmonic kernel with its flipped indicator conventions
    for p in (StableParams(1.5, 0.5), StableParams(1.5, 1.0 / 1.5), StableParams(1.2, 0.55)):
        h = lambda w: h_function(p, w).value
        for (x, y) in [(0.5, 1.5), (0.5, -0.7), (-1.2, 2.0), (2.0, 0.3)]:
            g = killed_potential_density(p, x, y).value
            assert g == pytest.approx(h(x) + h(-y) - h(x - y), abs=1e-13), (p, x, y)


def test_killed_potential_far_field_is_h():
    p = StableParams(1.5, 0.5)
    y = 1.3
    far = killed_potential_density(p, 1e9, y).value
    assert far == pytest.approx(h_function(p, -y).value, rel=1e-3)


def test_killed_potential_diagonal_positive_and_zero_at_origin():
    p = StableParams(1.5, 0.5)
    assert killed_potential_density(p, 1.0, 1.0).value > 0
    assert killed_potential_density(p, 0.0, 1.3).value == pytest.approx(0.0, abs=1e-14)


def test_halfline_potential_frozen_value():
    psn = StableParams(1.5, 1.0 / 1.5)
    assert halfline_killed_potential(psn, 0.5, 0.5).value == pytest.approx(
        0.7071067811865476, rel=1e-12)
    with pytest.raises(WrongBranchError):
        halfline_killed_potential(StableParams(1.5, 0.5), 0.5, 0.5)


def test_cauchy_potential_frozen_value_and_domain():
    s = parse_sigma_spec("power:c=1,theta=2")
    assert cauchy_killed_potential(s, 2.0, 1.5).value == pytest.approx(
        0.2020961287838648, rel=1e-10)
    with pytest.raises(DomainError):
        cauchy_killed_potential(s, 0.5, 1.5)
    with pytest.raises(DomainError):
        cauchy_killed_potential(s, 2.0, 0.2)


# ---------------------------------------------------------------------------
# expected explosion time


def test_expected_explosion_time_frozen_quadrature():
    p = StableParams(0.5, 0.5)
    s = parse_sigma_spec("power:c=1,theta=2")
    res = expected_explosion_time(p, s, 0.0)
    assert res.value == pytest.approx(2.958675119188628, rel=1e-9)
    assert res.abs_error_estimate < 1e-6


@pytest.mark.parametrize("rho, side", [(1.0, 1), (0.0, -1)])
def test_expected_explosion_time_one_sided_from_x0(rho, side):
    # an increasing driver (rho = 1) weights only y above x0, a decreasing
    # one only y below; h(side w) = w^(alpha-1)/Gamma(alpha) on the weighted
    # side, so E[T] = (1/Gamma(alpha)) int_0^inf sigma(x0 + side w)^-alpha
    # w^(alpha-1) dw, here with sigma(y)^-alpha = (1 + y^2)^(-1/2)
    a, x0 = 0.5, 0.3
    with mpmath.workdps(30):
        want = float(mpmath.quad(lambda w: (1 + (x0 + side * w) ** 2) ** -a * w ** (a - 1),
                                 [0, 1, mpmath.inf]) / mpmath.gamma(a))
    assert want == pytest.approx(1.9307959746848084 if side > 0 else 2.2084112282136451,
                                 rel=1e-15)
    res = expected_explosion_time(StableParams(a, rho), parse_sigma_spec("power:c=1,theta=2"), x0)
    assert res.value == pytest.approx(want, rel=1e-12)


def test_expected_explosion_time_sigma_scaling():
    # sigma -> 2 sigma scales E[T] by 2^-alpha
    p = StableParams(0.5, 0.5)
    a = expected_explosion_time(p, parse_sigma_spec("power:c=1,theta=2"), 0.0).value
    b = expected_explosion_time(p, parse_sigma_spec("power:c=2,theta=2"), 0.0).value
    assert b == pytest.approx(2.0 ** -0.5 * a, rel=1e-9)


def test_expected_explosion_time_requires_explosive_regime():
    with pytest.raises(OutOfRangeError):
        expected_explosion_time(StableParams(1.5, 0.5),
                                parse_sigma_spec("power:c=1,theta=2"), 0.0)


class _OpaqueLogPower(SigmaFunction):
    """LogPower(1, 1, 2.5) behind a class the classifier has no tail rule
    for, and with no declared tails: only the quadrature ladder is left."""

    def __init__(self):
        self._s = LogPower(1.0, 1.0, 2.5)

    def __call__(self, x):
        return self._s(x)

    def describe(self) -> str:
        return "opaque " + self._s.describe()


def test_expected_explosion_time_undecided_integral_raises():
    with pytest.raises(UndecidedIntegralError, match="cannot certify"):
        expected_explosion_time(StableParams(0.5, 0.5), _OpaqueLogPower(), 0.0)


# ---------------------------------------------------------------------------
# strip entry (transient, alpha < 1) and companion exit laws


def test_strip_entry_mass_is_entry_probability():
    p = StableParams(0.7, 0.5)
    mass, _ = integrate.quad(lambda y: strip_exit_density(p, 2.0, y).value,
                             -1.0, 1.0, points=[0.0])
    assert mass == pytest.approx(0.6205338585673466, rel=1e-8)
    assert mass < 1.0  # transience: entry into the strip is not certain


def test_strip_entry_mass_increases_toward_strip():
    p = StableParams(0.7, 0.5)

    def mass(x0):
        m, _ = integrate.quad(lambda y: strip_exit_density(p, x0, y).value,
                              -1.0, 1.0, points=[0.0])
        return m

    assert mass(1.2) > mass(2.0) > mass(5.0)


@pytest.mark.parametrize("alpha, rho", [(0.7, 0.3), (0.4, 0.8)])
@pytest.mark.parametrize("x", [1.5, 4.0])
@pytest.mark.parametrize("y", [-0.9, 0.0, 0.6])
def test_strip_entry_from_below_is_the_mirrored_driver(alpha, rho, x, y):
    # -X is stable with rho and rhohat swapped, so entry from -x at -y is
    # entry of the mirrored driver from x at y; at rho != 1/2 this pins the
    # constant of the x < -1 branch, which normalised CDFs cannot see
    got = strip_exit_density(StableParams(alpha, rho), -x, -y).value
    want = strip_exit_density(StableParams(alpha, 1.0 - rho), x, y).value
    assert got == pytest.approx(want, rel=1e-14)


def test_positive_exit_density_mass_is_two_barrier_probability():
    # integral over y > 1 equals P_x(up-exit before down-exit) = I_x(a-hat, a)
    for (al, rho, x) in [(0.7, 0.5, 0.5), (1.5, 0.5, 0.3), (1.2, 0.55, 0.6)]:
        p = StableParams(al, rho)
        m, _ = integrate.quad(lambda y: positive_exit_density(p, x, y).value,
                              1.0, np.inf)
        want = special.betainc(al * (1.0 - rho), al * rho, x)
        assert m == pytest.approx(want, rel=1e-7), (al, rho, x)


def test_exit_density_avoid_zero_mass():
    # alpha <= 1: the origin is polar, so avoiding it costs nothing and the
    # mass over y > 1 is the plain up-exit probability of (-1, 1); for
    # alpha > 1 the kill at zero strictly removes mass.
    def mass(p, x):
        m, _ = integrate.quad(lambda y: exit_density_avoid_zero(p, x, y).value,
                              1.0, np.inf)
        return m

    x = 0.4
    plain = lambda al: special.betainc(al / 2.0, al / 2.0, (1.0 + x) / 2.0)
    assert mass(StableParams(0.7, 0.5), x) == pytest.approx(plain(0.7), rel=1e-7)
    killed = mass(StableParams(1.5, 0.5), x)
    assert 0.0 < killed < plain(1.5) - 0.05


@pytest.mark.parametrize("alpha, rho", [(1.2, 0.5), (1.3, 0.45), (1.5, 0.5), (1.8, 0.55)])
@pytest.mark.parametrize("x", [0.05, 0.3, 0.7, 0.95])
def test_exit_density_avoid_zero_integral_form(alpha, rho, x):
    # f(a, ahat; x, y) - p0(x) f(a, ahat; 0, y) written out, with
    # J = int_1^{1/x} (t-1)^{a-1} (t+1)^{ahat-1} dt in p0 by tanh-sinh
    # quadrature in place of the hypergeometric closed form
    p = StableParams(alpha, rho)
    a, ahat = alpha * rho, alpha * (1.0 - rho)
    J = float(mpmath.quad(lambda t: (t - 1) ** (a - 1) * (t + 1) ** (ahat - 1),
                          [1, 1 / mpmath.mpf(x)]))
    c0 = math.sin(math.pi * a) / math.pi
    for y in (1.01, 1.5, 4.0):
        want = c0 * (1.0 + y) ** (-ahat) * (y - 1.0) ** (-a) * (
            (1.0 + x) ** ahat * (1.0 - x) ** a / (y - x)
            - (alpha - 1.0) / y * x ** (alpha - 1.0) * J)
        got = exit_density_avoid_zero(p, x, y)
        assert got.value == pytest.approx(want, rel=1e-10), y
        assert got.abs_error_estimate == 0.0


# ---------------------------------------------------------------------------
# spectrally positive interval entry: density + creep atom


def test_sp_interval_entry_total_mass_one():
    a = 1.5
    p = StableParams(a, 1.0 - 1.0 / a)
    atom = spectrally_positive_interval_exit(p, -2.0, 1.0).value
    dens, _ = integrate.quad(
        lambda y: spectrally_positive_interval_exit(p, -2.0, y).value, -1.0, 1.0)
    assert atom + dens == pytest.approx(1.0, rel=1e-8)
    assert spectrally_positive_interval_exit(p, -2.0, -1.0).value == 0.0


def test_sp_interval_entry_atom_betainc_form():
    a = 1.5
    p = StableParams(a, 1.0 - 1.0 / a)
    b = 2.0
    want = special.betainc(a - 1.0, 2.0 - a, (b - 1.0) / (b + 1.0))
    assert spectrally_positive_interval_exit(p, -b, 1.0).value == pytest.approx(
        want, rel=1e-10)


def test_sp_interval_entry_from_above_creeps():
    a = 1.5
    p = StableParams(a, 1.0 - 1.0 / a)
    assert spectrally_positive_interval_exit(p, 3.0, 1.0).value == pytest.approx(1.0)


def test_sp_interval_entry_guards():
    with pytest.raises(WrongBranchError):
        spectrally_positive_interval_exit(StableParams(1.5, 0.5), -2.0, 0.0)
    a = 1.5
    p = StableParams(a, 1.0 - 1.0 / a)
    with pytest.raises(DomainError):
        spectrally_positive_interval_exit(p, 0.5, 0.0)
