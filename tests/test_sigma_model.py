"""Coefficient-model tests: the power-tail family, log corrections, tabulated
interpolation, composite products, the point path against the 0-d numpy path,
and the spec-string parser."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import (
    Composite,
    LogPower,
    NonPositiveError,
    PowerTail,
    Tabulated,
    parse_sigma_spec,
)

# a QUADPACK warning marks an integral evaluated poorly; it fails the test
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")


def test_power_tail_values():
    s = PowerTail(c=1.0, theta=2.0)
    assert s(0.0) == 1.0
    assert s(3.0) == pytest.approx(10.0)           # 1 * (1 + 9)
    assert s(-3.0) == pytest.approx(10.0)
    s2 = PowerTail(c=2.0, theta=0.0)
    assert s2(123.0) == 2.0                         # constant branch


def test_power_tail_vectorized():
    s = PowerTail(c=1.0, theta=1.0)
    x = np.array([0.0, 1.0, -2.0])
    np.testing.assert_allclose(s(x), np.sqrt(1.0 + x ** 2))


def test_power_tail_rejects_nonpositive_scale():
    with pytest.raises(NonPositiveError):
        PowerTail(c=0.0, theta=1.0)
    with pytest.raises(NonPositiveError):
        PowerTail(c=-1.0, theta=1.0)


def test_log_power_strictly_positive_and_monotone_tail():
    s = LogPower(c=0.5, theta=1.0, q=2.0)
    xs = np.linspace(0.0, 50.0, 201)
    v = s(xs)
    assert np.all(v > 0)
    assert np.all(np.diff(v[xs > 1.0]) > 0)


def test_tabulated_exact_at_nodes_and_guards():
    xs = np.array([-2.0, 0.0, 1.0, 3.0])
    ys = np.array([4.0, 1.0, 2.0, 8.0])
    s = Tabulated(xs, ys, tail_plus=1.0, tail_minus=1.0)
    np.testing.assert_allclose(s(xs), ys)
    mid = s(0.5)
    assert 1.0 < mid < 2.0
    with pytest.raises(NonPositiveError):
        Tabulated(xs, np.array([4.0, 0.0, 2.0, 8.0]), tail_plus=1.0, tail_minus=1.0)
    with pytest.raises(ValueError, match="tail exponents"):
        Tabulated(xs, ys)
    with pytest.raises(ValueError, match="tail exponents"):
        Tabulated(xs, ys, tail_plus=1.0)
    # the grid arrays kept for the array path are not part of the value
    twin = Tabulated(tuple(xs), tuple(ys), tail_plus=1.0, tail_minus=1.0)
    assert twin == s and hash(twin) == hash(s)
    assert repr(s) == ("Tabulated(xs=(-2.0, 0.0, 1.0, 3.0), ys=(4.0, 1.0, 2.0, 8.0), "
                       "tail_plus=1.0, tail_minus=1.0)")


def test_tabulated_extrapolates_each_tail_by_its_power():
    s = Tabulated((-2.0, 0.0, 1.0, 3.0), (4.0, 1.0, 2.0, 8.0), tail_plus=2.0, tail_minus=0.5)
    assert s(6.0) == pytest.approx(8.0 * 2.0 ** 2)
    assert s(-8.0) == pytest.approx(4.0 * 4.0 ** 0.5)
    np.testing.assert_allclose(s(np.array([-8.0, 0.5, 6.0])), [8.0, 1.5, 32.0])


def test_tabulated_grid_must_straddle_zero():
    # extrapolated from an end on one side of 0, sigma would reach 0 at x = 0
    for xs in ((-3.0, -1.0), (0.0, 2.0), (1.0, 3.0), (-2.0, 0.0)):
        with pytest.raises(ValueError, match="straddle 0"):
            Tabulated(xs, (1.0, 1.0), tail_plus=2.0, tail_minus=2.0)


def test_kinks_are_a_table_s_nodes_and_a_product_s_union():
    table = Tabulated((-2.0, 0.0, 1.0, 3.0), (4.0, 1.0, 2.0, 8.0), tail_plus=2.0, tail_minus=0.5)
    other = Tabulated((-1.0, 0.0, 5.0), (1.0, 2.0, 3.0), tail_plus=1.0, tail_minus=1.0)
    assert PowerTail(c=1.0, theta=2.0).kinks() == ()
    assert LogPower(c=1.0, theta=1.0, q=2.0).kinks() == ()
    assert table.kinks() == (-2.0, 0.0, 1.0, 3.0)
    assert Composite((PowerTail(c=1.0, theta=1.0), LogPower())).kinks() == ()
    assert Composite((table, LogPower(), other)).kinks() == (-2.0, -1.0, 0.0, 1.0, 3.0, 5.0)


def test_parse_table_spec_reads_the_csv(tmp_path):
    path = tmp_path / "sigma.csv"
    path.write_text("x,sigma\n# a comment\n-1,2\n0,1\n\n2,5\n")
    s = parse_sigma_spec(f"table:{path},theta_plus=2,theta_minus=1")
    assert isinstance(s, Tabulated)
    assert s.xs == (-1.0, 0.0, 2.0) and s.ys == (2.0, 1.0, 5.0)
    assert s(4.0) == pytest.approx(20.0) and s(-3.0) == pytest.approx(6.0)
    assert s.describe() == "table:[-1,2]x3,theta_plus=2,theta_minus=1"
    with pytest.raises(ValueError, match="theta_plus and theta_minus"):
        parse_sigma_spec(f"table:{path},theta_plus=2")


def test_composite_product():
    a = PowerTail(c=2.0, theta=0.0)
    b = PowerTail(c=1.0, theta=2.0)
    s = Composite([a, b])
    assert s(3.0) == pytest.approx(2.0 * 10.0)


_GRID = np.linspace(-50.0, 50.0, 81)
_TABLE = Tabulated(tuple(_GRID), tuple(1.0 + _GRID ** 2 * (1.0 + 0.3 * np.sin(_GRID))),
                   tail_plus=2.0, tail_minus=1.5)
_KINDS = {
    "power theta>0": PowerTail(c=1.3, theta=2.0),
    "power theta<0": PowerTail(c=0.7, theta=-1.4),
    "logpower q>0": LogPower(c=0.5, theta=1.0, q=2.5),
    "logpower q<0": LogPower(c=1.0, theta=1.0, q=-1.7),
    "table": _TABLE,
    "composite": Composite((PowerTail(c=2.0, theta=0.5), LogPower(c=1.0, theta=0.3, q=1.2),
                            _TABLE)),
}


@pytest.mark.parametrize("name", list(_KINDS))
def test_point_path_is_bit_identical_to_the_0d_numpy_path(name):
    s = _KINDS[name]
    rng = np.random.default_rng(11)
    nodes = np.array(_TABLE.xs)
    xs = np.concatenate([
        rng.uniform(-70.0, 70.0, 6000),                    # inside and beyond the grid
        10.0 * rng.standard_cauchy(2000),                  # far tails
        rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-8.0, 8.0, 2000),
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        [0.0, -0.0, 1e-320, -1e-320, 1e154, -1e200],
    ])
    with np.errstate(all="ignore"):  # x * x overflows at the largest points
        got = np.array([s(float(x)) for x in xs])
        want = np.array([float(s(np.asarray(x))) for x in xs])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} of {xs.size} differ, first at x = {xs[bad[0]]!r}"
    for x in xs[::97]:
        out = s(np.float64(x))
        assert type(out) is float and type(s(float(x))) is float and out == s(float(x))


@pytest.mark.parametrize("name", list(_KINDS))
def test_point_path_overflow_and_nan_match_numpy(name):
    s = _KINDS[name]
    with np.errstate(all="ignore"):
        for x in (1e300, -1e300):
            want = float(s(np.asarray(x)))  # inf, 0 or, for inf * 0, nan
            got = s(x)  # and no OverflowError from the point path
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        if s.tail_plus is not None and s.tail_plus > 0:
            assert s(1e300) == math.inf
    assert math.isnan(s(math.nan)) and math.isnan(s(np.float64("nan")))


_SQUARE_OVERFLOW = [PowerTail(1.0, 1.0), PowerTail(1.0, -1.0), LogPower(1.0, 1.0, -1.7)]


def _exact(s, x):
    """sigma at x from its defining formula, in 50-digit mpmath."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        out = s.c * (1 + x * x) ** (mpmath.mpf(s.theta) / 2)
        if isinstance(s, LogPower):
            out *= mpmath.log(mpmath.e + x * x) ** mpmath.mpf(s.q)
        return out


@pytest.mark.parametrize("s", _SQUARE_OVERFLOW, ids=repr)
def test_sigma_is_exact_where_the_square_overflows(s):
    # beyond |x| of about 1.34e154, 1 + x * x is inf in float64, so sigma
    # reads |x|^theta and 2 log|x| there; the formula in x * x would give inf,
    # 0.0 and NaN at 1e200 for these three
    xs = [1e155, 1e200, -1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = [s(x) for x in xs]
        zero_d = [s(np.asarray(x)) for x in xs]
        array = s(np.array(xs + [0.5]))
    for x, got in zip(xs, point):
        assert got == pytest.approx(float(_exact(s, x)), rel=1e-12, abs=0.0), x
    assert np.array_equal(np.array(point).view(np.int64), np.array(zero_d).view(np.int64))
    np.testing.assert_allclose(array[:3], point, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("s", _SQUARE_OVERFLOW, ids=repr)
def test_sigma_below_the_square_overflow_keeps_its_formula_bit_for_bit(s):
    # the formula in 1 + x * x and log(e + x * x), on the array and the point
    # path, up to just below the largest |x| whose square is finite
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-12.0, 154.0, 3000),
                         [0.0, 1e154, -1.3407807929942596e154]])

    def formula(x, log):
        power = (1.0 + x * x) ** (s.theta / 2.0)
        return s.c * power if isinstance(s, PowerTail) else s.c * power * log(math.e + x * x) ** s.q

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array, points = s(xs), [s(float(x)) for x in xs]
        want_array = formula(xs, np.log)
        want_points = [formula(float(x), lambda y: float(np.log(y))) for x in xs]
    assert np.array_equal(array.view(np.int64), want_array.view(np.int64))
    assert np.array_equal(np.array(points).view(np.int64), np.array(want_points).view(np.int64))


def test_parse_power_spec():
    s = parse_sigma_spec("power:c=1,theta=2")
    assert isinstance(s, PowerTail)
    assert s(3.0) == pytest.approx(10.0)


def test_parse_spec_whitespace_and_float_forms():
    s = parse_sigma_spec("power: c=2.5, theta=0.5")
    assert isinstance(s, PowerTail)
    assert s(0.0) == pytest.approx(2.5)


def test_parse_spec_log_family():
    s = parse_sigma_spec("logpower:c=1,theta=1,q=2")
    assert isinstance(s, LogPower)
    assert s(0.0) > 0


def test_parse_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_sigma_spec("mystery:a=1")
    with pytest.raises(ValueError):
        parse_sigma_spec("power:c=1,theta=2,bogus=3")
    with pytest.raises(ValueError):
        parse_sigma_spec("")


@given(
    c=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    theta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_power_tail_always_positive(c, theta, x):
    assert PowerTail(c=c, theta=theta)(x) > 0.0


@given(
    c=st.floats(min_value=0.01, max_value=10.0),
    theta=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=25, deadline=None)
def test_parse_round_trip_matches_constructor(c, theta):
    direct = PowerTail(c=c, theta=theta)
    parsed = parse_sigma_spec(f"power:c={c!r},theta={theta!r}")
    xs = np.array([0.0, 0.7, -13.0, 400.0])
    np.testing.assert_array_equal(direct(xs), parsed(xs))
