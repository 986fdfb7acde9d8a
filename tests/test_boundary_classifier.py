"""Classifier tests: integral finiteness verdicts by both evaluation routes,
the explosion/entrance decision maps across driver regimes, the critical
power-tail exponent, and the report schema."""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning

from artifact import (
    Composite,
    Domain,
    LogPower,
    OutOfRangeError,
    PowerTail,
    SigmaFunction,
    StableParams,
    Tabulated,
    classify,
    integral_I,
    integral_log,
    parse_sigma_spec,
)
from artifact import sigma_model
from artifact.boundary_classifier import _REACH
from artifact.fluctuation_oracles import expected_explosion_time

TICK, CROSS = "tick", "cross"


# ---------------------------------------------------------------------------
# the finiteness integrals, analytic route vs adaptive quadrature


# (domain, theta, alpha); alpha "log" is the alpha = 1 functional
# int sigma^-1 log|x| dx, which integral_log takes over the full line only
_ROUTE_CASES = [
    (domain, theta, alpha)
    for domain in (Domain.POS_HALF, Domain.NEG_HALF, Domain.FULL_LINE)
    for theta in (0.5, 2.0)
    for alpha in (0.5, 1.3, 1.8)
] + [(Domain.FULL_LINE, theta, "log") for theta in (0.5, 2.0)]


@pytest.mark.parametrize("domain,theta,alpha", _ROUTE_CASES)
def test_integral_routes_agree(alpha, theta, domain):
    s = PowerTail(c=1.0, theta=theta)
    if alpha == "log":
        integral = lambda method: integral_log(s, method=method)
    else:
        integral = lambda method: integral_I(s, alpha, domain, method=method)
    a = integral("analytic_tail")
    q = integral("adaptive_quadrature")
    assert a.status == q.status, (a, q)
    # integrand tail |x|^(alpha-1-alpha*theta), or |x|^-theta log|x| for the
    # log functional: finite iff theta > 1
    assert a.status == ("finite" if theta > 1.0 else "infinite")
    if a.status == "finite":
        assert q.value == pytest.approx(a.value, rel=1e-6)


def test_integral_critical_exponent_divergent():
    # theta = 1 puts the tail exactly at |x|^(-1): divergent for every alpha.
    # The analytic route decides it; the numerical ladder sees octave sums
    # with ratio -> 1 and may only honestly abstain -- it must never claim
    # finiteness.
    s = PowerTail(c=1.0, theta=1.0)
    for alpha in (0.5, 1.5):
        v = integral_I(s, alpha, Domain.FULL_LINE, method="analytic_tail")
        assert v.status == "infinite", (alpha, v)
        q = integral_I(s, alpha, Domain.FULL_LINE, method="adaptive_quadrature")
        assert q.status in ("infinite", "undecided"), (alpha, q)


def test_integral_log_variant_cauchy_case():
    # sigma^-1 log|x| has tail |x|^(-theta) log|x|: finite iff theta > 1
    assert integral_log(PowerTail(c=1.0, theta=2.0)).status == "finite"
    assert integral_log(PowerTail(c=1.0, theta=1.0)).status == "infinite"
    assert integral_log(PowerTail(c=1.0, theta=0.5)).status == "infinite"


class _NoTails(SigmaFunction):
    """A sigma without declared tails: only the quadrature ladder can judge it."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x):
        return self.inner(x)

    def describe(self):
        return "no-tails:" + self.inner.describe()


def test_integral_log_honours_forced_route_and_rejects_unknown_method():
    s = _NoTails(PowerTail(c=1.0, theta=2.0))
    for v in (integral_log(s, method="analytic_tail"),
              integral_I(s, 0.5, Domain.FULL_LINE, method="analytic_tail")):
        assert v.status == "undecided" and v.method.value == "analytic_tail", v
    with pytest.raises(ValueError):
        integral_log(PowerTail(c=1.0, theta=2.0), method="bogus")


def test_integral_log_ladder_never_claims_slow_divergence_finite():
    # sigma ~ |x| log|x|^q gives the log integrand x^-1 log(x)^(1-q): divergent
    # for q <= 2, but so slowly that decade sums shrink; the ladder may only
    # abstain there, never tick the alpha = 1 entrance row
    for q in (1.7, 1.8, 1.9, 2.0):
        s = LogPower(c=1.0, theta=1.0, q=q)
        assert integral_log(s, method="auto").status == "infinite"
        v = integral_log(s, method="adaptive_quadrature")
        assert v.status in ("infinite", "undecided"), (q, v)
        rep = classify(StableParams(1.0, 0.5), s, method="adaptive_quadrature")
        assert "pm_inf" not in rep.ticks("entrance"), q


def test_integral_value_hand_check():
    # alpha = 0.5, theta = 2, c = 1 on the positive half line:
    # int_0^inf (1+x^2)^(-1/2) x^(-1/2) dx, computed by scipy directly
    from scipy import integrate

    want, _ = integrate.quad(lambda x: (1 + x * x) ** -0.5 * x ** -0.5, 0, np.inf)
    got = integral_I(PowerTail(c=1.0, theta=2.0), 0.5, Domain.POS_HALF)
    assert got.value == pytest.approx(want, rel=1e-8)
    # in general int_0^inf (1 + x^2)^(-alpha theta/2) x^(alpha-1) dx is
    # B(alpha/2, alpha (theta-1)/2) / 2.  sigma(e^u) ~ e^(theta u) overflows
    # once theta u > 709.8, which the tail rule's cut must stay below: no
    # warning of any kind may arise
    for alpha in (0.2, 1.5):
        for theta in (1.5, 3.0, 30.0, 100.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = integral_I(PowerTail(c=1.0, theta=theta), alpha, Domain.POS_HALF)
            want = special.beta(alpha / 2, alpha * (theta - 1.0) / 2) / 2
            assert got.value == pytest.approx(want, rel=1e-12), (alpha, theta)
            assert abs(got.value - want) <= got.error_estimate, (alpha, theta)


def test_integral_scale_covariance():
    # sigma -> 2 sigma multiplies the integrand, hence the value, by 2^-alpha
    a = integral_I(PowerTail(c=1.0, theta=2.0), 0.5, Domain.FULL_LINE)
    b = integral_I(PowerTail(c=2.0, theta=2.0), 0.5, Domain.FULL_LINE)
    assert b.value == pytest.approx(2.0 ** -0.5 * a.value, rel=1e-10)


# ---------------------------------------------------------------------------
# the decision maps


def _verdicts(report, which):
    return {k: v["verdict"] for k, v in report.to_dict()[which].items()}


def test_explosion_requires_alpha_below_one():
    s = PowerTail(c=1.0, theta=2.0)
    for alpha, rho in [(1.0, 0.5), (1.5, 0.5), (1.8, 1.0 / 1.8)]:
        rep = classify(StableParams(alpha, rho), s)
        assert rep.ticks("explosion") == []


def test_explosion_two_sided_oscillating():
    rep = classify(StableParams(0.5, 0.5), PowerTail(c=1.0, theta=2.0))
    assert rep.ticks("explosion") == ["pm_inf"]
    v = _verdicts(rep, "explosion")
    assert v["+inf"] == CROSS and v["-inf"] == CROSS and v["pm_inf"] == TICK


def test_explosion_monotone_branches_directional():
    s = PowerTail(c=1.0, theta=2.0)
    up = classify(StableParams(0.5, 1.0), s)
    dn = classify(StableParams(0.5, 0.0), s)
    assert up.ticks("explosion") == ["+inf"]
    assert dn.ticks("explosion") == ["-inf"]


def test_explosion_blocked_by_slow_growth():
    for theta in (0.5, 1.0):
        rep = classify(StableParams(0.5, 0.5), PowerTail(c=1.0, theta=theta))
        assert rep.ticks("explosion") == []


def test_entrance_above_one_directional():
    s = PowerTail(c=1.0, theta=2.0)
    a = 1.5
    two = classify(StableParams(a, 0.5), s)
    sp = classify(StableParams(a, 1.0 - 1.0 / a), s)
    sn = classify(StableParams(a, 1.0 / a), s)
    assert two.ticks("entrance") == ["pm_inf"]
    assert sp.ticks("entrance") == ["+inf"]
    assert sn.ticks("entrance") == ["-inf"]


def test_entrance_cauchy_uses_log_test():
    assert classify(StableParams(1.0, 0.5), PowerTail(c=1.0, theta=2.0)).ticks("entrance") == ["pm_inf"]
    assert classify(StableParams(1.0, 0.5), PowerTail(c=1.0, theta=1.0)).ticks("entrance") == []


def test_entrance_below_one_never():
    for rho in (0.0, 0.5, 1.0):
        rep = classify(StableParams(0.5, rho), PowerTail(c=1.0, theta=2.0))
        assert rep.ticks("entrance") == []


# (alpha, rho) of an increasing, a decreasing and a two-sided driver, and of a
# spectrally positive, a spectrally negative and a two-sided one
_SIDES = [(0.5, 1.0), (0.5, 0.0), (0.5, 0.5)]
_ENTRANCE_SIDES = [(1.5, 1.0 - 1.0 / 1.5), (1.5, 1.0 / 1.5), (1.5, 0.5)]


@pytest.mark.parametrize("theta", [0.5, 2.0])
@pytest.mark.parametrize("alpha, rho", _SIDES)
def test_explosion_oracle_finite_exactly_at_the_tested_tick(alpha, rho, theta):
    p, s = StableParams(alpha, rho), PowerTail(c=1.0, theta=theta)
    point = _REACH[p.sidedness][0]
    ticked = classify(p, s).explosion[point].verdict == TICK
    assert ticked == (theta > 1.0)
    assert math.isfinite(expected_explosion_time(p, s, 0.0).value) == ticked


@pytest.mark.parametrize("alpha, rho", _SIDES + _ENTRANCE_SIDES + [(1.0, 0.5)])
def test_tested_row_integrates_over_the_reach_domain(alpha, rho):
    p = StableParams(alpha, rho)
    point, domain = _REACH[p.sidedness]
    rep = classify(p, PowerTail(c=1.0, theta=2.0))
    rows = rep.explosion if alpha < 1.0 else rep.entrance
    assert rows[point].integral.domain is domain
    assert all(rows[k].integral is None for k in rows if k != point)


# sigma ~ |x| (log|x|)^q: the tested integrand is 1/(x (log x)^(alpha q)), or
# 1/(x (log x)^(q - 1)) in the log test at alpha = 1, so the row ticks iff
# alpha q > 1, or q > 2 at alpha = 1.  Each alpha is taken on both sides of
# its edge in q.
@pytest.mark.parametrize("alpha, q, ticked", [
    (0.5, 2.0, False), (0.5, 2.5, True),
    (1.5, 0.5, False), (1.5, 2.0, True),
    (1.0, 2.0, False), (1.0, 2.5, True),
])
def test_composite_tail_is_the_sum_of_its_parts(alpha, q, ticked):
    s = Composite((PowerTail(c=1.0, theta=1.0), LogPower(c=1.0, theta=0.0, q=q)))
    rep = classify(StableParams(alpha, 0.5), s)
    rows = rep.explosion if alpha < 1.0 else rep.entrance
    assert rows["pm_inf"].verdict == (TICK if ticked else CROSS)
    assert rows["pm_inf"].integral.method.value == "analytic_tail"


def test_report_json_schema():
    rep = classify(StableParams(0.5, 0.5), parse_sigma_spec("power:c=1,theta=2"))
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == "1"
    assert set(doc["explosion"].keys()) == {"+inf", "-inf", "pm_inf"}
    assert set(doc["entrance"].keys()) == {"+inf", "-inf", "pm_inf"}
    cell = doc["explosion"]["pm_inf"]
    assert cell["verdict"] in (TICK, CROSS, "undecided")
    assert "justification" in cell
    fin = cell["integral"]
    assert fin["status"] == "finite" and fin["value"] > 0
    assert doc["inputs"]["alpha"] == 0.5


def test_report_ticks_validates_selector():
    rep = classify(StableParams(0.5, 0.5), PowerTail(c=1.0, theta=2.0))
    with pytest.raises(ValueError):
        rep.ticks("implosion")


class _NumpyWithoutArrays:
    """numpy, except that building an array or interpolating on one fails."""

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, *args, **kwargs):
        raise AssertionError("sigma took the array path")

    interp = asarray


def test_classify_calls_sigma_on_points_only(monkeypatch):
    # the integral tests pass sigma one float at a time; each such call must
    # stay in plain float arithmetic, which is what keeps classify fast
    grid = np.linspace(-20.0, 20.0, 41)
    table = Tabulated(tuple(grid), tuple(1.0 + grid ** 2), tail_plus=2.0, tail_minus=2.0)
    sigmas = (table, Composite((LogPower(c=1.0, theta=0.5, q=1.0), table)))
    cases = [(p, s, method) for p in (StableParams(0.5, 0.5), StableParams(1.0, 0.5),
                                      StableParams(1.5, 0.6))
             for s in sigmas for method in ("auto", "adaptive_quadrature")]
    want = [classify(p, s, method).to_json() for p, s, method in cases]
    monkeypatch.setattr(sigma_model, "np", _NumpyWithoutArrays())
    assert [classify(p, s, method).to_json() for p, s, method in cases] == want


def _mp_log_sigma(parts, u):
    """(theta, r) with log sigma(e^u) = theta u + r, sigma the product of the
    LogPower(c, theta, q) parts, in mpmath and without forming e^u; theta u
    is kept apart so that it cancels exactly against the x^alpha factor."""
    theta, r = 0, 0
    for part in parts:
        c, th, q = (mpmath.mpf(v) for v in part)
        theta += th
        far = u > 100  # the log1p terms are below e^-200 there
        r += (mpmath.log(c) + th / 2 * (0 if far else mpmath.log1p(mpmath.exp(-2 * u)))
              + q * mpmath.log(2 * u + (0 if far else mpmath.log1p(mpmath.exp(1 - 2 * u)))))
    return theta, r


def _mp_half_line(f):
    """int_0^inf f(u) du for f ~ u^-m; beyond u = 20 in u = 20 e^s, where
    the tail decays exponentially (its mass beyond s = 400 is nil)."""
    beyond = mpmath.quad(lambda t: f(20 * mpmath.exp(t)) * 20 * mpmath.exp(t), [0, 1, 10, 100, 400])
    return mpmath.quad(f, [0, 1, 20]) + beyond


def _mp_I_half(parts, alpha):
    a = mpmath.mpf(alpha)

    def sigma(x):
        return mpmath.fprod(c * (1 + x * x) ** (mpmath.mpf(th) / 2)
                            * mpmath.log(mpmath.e + x * x) ** q for c, th, q in parts)

    def tail(u):  # sigma(x)^-alpha x^alpha at x = e^u
        theta, r = _mp_log_sigma(parts, u)
        return mpmath.exp(a * (1 - theta) * u - a * r)

    return mpmath.quad(lambda v: sigma(v ** (1 / a)) ** -a / a, [0, 1]) + _mp_half_line(tail)


def _mp_log_half(parts):
    def tail(u):  # log(x) / sigma(x) * x at x = e^u
        theta, r = _mp_log_sigma(parts, u)
        return u * mpmath.exp((1 - theta) * u - r)

    return _mp_half_line(tail)


def test_tail_finite_only_through_its_log_matches_mpmath(monkeypatch):
    # d == 0, m > 1: sigma ~ x (log x)^q makes the integrand C / (x (log x)^m),
    # whose mass lies out at x = e^100 and beyond, where quad on [1, inf) hits
    # its subdivision limit.  A slow d > 0 tail (d = 5e-4) spreads its mass
    # as far, out to x = e^2000; the third row is a log-modified one from the
    # quadrature benchmark.  Each value must agree with an independent mpmath
    # one, within error_estimate, with sigma still called on floats only
    powers = [  # (LogPower args, alpha); m = alpha q, d = alpha (theta - 1)
        ((1.0, 1.0, 2.5), 0.5),  # d = 0, m = 1.25
        ((1.0, 1.001, 2.0), 0.5),  # d = 5e-4, m = 1
        ((0.923173, 1.26606, -0.31203), 0.401),  # d = 0.107, m = -0.125
    ]
    product = ((1.0, 0.5, 2.0), (0.8, 0.5, 1.2))  # log test: q = 3.2, m = 2.2
    with mpmath.workdps(30):
        wants = [float(_mp_I_half((part,), alpha)) for part, alpha in powers]
        wants.append(float(2 * _mp_log_half(product)))
    monkeypatch.setattr(sigma_model, "np", _NumpyWithoutArrays())
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        gots = [integral_I(LogPower(*part), alpha, Domain.POS_HALF) for part, alpha in powers]
        gots.append(integral_log(Composite(tuple(LogPower(*part) for part in product))))
    for got, want in zip(gots, wants):
        assert got.finite and got.method.value == "analytic_tail"
        assert got.value == pytest.approx(want, rel=1e-6)
        assert abs(got.value - want) <= got.error_estimate
