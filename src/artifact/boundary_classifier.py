"""Boundary behavior of dZ = sigma(Z-) dX at the infinite boundary points.

Two classification maps are produced for each (alpha, rho, sigma):

* the **explosion map** — can Z reach a boundary point in finite time? —
  with rows indexed by the three boundary points +inf, -inf and the
  two-sided point pm_inf (escape in absolute value with oscillating sign);
* the **entrance map** — can Z be started from the boundary point and enter
  the interior instantaneously in a Feller way?

Both maps are governed by finiteness of the tail functional

    I(sigma, alpha; A) = int_A sigma(x)^{-alpha} |x|^{alpha-1} dx,

over the relevant half-line or the full line, except at alpha = 1 where the
entrance condition uses the log variant int sigma(x)^{-1} log|x| dx instead.
The classification matrix (alpha against jump sidedness) is held as data:
``_REACH`` maps each sidedness to its boundary point and integral domain, and
``_EXPLOSION_ROWS``, ``_ENTRANCE_ROWS`` and ``_CAUCHY_ROW`` give each row's
rule and the reasons for its crosses:

explosion:
    alpha < 1, increasing       -> tick at +inf  iff I(R_+) < inf
    alpha < 1, decreasing       -> tick at -inf  iff I(R_-) < inf
    alpha < 1, two-sided        -> tick at pm_inf iff I(R) < inf
    alpha >= 1                  -> cross everywhere (no explosion)
entrance:
    alpha < 1                   -> cross everywhere
    alpha = 1                   -> tick at pm_inf iff the log variant < inf
    alpha in (1,2), spectrally positive -> tick at +inf iff I(R_+) < inf
    alpha in (1,2), spectrally negative -> tick at -inf iff I(R_-) < inf
    alpha in (1,2), two-sided   -> tick at pm_inf iff I(R) < inf

At most one boundary point per map can carry a tick; an undecided integral
propagates to an "undecided" row, never to a silent guess.  alpha = 2 is
rejected outright (classical diffusive case, different theory).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import integrate, special

from .sigma_model import SigmaFunction
from .stable_core import Sidedness, StableParams, _admissible_alpha

__all__ = [
    "Domain",
    "Method",
    "UndecidedIntegralError",
    "FinitenessVerdict",
    "integral_I",
    "integral_log",
    "RowVerdict",
    "BoundaryReport",
    "classify",
]

SCHEMA_VERSION = "1"


class Domain(Enum):
    POS_HALF = "pos_half"
    NEG_HALF = "neg_half"
    FULL_LINE = "full_line"


class Method(Enum):
    ANALYTIC_TAIL = "analytic_tail"
    ADAPTIVE_QUADRATURE = "adaptive_quadrature"


class UndecidedIntegralError(RuntimeError):
    """Raised by callers that cannot proceed without a decided integral."""


@dataclass(frozen=True)
class FinitenessVerdict:
    """Outcome of an improper-integral finiteness decision.

    status is one of "finite" (value > 0 with error_estimate/value < 1e-4),
    "infinite" (divergence_rate = tail exponent of the integrand, >= -1), or
    "undecided" (no declared tails and the quadrature ladder did not reach a
    decision).
    """

    status: str
    domain: Domain
    method: Method
    value: float | None = None
    error_estimate: float | None = None
    divergence_rate: float | None = None

    @property
    def finite(self) -> bool:
        return self.status == "finite"

    @property
    def decided(self) -> bool:
        return self.status != "undecided"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "domain": self.domain.value,
            "method": self.method.value,
            "value": self.value,
            "error_estimate": self.error_estimate,
            "divergence_rate": self.divergence_rate,
        }


# ---------------------------------------------------------------------------
# the finiteness path shared by both functionals
#
# A functional is given by ``half(sign)``, which returns its integrand g on
# [1, inf), a callable giving (value, error) of its head over [0, 1] on the
# half-line of that sign, and the offsets w > 0 of sigma's kinks on that
# half-line, and by ``tail(theta, q)``: for sigma ~ |x|^theta
# (log|x|)^q, the integrand's tail is x^{-(1+d)} (log x)^{-m} and tail returns
# (d, m, rate), rate being the tail exponent reported for a divergence.  d is
# kept apart from e = 1 + d because 1 + d rounds to 1 once |d| < 1.1e-16.

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-10, limit=200)
# the largest log x at which _tail_rule closes a tail in closed form: from log
# x = 21 on, every kind's integrand is its declared tail in float (1 + x*x ==
# x*x, log(e + x*x) == 2 log x), and sigma ~ x^theta overflows from theta log
# x = 709.8, so a tail with theta > 2 is cut at 600/theta
_LOG_CUT = 300.0
_METHODS = ("auto", "analytic_tail", "adaptive_quadrature")


def _quad(f, a, b, points):
    """(value, error) of int_a^b f, split at the points strictly inside (a, b).

    A kink makes QUADPACK bisect towards it until roundoff, so each smooth
    piece gets a quad call of its own and the results are summed; with no
    point inside, the loop makes a single quad call.  Separate calls, not
    quad's points=, because a long table has more kinks than its subinterval
    limit.
    """
    edges = [a, *sorted(v for v in points if a < v < b), b]
    value = error = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = integrate.quad(f, lo, hi, **_QUAD_KW)
        value += v
        error += e
    return value, error


def _finiteness(s: SigmaFunction, domain: Domain, method: str, half, tail) -> FinitenessVerdict:
    """Finiteness verdict of the functional (half, tail) over domain; method
    is as for integral_I, decided per half-line."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if domain == Domain.FULL_LINE:
        left = _finiteness(s, Domain.NEG_HALF, method, half, tail)
        right = _finiteness(s, Domain.POS_HALF, method, half, tail)
        return _combine(left, right)
    positive = domain == Domain.POS_HALF
    g, head, ws = half(1.0 if positive else -1.0)
    if method != "adaptive_quadrature":
        structure = s.tail(positive)
        if structure is not None:
            return _tail_rule(g, head, ws, domain, structure[0], *tail(*structure))
        if method == "analytic_tail":
            return FinitenessVerdict("undecided", domain, Method.ANALYTIC_TAIL)
    return _ladder(g, head, ws, domain)


def _tail_rule(g, head, ws, domain: Domain, theta, d, m, rate) -> FinitenessVerdict:
    """x^{-(1+d)} (log x)^{-m} is integrable at infinity iff d > 0, or d == 0
    and m > 1.  One rule then serves every declared tail: quadrature in u =
    log x up to L, and beyond it, where the integrand is C e^{-du} u^{-m},
    int_L^inf = g(e^L) e^L L U(1, 2-m, dL) (DLMF 13.4.4 with u = L(1+t)),
    which is g(e^L) e^L L/(m-1) at d == 0.  A finite tail has theta >= 1, L =
    min(_LOG_CUT, 600/theta) keeps sigma(e^L) finite, and a table must end
    below e^L.  The u-quadrature is split at the kinks' u = log w."""
    if not (d > 0.0 or (d == 0.0 and m > 1.0)):
        return FinitenessVerdict("infinite", domain, Method.ANALYTIC_TAIL, divergence_rate=rate)
    cut = min(_LOG_CUT, 600.0 / theta)
    v1, e1 = head()
    v2, e2 = _quad(lambda u: g(math.exp(u)) * math.exp(u), 0.0, cut, [math.log(w) for w in ws])
    x = math.exp(cut)
    v2 += g(x) * x * cut * float(special.hyperu(1.0, 2.0 - m, d * cut))
    return FinitenessVerdict(
        "finite", domain, Method.ANALYTIC_TAIL, value=v1 + v2, error_estimate=e1 + e2
    )


def _ladder(g, head, ws, domain: Domain) -> FinitenessVerdict:
    """Decade ladder [1, 1e8] with geometric (Richardson-type) extrapolation;
    each decade's quadrature in t = log10 w is split at the kinks' t, and
    its quadrature error counts towards the error estimate."""
    ln10 = math.log(10.0)
    ts = [math.log10(w) for w in ws]

    def piece(k):
        def f(t):  # the integral over [10^k, 10^{k+1}], log-substituted
            x = 10.0 ** t
            return g(x) * x * ln10

        return _quad(f, k, k + 1, ts)

    pieces, piece_errs = zip(*(piece(k) for k in range(8)))
    ratios = [
        pieces[i + 1] / pieces[i] for i in range(len(pieces) - 1) if pieces[i] > 0
    ]
    if len(ratios) < 2:
        return FinitenessVerdict("undecided", domain, Method.ADAPTIVE_QUADRATURE)
    tail_ratios = ratios[-3:]
    rbar = float(np.exp(np.mean(np.log(tail_ratios))))
    fitted_e = math.log10(rbar) - 1.0  # integrand tail exponent
    if fitted_e >= -0.98:
        return FinitenessVerdict(
            "infinite", domain, Method.ADAPTIVE_QUADRATURE, divergence_rate=fitted_e
        )
    if fitted_e <= -1.05:
        vhead, ehead = head()
        body = vhead + sum(pieces)
        tail_extrap = pieces[-1] * rbar / (1.0 - rbar)
        spread = max(tail_ratios) - min(tail_ratios)
        extrap_err = abs(pieces[-1]) * spread / (1.0 - rbar) ** 2 + ehead + sum(piece_errs)
        value = body + tail_extrap
        if value > 0 and extrap_err / value < 1e-4:
            return FinitenessVerdict(
                "finite",
                domain,
                Method.ADAPTIVE_QUADRATURE,
                value=value,
                error_estimate=extrap_err,
            )
    return FinitenessVerdict("undecided", domain, Method.ADAPTIVE_QUADRATURE)


def _combine(left: FinitenessVerdict, right: FinitenessVerdict) -> FinitenessVerdict:
    """Full-line verdict from the two half-lines: infinite if either is, with
    the method of the half-line that decided it (or that left it undecided)."""
    if left.status == "infinite" or right.status == "infinite":
        rates = [
            v.divergence_rate
            for v in (left, right)
            if v.status == "infinite" and v.divergence_rate is not None
        ]
        used = left.method if left.status == "infinite" else right.method
        return FinitenessVerdict(
            "infinite", Domain.FULL_LINE, used, divergence_rate=max(rates)
        )
    if left.finite and right.finite:
        return FinitenessVerdict(
            "finite",
            Domain.FULL_LINE,
            left.method if left.method == right.method else Method.ADAPTIVE_QUADRATURE,
            value=left.value + right.value,
            error_estimate=left.error_estimate + right.error_estimate,
        )
    open_half = left if left.status == "undecided" else right
    return FinitenessVerdict("undecided", Domain.FULL_LINE, open_half.method)


def integral_I(
    s: SigmaFunction, alpha: float, domain: Domain = Domain.FULL_LINE, method: str = "auto"
) -> FinitenessVerdict:
    """Finiteness verdict for I(sigma, alpha; domain).

    method "auto" uses declared/structural tail exponents when available
    (AnalyticTail) and otherwise the adaptive quadrature ladder;
    "analytic_tail" and "adaptive_quadrature" force one route (the former
    returns undecided when no tail structure exists).
    """
    return _integral_I(s, alpha, domain, method, 0.0)


def _integral_I(s: SigmaFunction, alpha, domain: Domain, method, x0) -> FinitenessVerdict:
    """integral_I counted from x0: the verdict for int sigma(x0 + w)^{-alpha}
    |w|^{alpha-1} dw over w in domain, whose finiteness does not depend on x0."""
    alpha = _admissible_alpha(alpha)

    def half(sign):
        ws = [w for w in (sign * (b - x0) for b in s.kinks()) if w > 0.0]

        def g(w):
            return s(x0 + sign * w) ** (-alpha) * w ** (alpha - 1.0)

        def head():
            # u = w^alpha removes the w^{alpha-1} endpoint singularity
            return _quad(lambda u: s(x0 + sign * u ** (1.0 / alpha)) ** (-alpha) / alpha,
                         0.0, 1.0, [w ** alpha for w in ws])

        return g, head, ws

    def tail(theta, q):
        # sigma^{-alpha} x^{alpha-1} ~ x^{-(1 + alpha(theta-1))} (log x)^{-alpha q}
        return alpha * (theta - 1.0), alpha * q, alpha - 1.0 - alpha * theta

    return _finiteness(s, domain, method, half, tail)


def integral_log(s: SigmaFunction, method: str = "auto") -> FinitenessVerdict:
    """Finiteness of the alpha = 1 entrance functional int sigma^{-1} log|x| dx.

    The integrand is locally integrable near the origin for any admissible
    sigma, so finiteness is a pure tail question; the reported value is the
    positive-part integral int sigma(x)^{-1} log_+|x| dx (always > 0), which
    carries the same finiteness content.  method is as for integral_I.
    """

    def half(sign):
        ws = [w for w in (sign * b for b in s.kinks()) if w > 0.0]
        return (lambda x: math.log(x) / s(sign * x)), (lambda: (0.0, 0.0)), ws

    def tail(theta, q):
        # sigma^{-1} log x ~ x^{-theta} (log x)^{-(q-1)}
        return theta - 1.0, q - 1.0, -theta

    return _finiteness(s, Domain.FULL_LINE, method, half, tail)


# ---------------------------------------------------------------------------
# the classification maps

BOUNDARY_POINTS = ("+inf", "-inf", "pm_inf")

# sidedness -> (the boundary point its rows test, the domain of that test)
_REACH = {
    Sidedness.SPECTRALLY_POSITIVE: ("+inf", Domain.POS_HALF),
    Sidedness.SPECTRALLY_NEGATIVE: ("-inf", Domain.NEG_HALF),
    Sidedness.TWO_SIDED: ("pm_inf", Domain.FULL_LINE),
}

# A row is (the tested point's rule, {each other point: why it is crossed}).
# No table stores the integral functions: classify names them at call time, so
# that a rebinding of those module names is seen.
_MONOTONE = "monotone paths have a one-sided limit"
_OSCILLATE = "two-sided jumps oscillate: one-sided explosion impossible"
_EXPLOSION_ROWS = {  # alpha < 1
    Sidedness.SPECTRALLY_POSITIVE: (
        "explosion map, row alpha<1 increasing: reachable endpoint +inf, test I(sigma,alpha; R_+)",
        {"-inf": "increasing paths cannot approach -inf", "pm_inf": _MONOTONE}),
    Sidedness.SPECTRALLY_NEGATIVE: (
        "explosion map, row alpha<1 decreasing: reachable endpoint -inf, test I(sigma,alpha; R_-)",
        {"+inf": "decreasing paths cannot approach +inf", "pm_inf": _MONOTONE}),
    Sidedness.TWO_SIDED: (
        "explosion map, row alpha<1 two-sided: oscillating escape pm_inf, test I(sigma,alpha; R)",
        {"+inf": _OSCILLATE, "-inf": _OSCILLATE}),
}
_ONE_SIDED = "one-sided case: entrance is one-sided"
_AT_PM_INF = "two-sided case: entrance is the pm_inf point"
_ENTRANCE_ROWS = {  # alpha in (1, 2)
    Sidedness.SPECTRALLY_POSITIVE: (
        "entrance map, row alpha in (1,2) spectrally positive: entrance "
        "at +inf, test I(sigma,alpha; R_+)",
        {"-inf": "no downward jumps: -inf is not an entrance", "pm_inf": _ONE_SIDED}),
    Sidedness.SPECTRALLY_NEGATIVE: (
        "entrance map, row alpha in (1,2) spectrally negative: entrance "
        "at -inf, test I(sigma,alpha; R_-)",
        {"+inf": "no upward jumps: +inf is not an entrance", "pm_inf": _ONE_SIDED}),
    Sidedness.TWO_SIDED: (
        "entrance map, row alpha in (1,2) two-sided: entrance at pm_inf, test I(sigma,alpha; R)",
        {"+inf": _AT_PM_INF, "-inf": _AT_PM_INF}),
}
_TWO_SIDED_CAUCHY = "alpha=1 entrance is a two-sided (pm_inf) phenomenon"
_CAUCHY_ROW = (  # alpha = 1, where the driver is always two-sided
    "entrance map, row alpha=1 two-sided: test int sigma^{-1} log|x| dx",
    {"+inf": _TWO_SIDED_CAUCHY, "-inf": _TWO_SIDED_CAUCHY})
_NO_EXPLOSION = "explosion requires alpha < 1 (time change cannot exhaust otherwise)"
_NO_ENTRANCE = (
    "entrance map, rows alpha<1: no entrance from infinity "
    "(monotone escape or transient oscillation)"
)


@dataclass(frozen=True)
class RowVerdict:
    verdict: str  # "tick" | "cross" | "undecided"
    justification: str
    integral: FinitenessVerdict | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "justification": self.justification,
            "integral": None if self.integral is None else self.integral.to_dict(),
        }


@dataclass(frozen=True)
class BoundaryReport:
    params: StableParams
    sigma_description: str
    explosion: dict
    entrance: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "inputs": {
                "alpha": self.params.alpha,
                "rho": self.params.rho,
                "sidedness": self.params.sidedness.value,
                "sigma": self.sigma_description,
            },
            "explosion": {k: v.to_dict() for k, v in self.explosion.items()},
            "entrance": {k: v.to_dict() for k, v in self.entrance.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def ticks(self, which: str) -> list[str]:
        if which not in ("explosion", "entrance"):
            raise ValueError(f"which must be 'explosion' or 'entrance', got {which!r}")
        table = self.explosion if which == "explosion" else self.entrance
        return [k for k, v in table.items() if v.verdict == "tick"]


def _crosses(reason: str) -> dict:
    return {k: RowVerdict("cross", reason) for k in BOUNDARY_POINTS}


_MARKS = {"finite": "tick", "infinite": "cross", "undecided": "undecided"}


def _tested(row, point: str, v: FinitenessVerdict) -> dict:
    """The map whose tested row sits at point and is decided by v; every other
    point is crossed for the row's reason there."""
    rule, others = row
    return {
        k: RowVerdict(_MARKS[v.status], f"{rule}; integral {v.status}", v)
        if k == point else RowVerdict("cross", others[k])
        for k in BOUNDARY_POINTS
    }


def classify(p: StableParams, s: SigmaFunction, method: str = "auto") -> BoundaryReport:
    """Explosion and entrance maps for dZ = sigma(Z-) dX with driver (alpha, rho)."""
    a = p.alpha
    point, domain = _REACH[p.sidedness]
    if a < 1.0:
        explosion = _tested(_EXPLOSION_ROWS[p.sidedness], point, integral_I(s, a, domain, method))
        entrance = _crosses(_NO_ENTRANCE)
    else:
        explosion = _crosses(_NO_EXPLOSION)
        if a == 1.0:
            entrance = _tested(_CAUCHY_ROW, point, integral_log(s, method))
        else:
            entrance = _tested(_ENTRANCE_ROWS[p.sidedness], point, integral_I(s, a, domain, method))
    return BoundaryReport(p, s.describe(), explosion, entrance)
