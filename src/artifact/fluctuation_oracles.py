"""Closed-form fluctuation laws for the stable driver, used as oracles.

Every operation returns an :class:`OracleResult` carrying the value and an
absolute error estimate (zero for pure closed forms, the quadrature bound
otherwise).  Formulas that are only canonical up to one multiplicative
constant (the killed half-line potential) say so in their docstrings; all
others are exact in the package normalization ``Psi(z) = |z|^alpha
exp(i pi alpha (1/2 - rho) sgn z)``.

Notation: a = alpha rho, ahat = alpha rhohat throughout.

The exit and entry densities are cases of one kernel, Rogozin's law across
the endpoint +1 of (-1, 1) (``_rogozin``):

    f(b, c; x, y) = sin(pi b)/pi |1-x|^b |1+x|^c |y-1|^{-b} |y+1|^{-c} / |y-x|,

b the exponent at +1 and c the exponent at -1.  From x inside, f(a, ahat;
x, y) is the density of the exit point y > 1; from x > 1 outside,
f(ahat, a; x, y) is the density of the entry point y in (-1, 1), which the
Riesz–Bogdan–Żak transform maps onto the exit law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .boundary_classifier import Domain, UndecidedIntegralError, _integral_I
from .sigma_model import SigmaFunction
from .stable_core import DomainError, OutOfRangeError, Sidedness, StableParams

__all__ = [
    "OracleResult",
    "WrongBranchError",
    "h_function",
    "overshoot_cdf",
    "exit_density_avoid_zero",
    "strip_exit_density",
    "positive_exit_density",
    "creep_probability",
    "killed_potential_density",
    "halfline_killed_potential",
    "cauchy_killed_potential",
    "expected_explosion_time",
    "spectrally_positive_interval_exit",
]


class WrongBranchError(ValueError):
    """The requested identity belongs to a different parameter branch."""


@dataclass(frozen=True)
class OracleResult:
    """A numeric oracle value with an absolute error estimate."""

    value: float | np.ndarray
    abs_error_estimate: float = 0.0

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# the h kernel (free potential / invariant density shape)


def _h(p: StableParams, w: float) -> float:
    """h(w) of ``h_function`` for alpha != 1, as a float."""
    a = p.alpha
    up, down = p._jump_weights
    side = down if w >= 0 else up
    if w == 0.0:
        return 0.0 if side == 0.0 or a > 1.0 else math.inf
    return abs(math.gamma(1.0 - a)) / math.pi * side * abs(w) ** (a - 1.0)


def h_function(p: StableParams, x: float) -> OracleResult:
    """Sided power kernel h governing occupation and duality weights.

        h(w) = |Gamma(1-alpha)|/pi * ( sin(pi a rhohat) 1{w >= 0}
                                     + sin(pi a rho)    1{w < 0} ) |w|^{alpha-1},

    for alpha != 1, and h == 1 identically at alpha = 1.  h(x - y) is the
    free potential density: the expected occupation density at y of a path
    started at x (downward reach is weighted by the rho-hat side).  For
    alpha < 1 it diverges at w = 0 (returns +inf there); for alpha > 1 it
    vanishes at 0.  Satisfies |w|^{2(alpha-1)} h(1/w) = h(w).
    """
    if p.alpha == 1.0:
        return OracleResult(1.0, 0.0)
    return OracleResult(_h(p, float(x)), 0.0)


# ---------------------------------------------------------------------------
# first passage below a level


def overshoot_cdf(p: StableParams, z: float, level: float, y) -> OracleResult:
    """P(level - X_tau <= y) for tau the first passage below `level` from z > level.

    The undershoot depth law of the first passage below a level, i.e. the
    overshoot of the descending ladder process (index ahat = alpha rhohat):

        F(y) = sin(pi ahat)/pi * int_0^{y/(z-level)} t^{-ahat} (1+t)^{-1} dt
             = I_{y/(z-level+y)}(1-ahat, ahat)          (regularized beta).

    y may be an array; the value is then an array of the same shape, and a
    float for scalar y.  Degenerate branches: no downward jumps and no
    downward creep (increasing paths) give the zero measure; downward creep
    (spectrally positive, ahat = 1) gives the point mass at depth 0.
    """
    z, level = float(z), float(level)
    if z <= level:
        raise DomainError(f"start z={z} must lie strictly above level={level}")
    y = np.asarray(y, dtype=float)
    ahat = p.alpha * p.rho_hat
    if ahat >= 1.0 - 1e-12:
        # continuous downward passage: depth is exactly zero
        F = np.where(y >= 0.0, 1.0, 0.0)
    elif ahat <= 1e-12:
        F = np.zeros_like(y)  # never passes below: defective (zero) law
    else:
        yp = np.maximum(y, 0.0)
        # y/(z-level+y), with its limit 1 at y = inf
        t = np.divide(yp, z - level + yp, out=np.ones_like(yp), where=yp < np.inf)
        F = special.betainc(1.0 - ahat, ahat, t)
    return OracleResult(float(F) if F.ndim == 0 else F, 0.0)


# ---------------------------------------------------------------------------
# Rogozin's interval law and the two-sided exit avoiding the origin


def _rogozin(b: float, c: float, x: float, y: float) -> float:
    """f(b, c; x, y) of the module docstring: the law across the endpoint +1
    of (-1, 1), with exponent b at +1 and c at -1."""
    return (
        math.sin(math.pi * b)
        / math.pi
        * abs(1.0 - x) ** b
        * abs(1.0 + x) ** c
        * abs(y - 1.0) ** (-b)
        * abs(y + 1.0) ** (-c)
        / abs(y - x)
    )


def _hit_zero_probability(p: StableParams, x: float) -> float:
    """p0(x) = P_x( X hits 0 before leaving (-1, 1) ), x in (0, 1), 0 < a < 1:

        p0(x) = (alpha-1) x^{alpha-1} int_1^{1/x} (t-1)^{a-1} (t+1)^{ahat-1} dt,

    and 0 for alpha <= 1, where the origin is polar.  With t = (1+s)/(1-s)
    the integral is 2^{alpha-1} w^a/a 2F1(a, alpha; a+1; w), w = (1-x)/(1+x).
    """
    al, a = p.alpha, p.alpha * p.rho
    if al <= 1.0:
        return 0.0
    w = (1.0 - x) / (1.0 + x)
    J = 2.0 ** (al - 1.0) * w ** a / a * special.hyp2f1(a, al, a + 1.0, w)
    return float((al - 1.0) * x ** (al - 1.0) * J)


def exit_density_avoid_zero(p: StableParams, x: float, y: float) -> OracleResult:
    """Density in y of exiting [-1,1] above, before hitting 0, from x in (0,1).

        P_x( X at the exit of (-1,1) is in dy ; exit happens before the path
             hits the origin ) / dy,        y > 1,

    equal to f(a, ahat; x, y) - p0(x) f(a, ahat; 0, y), with f the module's
    interval kernel and p0(x) the probability of hitting 0 before leaving
    (-1, 1) (``_hit_zero_probability``): the strong Markov property at the
    hitting time of 0, a = alpha rho, ahat = alpha rhohat.
    """
    x, y = float(x), float(y)
    if not (0.0 < x < 1.0):
        raise DomainError(f"x must lie in (0,1), got {x}")
    if y <= 1.0:
        raise DomainError(f"y must lie in (1, inf), got {y}")
    a = p.alpha * p.rho
    ahat = p.alpha * p.rho_hat
    if not (0.0 < a < 1.0):
        raise WrongBranchError(
            "exit law requires 0 < alpha rho < 1 (upward jumps present, no upward creep)"
        )
    value = _rogozin(a, ahat, x, y) - _hit_zero_probability(p, x) * _rogozin(a, ahat, 0.0, y)
    return OracleResult(value, 0.0)


# ---------------------------------------------------------------------------
# entry into the strip [-1,1] (transient case alpha < 1)


def strip_exit_density(p: StableParams, x: float, y: float) -> OracleResult:
    """Density in y of the position at first entry into [-1,1] from |x| > 1.

    For alpha < 1 with two-sided jumps (the strip is entered with
    probability < 1; this is the density of the defective entry law):

        f(ahat, a; x, y),       x > 1,

    with f the module's interval kernel, and its mirror image f(a, ahat;
    -x, -y) for x < -1.
    """
    x, y = float(x), float(y)
    if p.alpha >= 1.0:
        raise WrongBranchError("strip entry law is the transient branch alpha < 1")
    if not (0.0 < p.rho < 1.0):
        raise WrongBranchError("strip entry law needs two-sided jumps (0 < rho < 1)")
    if abs(x) <= 1.0:
        raise DomainError(f"start must lie outside [-1,1], got {x}")
    if not (-1.0 < y < 1.0):
        raise DomainError(f"entry position must lie in (-1,1), got {y}")
    a, ahat = p.alpha * p.rho, p.alpha * p.rho_hat
    value = _rogozin(ahat, a, x, y) if x > 0 else _rogozin(a, ahat, -x, -y)
    return OracleResult(value, 0.0)


# ---------------------------------------------------------------------------
# exit of (-infty, 1] before (-infty, 0] : jump branch and creep branch


def positive_exit_density(p: StableParams, x: float, y: float) -> OracleResult:
    """Density of X at first passage above 1 before dropping below 0.

    Started at x in (0,1), on the branch with upward jumps (alpha rho < 1):

        P_x( X at tau^{(1,inf)} in dy ; tau^{(1,inf)} < tau^{(-inf,0)} )/dy
        = sin(pi a)/pi (1-x)^{a} x^{ahat} (y-1)^{-a} y^{-ahat} (y-x)^{-1},

    y > 1, a = alpha rho, ahat = alpha rhohat: the module's interval kernel
    2 f(a, ahat; 2x-1, 2y-1), the exit law of (-1, 1) moved onto (0, 1).
    """
    x, y = float(x), float(y)
    if not (0.0 < x < 1.0):
        raise DomainError(f"x must lie in (0,1), got {x}")
    if y <= 1.0:
        raise DomainError(f"y must lie in (1, inf), got {y}")
    a = p.alpha * p.rho
    ahat = p.alpha * p.rho_hat
    if a >= 1.0 - 1e-12:
        raise WrongBranchError(
            "alpha rho = 1 is the upward-creep branch: passage above is at the "
            "boundary point exactly; use creep_probability"
        )
    return OracleResult(2.0 * _rogozin(a, ahat, 2.0 * x - 1.0, 2.0 * y - 1.0), 0.0)


def creep_probability(p: StableParams, x: float) -> OracleResult:
    """P_x( X reaches 1 continuously before dropping below 0 ), x in (0,1).

    Only the spectrally negative branch (rho = 1/alpha, alpha in (1,2))
    creeps upward; other parameters raise WrongBranchError.  The law of the
    position at first passage above 1 is then the unit mass at 1 on the
    event of no prior drop below 0, with

        P = 1 - sin(pi ahat)/pi * x^{ahat} (1-x)^{a}
              int_1^inf (y-1)^{-ahat} y^{-a} (y-1+x)^{-1} dy,

    a = alpha rho = 1, ahat = alpha - 1, which equals the scale-function form
    P = x^{alpha-1} returned here.
    """
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"x must lie in (0,1), got {x}")
    if p.sidedness is not Sidedness.SPECTRALLY_NEGATIVE or p.alpha <= 1.0:
        raise WrongBranchError(
            "upward creep requires the spectrally negative branch rho = 1/alpha, "
            "alpha in (1,2)"
        )
    return OracleResult(x ** (p.alpha - 1.0), 0.0)


# ---------------------------------------------------------------------------
# potentials


def killed_potential_density(p: StableParams, x: float, y: float) -> OracleResult:
    """Potential density g(x, y) of the process killed on hitting the origin.

    For alpha in (1,2) (points are hit):

        g(x,y) = h(x) + h(-y) - h(x-y),

    with h the harmonic kernel of ``h_function``.  The normalization is
    pinned two ways: in the symmetric case the compensated resolvent kernel
    is (1/pi) int (1-cos(zw)) z^{-alpha} dz = -Gamma(1-alpha) sin(pi
    alpha/2)/pi * |w|^{alpha-1} = h(w), and Monte Carlo occupation measures
    of the origin-killed process match g with this constant (and are off by
    pi with 1/pi^2).  The ratio g(x,y)/g(y,y) is the probability of hitting y
    before 0 from x.
    """
    if not (1.0 < p.alpha < 2.0):
        raise OutOfRangeError("origin-killed potential requires alpha in (1,2)")
    x, y = float(x), float(y)
    return OracleResult(_h(p, x) + _h(p, -y) - _h(p, x - y), 0.0)


def halfline_killed_potential(p: StableParams, x: float, y: float) -> OracleResult:
    """Potential density (up to one multiplicative constant) on (0, inf) of the
    spectrally one-sided process killed on leaving the positive half-line:

        G(x, y) ∝ x^{alpha-1} - (x-y)^{alpha-1} 1{x >= y},    x, y > 0,

    alpha in (1,2).  Only ratios of values are normalization-free.
    """
    if not (1.0 < p.alpha < 2.0):
        raise OutOfRangeError("half-line potential requires alpha in (1,2)")
    if p.sidedness is Sidedness.TWO_SIDED:
        raise WrongBranchError("half-line potential is the spectrally one-sided branch")
    x, y = float(x), float(y)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("x and y must be positive")
    a = p.alpha
    value = x ** (a - 1.0)
    if x >= y:
        value -= (x - y) ** (a - 1.0)
    return OracleResult(value, 0.0)


def cauchy_killed_potential(s: SigmaFunction, x: float, y: float) -> OracleResult:
    """Potential density of the time-changed Cauchy process killed on first
    entry into (-1, 1), evaluated at |y| >= 1 from |x| >= 1 (x may be +/-inf):

        g(x, y) = sigma(y)^{-1} (1/pi) arccosh| (1 - x y) / (x - y) |,

    and from the boundary-at-infinity start g(inf, y) = sigma(y)^{-1}
    (1/pi) arccosh|y|.  The argument of arccosh is >= 1 on the domain
    because (1-xy)^2 - (x-y)^2 = (x^2-1)(y^2-1) >= 0.
    """
    x, y = float(x), float(y)
    if abs(y) < 1.0:
        raise DomainError(f"y must satisfy |y| >= 1, got {y}")
    if math.isinf(x):
        w = abs(y)
    else:
        if abs(x) < 1.0:
            raise DomainError(f"x must satisfy |x| >= 1 (or be infinite), got {x}")
        if x == y:
            return OracleResult(math.inf, 0.0)
        w = abs((1.0 - x * y) / (x - y))
    w = max(w, 1.0)
    return OracleResult(math.acosh(w) / math.pi / float(s(y)), 0.0)


def expected_explosion_time(p: StableParams, s: SigmaFunction, x0: float) -> OracleResult:
    """E_{x0}[ T ] for the explosion time T of dZ = sigma(Z-) dX, alpha < 1.

        E_{x0}[T] = int_R sigma(y)^{-alpha} h(x0 - y) dy
                  = sum_{side = +-1} h(side) int_0^inf sigma(x0 - side w)^{-alpha} w^{alpha-1} dw,

    each half-line integral the classifier's, counted from x0; a side that h
    does not weight (no jumps towards it) is skipped.  The value is +inf when
    a weighted half is infinite; for a sigma with no declared tail it is the
    quadrature ladder's, good to its 1e-4 gate.
    """
    if p.alpha >= 1.0:
        raise OutOfRangeError("explosion requires alpha < 1")
    x0 = float(x0)
    # side +1 is below the start (y = x0 - w), side -1 above
    halves = [(h, _integral_I(s, p.alpha, domain, "auto", x0))
              for h, domain in ((_h(p, 1.0), Domain.NEG_HALF), (_h(p, -1.0), Domain.POS_HALF))
              if h > 0.0]
    statuses = {v.status for _, v in halves}
    if "infinite" in statuses:
        return OracleResult(math.inf, 0.0)
    if "undecided" in statuses:
        raise UndecidedIntegralError(
            "cannot certify finiteness of the explosion integral for this sigma"
        )
    return OracleResult(sum(h * v.value for h, v in halves),
                        sum(h * v.error_estimate for h, v in halves))


# ---------------------------------------------------------------------------
# spectrally positive interval entry


def spectrally_positive_interval_exit(p: StableParams, z: float, y: float) -> OracleResult:
    """Law of the position at first entry into [-1, 1] for a spectrally
    positive driver started at z outside the interval, alpha in (1, 2).

    From above (z > 1) the process creeps downward: entry is at +1 with
    probability one.  From below (z < -1, b = |z|) entry happens either by
    an upward jump landing inside — the absolutely continuous part

        f(y) = sin(pi(alpha-1))/pi (b-1)^{alpha-1} (1+y)^{1-alpha} (b+y)^{-1},

    y in (-1, 1) — or by overshooting past +1 and creeping back down into
    the interval at +1, the atom

        m(z) = sin(pi(alpha-1))/pi int_0^{(b-1)/(b+1)} t^{alpha-2} (1-t)^{1-alpha} dt
             = I_{(b-1)/(b+1)}(alpha-1, 2-alpha)            (regularized beta).

    Calling convention: y in (-1,1) returns the density; y = +1 returns the
    atom mass at +1; y = -1 returns 0 (no atom there).  f integrates with the
    atom to total mass one.
    """
    if p.sidedness is not Sidedness.SPECTRALLY_POSITIVE or not (1.0 < p.alpha < 2.0):
        raise WrongBranchError(
            "interval entry law is for the spectrally positive branch, alpha in (1,2)"
        )
    z, y = float(z), float(y)
    if abs(z) <= 1.0:
        raise DomainError(f"start must lie outside [-1,1], got {z}")
    if not (-1.0 <= y <= 1.0):
        raise DomainError(f"entry position must lie in [-1,1], got {y}")
    a = p.alpha
    if z > 1.0:
        return OracleResult(1.0 if y == 1.0 else 0.0, 0.0)
    b = -z
    if y == -1.0:
        return OracleResult(0.0, 0.0)
    if y == 1.0:
        atom = special.betainc(a - 1.0, 2.0 - a, (b - 1.0) / (b + 1.0))
        return OracleResult(float(atom), 0.0)
    value = (
        math.sin(math.pi * (a - 1.0))
        / math.pi
        * (b - 1.0) ** (a - 1.0)
        * (1.0 + y) ** (1.0 - a)
        / (b + y)
    )
    return OracleResult(value, 0.0)
