"""Markov-process transforms built on the stable driver.

Contents:

* the characteristic exponents of six Levy processes tied to path
  transformations of the driver (censoring, radial part, conditioning to
  stay positive, killing at the origin, and their duals), all in the
  convention

      Psi(z) = - (1/t) log E[ exp( i z xi_t ) ],

  under which the time-1 mean is  E[xi_1] = Re( i Psi'(0) );
* the deterministic Lamperti time change between positive self-similar
  paths and Levy paths, its inverse, and positive-part censoring of a path.

A real-valued analogue driven by a two-state sign-modulating chain (the
matrix-exponent machinery) exists in the theory but is deliberately not
implemented here; only the positive-path transforms are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma, loggamma, rgamma

from .stable_core import (
    InconsistentRhoError,
    OutOfRangeError,
    Path,
    Sidedness,
    StableParams,
    _retimed,
)

__all__ = [
    "PoleHitError",
    "NonPositivePathError",
    "ExponentKind",
    "LevyExponent",
    "mean_at_one",
    "esscher_zero_check",
    "lamperti_forward",
    "lamperti_inverse",
    "censor_positive",
]


class PoleHitError(ArithmeticError):
    """The evaluation point sits on a pole of a numerator gamma factor."""


class NonPositivePathError(ValueError):
    """The transform requires a strictly positive path."""


def _is_nonpositive_integer(z):
    z = np.asarray(z, dtype=complex)
    near_int = np.abs(z.real - np.round(z.real)) <= 1e-12
    return near_int & (np.abs(z.imag) <= 1e-12) & (np.round(z.real) <= 0)


# ---------------------------------------------------------------------------
# characteristic exponents


class ExponentKind(Enum):
    CENSORED = "censored"
    RADIAL = "radial"
    COND_POSITIVE = "cond_positive"
    DAGGER_SPEC_POS = "dagger_spec_pos"
    HAT_UPARROW = "hat_uparrow"
    CENSORED_CIRC = "censored_circ"


# kind -> (sign, the numerator and denominator gamma arguments as a function of
# alpha, a = alpha rho, ahat = alpha rhohat and w = -iz)
_GAMMA_ARGS = {
    ExponentKind.CENSORED: (1.0, lambda al, a, ahat, w: ((a + w, 1.0 - a - w), (w, 1.0 - al - w))),
    ExponentKind.RADIAL: (1.0, lambda al, a, ahat, w: (((al + w) / 2.0, (1.0 - w) / 2.0),
                                                       (w / 2.0, (1.0 - al - w) / 2.0))),
    ExponentKind.COND_POSITIVE: (
        1.0, lambda al, a, ahat, w: ((a + w, 1.0 + ahat - w), (w, 1.0 - w))),
    ExponentKind.CENSORED_CIRC: (
        1.0, lambda al, a, ahat, w: ((1.0 - a + w, a - w), (1.0 - al + w, -w))),
    # iz = -w and Gamma(1 + w) = w Gamma(w)
    ExponentKind.DAGGER_SPEC_POS: (-1.0, lambda al, a, ahat, w: ((al + w,), (w,))),
    ExponentKind.HAT_UPARROW: (-1.0, lambda al, a, ahat, w: ((al - w,), (-w,))),
}


@dataclass(frozen=True)
class LevyExponent:
    """Characteristic exponent of one of the transform-related Levy processes.

    Gamma-quotient forms in terms of a = alpha rho, ahat = alpha rhohat
    (all "up to a multiplicative constant" in their derivations; the
    constants here are the canonical ones):

    CENSORED          Gamma(a-iz) Gamma(1-a+iz) / [Gamma(-iz) Gamma(1-alpha+iz)]
                      — positive-part censoring of the origin-killed driver;
                      needs 0 < rho < 1 and a < 1.
    RADIAL            Gamma((alpha-iz)/2) Gamma((1+iz)/2)
                      / [Gamma(-iz/2) Gamma((1-alpha+iz)/2)]
                      — radial part |X|; Markov only when rho = 1/2.
    COND_POSITIVE     Gamma(a-iz) Gamma(1+ahat+iz) / [Gamma(-iz) Gamma(1+iz)]
                      — driver conditioned to stay positive.
    DAGGER_SPEC_POS   iz Gamma(alpha-iz) / Gamma(1-iz)
                      — spectrally positive driver killed at the origin,
                      alpha in (1,2); time-1 mean -Gamma(alpha).
    HAT_UPARROW       -iz Gamma(alpha+iz) / Gamma(1+iz)
                      — the dual conditioned to stay positive: the negative
                      of the DAGGER process, Psi(z) = Psi_dagger(-z); time-1
                      mean +Gamma(alpha).
    CENSORED_CIRC     Gamma(1-a-iz) Gamma(a+iz) / [Gamma(1-alpha-iz) Gamma(iz)]
                      — censored driver conditioned to hit the origin
                      continuously, alpha in (1,2); equals the censored dual
                      exponent Esscher-shifted by alpha-1, hence vanishes at
                      z = -i(alpha-1).
    """

    params: StableParams
    kind: ExponentKind

    def __post_init__(self):
        p, k = self.params, self.kind
        a = p.alpha * p.rho
        if k in (ExponentKind.CENSORED, ExponentKind.CENSORED_CIRC):
            if not (0.0 < p.rho < 1.0) or a >= 1.0 - 1e-12:
                raise InconsistentRhoError(
                    f"{k.value} exponent needs two-sided jumps with alpha*rho < 1 "
                    f"(got alpha*rho = {a})"
                )
        spec_pos = k in (ExponentKind.DAGGER_SPEC_POS, ExponentKind.HAT_UPARROW)
        if (spec_pos or k is ExponentKind.CENSORED_CIRC) and not (1.0 < p.alpha < 2.0):
            raise OutOfRangeError(f"{k.value} exponent needs alpha in (1,2)")
        if k is ExponentKind.RADIAL and abs(p.rho - 0.5) > 1e-12:
            raise InconsistentRhoError(
                "radial part is Markov only for the symmetric driver (rho = 1/2)"
            )
        if spec_pos and p.sidedness is not Sidedness.SPECTRALLY_POSITIVE:
            raise InconsistentRhoError(
                f"{k.value} exponent belongs to the spectrally positive branch "
                f"(rho = 1 - 1/alpha)"
            )
        if k is ExponentKind.COND_POSITIVE and not (0.0 < p.rho):
            raise InconsistentRhoError("conditioning to stay positive needs rho > 0")

    def eval(self, z):
        """Psi(z) for real (or, for analytic continuation, complex) z.

        Denominator gamma poles produce exact zeros of Psi (this is how
        Psi(0) = 0 holds); a numerator pole raises PoleHitError naming the
        offending arguments.
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        p = self.params
        sign, args = _GAMMA_ARGS[self.kind]
        nums, dens = args(p.alpha, p.alpha * p.rho, p.alpha * p.rho_hat, -1j * z)
        num_pole = np.zeros(z.shape, dtype=bool)
        for arg in nums:
            num_pole |= _is_nonpositive_integer(arg)
        if np.any(num_pole):
            idx = int(np.argmax(num_pole))
            raise PoleHitError(
                f"numerator gamma pole at z = {z[idx]} "
                f"(arguments {[complex(np.atleast_1d(a)[idx] if np.ndim(a) else a) for a in nums]})"
            )
        den_pole = np.zeros(z.shape, dtype=bool)
        for arg in dens:
            den_pole |= _is_nonpositive_integer(arg)
        log_expr = np.zeros(z.shape, dtype=complex)
        for arg in nums:
            log_expr = log_expr + loggamma(arg)
        for arg in dens:
            safe = np.where(den_pole, 1.0, arg)
            log_expr = log_expr - loggamma(safe)
        val = np.exp(log_expr)
        out = np.where(den_pole, 0.0, val if sign > 0 else -val)
        if scalar:
            return complex(out[0])
        return out


def mean_at_one(e: LevyExponent) -> float:
    """E[xi_1] = Re( i Psi'(0) ) = dPsi/dw at w = -iz = 0, in closed form.

    Psi(0) = 0 through one denominator argument k w, and 1/Gamma(k w) = k w +
    O(w^2), so E[xi_1] = sign k prod Gamma(nums(0)) / prod Gamma(other
    dens(0)), which is 0 where a second one vanishes too (alpha = 1).
    """
    p = e.params
    sign, args = _GAMMA_ARGS[e.kind]
    at = lambda w: args(p.alpha, p.alpha * p.rho, p.alpha * p.rho_hat, w)
    nums, dens = at(0.0)
    i = dens.index(0.0)
    k = at(1.0)[1][i]  # every argument is linear in w
    others = dens[:i] + dens[i + 1:]
    return float(sign * k * np.prod(gamma(nums)) * np.prod(rgamma(others)))


def esscher_zero_check(p: StableParams, at: complex | None = None) -> float:
    """|Psi-circ-witness| at the Esscher point: the censored exponent of the
    DUAL driver, continued to z = -i(alpha - 1), is exactly zero (the
    conditioned-to-hit-zero transform is an exponential change of measure of
    the censored dual).  Returns the modulus at `at` (default the Esscher
    point); evaluating elsewhere (e.g. -i(alpha-1)/2) gives a nonzero
    negative control.
    """
    if not (1.0 < p.alpha < 2.0):
        raise OutOfRangeError("the Esscher identity lives on alpha in (1,2)")
    dual = StableParams(p.alpha, p.rho_hat)
    e = LevyExponent(dual, ExponentKind.CENSORED)
    z0 = -1j * (p.alpha - 1.0) if at is None else at
    return float(abs(e.eval(z0)))


# ---------------------------------------------------------------------------
# Lamperti transform


def lamperti_forward(xi_path: Path, alpha: float) -> Path:
    """Positive self-similar path from a Levy path:  X_t = exp(xi_{phi_t}).

    phi is the inverse of s -> int_0^s exp(alpha xi_u) du; on a discrete
    skeleton the construction is exact at the image times of the grid, so
    the output is the pair (clock integral, exp(values)).
    """
    if alpha <= 0:
        raise OutOfRangeError("alpha must be positive")
    xi = xi_path.values
    return _retimed(xi_path, np.exp(alpha * xi), np.exp(xi), "lamperti_forward")


def lamperti_inverse(x_path: Path, alpha: float) -> Path:
    """Levy path from a strictly positive self-similar path (inverse of
    lamperti_forward on skeletons): xi = log X at the de-time-changed clock
    int_0^t X_u^{-alpha} du."""
    if alpha <= 0:
        raise OutOfRangeError("alpha must be positive")
    v = x_path.values
    if np.any(v <= 0.0):
        raise NonPositivePathError("Lamperti inverse needs a strictly positive path")
    return _retimed(x_path, v ** (-alpha), np.log(v), "lamperti_inverse")


def censor_positive(path: Path) -> Path:
    """Erase the nonpositive excursions and close the time gaps.

    Sample k owns the duration [t_k, t_{k+1}); kept samples are exactly those
    with value > 0 and the output clock is the cumulative sum of kept
    durations (the occupation clock of (0, inf)).  Idempotent.
    """
    t, v = path.times, path.values
    if len(t) == 0:
        return path
    keep = v > 0.0
    durations = np.concatenate((np.diff(t), [0.0]))
    kept_d = durations[keep]
    new_t = np.concatenate(([0.0], np.cumsum(kept_d)))[:-1] if keep.any() else np.empty(0)
    return Path(
        new_t,
        v[keep],
        alpha=path.alpha,
        rho=path.rho,
        seed=path.seed,
        step=path.step,
        meta={"transform": "censor_positive"},
    )
