"""Time-change solution of dZ = sigma(Z-) dX and its spatial inversion.

The pathwise solution driven by a stable path X started at x0 is

    Z_t = X_{tau_t},   tau_t = inf{ s : A_s > t },
    A_s = int_0^s sigma(X_u)^{-alpha} du,

up to the explosion time T = A_infinity (finite exactly when the boundary
classifier ticks an explosion row).  On a discrete skeleton the additive
functional is a trapezoid sum and the solution is read off by inverting the
(strictly increasing) clock at the grid image times; output values are a
contiguous prefix of the input values, exactly (no interpolation in space).

The spatial inversion swaps the boundary point at infinity with the origin:
from a path omega it builds the path 1/omega run at the clock with density
beta(x) = sigma(1/x)^{-alpha} |x|^{-2 alpha}; composed with its inverse
(integrand 1/beta(1/x)) it returns the original skeleton exactly in space
and within quadrature drift in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .sigma_model import SigmaFunction
from .stable_core import OutOfRangeError, Path, StableParams, _keyed, _retimed, _seed_of

__all__ = [
    "ExhaustedPathError",
    "HitZeroError",
    "AdditiveFunctional",
    "additive_functional",
    "time_change_solve",
    "ExplosionEstimate",
    "explosion_estimate",
    "spatial_inversion",
    "spatial_inversion_inverse",
]


class ExhaustedPathError(RuntimeError):
    """The driving path's clock ran out before the requested horizon and the
    additive functional shows no plateau (the horizon was simply too short)."""


class HitZeroError(ValueError):
    """Spatial inversion is undefined on a path with an exact zero value."""


_BETA_CLAMP = 1e-12


@dataclass
class AdditiveFunctional:
    """Cumulative clock A_s on the driving path's grid; cumvals[0] = 0."""

    times: np.ndarray
    cumvals: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.cumvals, dtype=float)
        if t.shape != c.shape or t.ndim != 1:
            raise ValueError("times and cumvals must be 1-D arrays of equal length")
        if c.size == 0 or c[0] != 0.0:
            raise ValueError("cumvals must start at 0")
        if np.any(np.diff(c) < 0):
            raise ValueError("cumvals must be nondecreasing")
        self.times, self.cumvals = t, c

    @property
    def final(self) -> float:
        return float(self.cumvals[-1])


def _alpha_for(path: Path, alpha: float | None) -> float:
    """alpha from the argument, else from the path."""
    if alpha is None:
        alpha = path.alpha
    if alpha is None:
        raise OutOfRangeError("alpha is required (not carried by the path)")
    return float(alpha)


def additive_functional(path: Path, s: SigmaFunction, alpha: float | None = None) -> AdditiveFunctional:
    """Trapezoid cumulative of sigma(X)^(-alpha) along the path. Exact for
    constant sigma (sigma == 1 gives A_s = s on the grid)."""
    f = np.asarray(s(path.values), dtype=float) ** (-_alpha_for(path, alpha))
    return AdditiveFunctional(
        path.times.copy(), cumulative_trapezoid(f, path.times, initial=0.0)
    )


def _plateaued(total, late, rel_tol: float = 1e-3):
    """Has the clock stopped growing: is its growth `late` over the last
    decade of the window (from times[k], k = searchsorted(times, T/10)) below
    rel_tol of its `total`?  Elementwise; a clock with no mass has not."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, late / total, 1.0) < rel_tol


def time_change_solve(
    path: Path, s: SigmaFunction, horizon: float, alpha: float | None = None
) -> Path:
    """Z on [0, horizon] from the driving path, as samples (A_i, X_i).

    If the path's clock already exceeds the horizon the solution is returned
    truncated at the horizon.  If the clock falls short but has visibly
    plateaued, the solution is complete-up-to-explosion and carries
    ``killed_at`` = the plateau value (the explosion time estimate); if it
    falls short while still growing, ExhaustedPathError is raised — simulate
    the driver further.
    """
    if horizon < 0:
        raise OutOfRangeError("horizon must be nonnegative")
    A = additive_functional(path, s, alpha)
    meta = dict(path.meta, transform="time_change")
    if A.final >= horizon:
        mask = A.cumvals <= horizon
        return Path(
            A.cumvals[mask],
            path.values[mask],
            alpha=path.alpha,
            rho=path.rho,
            seed=path.seed,
            step=path.step,
            meta=meta,
        )
    k = min(int(np.searchsorted(A.times, A.times[-1] / 10.0)), A.cumvals.size - 1)
    if _plateaued(A.final, A.final - A.cumvals[k]):
        return Path(
            A.cumvals,
            path.values,
            alpha=path.alpha,
            rho=path.rho,
            seed=path.seed,
            step=path.step,
            killed_at=A.final,
            meta=dict(meta, exploded=True),
        )
    raise ExhaustedPathError(
        f"driving path exhausted at clock {A.final:.6g} < horizon {horizon:.6g} "
        "with the clock still growing; extend the driver's horizon"
    )


@dataclass
class ExplosionEstimate:
    """Monte Carlo summary of the explosion time T = A_infinity.

    samples are the truncated values A_horizon per path; plateaued flags
    paths whose clock stopped growing (relative growth over the last decade
    of the horizon < 1e-3).  The point estimate and CI refer to E[T] and are
    emitted only when every path plateaued; otherwise use
    ``plateaued_samples`` explicitly and account for the truncation.
    """

    n_paths: int
    horizon: float
    samples: np.ndarray
    plateaued: np.ndarray
    seed: int | None = None

    @property
    def plateau_fraction(self) -> float:
        return float(np.mean(self.plateaued))

    @property
    def plateaued_samples(self) -> np.ndarray:
        return self.samples[self.plateaued]

    @property
    def point_estimate(self) -> float | None:
        if not bool(np.all(self.plateaued)):
            return None
        return float(np.mean(self.samples))

    @property
    def ci95(self) -> tuple[float, float] | None:
        if not bool(np.all(self.plateaued)):
            return None
        m = float(np.mean(self.samples))
        half = 1.96 * float(np.std(self.samples, ddof=1)) / math.sqrt(len(self.samples))
        return (m - half, m + half)

    def flags(self) -> list[str]:
        return ["Plateaued" if b else "StillGrowing" for b in self.plateaued]


def _explosion_grid(horizon: float, head_step: float, growth: float) -> np.ndarray:
    head_end = min(2.0, horizon)
    ts = [np.arange(0.0, head_end, head_step)]
    if horizon > head_end:
        t, tail = head_end, []
        while t < horizon:
            tail.append(t)
            t *= growth
        tail.append(horizon)
        ts.append(np.asarray(tail))
    else:
        ts.append(np.asarray([head_end]))
    return np.concatenate(ts)


def explosion_estimate(
    p: StableParams,
    s: SigmaFunction,
    x0: float,
    horizon: float,
    n_paths: int,
    rng: int | np.random.Generator = 0,
    head_step: float = 5e-3,
    growth: float = 1.04,
    batch: int = 10_000,
) -> ExplosionEstimate:
    """Sample A_horizon (truncated explosion times) over n_paths drivers.

    The grid is uniform with ``head_step`` on [0, min(2, horizon)] and
    geometric with the given ratio out to the horizon: the integrand
    sigma(X)^{-alpha} varies on O(1) scales near the start and decays like a
    power at the self-similar scale X_t ~ t^{1/alpha}, so a geometric tail
    grid keeps the trapezoid error subordinate to the Monte Carlo error.
    """
    if n_paths < 1:
        raise OutOfRangeError("n_paths must be at least 1")
    if batch < 1:
        raise OutOfRangeError("batch must be at least 1")
    ts = _explosion_grid(horizon, head_step, growth)
    dts = np.diff(ts)
    alpha = p.alpha
    k_decade = int(np.searchsorted(ts, horizon / 10.0))
    samples = np.empty(n_paths)
    flags = np.empty(n_paths, dtype=bool)
    for bi, first in enumerate(range(0, n_paths, batch)):
        m = min(batch, n_paths - first)
        incs = sample_increments_matrix(p, dts, m, _keyed(rng, bi))
        x = np.empty((m, ts.size))
        x[:, 0] = x0
        np.cumsum(incs, axis=1, out=x[:, 1:])
        x[:, 1:] += x0
        f = np.asarray(s(x), dtype=float) ** (-alpha)
        a_inc = 0.5 * (f[:, 1:] + f[:, :-1]) * dts
        total = a_inc.sum(axis=1)
        samples[first : first + m] = total
        flags[first : first + m] = _plateaued(total, a_inc[:, k_decade:].sum(axis=1))
    return ExplosionEstimate(
        n_paths=n_paths, horizon=float(horizon), samples=samples,
        plateaued=flags, seed=_seed_of(rng),
    )


def sample_increments_matrix(
    p: StableParams, dts: np.ndarray, m: int, gen: np.random.Generator
) -> np.ndarray:
    """(m, len(dts)) matrix of independent increments, column k over dts[k]."""
    from .stable_core import _standard_draws

    draws = _standard_draws(p, gen, m * dts.size).reshape(m, dts.size)
    return dts ** (1.0 / p.alpha) * draws


# ---------------------------------------------------------------------------
# spatial inversion


def _beta_integrand(s: SigmaFunction, alpha: float, x: np.ndarray) -> np.ndarray:
    ax = np.maximum(np.abs(x), _BETA_CLAMP)
    sgn = np.where(x >= 0.0, 1.0, -1.0)  # sign(0) would defeat the clamp
    return np.asarray(s(1.0 / (sgn * ax)), dtype=float) ** (-alpha) * ax ** (
        -2.0 * alpha
    )


def _coinvert_integrand(s: SigmaFunction, alpha: float, x: np.ndarray) -> np.ndarray:
    ax = np.maximum(np.abs(x), _BETA_CLAMP)
    return np.asarray(s(x), dtype=float) ** alpha * ax ** (-2.0 * alpha)


def _inversion(path: Path, rate: np.ndarray, tag: str) -> Path:
    if np.any(path.values == 0.0):
        raise HitZeroError("spatial inversion is undefined at an exact zero value")
    return _retimed(path, rate, 1.0 / path.values, tag)


def spatial_inversion(path: Path, s: SigmaFunction, alpha: float | None = None) -> Path:
    """Values 1/x at the clock with density beta(x) = sigma(1/x)^{-alpha} |x|^{-2 alpha}.

    Swaps the role of the origin and the point at infinity for the
    coefficient sigma.  |x| is clamped at 1e-12 inside beta; an exact zero
    raises HitZeroError.
    """
    rate = _beta_integrand(s, _alpha_for(path, alpha), path.values)
    return _inversion(path, rate, "spatial_inversion")


def spatial_inversion_inverse(path: Path, s: SigmaFunction, alpha: float | None = None) -> Path:
    """Inverse of spatial_inversion on skeletons: values 1/omega at the clock
    with density 1/beta(1/omega) = sigma(omega)^{alpha} |omega|^{-2 alpha}."""
    rate = _coinvert_integrand(s, _alpha_for(path, alpha), path.values)
    return _inversion(path, rate, "spatial_inversion_inverse")
