"""Driving-noise primitives: strictly stable processes in the (alpha, rho) plane.

Everything in this package keys off a two-parameter family of strictly
stable Levy processes, normalized through the characteristic exponent

    Psi(z) = -log E[exp(i z X_1)]
           = |z|^alpha * exp( i pi alpha (1/2 - rho) sgn z ),      z real,

where ``alpha`` in (0, 2) is the stability index and ``rho = P(X_1 > 0)``
is the positivity parameter.  For ``alpha = 1`` only the symmetric
(Cauchy, ``rho = 1/2``) member is strictly stable and admitted here.
Admissible rho ranges:

* alpha < 1:   rho in [0, 1]; rho = 1 is an increasing process
  (a subordinator, Laplace transform ``exp(-lambda^alpha)``), rho = 0 a
  decreasing one.
* alpha = 1:   rho = 1/2 (Cauchy).
* alpha > 1:   rho in [1 - 1/alpha, 1/alpha]; the endpoints are the
  spectrally positive (no negative jumps... rho = 1 - 1/alpha) and
  spectrally negative (rho = 1/alpha) members.

The Levy jump measure consistent with this normalization has density

    pi(x) = Gamma(1+alpha)/pi * [ sin(pi alpha rho)    x^{-1-alpha},  x > 0
                                  sin(pi alpha rhohat) |x|^{-1-alpha}, x < 0 ]

with ``rhohat = 1 - rho``.

Sampling uses the Chambers–Mallows–Stuck construction written directly in
(alpha, rho).  With ``theta = pi alpha (1/2 - rho)`` (the phase of Psi on
z > 0), U uniform on (-pi/2, pi/2) and W standard exponential,

    X_1 = sin(alpha U - theta) / cos(U)^{1/alpha}
          * ( cos((1-alpha) U + theta) / W )^{(1-alpha)/alpha},

and for alpha = 1 simply ``X_1 = tan(U)``.  The cosine under the power is
strictly positive on the admissible range because
|(1-alpha) U + theta| < pi/2 there.  Setting rho = 1, alpha < 1 and
substituting V = U + pi/2 recovers Kanter's positive-stable sampler for
``exp(-lambda^alpha)``, which pins the normalization; the general case is
validated against the characteristic function in the test suite.
Each sine and cosine comes from the tangent t of exactly half its argument,
sin x = 2t / (1 + t^2) and cos x = (1 - t^2) / (1 + t^2): numpy keeps float64
sin and cos on scalar libm, and the gain needs its SIMD tan (AVX-512); on a
host without one the kernel costs about what sin and cos did.
Self-similarity gives increments over a step dt as ``dt^{1/alpha} X_1``.
The draws of X_1 come back in a fresh array that the caller owns, so the
scaling by ``dt^{1/alpha}`` is done in place.

Stream contract: n draws of X_1 read n uniforms, then n exponentials (none
at alpha = 1), from one stream, and one transform ``_cms`` maps them to X_1.
``_draws`` reads a list of (stream, n) sources end to end: ``_walk`` passes one
per group of lanes, ``sde_timechange`` one per row block of paths.

Random streams are counter-based (Philox) and splittable: ``stream(seed,
*key)`` yields independent generators for distinct keys, which is how the
Monte Carlo kernels key their batches.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum

import numpy as np
from scipy import special
from scipy.integrate import cumulative_trapezoid

__all__ = [
    "OutOfRangeError",
    "InconsistentRhoError",
    "DomainError",
    "Sidedness",
    "StableParams",
    "char_exponent",
    "levy_density",
    "stream",
    "sample_increment",
    "sample_interval_exit",
    "sample_path",
    "sample_path_at",
    "Path",
]


class OutOfRangeError(ValueError):
    """A parameter lies outside its admissible interval."""


class InconsistentRhoError(ValueError):
    """rho is incompatible with alpha (e.g. alpha=1 with rho != 1/2)."""


class DomainError(ValueError):
    """An evaluation point lies outside the domain of the quantity."""


_EPS = 1e-12


class Sidedness(Enum):
    """Jump activity structure implied by (alpha, rho)."""

    TWO_SIDED = "two-sided"
    SPECTRALLY_POSITIVE = "spectrally-positive"
    SPECTRALLY_NEGATIVE = "spectrally-negative"


def _admissible_alpha(alpha) -> float:
    """alpha as a float if it lies in (0, 2), else OutOfRangeError."""
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        diffusive = " (alpha = 2 is the classical diffusive case)" if alpha == 2.0 else ""
        raise OutOfRangeError(f"alpha must lie in (0, 2), got {alpha}{diffusive}")
    return alpha


@dataclass(frozen=True)
class StableParams:
    """Validated (alpha, rho) pair; construction performs full validation.

    Attributes
    ----------
    alpha : stability index, in (0, 2) (the Gaussian boundary alpha = 2 is
        deliberately out of scope).
    rho : positivity parameter P(X_1 > 0).
    """

    alpha: float
    rho: float

    def __post_init__(self):
        a, r = self.alpha, self.rho
        if not (math.isfinite(a) and math.isfinite(r)):
            raise OutOfRangeError(f"non-finite parameters: alpha={a}, rho={r}")
        _admissible_alpha(a)
        if not (0.0 <= r <= 1.0):
            raise OutOfRangeError(f"rho must lie in [0, 1], got {r}")
        if a == 1.0 and abs(r - 0.5) > _EPS:
            raise InconsistentRhoError(
                f"alpha=1 admits only the symmetric member rho=1/2, got rho={r}"
            )
        if a > 1.0:
            lo, hi = 1.0 - 1.0 / a, 1.0 / a
            if r < lo - _EPS or r > hi + _EPS:
                raise InconsistentRhoError(
                    f"for alpha={a} rho must lie in [{lo:.6f}, {hi:.6f}], got {r}"
                )

    @property
    def rho_hat(self) -> float:
        return 1.0 - self.rho

    @property
    def theta(self) -> float:
        """Phase of the characteristic exponent on z > 0."""
        return math.pi * self.alpha * (0.5 - self.rho)

    @property
    def sidedness(self) -> Sidedness:
        a, r = self.alpha, self.rho
        if a < 1.0:
            if r >= 1.0 - _EPS:
                return Sidedness.SPECTRALLY_POSITIVE  # increasing
            if r <= _EPS:
                return Sidedness.SPECTRALLY_NEGATIVE  # decreasing
            return Sidedness.TWO_SIDED
        if a > 1.0:
            if abs(r - 1.0 / a) <= _EPS:
                return Sidedness.SPECTRALLY_NEGATIVE
            if abs(r - (1.0 - 1.0 / a)) <= _EPS:
                return Sidedness.SPECTRALLY_POSITIVE
            return Sidedness.TWO_SIDED
        return Sidedness.TWO_SIDED

    @cached_property
    def _jump_weights(self) -> tuple[float, float]:
        """(sin(pi alpha rho), sin(pi alpha rhohat)), the weights of the upward
        and downward jumps, but exactly 0 on a one-sided driver's jumpless side
        (where the sine is 0 only up to rounding: sin(pi) = 1.2e-16)."""
        side, a = self.sidedness, math.pi * self.alpha
        return (0.0 if side is Sidedness.SPECTRALLY_NEGATIVE else math.sin(a * self.rho),
                0.0 if side is Sidedness.SPECTRALLY_POSITIVE else math.sin(a * self.rho_hat))

    @property
    def is_monotone(self) -> bool:
        """True for the increasing/decreasing members (alpha < 1, rho in {0,1})."""
        return self.alpha < 1.0 and (self.rho <= _EPS or self.rho >= 1.0 - _EPS)


def char_exponent(p: StableParams, z):
    """Characteristic exponent Psi(z) = |z|^alpha exp(i theta sgn z), theta =
    pi alpha (1/2 - rho).  Vectorized over real z; Psi(0) = 0 exactly."""
    z = np.asarray(z, dtype=float)
    mag = np.abs(z) ** p.alpha
    out = mag * np.exp(1j * p.theta * np.sign(z))
    out = np.where(z == 0.0, 0.0 + 0.0j, out)
    if out.ndim == 0:
        return complex(out)
    return out


def levy_density(p: StableParams, x):
    """Levy jump density at x != 0 (DomainError at the origin).

    Gamma(1+alpha) sin(pi alpha rho)/pi * x^{-1-alpha} on x > 0, with rho
    replaced by rhohat on x < 0.  Vectorized.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise DomainError("Levy density is not defined at x = 0")
    g = math.gamma(1.0 + p.alpha) / math.pi
    up, down = p._jump_weights
    out = np.where(x > 0, g * up, g * down) * np.abs(x) ** (-1.0 - p.alpha)
    if out.ndim == 0:
        return float(out)
    return out


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for the stream (seed, *key).

    Distinct keys give statistically independent Philox streams; the same
    (seed, key) always reproduces the same draws.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _keyed(rng, *key: int) -> np.random.Generator:
    """The stream (rng, *key) of an integer seed; a Generator is used as it
    is (then results depend on call order, not only on the seed)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng), *key)


def _seed_of(rng) -> int | None:
    """The seed to report for rng: None for a Generator or for None."""
    return None if rng is None or isinstance(rng, np.random.Generator) else int(rng)


_BLOCK = 8192  # draws per block: a block's temporaries stay in cache
_ONE_MINUS_T2 = 2.0 ** -52  # 1 - t^2 at the largest double t below 1


def _standard_draws(p: StableParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. copies of X_1: n uniforms, then n exponentials (none at
    alpha = 1), through _cms.  The returned array is a fresh buffer that the
    caller owns and may scale in place."""
    return _draws(p, [(rng, n)])


def _draws(p: StableParams, sources) -> np.ndarray:
    """Each (stream, n) source's n draws, end to end: one _cms."""
    u = [gen.uniform(-math.pi / 2.0, math.pi / 2.0, size=n) for gen, n in sources]
    w = [None] if p.alpha == 1.0 else [gen.standard_exponential(size=n) for gen, n in sources]
    return _cms(p, *(a[0] if len(a) == 1 else np.concatenate(a) for a in (u, w)))


def _cms(p: StableParams, u: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Chambers–Mallows–Stuck in (alpha, rho), written over the 1-D array u.

    From uniforms u on (-pi/2, pi/2) and exponentials w (None at alpha = 1,
    where X_1 = tan(u)), sin(a u - theta) / cos(u)^(1/a) *
    (cos((1-a) u + theta) / w)^((1-a)/a) is computed block by block from
    half-angle tangents, within about 1e-10 relative of libm's sin and cos.
    1 - t^2 is floored at its value for the largest t below 1, so an argument
    that rounds onto or past +-pi/2 keeps a positive cosine.
    """
    if p.alpha == 1.0:
        return np.tan(u, out=u)
    a, half_th = p.alpha, 0.5 * p.theta
    for i in range(0, u.size, _BLOCK):
        ub, wb = u[i : i + _BLOCK], w[i : i + _BLOCK]
        t2 = np.tan(ub * (0.5 * (1.0 - a)) + half_th) ** 2
        x = (np.maximum(1.0 - t2, _ONE_MINUS_T2) / ((1.0 + t2) * wb)) ** ((1.0 - a) / a)
        t = np.tan(ub * (0.5 * a) - half_th)
        x *= t / (1.0 + t * t)  # sin(a u - theta) / 2 * (cos((1-a) u + theta) / w)^((1-a)/a)
        t2 = np.tan(0.5 * ub) ** 2
        cos_u = np.maximum(1.0 - t2, _ONE_MINUS_T2) / (1.0 + t2)
        np.divide(2.0 * x, cos_u ** (1.0 / a), out=ub)
    return u


def sample_increment(p: StableParams, dt, rng, size: int | None = None):
    """Exact-in-law increments of X over elapsed time dt.

    dt may be a positive scalar (with ``size`` draws) or an array of
    positive step lengths (one draw per entry).  Self-similarity:
    X_{t+dt} - X_t  =law=  dt^{1/alpha} X_1.  rng may also be a list of
    (stream, n) ``_draws`` sources, one draw per entry of dt in turn.
    """
    dt_arr = np.asarray(dt, dtype=float)
    # a NaN makes min() NaN, which fails the comparison like any bad step
    if dt_arr.size and not (dt_arr.min() >= 0.0 and dt_arr.max() < math.inf):
        raise OutOfRangeError("step lengths must be finite and nonnegative")
    if dt_arr.ndim and size is not None:
        raise ValueError("size applies only to scalar dt")
    if not isinstance(rng, list):
        rng = [(_keyed(rng), dt_arr.size if dt_arr.ndim else 1 if size is None else int(size))]
    draws = _draws(p, rng).reshape(dt_arr.shape or -1)
    draws *= dt_arr ** (1.0 / p.alpha)
    return float(draws[0]) if dt_arr.ndim == 0 and size is None else draws


def _upward_exit_probability(p: StableParams) -> float:
    """P_0(X leaves (-1, 1) upwards) for a two-sided driver: the mass of
    Rogozin's exit density above 1, I_{1/2}(alpha rhohat, alpha rho)."""
    return float(special.betainc(p.alpha * p.rho_hat, p.alpha * p.rho, 0.5))


def _upward_exits(gen: np.random.Generator, al: float, a: float, n: int) -> np.ndarray:
    """n exit positions y > 1 from (-1, 1) started at 0, given an upward exit,
    when alpha rho = a.  In s = 2/(y+1) Rogozin's density is proportional to
    s^{alpha-1} (1-s)^{-a} / (2-s): Beta(alpha, 1-a) draws accepted with
    probability 1/(2-s) >= 1/2."""
    s = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        cand = gen.beta(al, 1.0 - a, size=todo.size)
        ok = gen.random(todo.size) * (2.0 - cand) <= 1.0
        s[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return 2.0 / s - 1.0


def sample_interval_exit(p: StableParams, rng, size: int) -> np.ndarray:
    """``size`` exact draws of X at its first exit from (-1, 1), started at 0.

    By self-similarity x + r Y is the first exit from (x - r, x + r) started
    at x.  Symmetric drivers (Blumenthal–Getoor–Ray): |Y| = T^{-1/2} with
    T ~ Beta(alpha/2, 1 - alpha/2) and a fair sign; T underflows to 0, and
    |Y| to inf, with probability about 1e-8 per draw at alpha = 0.05 and
    below 1e-15 from alpha = 0.1 on.  Other two-sided drivers (Rogozin): up
    with probability ``_upward_exit_probability(p)``, then each side by
    rejection from a beta law (see ``_upward_exits``).  One-sided drivers
    raise OutOfRangeError: they creep across one end, or never reach it.
    """
    if p.sidedness is not Sidedness.TWO_SIDED:
        raise OutOfRangeError(f"interval exit sampling needs a two-sided driver, got {p}")
    gen = _keyed(rng)
    al = p.alpha
    if abs(p.rho - 0.5) <= _EPS:
        radius = gen.beta(al / 2.0, 1.0 - al / 2.0, size=size) ** -0.5
        return np.where(gen.random(size) < 0.5, radius, -radius)
    up = gen.random(size) < _upward_exit_probability(p)
    out = np.empty(size)
    out[up] = _upward_exits(gen, al, al * p.rho, int(np.sum(up)))
    out[~up] = -_upward_exits(gen, al, al * p.rho_hat, int(np.sum(~up)))
    return out


@dataclass
class Path:
    """A sampled cadlag trajectory on a finite grid.

    Invariants (enforced at construction): equal-length float arrays, times
    nondecreasing and strictly increasing after deduplication, all values
    finite, and no samples beyond ``killed_at`` when that is set.
    """

    times: np.ndarray
    values: np.ndarray
    alpha: float | None = None
    rho: float | None = None
    seed: int | None = None
    step: float | None = None
    killed_at: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if t.size:
            if np.any(np.diff(t) < 0):
                raise ValueError("times must be nondecreasing")
            if not np.all(np.isfinite(v)):
                raise ValueError("path values must be finite")
            if not np.all(np.isfinite(t)):
                raise ValueError("path times must be finite")
            # collapse duplicate consecutive times (keep the first sample) so
            # that times are strictly increasing afterwards
            keep = np.concatenate(([True], np.diff(t) > 0))
            t, v = t[keep], v[keep]
            if self.killed_at is not None and t.size and t[-1] > self.killed_at:
                raise ValueError("samples extend beyond killed_at")
        self.times, self.values = t, v

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path_or_buf=None) -> str | None:
        """Write `time,value` rows with a commented header carrying the
        sampling metadata (alpha, rho, seed, step, killed_at).  With no
        destination, return the CSV text instead."""

        def fmt(x):
            if x is None:
                return ""
            return repr(x.item() if hasattr(x, "item") else x)

        header = (
            "# artifact-path v1\n"
            f"# alpha={fmt(self.alpha)} rho={fmt(self.rho)} seed={fmt(self.seed)}"
            f" step={fmt(self.step)} killed_at={fmt(self.killed_at)}\n"
        )
        if self.meta:
            header += "# meta=" + json.dumps(self.meta, separators=(",", ":")) + "\n"
        header += "time,value\n"
        body = "".join(
            f"{float(t)!r},{float(v)!r}\n" for t, v in zip(self.times, self.values)
        )
        if path_or_buf is None:
            return header + body
        if hasattr(path_or_buf, "write"):
            path_or_buf.write(header + body)
        else:
            with open(path_or_buf, "w") as fh:
                fh.write(header + body)
        return None

    @classmethod
    def from_csv(cls, path_or_buf) -> "Path":
        if hasattr(path_or_buf, "read"):
            text = path_or_buf.read()
        else:
            with open(path_or_buf) as fh:
                text = fh.read()
        meta: dict[str, float | int | None] = {
            "alpha": None, "rho": None, "seed": None, "step": None, "killed_at": None,
        }
        extra: dict = {}
        times, values = [], []
        for line in io.StringIO(text):
            line = line.strip()
            if not line:
                continue
            if line.startswith("# meta="):
                extra = json.loads(line[len("# meta="):])
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, _, raw = tok.partition("=")
                        if k in meta:
                            meta[k] = None if raw == "" else float(raw)
                continue
            if line.startswith("time"):
                continue
            a, _, b = line.partition(",")
            times.append(float(a))
            values.append(float(b))
        seed = meta["seed"]
        return cls(
            times=np.asarray(times),
            values=np.asarray(values),
            alpha=meta["alpha"],
            rho=meta["rho"],
            seed=None if seed is None else int(seed),
            step=meta["step"],
            killed_at=meta["killed_at"],
            meta=extra,
        )

    def with_values(self, values: np.ndarray) -> "Path":
        return replace(self, values=np.asarray(values, dtype=float))


def _retimed(path: Path, rate: np.ndarray, values, tag: str) -> Path:
    """``values`` at the clock int_0^t rate ds (trapezoid on the path's grid,
    starting at 0), with the path's alpha, rho and seed and ``tag`` as its
    ``meta["transform"]``."""
    return Path(
        cumulative_trapezoid(rate, path.times, initial=0.0),
        values,
        alpha=path.alpha,
        rho=path.rho,
        seed=path.seed,
        step=None,
        meta=dict(path.meta, transform=tag),
    )


def sample_path(
    p: StableParams,
    x0: float,
    horizon: float,
    step: float | None = None,
    rng=0,
) -> Path:
    """Sample X on the uniform grid {0, step, 2 step, ..., horizon}.

    ``step`` defaults to 1e-3 * horizon.  horizon = 0 degenerates to the
    single sample (0, x0).  Requires 0 < step <= horizon otherwise.
    """
    if horizon < 0 or not math.isfinite(horizon):
        raise OutOfRangeError("horizon must be finite and nonnegative")
    gen, seed = _keyed(rng), _seed_of(rng)
    if horizon == 0.0:
        return Path(np.zeros(1), np.full(1, float(x0)),
                    alpha=p.alpha, rho=p.rho, seed=seed, step=step)
    if step is None:
        step = 1e-3 * horizon
    if not (0 < step <= horizon):
        raise OutOfRangeError(f"step must lie in (0, horizon], got {step}")
    n = int(round(horizon / step))
    times = np.linspace(0.0, n * step, n + 1)
    incs = sample_increment(p, step, gen, size=n)
    values = float(x0) + np.concatenate(([0.0], np.cumsum(incs)))
    return Path(times, values, alpha=p.alpha, rho=p.rho, seed=seed, step=float(step))


def sample_path_at(p: StableParams, x0: float, times, rng=0) -> Path:
    """Sample X exactly at an arbitrary nondecreasing grid of times."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if t[0] < 0 or np.any(np.diff(t) < 0):
        raise OutOfRangeError("times must be nonnegative and nondecreasing")
    gen, seed = _keyed(rng), _seed_of(rng)
    dts = np.diff(t)
    pos = dts > 0
    incs = np.zeros_like(dts)
    if pos.any():
        incs[pos] = sample_increment(p, dts[pos], gen)
    values = float(x0) + np.concatenate(([0.0], np.cumsum(incs)))
    if t[0] > 0:
        values = values + sample_increment(p, float(t[0]), gen)
    return Path(t.copy(), values, alpha=p.alpha, rho=p.rho, seed=seed)
