"""Monte Carlo cross-validation of simulated paths against the closed forms.

Every public operation returns a ValidationOutcome with a scalar statistic,
a threshold, and a pass flag (pass == statistic <= threshold), plus run
metadata, and serializes to a JSON line.  Path generation is vectorized over
paths with state-adaptive stepping: far from the region that decides the
functional under test the step grows like coef * distance^alpha (the
displacement per step then stays a fixed small fraction of the distance,
uniformly over scales), and near the decisive set it is floored at a fine
step so that crossings and kills are resolved.

Determinism: an integer ``rng`` seeds one independent substream per batch
(keyed, not sequential), so results are reproducible for a given seed,
batch size, and n_paths.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .fluctuation_oracles import killed_potential_density
from .sde_timechange import _plateaued
from .sigma_model import SigmaFunction
from .stable_core import OutOfRangeError, StableParams, _keyed, _seed_of, sample_increment

__all__ = [
    "TooFewSamplesError",
    "ValidationOutcome",
    "ks_statistic",
    "ks_compare",
    "cdf_from_density",
    "passage_overshoot_samples",
    "strip_entry_samples",
    "origin_kill_occupation",
    "interval_exit_occupation",
    "exit_interval_samples",
    "occupation_vs_potential",
    "occupation_potential_lemma",
    "perpetual_integral_law",
    "entrance_proxy",
]


class TooFewSamplesError(ValueError):
    """A distributional comparison needs at least 100 effective samples."""


MIN_KS_SAMPLES = 100


@dataclass
class ValidationOutcome:
    """One validation run: pass iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    n_paths: int
    seed: int | None
    runtime_s: float
    extras: dict = field(default_factory=dict)

    def to_json_line(self, include_runtime: bool = False) -> str:
        """One JSON object per line.  Runtime is excluded by default so that
        identical (seed, n, name) runs emit byte-identical records."""
        payload = {
            "schema_version": "1",
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "n_paths": self.n_paths,
            "seed": self.seed,
            "extras": _jsonable(self.extras),
        }
        if include_runtime:
            payload["runtime_s"] = round(self.runtime_s, 3)
        return json.dumps(payload, sort_keys=True)


def _judged(name, statistic, threshold, n_paths, rng, t0, extras) -> ValidationOutcome:
    """The outcome of a validation started at perf_counter() == t0 on rng."""
    statistic, threshold = float(statistic), float(threshold)
    return ValidationOutcome(
        name=name, statistic=statistic, threshold=threshold,
        passed=statistic <= threshold, n_paths=n_paths, seed=_seed_of(rng),
        runtime_s=time.perf_counter() - t0, extras=extras,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# ---------------------------------------------------------------------------
# Kolmogorov–Smirnov


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """sup-distance between the empirical CDF of samples and cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise TooFewSamplesError("no samples")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_compare(
    samples: np.ndarray,
    cdf,
    threshold: float | None = None,
    *,
    name: str = "ks_compare",
    seed: int | None = None,
    extras: dict | None = None,
    runtime_s: float = 0.0,
) -> ValidationOutcome:
    """KS test of samples against a target CDF callable.

    Default threshold 1.628/sqrt(n) is the 99% two-sided Kolmogorov point:
    a correct match fails spuriously about 1% of the time, a wrong law
    (with n in the usual 1e4..1e5 range) essentially always fails.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < MIN_KS_SAMPLES:
        raise TooFewSamplesError(
            f"{n} samples < {MIN_KS_SAMPLES}; distributional comparison refused"
        )
    if threshold is None:
        threshold = 1.628 / math.sqrt(n)
    d = ks_statistic(samples, cdf)
    return ValidationOutcome(
        name=name, statistic=d, threshold=float(threshold), passed=d <= threshold,
        n_paths=n, seed=seed, runtime_s=runtime_s, extras=extras or {},
    )


def cdf_from_density(
    density,
    lo: float,
    hi: float,
    *,
    n_panels: int = 400,
    edge: float = 1e-9,
    normalize: bool = True,
):
    """Build a CDF callable from a density with (integrable) endpoint
    singularities: panel-wise adaptive quadrature on a grid clustered
    geometrically toward both endpoints, then monotone interpolation."""
    width = hi - lo
    # half the panels sweep each side, geometrically from `edge` outward
    k = n_panels // 2
    off = width / 2.0 * (edge ** (np.arange(k, 0, -1) / k))
    nodes = np.concatenate(([lo], lo + off, [0.5 * (lo + hi)], hi - off[::-1], [hi]))
    nodes = np.unique(nodes)
    # QUADPACK nodes in the panels next to lo and hi can round onto them,
    # where a singular density is undefined; the endpoints are a null set
    inner = lambda y: density(y) if lo < y < hi else 0.0
    masses = np.empty(nodes.size - 1)
    for i in range(nodes.size - 1):
        a, b = nodes[i], nodes[i + 1]
        val, _ = integrate.quad(inner, a, b, limit=200)
        masses[i] = max(val, 0.0)
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    total = cum[-1]
    if normalize and total > 0:
        cum = cum / total

    def cdf(y):
        y = np.asarray(y, dtype=float)
        out = np.interp(y, nodes, cum, left=0.0, right=cum[-1])
        return out

    cdf.total_mass = float(total)
    return cdf


# ---------------------------------------------------------------------------
# path engine

# how a lane ended: its stop mask fired, its clock reached the horizon, or it
# was still running after max_steps iterations
_STOPPED, _HORIZON, _MAX_STEPS = 0, 1, 2


class _Ends(NamedTuple):
    """The lanes of a walk in the order they ended, batch by batch."""

    lane: np.ndarray  # index in 0..n_paths-1
    x: np.ndarray  # final position
    steps: np.ndarray  # steps taken (int64)
    acc: np.ndarray | None  # accumulated sum, when an accumulator was given
    code: np.ndarray  # _STOPPED, _HORIZON or _MAX_STEPS


def _trapezoid(g):
    return lambda x, x_new, dt: 0.5 * (g(x) + g(x_new)) * dt


def _left_endpoint(g):
    return lambda x, x_new, dt: dt * g(x)


def _walk(
    p: StableParams,
    x0: float,
    n_paths: int,
    rng,
    batch: int,
    step,
    stop,
    *,
    accumulate=None,
    horizon: float = math.inf,
    max_steps: int,
    on_batch=None,
) -> _Ends:
    """Step n_paths lanes from x0, batch by batch on keyed streams.

    Each iteration takes dt = step(x) (a scalar or one length per lane,
    capped by the time left under a finite horizon), draws one increment per
    lane, adds accumulate(x, x_new, dt) to the lane sums and ends the lanes
    with stop(x_new), or whose clock reached the horizon.  Lanes still running
    after max_steps iterations end with _MAX_STEPS.  on_batch() is called
    after each batch.
    """
    if n_paths < 1:
        raise OutOfRangeError("n_paths must be at least 1")
    if batch < 1:
        raise OutOfRangeError("batch must be at least 1")
    timed = math.isfinite(horizon)
    out = _Ends(
        lane=np.empty(n_paths, dtype=np.int64),
        x=np.empty(n_paths),
        steps=np.empty(n_paths, dtype=np.int64),
        acc=np.empty(n_paths) if accumulate is not None else None,
        code=np.empty(n_paths, dtype=np.int8),
    )
    done = 0  # lanes ended so far; the next ones are written from here

    def record(lane, x, acc, steps, code):
        nonlocal done
        end = done + lane.size
        out.lane[done:end] = lane
        out.x[done:end] = x
        out.steps[done:end] = steps
        out.code[done:end] = code
        if acc is not None:
            out.acc[done:end] = acc
        done = end

    for bi, first in enumerate(range(0, n_paths, batch)):
        gen = _keyed(rng, bi)
        m = min(batch, n_paths - first)
        x = np.full(m, float(x0))
        lane = np.arange(first, first + m)
        t = np.zeros(m) if timed else None
        acc = np.zeros(m) if accumulate is not None else None
        for it in range(max_steps):
            if x.size == 0:
                break
            dt = step(x)
            if timed:
                dt = np.minimum(dt, horizon - t)
                t = t + dt
            if np.ndim(dt):
                x_new = x + sample_increment(p, dt, gen)
            else:
                x_new = x + sample_increment(p, dt, gen, size=x.size)
            if acc is not None:
                acc = acc + accumulate(x, x_new, dt)
            x = x_new
            stopped = stop(x)
            ended = stopped | (t >= horizon) if timed else stopped
            if np.any(ended):
                code = np.where(stopped[ended], _STOPPED, _HORIZON) if timed else _STOPPED
                record(lane[ended], x[ended], None if acc is None else acc[ended], it + 1, code)
                keep = ~ended
                x, lane = x[keep], lane[keep]
                if timed:
                    t = t[keep]
                if acc is not None:
                    acc = acc[keep]
        if x.size:
            record(lane, x, acc, max_steps, _MAX_STEPS)
        if on_batch is not None:
            on_batch()
    return out


# ---------------------------------------------------------------------------
# path kernels


def passage_overshoot_samples(
    p: StableParams,
    x0: float,
    level: float,
    n_paths: int,
    rng=0,
    *,
    base_step: float = 1e-4,
    band: float = 0.1,
    horizon: float = 1e6,
    max_steps: int = 10_000_000,
    batch: int = 25_000,
) -> dict:
    """First passage strictly below `level` from x0 > level: overshoot depths.

    The step is self-similar in the distance d to the barrier,
    dt = base_step * (d/band)^alpha, so dt <= base_step throughout the band
    d <= band and the per-step displacement stays a fixed small fraction of
    d at every scale.  The rule is floorless on purpose: the overshoot law
    has an integrable singularity at depth 0 (CDF ~ y^{1-alpha*rhohat}), so
    any fixed spatial floor h would smear the O(h) depths, which carry
    non-negligible mass; with the self-similar rule the approach cascade
    resolves arbitrarily small depths.  Paths not yet below the level at the
    horizon are censored (counted, not included).
    """
    if x0 <= level:
        raise OutOfRangeError("start must be above the passage level")
    al = p.alpha
    coef = base_step / band ** al
    ends = _walk(
        p, x0, n_paths, rng, batch,
        lambda x: coef * (x - level) ** al,
        lambda x: x <= level,
        horizon=horizon, max_steps=max_steps,
    )
    crossed = ends.code == _STOPPED
    return {"depths": level - ends.x[crossed], "censored": int(np.sum(~crossed)),
            "n_paths": n_paths}


def strip_entry_samples(
    p: StableParams,
    x0: float,
    half_width: float,
    n_paths: int,
    rng=0,
    *,
    sigma: SigmaFunction | None = None,
    base_step: float = 1e-3,
    step_coef: float = 3e-3,
    horizon: float = 1e5,
    max_steps: int = 5_000_000,
    batch: int = 25_000,
) -> dict:
    """First entry of the open strip (-a, a) from |x0| > a.

    Returns the entry positions and the clock at entry; when `sigma` is
    given the clock is the inverse time change A_t = int sigma(X)^-alpha dt
    (i.e. the entry time of the coefficient process Z), otherwise it is the
    driving time.  Paths that have not entered by the horizon are counted in
    `missed` (for alpha < 1 the strip is transient, so a positive fraction
    never enters).
    """
    a = float(half_width)
    if abs(x0) <= a:
        raise OutOfRangeError("start must be outside the strip")
    al = p.alpha
    if sigma is None:
        clock = lambda x, x_new, dt: dt
    else:
        clock = _trapezoid(lambda z: np.asarray(sigma(z), dtype=float) ** (-al))
    ends = _walk(
        p, x0, n_paths, rng, batch,
        lambda x: base_step + step_coef * (np.abs(x) - a) ** al,
        lambda x: np.abs(x) < a,
        accumulate=clock, horizon=horizon, max_steps=max_steps,
    )
    entered = ends.code == _STOPPED
    positions = ends.x[entered]
    return {
        "positions": positions,
        "clocks": ends.acc[entered],
        "missed": int(np.sum(~entered)),
        "n_paths": n_paths,
        "entry_fraction": positions.size / n_paths,
    }


def origin_kill_occupation(
    p: StableParams,
    x0: float,
    sigma: SigmaFunction,
    window: tuple[float, float],
    n_paths: int,
    rng=0,
    *,
    kill_eps: float = 5e-5,
    step_coef: float = 3e-3,
    near_cap: float = 0.05,
    horizon: float = 6e6,
    max_steps: int = 5_000_000,
    batch: int = 20_000,
) -> dict:
    """Occupation integral int_0^{T_0} sigma(X_t)^-alpha 1{w0 <= X_t <= w1} dt
    up to the first visit of the kill ball |X| <= kill_eps (proxy for the
    hitting time of 0, which for alpha > 1 is a.s. finite).

    This is exactly the time the coefficient process Z spends in the window
    before hitting 0.  Steps shrink like coef * |x|^alpha toward the origin
    (geometric capture of the approach down to kill_eps) and are capped at
    near_cap inside twice the window so the occupation trapezoid stays
    resolved.  Paths alive at the horizon contribute their truncated
    occupation and are counted in `alive`.
    """
    w0, w1 = float(window[0]), float(window[1])
    al = p.alpha
    floor = step_coef * kill_eps ** al
    near_edge = 2.0 * max(abs(w0), abs(w1), 1.0)

    def step(x):
        ax = np.abs(x)
        dt = np.maximum(step_coef * ax ** al, floor)
        return np.where(ax <= near_edge, np.minimum(dt, near_cap), dt)

    def weight(z):
        inside = (z >= w0) & (z <= w1)
        out = np.zeros_like(z)
        if np.any(inside):
            out[inside] = np.asarray(sigma(z[inside]), dtype=float) ** (-al)
        return out

    ends = _walk(
        p, x0, n_paths, rng, batch, step, lambda x: np.abs(x) <= kill_eps,
        accumulate=_trapezoid(weight), horizon=horizon, max_steps=max_steps,
    )
    killed = int(np.sum(ends.code == _STOPPED))
    return {
        "occupations": ends.acc,
        "killed": killed,
        "alive": ends.code.size - killed,
        "n_paths": n_paths,
    }


def interval_exit_occupation(
    p: StableParams,
    x0: float,
    lo: float,
    hi: float,
    step: float,
    n_paths: int,
    rng=0,
    *,
    weight=None,
    max_steps: int = 2_000_000,
    batch: int = 25_000,
) -> dict:
    """Uniform-step skeleton until first exit from (lo, hi).

    Returns the number of steps N per path (the discrete exit time is
    N*step), the exit positions, and — when `weight` is given — the
    left-endpoint accumulated sums step * sum_{k<N} weight(Y_k), which is
    the potential operator of the killed skeleton applied to `weight`,
    exactly (no trapezoid: left endpoints match the discrete identity).
    """
    if not (lo < x0 < hi):
        raise OutOfRangeError("start must be inside the interval")
    ends = _walk(
        p, x0, n_paths, rng, batch,
        lambda x: float(step),
        lambda x: (x <= lo) | (x >= hi),
        accumulate=None if weight is None else _left_endpoint(
            lambda x: np.asarray(weight(x), dtype=float)),
        max_steps=max_steps,
    )
    if np.any(ends.code == _MAX_STEPS):
        raise RuntimeError("interval exit did not complete within max_steps")
    return {
        "steps": ends.steps,
        "exit_positions": ends.x,
        "weighted_sums": ends.acc,
        "n_paths": n_paths,
        "step": float(step),
    }


def exit_interval_samples(
    p: StableParams,
    x0: float,
    lo: float = -1.0,
    hi: float = 1.0,
    n_paths: int = 10_000,
    rng=0,
    *,
    kill_eps: float | None = None,
    base_step: float = 1e-4,
    step_coef: float = 3e-3,
    max_steps: int = 2_000_000,
    batch: int = 25_000,
) -> dict:
    """Adaptive-step first exit from (lo, hi); optionally kill at |x| <= eps
    first (exit positions conditioned on avoiding the origin)."""
    if not (lo < x0 < hi):
        raise OutOfRangeError("start must be inside the interval")
    al = p.alpha

    def step(x):
        d = np.minimum(x - lo, hi - x)
        if kill_eps is not None:
            d = np.minimum(d, np.abs(x))
        return base_step + step_coef * np.maximum(d, 0.0) ** al

    def outside(x):
        return (x <= lo) | (x >= hi)

    stop = outside if kill_eps is None else (lambda x: outside(x) | (np.abs(x) <= kill_eps))
    ends = _walk(p, x0, n_paths, rng, batch, step, stop, max_steps=max_steps)
    if np.any(ends.code == _MAX_STEPS):
        raise RuntimeError("interval exit did not complete within max_steps")
    exited = outside(ends.x)
    return {
        "exit_positions": ends.x[exited],
        "zero_hits": int(np.sum(~exited)),
        "n_paths": n_paths,
    }


# ---------------------------------------------------------------------------
# high-level validations


def occupation_vs_potential(
    p: StableParams,
    s: SigmaFunction,
    x0: float,
    window: tuple[float, float],
    n_paths: int = 100_000,
    rng=0,
    threshold: float = 0.05,
    name: str = "occupation_vs_potential",
    **kernel_kwargs,
) -> ValidationOutcome:
    """Mean sigma^-alpha-weighted window occupation of X before hitting 0
    against the quadrature of the origin-killed potential density over the
    window: relative error as the statistic, z-score in extras."""
    t0 = time.perf_counter()
    res = origin_kill_occupation(p, x0, s, window, n_paths, rng, **kernel_kwargs)
    occ = res["occupations"]
    mean = float(np.mean(occ))
    se = float(np.std(occ, ddof=1)) / math.sqrt(occ.size)
    al = p.alpha

    def integrand(y):
        return float(s(y)) ** (-al) * killed_potential_density(p, x0, y).value

    target, terr = integrate.quad(
        integrand, window[0], window[1], limit=200, points=[x0] if window[0] < x0 < window[1] else None
    )
    rel = abs(mean - target) / abs(target)
    z = (mean - target) / se if se > 0 else math.inf
    return _judged(name, rel, threshold, n_paths, rng, t0, {
        "mc_mean": mean,
        "mc_se": se,
        "target": float(target),
        "target_quad_error": float(terr),
        "z_score": float(z),
        "killed": res["killed"],
        "alive_at_horizon": res["alive"],
    })


def _hitting_grid(n_interior: int = 81, n_edge: int = 9) -> np.ndarray:
    inner = np.linspace(-0.9, 0.9, n_interior)
    off = 0.1 * 2.0 ** (-np.arange(1, n_edge + 1, dtype=float))
    right = 1.0 - off
    return np.unique(np.concatenate((inner, right, -right)))


def occupation_potential_lemma(
    p: StableParams,
    x0: float = 0.0,
    interval: tuple[float, float] = (-1.0, 1.0),
    a: float = 0.5,
    step: float = 2e-3,
    n_paths: int = 100_000,
    grid_paths: int = 3_000,
    rng=0,
    threshold: float = 3.0,
    name: str = "occupation_potential_lemma",
    batch: int = 25_000,
) -> ValidationOutcome:
    """Discrete-skeleton identity E[zeta ^ a] = U[h_a](x0).

    h_a(y) = P_y(discrete exit of the interval within a/step steps) is
    estimated on a grid (denser near the endpoints, grid_paths paths per
    node, same step); U is the left-endpoint occupation sum of the main
    skeleton run.  The identity is exact for the skeleton (a telescoping
    over the time to go), so the statistic is the z-score of the difference,
    with the h-grid sampling error propagated through the accumulated
    interpolation weights.  Pass: |z| <= threshold.
    """
    t0 = time.perf_counter()
    lo, hi = interval
    k_cap = int(round(a / step))
    if abs(k_cap * step - a) > 1e-12:
        raise OutOfRangeError("a must be an integer multiple of step")
    nodes = _hitting_grid()
    nodes = nodes[(nodes > lo) & (nodes < hi)]
    uniform = lambda x: float(step)
    outside = lambda x: (x <= lo) | (x >= hi)
    # --- stage 1: h_a on the grid; a lane that has not exited within k_cap
    # steps counts as a miss however it goes on, so no lane walks past k_cap
    h_hat = np.empty(nodes.size)
    for j, y in enumerate(nodes):
        ends = _walk(p, float(y), grid_paths, _keyed(rng, 1000 + j), grid_paths,
                     uniform, outside, max_steps=k_cap)
        h_hat[j] = np.mean(ends.code == _STOPPED)
    h_var = h_hat * (1.0 - h_hat) / grid_paths

    # --- stage 2: main run accumulating both sides on the same paths
    idx_w = np.zeros(nodes.size)  # mean accumulated interp weight per node
    w_batch = np.zeros(nodes.size)

    def h_interp(x):
        # h_a at x by linear interpolation; the node weights go into w_batch
        j = np.clip(np.searchsorted(nodes, x) - 1, 0, nodes.size - 2)
        lam = (x - nodes[j]) / (nodes[j + 1] - nodes[j])
        lam = np.clip(lam, 0.0, 1.0)
        np.add.at(w_batch, j, step * (1.0 - lam))
        np.add.at(w_batch, j + 1, step * lam)
        return (1.0 - lam) * h_hat[j] + lam * h_hat[j + 1]

    def flush():
        # batch means summed in batch order: fixed-seed statistics depend on it
        idx_w[:] += w_batch / n_paths
        w_batch[:] = 0.0

    ends = _walk(
        p, x0, n_paths, rng, batch, uniform, outside,
        accumulate=_left_endpoint(h_interp), max_steps=2_000_000, on_batch=flush,
    )
    if np.any(ends.code == _MAX_STEPS):
        raise RuntimeError("interval exit did not complete within max_steps")
    lhs = np.empty(n_paths)
    rhs = np.empty(n_paths)
    lhs[ends.lane] = step * np.minimum(ends.steps, k_cap)
    rhs[ends.lane] = ends.acc
    d = lhs - rhs
    mean_d = float(np.mean(d))
    var_mc = float(np.var(d, ddof=1)) / d.size
    var_grid = float(np.sum(idx_w ** 2 * h_var))
    se = math.sqrt(var_mc + var_grid)
    z = abs(mean_d) / se if se > 0 else math.inf
    return _judged(name, z, threshold, n_paths, rng, t0, {
        "mean_difference": mean_d,
        "se_mc": math.sqrt(var_mc),
        "se_grid": math.sqrt(var_grid),
        "cap": a,
        "step": step,
        "grid_nodes": int(nodes.size),
    })


def perpetual_integral_law(
    drift: float,
    f,
    n_paths: int = 5_000,
    horizon: float = 200.0,
    step: float = 0.02,
    rng=0,
    expect: str = "finite",
    name: str = "perpetual_integral_law",
) -> ValidationOutcome:
    """Finiteness of int_0^inf f(xi_s) ds for Brownian motion with positive
    drift, decided by the plateau flag (relative growth of the integral over
    the last decade of the horizon < 1e-3).

    The law is zero-one: f integrable-at-infinity against the drift gives a
    finite perpetual integral for every path, otherwise for none.  Pass for
    expect="finite": plateau fraction >= 0.99; for expect="infinite":
    fraction <= 0.01.  The statistic is oriented so pass == statistic <= 0.
    """
    if expect not in ("finite", "infinite"):
        raise OutOfRangeError("expect must be 'finite' or 'infinite'")
    if n_paths < 1:
        raise OutOfRangeError("n_paths must be at least 1")
    t0 = time.perf_counter()
    n_steps = int(round(horizon / step))
    k_decade = int(round(n_steps / 10))
    gen = _keyed(rng, 0)
    xi = np.zeros(n_paths)
    integral = np.zeros(n_paths)
    snapshot = np.zeros(n_paths)
    f_old = np.asarray(f(xi), dtype=float)
    root_dt = math.sqrt(step)
    for k in range(n_steps):
        xi = xi + drift * step + root_dt * gen.standard_normal(n_paths)
        f_new = np.asarray(f(xi), dtype=float)
        integral += 0.5 * (f_old + f_new) * step
        f_old = f_new
        if k + 1 == k_decade:
            snapshot[:] = integral
    frac = float(np.mean(_plateaued(integral, integral - snapshot)))
    if expect == "finite":
        statistic, threshold = 0.99 - frac, 0.0
    else:
        statistic, threshold = frac - 0.01, 0.0
    return _judged(name, statistic, threshold, n_paths, rng, t0, {
        "plateau_fraction": frac,
        "expect": expect,
        "mean_truncated_integral": float(np.mean(integral)),
    })


def entrance_proxy(
    p: StableParams,
    s: SigmaFunction,
    level: float,
    starts,
    n_paths: int = 4_000,
    rng=0,
    expect: str = "stabilize",
    threshold: float = 0.10,
    growth_min: float = 2.0,
    name: str = "entrance_proxy",
    **kernel_kwargs,
) -> ValidationOutcome:
    """Median entry time of the coefficient process Z into (-level, level)
    from a ladder of starts.

    expect="stabilize": medians from all admissible starts agree with the
    farthest start to within `threshold` relative (entrance from infinity).
    expect="diverge": each decade of start distance multiplies the median by
    at least growth_min (no entrance; statistic is growth_min/min_growth so
    pass == statistic <= 1... reported as statistic <= threshold with
    threshold 1.0).

    Starts with |x0| <= level are degenerate for this diagnostic (the entry
    time is 0 regardless of any boundary behavior) and are skipped.
    """
    t0 = time.perf_counter()
    admissible = [x for x in starts if abs(x) > level]
    skipped = [x for x in starts if abs(x) <= level]
    if len(admissible) < 2:
        raise OutOfRangeError("need at least two starts outside the strip")
    admissible = sorted(admissible, key=abs)
    medians = []
    for j, x0 in enumerate(admissible):
        res = strip_entry_samples(
            p, float(x0), level, n_paths, rng=_keyed(rng, 2000 + j),
            sigma=s, **kernel_kwargs,
        )
        if res["clocks"].size < MIN_KS_SAMPLES:
            raise TooFewSamplesError(
                f"only {res['clocks'].size} entries from start {x0}"
            )
        medians.append(float(np.median(res["clocks"])))
    medians_arr = np.asarray(medians)
    if expect == "stabilize":
        ref = medians_arr[-1]
        statistic = float(np.max(np.abs(medians_arr / ref - 1.0)))
        thr = float(threshold)
    elif expect == "diverge":
        growths = medians_arr[1:] / medians_arr[:-1]
        statistic = float(growth_min / np.min(growths))
        thr = 1.0
    else:
        raise OutOfRangeError("expect must be 'stabilize' or 'diverge'")
    return _judged(name, statistic, thr, n_paths * len(admissible), rng, t0, {
        "starts": [float(x) for x in admissible],
        "skipped_degenerate_starts": [float(x) for x in skipped],
        "medians": [float(v) for v in medians],
        "expect": expect,
    })
