"""Monte Carlo cross-validation of simulated paths against the closed forms.

The path kernels return dicts of samples and counts.  Every validation
returns a ValidationOutcome with a scalar statistic, a threshold, and a pass
flag (pass == statistic <= threshold), plus run metadata, and serializes to
a JSON line.  Path generation is vectorized over paths with state-adaptive
stepping: far from the region that decides the functional under test the
step grows like coef * distance^alpha (the displacement per step then stays
a fixed small fraction of the distance, uniformly over scales), and near the
decisive set it is floored at a fine step so that crossings and kills are
resolved.

The origin-killed occupation kernel also walks on intervals when the driver
is two-sided: wherever the interval (x - r, x + r) misses both the kill ball
and the occupation window, a lane jumps to its exact first exit from it
(``stable_core.sample_interval_exit``) instead of taking time steps, and it
steps only near the window, inside it, or right at the kill ball.  Jumps
carry no clock, so every other kernel (the overshoot and strip laws, whose
checks must not lean on the exit law, the interval-exit samplers, the
lemma's uniform skeleton and everything timed) only takes time steps.

Every path here is a stable driver.  The perpetual integral that decides
explosion, A_inf = int sigma(X_t)^{-alpha} dt, is sampled in ``sde_timechange``.

A kernel exposes only what its callers set: the step-refinement knobs
(base_step, step_coef, kill_eps, near_cap), horizon and max_steps, and the
batch size of ``passage_overshoot_samples`` and ``interval_exit_occupation``;
the rest are constants.  The validations fix their thresholds and names,
and the occupation-potential lemma runs its main skeleton through
``interval_exit_occupation``.

Determinism: an integer ``rng`` seeds one independent substream per batch
(keyed, not sequential), so results are reproducible for a given seed,
batch size, and n_paths.  ``_walk`` steps groups of lanes side by side, each
drawing from its own stream as if it walked alone; groups on one Generator
(a Generator passed as ``rng``) walk one after another, in call order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate

from .fluctuation_oracles import killed_potential_density
from .sigma_model import SigmaFunction
from .stable_core import (
    OutOfRangeError,
    Sidedness,
    StableParams,
    _keyed,
    _seed_of,
    sample_increment,
    sample_interval_exit,
)

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
    "entrance_proxy",
]


class TooFewSamplesError(ValueError):
    """Too few samples for a comparison: a distributional one needs at least
    100, a mean with its standard error at least 2."""


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
        identical (seed, n, name) runs emit byte-identical records.  A
        non-finite number raises ValueError: NaN and Infinity are not JSON."""
        payload = {
            "schema_version": "1",
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "n_paths": self.n_paths,
            "seed": self.seed,
            "extras": self.extras,
        }
        if include_runtime:
            payload["runtime_s"] = round(self.runtime_s, 3)
        return json.dumps(payload, sort_keys=True, allow_nan=False, default=_numpy_value)


def _numpy_value(obj):
    """The Python value of a numpy array or scalar, for json.dumps."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _judged(name, statistic, threshold, n_paths, rng, t0, extras) -> ValidationOutcome:
    """The outcome of a validation started at perf_counter() == t0 on rng
    (an integer seed, a Generator or None)."""
    statistic, threshold = float(statistic), float(threshold)
    return ValidationOutcome(
        name=name, statistic=statistic, threshold=threshold,
        passed=statistic <= threshold, n_paths=n_paths, seed=_seed_of(rng),
        runtime_s=time.perf_counter() - t0, extras=extras,
    )


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
    t0: float | None = None,
) -> ValidationOutcome:
    """KS test of samples against a target CDF callable.

    Default threshold 1.628/sqrt(n) is the 99% two-sided Kolmogorov point:
    a correct match fails spuriously about 1% of the time, a wrong law
    (with n in the usual 1e4..1e5 range) essentially always fails.
    runtime_s runs from perf_counter() == t0 (say, before the samples were
    drawn), else from this call.
    """
    if t0 is None:
        t0 = time.perf_counter()
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < MIN_KS_SAMPLES:
        raise TooFewSamplesError(
            f"{n} samples < {MIN_KS_SAMPLES}; distributional comparison refused"
        )
    if threshold is None:
        threshold = 1.628 / math.sqrt(n)
    d = ks_statistic(samples, cdf)
    return _judged(name, d, threshold, n, seed, t0, extras or {})


def cdf_from_density(density, lo: float, hi: float):
    """Build a CDF callable from a density with (integrable) endpoint
    singularities: panel-wise adaptive quadrature on a grid of 400 panels
    clustered geometrically toward both endpoints, then monotone
    interpolation of the normalized cumulative mass.  The total mass before
    normalization is kept as ``cdf.total_mass``."""
    width = hi - lo
    # 200 panels sweep each side, geometrically from 1e-9 of the half-width out
    k = 200
    off = width / 2.0 * (1e-9 ** (np.arange(k, 0, -1) / k))
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
    if total > 0:
        cum = cum / total

    def cdf(y):
        y = np.asarray(y, dtype=float)
        out = np.interp(y, nodes, cum, left=0.0, right=cum[-1])
        return out

    cdf.total_mass = float(total)
    return cdf


# ---------------------------------------------------------------------------
# path engine


class _Ends(NamedTuple):
    """The lanes of a walk, group by group, each in the order they ended."""

    x: np.ndarray  # final position
    steps: np.ndarray  # steps taken (int64)
    acc: np.ndarray | None  # accumulated sum, when an accumulator was given
    stopped: np.ndarray  # its stop mask fired (not the horizon or max_steps)


class _Sum(NamedTuple):
    """A per-lane sum for ``_walk``.  Each lane carries at(x) for its position
    x, evaluated once there, and a step from x to x_new over dt adds
    term(at(x), at(x_new), dt)."""

    at: Callable
    term: Callable


def _trapezoid(g):
    """0.5 (g(x) + g(x_new)) dt, with g at a lane's position carried from the
    step that brought the lane there."""
    return _Sum(g, lambda g_x, g_new, dt: 0.5 * (g_x + g_new) * dt)


def _left_endpoint(g):
    """dt g(x) at the left end of each step; a lane carries its position, so
    g is never evaluated where the walk ends."""
    return _Sum(lambda x: x, lambda x, x_new, dt: dt * g(x))


def _batches(x0, n_paths: int, rng, batch: int) -> list:
    """n_paths lanes from x0, a ``_walk`` run per batch: the group (x0, lanes, _keyed(rng, bi))."""
    if n_paths < 1:
        raise OutOfRangeError("n_paths must be at least 1")
    if batch < 1:
        raise OutOfRangeError("batch must be at least 1")
    return [[(float(x0), min(batch, n_paths - first), _keyed(rng, bi))]
            for bi, first in enumerate(range(0, n_paths, batch))]


def _loops(groups, budget: int):
    """``_walk`` runs of consecutive groups: whole groups while their lanes fit in
    ``budget`` (a larger one alone), never two on the same Generator object."""
    run = []
    for g in groups:
        if run and (sum(h[1] for h in run) + g[1] > budget or any(g[2] is h[2] for h in run)):
            yield run
            run = []
        run.append(g)
    yield run


def _jump_or_step(p, gens, grp, live, x, dt, r, v, acc, accumulate):
    """One iteration of ``_walk`` with a reach r per lane: (x_new, v_new), where v_new is
    what each lane carries at x_new (None without a sum).  Lane i draws from gens[grp[i]]."""
    dt = np.broadcast_to(dt, x.shape)
    jump = r >= dt ** (1.0 / p.alpha)
    x_new = np.empty_like(x)
    jumps = np.bincount(grp[jump], minlength=len(gens))
    if jumps.any():
        exits = [sample_interval_exit(p, g, k) for g, k in zip(gens, jumps) if k]
        x_new[jump] = x[jump] + r[jump] * np.concatenate(exits)
    steps = ~jump
    if jumps.sum() < x.size:
        sources = [(g, k) for g, k in zip(gens, live - jumps) if k]
        x_new[steps] = x[steps] + sample_increment(p, dt[steps], sources)
    if acc is None:
        return x_new, None
    v_new = accumulate.at(x_new)
    if jumps.sum() < x.size:
        acc[steps] += accumulate.term(v[steps], v_new[steps], dt[steps])
    return x_new, v_new


def _walk(
    p: StableParams,
    runs,
    step,
    stop,
    *,
    accumulate=None,
    reach=None,
    horizon: float = math.inf,
    max_steps: int,
) -> _Ends:
    """Step the lanes of each run (a list of groups (x0, lanes, stream)) in
    one loop, each group on its own stream.

    Each iteration takes dt = step(x) (a scalar or one length per lane,
    capped by the time left under a finite horizon), draws one increment per
    lane in one ``sample_increment`` call, adds the step's term of the
    ``_Sum`` accumulate to the lane sums and ends the lanes with stop(x_new),
    which are marked stopped, or whose clock reached the horizon.  Lanes still
    running after max_steps iterations end unstopped.  Ends come group by
    group, each in the order its lanes ended, as if each group walked alone.

    With reach(x), the half-width r of an interval around each lane inside
    which nothing stops the lane or accumulates, a lane with r >= dt^{1/alpha}
    (the scale of the step it would take) jumps to its exact first exit from
    (x - r, x + r) instead, adding nothing to its sum; the other lanes step.
    Each group draws its jumps before its increments.  A jump carries no
    clock, so reach needs an infinite horizon.
    """
    timed = math.isfinite(horizon)
    if reach is not None and timed:
        raise OutOfRangeError("jumps carry no clock: reach needs an infinite horizon")
    sizes = np.array([g[1] for run in runs for g in run])
    n = int(sizes.sum())
    out = _Ends(np.empty(n), np.empty(n, dtype=np.int64),
                None if accumulate is None else np.empty(n), np.empty(n, dtype=bool))
    slots = np.cumsum(sizes) - sizes  # where each group's next ended lane goes

    def record(slot, g, *ends):
        # ends as _Ends fields; g, each lane's group in its loop, is nondecreasing
        ended = np.bincount(g, minlength=slot.size)
        at = slot[g] + np.arange(g.size) - (np.cumsum(ended) - ended)[g]
        for column, values in zip(out, ends):
            if column is not None:
                column[at] = values
        slot += ended
        return ended

    for run in runs:
        gens = [g[2] for g in run]
        slot, slots = slots[: len(run)], slots[len(run) :]  # views: record moves slots
        live = np.array([g[1] for g in run])  # lanes still walking, per group
        grp = np.repeat(np.arange(len(run)), live)
        x = np.repeat([g[0] for g in run], live)
        t = np.zeros(x.size) if timed else None
        acc = v = None
        if accumulate is not None:
            acc, v = np.zeros(x.size), accumulate.at(x)
        for it in range(max_steps):
            if x.size == 0:
                break
            dt = step(x)
            if timed:
                dt = np.minimum(dt, horizon - t)
                t = t + dt
            if reach is not None:
                x, v = _jump_or_step(p, gens, grp, live, x, dt, reach(x), v, acc, accumulate)
            else:
                sources = [(g, k) for g, k in zip(gens, live) if k]
                x_new = sample_increment(p, dt, sources, size=None if np.ndim(dt) else x.size)
                x_new += x
                x = x_new
                if acc is not None:
                    v_new = accumulate.at(x)
                    acc += accumulate.term(v, v_new, dt)
                    v = v_new
            stopped = stop(x)
            ended = stopped | (t >= horizon) if timed else stopped
            if np.any(ended):
                live -= record(slot, grp[ended], x[ended], it + 1,
                               None if acc is None else acc[ended], stopped[ended])
                keep = ~ended
                x, grp = x[keep], grp[keep]
                if timed:
                    t = t[keep]
                if acc is not None:
                    acc, v = acc[keep], v[keep]
        if x.size:
            record(slot, grp, x, max_steps, acc, False)
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
    horizon: float = 1e6,
    max_steps: int = 10_000_000,
    batch: int = 25_000,
) -> dict:
    """First passage strictly below `level` from x0 > level: overshoot depths.

    The step is self-similar in the distance d to the barrier,
    dt = base_step * (d/0.1)^alpha, so dt <= base_step throughout the band
    d <= 0.1 and the per-step displacement stays a fixed small fraction of
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
    coef = base_step / 0.1 ** al
    ends = _walk(
        p, _batches(x0, n_paths, rng, batch),
        lambda x: coef * (x - level) ** al,
        lambda x: x <= level,
        horizon=horizon, max_steps=max_steps,
    )
    crossed = ends.stopped
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
    ends = _strip_walk(p, _batches(x0, n_paths, rng, 25_000), a, sigma, base_step=base_step,
                       step_coef=step_coef, horizon=horizon, max_steps=max_steps)
    entered = ends.stopped
    positions = ends.x[entered]
    return {
        "positions": positions,
        "clocks": ends.acc[entered],
        "missed": int(np.sum(~entered)),
        "n_paths": n_paths,
        "entry_fraction": positions.size / n_paths,
    }


_STRIP_DEFAULTS = strip_entry_samples.__kwdefaults__  # read once, from the function itself


def _strip_walk(p, runs, a, sigma, *, base_step, step_coef, horizon, max_steps) -> _Ends:
    """``strip_entry_samples``'s walk of runs into (-a, a), the one copy of its rule."""
    al = p.alpha
    if sigma is None:
        clock = _left_endpoint(lambda x: 1.0)
    else:
        clock = _trapezoid(lambda z: np.asarray(sigma(z), dtype=float) ** (-al))
    return _walk(p, runs, lambda x: base_step + step_coef * (np.abs(x) - a) ** al,
                 lambda x: np.abs(x) < a, accumulate=clock, horizon=horizon, max_steps=max_steps)


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
    max_steps: int = 5_000_000,
) -> dict:
    """Occupation integral int_0^{T_0} sigma(X_t)^-alpha 1{w0 <= X_t <= w1} dt
    up to the first visit of the kill ball |X| <= kill_eps (proxy for the
    hitting time of 0, which for alpha > 1 is a.s. finite).

    This is exactly the time the coefficient process Z spends in the window
    before hitting 0.  A two-sided driver walks on intervals: with
    r = min(|x| - kill_eps, dist(x, window)), a lane whose step would move it
    by less than r jumps to its exact first exit from (x - r, x + r), an
    interval that misses both the kill ball and the window, so the jump
    adds no occupation and cannot skip a kill.  The other lanes, those near
    the window or in it, take time steps.  Steps shrink like coef * |x|^alpha
    toward the origin (geometric capture of the approach down to kill_eps)
    and are capped at near_cap inside twice the window so the occupation
    trapezoid stays resolved.  One-sided drivers only take time steps.
    Paths still running after max_steps iterations (a jump or a step each)
    contribute their truncated occupation and are counted in `alive`.
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

    def reach(x):
        return np.minimum(np.abs(x) - kill_eps, np.maximum(np.maximum(w0 - x, x - w1), 0.0))

    ends = _walk(
        p, _batches(x0, n_paths, rng, 20_000), step, lambda x: np.abs(x) <= kill_eps,
        accumulate=_trapezoid(weight),
        reach=reach if p.sidedness is Sidedness.TWO_SIDED else None,
        max_steps=max_steps,
    )
    killed = int(np.sum(ends.stopped))
    return {
        "occupations": ends.acc,
        "killed": killed,
        "alive": n_paths - killed,
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
        p, _batches(x0, n_paths, rng, batch),
        lambda x: float(step),
        lambda x: (x <= lo) | (x >= hi),
        accumulate=None if weight is None else _left_endpoint(
            lambda x: np.asarray(weight(x), dtype=float)),
        max_steps=max_steps,
    )
    if not np.all(ends.stopped):
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
    max_steps: int = 2_000_000,
) -> dict:
    """Adaptive-step first exit from (lo, hi); optionally kill at |x| <= eps
    first (exit positions conditioned on avoiding the origin).

    The step is 1e-4 + 3e-3 d^alpha at distance d from the nearer edge.  With
    kill_eps it is also at most max(3e-3 |x|^alpha, 3e-3 kill_eps^alpha), the
    rule of ``origin_kill_occupation``, so steps shrink geometrically toward
    the origin and do not step over the kill ball."""
    if not (lo < x0 < hi):
        raise OutOfRangeError("start must be inside the interval")
    al = p.alpha

    def step(x):
        dt = 1e-4 + 3e-3 * np.maximum(np.minimum(x - lo, hi - x), 0.0) ** al
        if kill_eps is None:
            return dt
        return np.minimum(dt, 3e-3 * np.maximum(np.abs(x), kill_eps) ** al)

    def outside(x):
        return (x <= lo) | (x >= hi)

    stop = outside if kill_eps is None else (lambda x: outside(x) | (np.abs(x) <= kill_eps))
    ends = _walk(p, _batches(x0, n_paths, rng, 25_000), step, stop, max_steps=max_steps)
    if not np.all(ends.stopped):
        raise RuntimeError("interval exit did not complete within max_steps")
    exited = outside(ends.x)
    return {
        "exit_positions": ends.x[exited],
        "zero_hits": int(np.sum(~exited)),
        "n_paths": n_paths,
    }


# ---------------------------------------------------------------------------
# high-level validations


def _mean_vs_target(samples: np.ndarray, target: float) -> tuple[float, float, float]:
    """(mean, standard error, relative error against target) of samples."""
    if samples.size < 2:
        raise TooFewSamplesError(
            f"{samples.size} samples < 2; a mean with its standard error needs two"
        )
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return mean, se, abs(mean - target) / abs(target)


def occupation_vs_potential(
    p: StableParams,
    s: SigmaFunction,
    x0: float,
    window: tuple[float, float],
    n_paths: int = 100_000,
    rng=0,
    **kernel_kwargs,
) -> ValidationOutcome:
    """Mean sigma^-alpha-weighted window occupation of X before hitting 0
    against the quadrature of the origin-killed potential density over the
    window: relative error as the statistic (pass at most 5 %), z-score in
    extras.  The extras key ``alive_at_horizon`` counts the paths still
    running after the kernel's max_steps iterations; it keeps its name so
    the JSON schema stays the same."""
    t0 = time.perf_counter()
    res = origin_kill_occupation(p, x0, s, window, n_paths, rng, **kernel_kwargs)
    al = p.alpha

    def integrand(y):
        return float(s(y)) ** (-al) * killed_potential_density(p, x0, y).value

    target, terr = integrate.quad(
        integrand, window[0], window[1], limit=200, points=[x0] if window[0] < x0 < window[1] else None
    )
    mean, se, rel = _mean_vs_target(res["occupations"], target)
    # all occupations equal (say, every path killed first): no z-score
    z = (mean - target) / se if se > 0 else None
    return _judged("occupation_vs_potential", rel, 0.05, n_paths, rng, t0, {
        "mc_mean": mean,
        "mc_se": se,
        "target": float(target),
        "target_quad_error": float(terr),
        "z_score": z,
        "killed": res["killed"],
        "alive_at_horizon": res["alive"],
    })


def _hitting_grid() -> np.ndarray:
    inner = np.linspace(-0.9, 0.9, 81)
    off = 0.1 * 2.0 ** (-np.arange(1, 10, dtype=float))
    right = 1.0 - off
    return np.unique(np.concatenate((inner, right, -right)))


def occupation_potential_lemma(
    p: StableParams,
    n_paths: int = 100_000,
    grid_paths: int = 3_000,
    rng=0,
) -> ValidationOutcome:
    """Discrete-skeleton identity E[zeta ^ a] = U[h_a](x0) for the skeleton
    of step 2e-3 started at x0 = 0 and killed on leaving (-1, 1), with cap
    a = 0.5 (250 steps).

    h_a(y) = P_y(discrete exit of the interval within a/step steps) is
    estimated on a grid (denser near the endpoints, G paths per
    node, same step); U is the left-endpoint occupation sum of the main
    skeleton run (``interval_exit_occupation`` with weight h_a).  The
    identity is exact for the skeleton (a telescoping over the time to go),
    so the statistic is the z-score of the difference, with the h-grid
    sampling error propagated through the accumulated interpolation
    weights.  Pass: |z| <= 3.

    G = min(grid_paths, max(ceil(n_paths / 4), 100)) follows n: se_grid /
    se_mc is about sqrt(0.031 n_paths / G), so at G = n_paths / 4 the grid
    adds about 6 % to the se, where a fixed 3,000 a node would walk far more
    grid paths than main-run paths at small n to add under 1 %.
    """
    if n_paths < 1:
        raise OutOfRangeError("n_paths must be at least 1")
    if n_paths < 2:
        raise TooFewSamplesError(
            f"{n_paths} samples < 2; a mean difference with its standard error needs two"
        )
    if grid_paths < 1:
        raise OutOfRangeError("grid_paths must be at least 1")
    t0 = time.perf_counter()
    grid_paths = min(grid_paths, max(math.ceil(n_paths / 4), 100))
    lo, hi, a, step = -1.0, 1.0, 0.5, 2e-3
    k_cap = int(round(a / step))
    nodes = _hitting_grid()
    # --- stage 1: h_a on the grid; a lane that has not exited within k_cap
    # steps counts as a miss however it goes on, so no lane walks past k_cap;
    # the nodes walk side by side, and each loop keeps only its exit counts
    groups = [g for j, y in enumerate(nodes)
              for [g] in _batches(y, grid_paths, _keyed(rng, 1000 + j), grid_paths)]
    exits = []
    for run in _loops(groups, 25_000):
        ends = _walk(p, [run], lambda x: step, lambda x: (x <= lo) | (x >= hi), max_steps=k_cap)
        exits.extend(np.count_nonzero(ends.stopped.reshape(len(run), grid_paths), axis=1))
    h_hat = np.asarray(exits) / grid_paths
    h_var = h_hat * (1.0 - h_hat) / grid_paths

    # --- stage 2: main run accumulating both sides on the same paths
    node_w = np.zeros(nodes.size)  # accumulated interp weight per node

    def h_interp(x):
        # h_a at x by linear interpolation; the node weights go into node_w
        j = np.clip(np.searchsorted(nodes, x) - 1, 0, nodes.size - 2)
        lam = (x - nodes[j]) / (nodes[j + 1] - nodes[j])
        lam = np.clip(lam, 0.0, 1.0)
        np.add.at(node_w, j, step * (1.0 - lam))
        np.add.at(node_w, j + 1, step * lam)
        return (1.0 - lam) * h_hat[j] + lam * h_hat[j + 1]

    res = interval_exit_occupation(p, 0.0, lo, hi, step, n_paths, rng, weight=h_interp)
    d = step * np.minimum(res["steps"], k_cap) - res["weighted_sums"]
    mean_d = float(np.mean(d))
    var_mc = float(np.var(d, ddof=1)) / d.size
    var_grid = float(np.sum((node_w / n_paths) ** 2 * h_var))
    se = math.sqrt(var_mc + var_grid)
    z = abs(mean_d) / se if se > 0 else math.inf
    return _judged("occupation_potential_lemma", z, 3.0, n_paths, rng, t0, {
        "mean_difference": mean_d,
        "se_mc": math.sqrt(var_mc),
        "se_grid": math.sqrt(var_grid),
        "cap": a,
        "step": step,
        "grid_nodes": int(nodes.size),
    })


def entrance_proxy(
    p: StableParams,
    s: SigmaFunction,
    level: float,
    starts,
    n_paths: int = 4_000,
    rng=0,
    expect: str = "stabilize",
    **kernel_kwargs,
) -> ValidationOutcome:
    """Median entry time of the coefficient process Z into (-level, level)
    from a ladder of starts.

    expect="stabilize": medians from all admissible starts agree with the
    farthest start to within 10 % relative (entrance from infinity).
    expect="diverge": each decade of start distance multiplies the median by
    at least 2 (no entrance); the statistic is 2 / (least growth), with
    threshold 1.0.

    Starts with |x0| <= level are degenerate for this diagnostic (the entry
    time is 0 regardless of any boundary behavior) and are skipped.
    """
    if expect not in ("stabilize", "diverge"):
        raise OutOfRangeError("expect must be 'stabilize' or 'diverge'")
    t0 = time.perf_counter()
    admissible = [x for x in starts if abs(x) > level]
    skipped = [x for x in starts if abs(x) <= level]
    if len(admissible) < 2:
        raise OutOfRangeError("need at least two starts outside the strip")
    admissible = sorted(admissible, key=abs)
    groups = [g for j, x0 in enumerate(admissible)
              for [g] in _batches(x0, n_paths, _keyed(rng, 2000 + j), 25_000)]
    ends = _strip_walk(p, list(_loops(groups, 25_000)), float(level),
                       **dict(_STRIP_DEFAULTS, sigma=s, **kernel_kwargs))
    medians, missed = [], []
    for x0, entered, clocks in zip(admissible, ends.stopped.reshape(-1, n_paths),
                                   ends.acc.reshape(-1, n_paths)):
        clocks = clocks[entered]
        if clocks.size < MIN_KS_SAMPLES:
            raise TooFewSamplesError(f"only {clocks.size} entries from start {x0}")
        missed.append(n_paths - clocks.size)
        medians.append(float(np.median(clocks)))
    medians_arr = np.asarray(medians)
    if expect == "stabilize":
        ref = medians_arr[-1]
        statistic = float(np.max(np.abs(medians_arr / ref - 1.0)))
        thr = 0.10
    else:
        growths = medians_arr[1:] / medians_arr[:-1]
        statistic = float(2.0 / np.min(growths))
        thr = 1.0
    return _judged("entrance_proxy", statistic, thr, n_paths * len(admissible), rng, t0, {
        "starts": [float(x) for x in admissible],
        "skipped_degenerate_starts": [float(x) for x in skipped],
        "medians": [float(v) for v in medians],
        "missed": missed,
        "expect": expect,
    })
