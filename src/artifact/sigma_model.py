"""Coefficient functions sigma for the driven equation dZ = sigma(Z-) dX.

A ``SigmaFunction`` is a strictly positive, continuous function of the real
line together with an optional *declared tail* on each side: ``tail`` gives
(theta, q) with sigma(x) ~ C |x|^theta (log|x|)^q as x -> +/- infinity.
Declared tails let the boundary classifier decide integral finiteness
analytically; without them it falls back on adaptive quadrature over a
growing window and may honestly return "undecided".

A sigma also declares where it is not smooth: ``kinks()`` gives the sorted
points at which its derivative jumps, none for the smooth kinds, every node
for a table and the union of its parts' kinks for a product.  The classifier
splits each quadrature there, since adaptive Gauss-Kronrod bisects towards a
kink until it meets roundoff.

Kinds
-----
PowerTail(c, theta)
    sigma(x) = c (1 + x^2)^{theta/2}.  Even, smooth, sigma(0) = c, tails
    |x|^theta on both sides (declared).
LogPower(c, theta, q)
    sigma(x) = c (1 + x^2)^{theta/2} (log(e + x^2))^q.  The slowly varying
    log factor means no *bare* power describes the tail to the precision the
    declared-tail contract demands, so tail_plus/tail_minus are undeclared;
    ``tail`` gives (theta, q), and q decides the theta = 1 knife edge.
Tabulated(xs, ys, tail_plus, tail_minus)
    Linear interpolation of strictly positive samples inside [xs[0], xs[-1]],
    matched power extrapolation sigma(x) = y_end (|x|/|x_end|)^theta beyond.
    Tail exponents are REQUIRED (classification would otherwise be a guess)
    and must be consistent with the data; loading from two-column CSV is
    provided.
Composite(parts)
    Pointwise product of component sigma functions.  Tails add when every
    part declares them, otherwise the composite declares none.

Evaluation
----------
Every kind is called on a point or on an array.  A finite float (Python or
numpy) goes in and a Python float comes out, computed in plain float
arithmetic and bit-identical to the 0-d numpy evaluation; arrays, 0-d arrays
and any other input take the numpy path.  The integral tests call sigma one
quadrature node at a time, the samplers call it on whole arrays.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "NonPositiveError",
    "SigmaFunction",
    "PowerTail",
    "LogPower",
    "Tabulated",
    "Composite",
    "parse_sigma_spec",
]


class NonPositiveError(ValueError):
    """sigma must be strictly positive; raised at construction time."""


def _pointwise(point, array):
    """A ``__call__`` that evaluates a finite float x as point(self, x) and
    anything else as array(self, x as a float array).

    Python's ``**`` raises where numpy's returns inf or 0, so such a point is
    evaluated by ``array``, which gives the 0-d numpy value, warnings and all.
    Each kind binds the result as ``__call__`` in its own class body, which is
    where ``perfbench/tracer.py`` looks for it.
    """

    def __call__(self, x):
        if isinstance(x, float) and math.isfinite(x):
            try:
                return point(self, float(x))
            except ArithmeticError:
                pass
        out = array(self, np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out

    return __call__


class SigmaFunction:
    """Base class: positive continuous coefficient with optional tails."""

    #: declared tail exponents, or None when unknown
    tail_plus: float | None = None
    tail_minus: float | None = None

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def tail(self, positive: bool) -> tuple[float, float] | None:
        """(theta, q) of the declared tail as x -> +inf (positive) or -inf, or None."""
        t = self.tail_plus if positive else self.tail_minus
        return None if t is None else (float(t), 0.0)

    def kinks(self) -> tuple[float, ...]:
        """The sorted points at which sigma is not smooth; none by default."""
        return ()

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class PowerTail(SigmaFunction):
    c: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not (self.c > 0) or not math.isfinite(self.c):
            raise NonPositiveError(f"scale c must be positive, got {self.c}")
        if not math.isfinite(self.theta):
            raise NonPositiveError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "tail_plus", float(self.theta))
        object.__setattr__(self, "tail_minus", float(self.theta))

    def _at(self, x):
        return self.c * (1.0 + x * x) ** (self.theta / 2.0)

    __call__ = _pointwise(_at, _at)

    def describe(self) -> str:
        return f"power:c={self.c:g},theta={self.theta:g}"


@dataclass(frozen=True)
class LogPower(SigmaFunction):
    c: float = 1.0
    theta: float = 0.0
    q: float = 1.0

    def __post_init__(self):
        if not (self.c > 0) or not math.isfinite(self.c):
            raise NonPositiveError(f"scale c must be positive, got {self.c}")
        if not (math.isfinite(self.theta) and math.isfinite(self.q)):
            raise NonPositiveError("theta and q must be finite")
        # deliberately no declared bare tails: the log factor shifts the
        # empirical log-log slope by ~ q/log|x|, more than the declared-tail
        # tolerance on any finite window

    def _at(self, x, log):
        return self.c * (1.0 + x * x) ** (self.theta / 2.0) * log ** self.q

    def _point(self, x):
        # np.log, not math.log: the two differ in the last bit at some points
        return self._at(x, float(np.log(math.e + x * x)))

    def _array(self, x):
        return self._at(x, np.log(math.e + x * x))

    __call__ = _pointwise(_point, _array)

    def tail(self, positive: bool) -> tuple[float, float]:
        return self.theta, self.q

    def describe(self) -> str:
        return f"logpower:c={self.c:g},theta={self.theta:g},q={self.q:g}"


@dataclass(frozen=True)
class Tabulated(SigmaFunction):
    xs: tuple
    ys: tuple
    tail_plus: float | None = None
    tail_minus: float | None = None
    # the grid as read-only arrays for the array path, built once
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-D grids with at least two nodes")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(~np.isfinite(ys)) or np.any(ys <= 0):
            raise NonPositiveError("tabulated sigma values must be finite and positive")
        if self.tail_plus is None or self.tail_minus is None:
            raise ValueError("tabulated sigma requires declared tail exponents")
        object.__setattr__(self, "xs", tuple(float(v) for v in xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in ys))
        for name, grid in (("_xs", self.xs), ("_ys", self.ys)):
            grid = np.array(grid)
            grid.flags.writeable = False
            object.__setattr__(self, name, grid)

    def _point(self, x):
        xs, ys = self.xs, self.ys
        if x > xs[-1]:
            return ys[-1] * (abs(x) / max(abs(xs[-1]), 1e-300)) ** self.tail_plus
        if x < xs[0]:
            return ys[0] * (abs(x) / max(abs(xs[0]), 1e-300)) ** self.tail_minus
        j = bisect.bisect_right(xs, x) - 1
        if xs[j] == x:  # np.interp's rule at a node, the last one included
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return slope * (x - xs[j]) + ys[j]

    def _array(self, x):
        xs, ys = self._xs, self._ys
        out = np.interp(x, xs, ys)
        # matched power extrapolation beyond the grid
        hi, lo = xs[-1], xs[0]
        mask = x > hi
        if np.any(mask):
            base = max(abs(hi), 1e-300)
            out = np.where(mask, ys[-1] * (np.abs(x) / base) ** self.tail_plus, out)
        mask = x < lo
        if np.any(mask):
            base = max(abs(lo), 1e-300)
            out = np.where(mask, ys[0] * (np.abs(x) / base) ** self.tail_minus, out)
        return out

    __call__ = _pointwise(_point, _array)

    def kinks(self) -> tuple[float, ...]:
        # every node, the two ends included: the power extrapolation joins there
        return self.xs

    @classmethod
    def from_csv(cls, path, tail_plus: float, tail_minus: float) -> "Tabulated":
        """Two-column `x,sigma` CSV (comments with # allowed)."""
        xs, ys = [], []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line[0].isalpha():
                    continue
                a, _, b = line.partition(",")
                xs.append(float(a))
                ys.append(float(b))
        return cls(xs=tuple(xs), ys=tuple(ys),
                   tail_plus=float(tail_plus), tail_minus=float(tail_minus))

    def describe(self) -> str:
        return (f"table:[{self.xs[0]:g},{self.xs[-1]:g}]x{len(self.xs)},"
                f"theta_plus={self.tail_plus:g},theta_minus={self.tail_minus:g}")


@dataclass(frozen=True)
class Composite(SigmaFunction):
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composite needs at least one part")
        for part in self.parts:
            if not isinstance(part, SigmaFunction):
                raise TypeError("composite parts must be SigmaFunction instances")
        object.__setattr__(self, "parts", tuple(self.parts))
        for name in ("tail_plus", "tail_minus"):
            tails = [getattr(part, name) for part in self.parts]
            object.__setattr__(
                self, name, None if any(v is None for v in tails) else float(sum(tails)))

    def _point(self, x):
        return math.prod(part(x) for part in self.parts)

    def _array(self, x):
        out = np.ones_like(x)
        for part in self.parts:
            out = out * part(x)
        return out

    __call__ = _pointwise(_point, _array)

    def tail(self, positive: bool) -> tuple[float, float] | None:
        theta = q = 0.0
        for part in self.parts:
            t = part.tail(positive)
            if t is None:
                return None
            theta += t[0]
            q += t[1]
        return theta, q

    def kinks(self) -> tuple[float, ...]:
        return tuple(sorted(set().union(*(part.kinks() for part in self.parts))))

    def describe(self) -> str:
        return "composite:(" + "*".join(p.describe() for p in self.parts) + ")"


def _parse_kv(body: str, allowed: tuple[str, ...]) -> dict:
    out = {}
    for tok in body.split(","):
        tok = tok.strip()
        if not tok:
            continue
        k, sep, v = tok.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {tok!r}")
        k = k.strip()
        if k not in allowed:
            raise ValueError(
                f"unknown sigma parameter {k!r}; expected one of {sorted(allowed)}"
            )
        out[k] = v.strip()
    return out


def parse_sigma_spec(text: str) -> SigmaFunction:
    """Parse the small sigma grammar used by the command line.

    * ``power:c=1,theta=2``
    * ``const:c=2``                      (alias for theta=0)
    * ``logpower:c=1,theta=1,q=2``
    * ``table:sigma.csv,theta_plus=2,theta_minus=2``
    """
    kind, sep, body = text.partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise ValueError(f"malformed sigma spec {text!r}; expected kind:args")
    if kind == "power":
        kv = _parse_kv(body, allowed=("c", "theta"))
        return PowerTail(c=float(kv.get("c", 1.0)), theta=float(kv.get("theta", 0.0)))
    if kind == "const":
        kv = _parse_kv(body, allowed=("c",))
        return PowerTail(c=float(kv.get("c", 1.0)), theta=0.0)
    if kind == "logpower":
        kv = _parse_kv(body, allowed=("c", "theta", "q"))
        return LogPower(
            c=float(kv.get("c", 1.0)),
            theta=float(kv.get("theta", 0.0)),
            q=float(kv.get("q", 1.0)),
        )
    if kind == "table":
        first, _, rest = body.partition(",")
        kv = _parse_kv(rest, allowed=("theta_plus", "theta_minus")) if rest else {}
        if "theta_plus" not in kv or "theta_minus" not in kv:
            raise ValueError("table sigma requires theta_plus and theta_minus")
        return Tabulated.from_csv(
            first.strip(), float(kv["theta_plus"]), float(kv["theta_minus"])
        )
    raise ValueError(f"unknown sigma kind {kind!r}")
