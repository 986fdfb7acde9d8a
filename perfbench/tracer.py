"""Outside-in tracing of the artifact package.

``install`` rebinds the public functions of each module (every binding of
the same function object, including ``from ... import`` copies in other
modules), the ``__call__`` of every sigma class and ``LevyExponent.eval`` to
wrappers that record a span (name, start, end, parent) and a few counts.
Classes are patched in place, never proxied, because the classifier routes on
``isinstance``.  Spans live in flat arrays and are written out at the end.

A layer's self time is the time its spans cover minus the part their child
spans cover; ``busy_s`` and ``self_s`` below are both that self time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
import warnings
from array import array

import numpy as np

LAYERS = ("cli", "stable_core", "sigma_model", "montecarlo", "fluctuation_oracles",
          "boundary_classifier", "sde_timechange", "transforms")
# kernels whose loops call the stepping sampler once per iteration
KERNELS = ("passage_overshoot_samples", "strip_entry_samples", "origin_kill_occupation",
           "interval_exit_occupation", "occupation_potential_lemma")
SUITES = ("overshoot", "occupation", "lemma", "entrance", "explosion-time")
NARROW_LANES = 100
WARN_LAYERS = ("fluctuation_oracles", "boundary_classifier")

# (finished paths, launched paths) from each kernel's returned record
FINISHED = {
    "passage_overshoot_samples": lambda r: (r["depths"].size, r["n_paths"]),
    "strip_entry_samples": lambda r: (r["positions"].size, r["n_paths"]),
    "origin_kill_occupation": lambda r: (r["killed"], r["n_paths"]),
    "interval_exit_occupation": lambda r: (r["steps"].size, r["n_paths"]),
    "exit_interval_samples": lambda r: (r["exit_positions"].size, r["n_paths"]),
    "explosion_estimate": lambda r: (np.sum(r.plateaued), r.n_paths),
}

COUNTS = (
    "stable_core.calls", "stable_core.draws", "stable_core.narrow_calls",
    "sigma_model.calls", "sigma_model.points", "sigma_model.scalar_calls",
    "fluctuation_oracles.points", "fluctuation_oracles.quad_warnings",
    "boundary_classifier.rows", "boundary_classifier.quad_warnings",
    "sde_timechange.grid_points", "transforms.calls",
    *(f"montecarlo.iterations.{k}" for k in KERNELS),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent = array("l"), array("l")
        self.stack: list[int] = []
        self.depth = dict.fromkeys(LAYERS, 0)  # open spans per layer
        self.kernels: list[str] = []  # open montecarlo spans, innermost last
        self.counts = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def outermost(self, layer: str) -> bool:
        """True when no span of ``layer`` is open, i.e. the next one is outermost."""
        return not self.depth[layer]

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) runs with the caller's
        stack, after(args, kwargs, result) once fn returned."""
        nid = self._id(name)
        layer, _, short = name.partition(".")
        catch = layer in WARN_LAYERS
        kernel = layer == "montecarlo"
        counts, depth, stack, kernels = self.counts, self.depth, self.stack, self.kernels
        start, end, names, parents = self.start, self.end, self.name, self.parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = catch and not depth[layer]
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            depth[layer] += 1
            if kernel:
                kernels.append(short)
            start.append(clock())
            try:
                if record:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                    counts[f"{layer}.quad_warnings"] += sum(
                        w.category.__name__ == "IntegrationWarning" for w in caught)
                else:
                    out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[layer] -= 1
                if kernel:
                    kernels.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- summaries ---------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def layer_times(self) -> tuple[dict, dict]:
        """(self time, inclusive time of outermost spans) per span name."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = np.bincount(sp["name"], weights=dur - child, minlength=len(self.names))
        parent_name = np.where(has_parent, sp["name"][np.maximum(sp["parent"], 0)], -1)
        top = parent_name != sp["name"]
        incl = np.bincount(sp["name"][top], weights=dur[top], minlength=len(self.names))
        return (dict(zip(self.names, self_t.tolist())), dict(zip(self.names, incl.tolist())))


def _size(v) -> int:
    return int(np.size(v)) if isinstance(v, (np.ndarray, list, tuple)) else 1


def install(tracer: Tracer, useful: collections.Counter) -> None:
    """Wrap the public surface of every artifact module in spans.

    ``useful`` collects finished and launched path counts from the kernels'
    returned records (censored, alive and missed paths are not finished).
    """
    mods = {name: importlib.import_module(f"artifact.{name}") for name in LAYERS}
    mods["artifact"] = importlib.import_module("artifact")
    c = tracer.counts

    def rebind(orig, wrapped):
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)

    def draws(args, kwargs):
        dt = np.asarray(args[1] if len(args) > 1 else kwargs["dt"])
        size = args[3] if len(args) > 3 else kwargs.get("size")
        lanes = (1 if size is None else int(size)) if dt.ndim == 0 else dt.size
        c["stable_core.calls"] += 1
        c["stable_core.draws"] += lanes
        c["stable_core.narrow_calls"] += lanes < NARROW_LANES
        if tracer.kernels:
            c[f"montecarlo.iterations.{tracer.kernels[-1]}"] += 1

    def matrix_draws(args, kwargs):
        dts, m = np.asarray(args[1]), int(args[2])
        c["stable_core.calls"] += 1
        c["stable_core.draws"] += m * dts.size
        c["sde_timechange.grid_points"] += m * (dts.size + 1)

    def count_outermost(layer, key, amount):
        def before(args, kwargs):
            if tracer.outermost(layer):
                c[key] += amount(args, kwargs)
        return before

    def finished(name):
        done = FINISHED.get(name)
        if done is None:
            return None

        def after(args, kwargs, result):
            try:
                finished_paths, launched = done(result)
            except (KeyError, AttributeError, TypeError):
                return  # the record changed shape; count nothing rather than guess
            useful["finished"] += int(finished_paths)
            useful["launched"] += int(launched)
        return after

    sigma_mod = mods["sigma_model"]
    wrapped_fns = {}
    for layer in LAYERS:
        mod = mods[layer]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn) or fn in wrapped_fns:
                continue
            home = fn.__module__.rpartition(".")[2]
            before = after = None
            if fn.__name__ == "sample_increment":
                before = draws
            elif home == "fluctuation_oracles":
                before = count_outermost(home, "fluctuation_oracles.points",
                                         lambda a, k: max([_size(v) for v in a] + [1]))
            elif home == "transforms":
                before = count_outermost(home, "transforms.calls", lambda a, k: 1)
            elif fn.__name__ == "classify":
                before = count_outermost(home, "boundary_classifier.rows", lambda a, k: 1)
            if home in ("montecarlo", "sde_timechange"):
                after = finished(fn.__name__)
            wrapped_fns[fn] = tracer.wrap(f"{home}.{fn.__name__}", fn, before, after)
    matrix = getattr(mods["sde_timechange"], "sample_increments_matrix", None)
    if inspect.isfunction(matrix):
        wrapped_fns[matrix] = tracer.wrap("stable_core.sample_increments_matrix", matrix,
                                          before=matrix_draws)
    for orig, wrapped in wrapped_fns.items():
        rebind(orig, wrapped)

    depth = tracer.depth

    def sigma_counts(args, kwargs):
        if not depth["sigma_model"]:
            x = args[1] if len(args) > 1 else kwargs["x"]
            scalar = isinstance(x, (float, int))
            c["sigma_model.calls"] += 1
            c["sigma_model.points"] += 1 if scalar else int(np.size(x))
            c["sigma_model.scalar_calls"] += scalar or np.ndim(x) == 0

    pending = list(sigma_mod.SigmaFunction.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "__call__" in vars(cls):
            cls.__call__ = tracer.wrap(f"sigma_model.{cls.__name__}", vars(cls)["__call__"],
                                       before=sigma_counts)
    exponent = getattr(mods["transforms"], "LevyExponent", None)
    if exponent is not None and "eval" in vars(exponent):
        exponent.eval = tracer.wrap(
            "transforms.LevyExponent.eval", vars(exponent)["eval"],
            before=count_outermost("transforms", "transforms.calls", lambda a, k: 1))


def per_layer(tracer: Tracer, useful: collections.Counter, facts: dict) -> dict:
    """Per-layer metrics from spans, counts and the ops' own facts.

    facts: {"stat_ratio": {suite: [ratios]}, "integrals": int, "ladder": int,
    "undecided": int}, summed over the classify ops (rows with an integral,
    those the quadrature ladder decided, those left undecided)
    """
    self_t, incl = tracer.layer_times()
    by_layer = collections.Counter()
    for name, t in self_t.items():
        by_layer[name.partition(".")[0]] += t
    c = tracer.counts
    out = {k: (c[k], "count") for k in COUNTS}
    ratio = lambda a, b: a / b if b else 0.0
    out.update({
        "stable_core.narrow_frac": (ratio(c["stable_core.narrow_calls"], c["stable_core.calls"]), "1"),
        "stable_core.ns_per_draw": (ratio(by_layer["stable_core"] * 1e9, c["stable_core.draws"]), "ns"),
        "montecarlo.self_s": (by_layer["montecarlo"], "s"),
        "montecarlo.ks_s": (incl.get("montecarlo.ks_compare", 0.0), "s"),
        "montecarlo.useful_frac": (ratio(useful["finished"], useful["launched"]), "1"),
        "fluctuation_oracles.us_per_point": (
            ratio(by_layer["fluctuation_oracles"] * 1e6, c["fluctuation_oracles.points"]), "us"),
        "boundary_classifier.ladder_frac": (ratio(facts["ladder"], facts["integrals"]), "1"),
        "boundary_classifier.undecided_frac": (ratio(facts["undecided"], facts["integrals"]), "1"),
        "cli.self_s": (by_layer["cli"], "s"),
    })
    for layer in ("stable_core", "sigma_model", "fluctuation_oracles", "boundary_classifier",
                  "sde_timechange", "transforms"):
        out[f"{layer}.busy_s"] = (by_layer[layer], "s")
    for suite in SUITES:
        vals = facts["stat_ratio"].get(suite, [])
        out[f"montecarlo.stat_ratio.{suite}"] = (float(np.median(vals)) if vals else 0.0, "1")
    return out
