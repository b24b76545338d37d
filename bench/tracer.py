"""Layer tracing installed from outside the library.

``Tracer.install`` wraps every public function of each layer module of
``harmonic_range`` (one layer per module) and the public methods of its
public classes.  A function bound into another module by ``from .x import
y`` is a separate module attribute, so every binding of a wrapped function
in every module of the package is replaced, and class aliases such as
``HarmonicComponent.__call__`` are patched alongside ``value``.

A call is a span when it crosses into a layer from a different one; calls
inside the same layer (``ArcSet.subset_of`` calling ``contains``) run
through without a span, so each span marks a layer boundary.  Spans carry
their id and their parent's id; a span's self time is its duration minus
the time covered by its child spans.  Evaluator spans are aggregated, not
stored, because one disc search makes tens of thousands of them.

Counts come from call arguments and return values, so they repeat exactly
across runs of the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("expressions", "circles", "ranges", "arcs", "lewis", "zeros",
          "theorems", "catalog", "cli", "svg")

# recursive tree walkers behind HarmonicComponent.value/gradient/degree;
# wrapping them would put a span on every node of every evaluation
_SKIP = {"expressions": {"evaluate", "derivative", "degree", "to_source"}}

# evaluator entry points: the component methods take the z points counted
# as expressions.points; all of them time vector work for points_per_s
_COMPONENT = {"HarmonicComponent.value", "HarmonicComponent.gradient",
              "HarmonicComponent.__call__"}
_EVALUATORS = _COMPONENT | {"HarmonicMap.value", "HarmonicMap.__call__"}

# timed as spans even when called from their own layer (RescaledMap.to_dict
# calls certify, rescaled_sequence calls lewis_disc_search), so each search
# owns the circle scans made under it
_ALWAYS_SPAN = {"lewis.RescaledMap.certify", "lewis.lewis_disc_search"}


class _Frame:
    __slots__ = ("layer", "name", "span_id", "child", "owner")

    def __init__(self, layer, name, span_id, owner):
        self.layer = layer
        self.name = name
        self.span_id = span_id
        self.child = 0.0
        # nearest enclosing span outside the evaluator layer
        self.owner = owner


class Tracer:
    def __init__(self):
        root = _Frame("<root>", "<root>", 0, None)
        root.owner = root
        self.stack = [root]
        self.spans: list[tuple] = []   # (id, parent_id, name, duration, self)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)    # per layer
        self.fn_self_s: dict[str, float] = defaultdict(float)
        self.fn_total_s: dict[str, float] = defaultdict(float)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.vector_s = 0.0   # evaluator spans on array arguments
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks ------------------------------------------------------------

    def _count_eval(self, top, args, kwargs):
        z = args[1] if len(args) > 1 else kwargs.get("z")
        owner = top.owner.name
        if isinstance(z, np.ndarray):
            self.counts["expressions.points"] += int(z.size)
            self.counts["expressions.array_calls"] += 1
            if owner == "lewis.lewis_disc_search":
                self.counts["lewis.circles_scanned"] += 1
        else:
            self.counts["expressions.scalar_calls"] += 1
            if top.owner.layer == "zeros":
                self.counts["zeros.scalar_calls"] += 1

    def _post_hooks(self):
        c = self.counts

        def sample(out, args):
            c["ranges.samples"] += out.count
            c["ranges.nonfinite"] += int(np.count_nonzero(~np.isfinite(out.w)))

        def to_csv(out, args):
            c["ranges.csv_rows"] += args[0].count

        def search(out, args):
            c["lewis.searches"] += 1
            c["lewis.budget_met"] += int(bool(out.budget_met))

        def trace(out, args):
            c["zeros.traces"] += 1
            c["zeros.curve_points"] += sum(len(curve.points) for curve in out)

        def verdict(out, args):
            c["theorems.checks"] += 1
            c["theorems.points_checked"] += int(out.sampling.get("count", 0))

        def load(out, args):
            c["catalog.loads"] += 1

        def render(out, args):
            c["svg.renders"] += 1
            c["svg.bytes"] += len(out.encode())

        hooks = {"ranges.sample_range": sample, "ranges.RangeSample.to_csv": to_csv,
                 "lewis.lewis_disc_search": search,
                 "zeros.trace_zero_set": trace, "catalog.load_catalog": load,
                 "svg.render_range_svg": render}
        for name in ("lewis_region", "antipodal_theorem", "halfplane_theorem",
                     "cor_alpha", "murdoch_kuran", "log2_inequalities"):
            hooks[f"theorems.check_{name}"] = verdict
        return hooks

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, name, post):
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        local = name.split(".", 1)[1]
        pre = self._count_eval if local in _COMPONENT else None
        vector = local in _EVALUATORS
        always = name in _ALWAYS_SPAN

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if pre is not None:
                pre(top, args, kwargs)
            if top.layer == layer and not always:
                out = fn(*args, **kwargs)
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
                frame = _Frame(layer, name, span_id,
                               top.owner if layer == "expressions" else None)
                if frame.owner is None:
                    frame.owner = frame
                stack.append(frame)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    top.child += dur
                    own = dur - frame.child
                    tracer.self_s[layer] += own
                    tracer.fn_self_s[name] += own
                    tracer.fn_total_s[name] += dur
                    tracer.fn_calls[name] += 1
                    if vector:
                        z = args[1] if len(args) > 1 else kwargs.get("z")
                        if isinstance(z, np.ndarray):
                            tracer.vector_s += dur
                    else:
                        tracer.spans.append((span_id, top.span_id, name, dur, own))
            if post is not None:
                post(out, args)
            return out

        return functools.wraps(fn)(wrapper)

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Patch the package; ``uninstall`` restores every binding."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        post_hooks = self._post_hooks()
        modules = {layer: importlib.import_module(f"harmonic_range.{layer}")
                   for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            skip = _SKIP.get(layer, set())
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and attr not in skip:
                    name = f"{layer}.{attr}"
                    replace[id(obj)] = self._wrap(obj, layer, name,
                                                  post_hooks.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, post_hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "harmonic_range":
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replace:
                    self._set(mod, attr, replace[id(value)])

    def _wrap_class(self, cls, layer, post_hooks):
        wrapped: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in wrapped:
                name = f"{layer}.{cls.__name__}.{fn.__name__}"
                wrapped[id(fn)] = self._wrap(fn, layer, name, post_hooks.get(name))
            new = wrapped[id(fn)]
            self._set(cls, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._patched):
            setattr(obj, attr, old)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Additive aggregates; summaries of several processes are summed
        with ``merge``."""
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "fn_self_s": dict(self.fn_self_s),
                "fn_total_s": dict(self.fn_total_s),
                "fn_calls": dict(self.fn_calls), "vector_s": self.vector_s,
                "spans": len(self.spans)}


def merge(summaries) -> dict:
    out = {"counts": defaultdict(int), "self_s": defaultdict(float),
           "fn_self_s": defaultdict(float), "fn_total_s": defaultdict(float),
           "fn_calls": defaultdict(int), "vector_s": 0.0, "spans": 0}
    for s in summaries:
        for key in ("counts", "self_s", "fn_self_s", "fn_total_s", "fn_calls"):
            for name, value in s[key].items():
                out[key][name] += value
        out["vector_s"] += s["vector_s"]
        out["spans"] += s["spans"]
    return out


def _calls(s: dict, prefix: str) -> int:
    return sum(v for k, v in s["fn_calls"].items() if k.startswith(prefix))


def layer_metrics(s: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit)."""
    c, self_s, fn_self, fn_total = (s["counts"], s["self_s"], s["fn_self_s"],
                                    s["fn_total_s"])
    searches = c.get("lewis.searches", 0)
    points = c.get("expressions.points", 0)
    return {
        "expressions.points": (points, "count"),
        "expressions.scalar_calls": (c.get("expressions.scalar_calls", 0), "count"),
        "expressions.self_s": (self_s.get("expressions", 0.0), "s"),
        "expressions.points_per_s": (points / s["vector_s"] if s["vector_s"] else 0.0, "1/s"),
        "circles.calls": (_calls(s, "circles."), "count"),
        "circles.self_s": (self_s.get("circles", 0.0), "s"),
        "ranges.samples": (c.get("ranges.samples", 0), "count"),
        "ranges.nonfinite": (c.get("ranges.nonfinite", 0), "count"),
        "ranges.sample_self_s": (fn_self.get("ranges.sample_range", 0.0), "s"),
        "ranges.estimate_self_s": (fn_self.get("ranges.estimate_directions", 0.0), "s"),
        "ranges.csv_rows": (c.get("ranges.csv_rows", 0), "count"),
        "ranges.csv_self_s": (fn_self.get("ranges.RangeSample.to_csv", 0.0), "s"),
        "arcs.calls": (_calls(s, "arcs."), "count"),
        "arcs.self_s": (self_s.get("arcs", 0.0), "s"),
        "lewis.searches": (searches, "count"),
        "lewis.circles_scanned": (c.get("lewis.circles_scanned", 0), "count"),
        "lewis.self_s": (self_s.get("lewis", 0.0), "s"),
        "lewis.certify_s": (fn_total.get("lewis.RescaledMap.certify", 0.0), "s"),
        "lewis.budget_met_frac": (c.get("lewis.budget_met", 0) / searches
                                  if searches else 0.0, "ratio"),
        "zeros.traces": (c.get("zeros.traces", 0), "count"),
        "zeros.curve_points": (c.get("zeros.curve_points", 0), "count"),
        "zeros.scalar_calls": (c.get("zeros.scalar_calls", 0), "count"),
        "zeros.self_s": (self_s.get("zeros", 0.0), "s"),
        "zeros.local_self_s": (fn_self.get("zeros.local_structure", 0.0), "s"),
        "theorems.checks": (c.get("theorems.checks", 0), "count"),
        "theorems.points_checked": (c.get("theorems.points_checked", 0), "count"),
        "theorems.self_s": (self_s.get("theorems", 0.0), "s"),
        "catalog.loads": (c.get("catalog.loads", 0), "count"),
        "catalog.self_s": (self_s.get("catalog", 0.0), "s"),
        "cli.main_self_s": (fn_self.get("cli.main", 0.0), "s"),
        "svg.renders": (c.get("svg.renders", 0), "count"),
        "svg.bytes": (c.get("svg.bytes", 0), "count"),
        "svg.self_s": (self_s.get("svg", 0.0), "s"),
    }
