"""Spans around the public functions of each ``cl3`` module, from outside.

``Tracer.install`` replaces every listed function, in every ``cl3`` module
namespace that binds it, with a wrapper that times the call; the library
source is not touched.  ``Multivector`` is a class, so its ``__init__`` is
wrapped instead of the name, which keeps ``isinstance`` working.

Per function the tracer keeps, in memory, the call count, the self time
(span duration minus the durations of wrapped child spans), the inclusive
time and the number of wrapped descendant calls.  It also keeps the first
``span_limit`` spans in full (name, start, end, parent span, op index), so
a run's memory stays bounded; ``run.py`` writes both out when it ends.
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "algebra": ("Multivector", "geometric_product", "involute", "determinant", "inverse"),
    "center": ("center_decompose",),
    "exponential": ("exp", "exp_factors", "degeneracy_eps"),
    "functions": ("hyperbolic_exact", "trig_exact", "ratio_exact", "normalize"),
    "series": ("series_eval",),
    "spin": ("sweep_ramp",),
    "remap": ("basis_remap",),
    "cli": ("main", "parse_mv", "render_mv"),
}

# Functions whose calls are also counted per argument value, for the rows
# of the baseline table (exp per algebra, tan versus tanh, sweep method).
VARIANTS = {
    "exponential.exp": lambda args, kwargs: args[0].sig.name.lower(),
    "functions.ratio_exact": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["which"],
    "spin.sweep_ramp": lambda args, kwargs: args[2] if len(args) > 2 else kwargs.get("method", "closed"),
}


def layer_keys():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self, span_limit: int = 2000):
        # key -> [calls, self seconds, inclusive seconds, wrapped descendant calls]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.span_limit = span_limit
        self.op = -1
        self._open: list[list] = []  # [child seconds, descendant calls, span index]
        self._patches: list[tuple] = []

    def _wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        variant = VARIANTS.get(key)
        open_spans = self._open
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            vstats = None
            if variant is not None:
                vkey = f"{key}.{variant(args, kwargs)}"
                vstats = self.stats.setdefault(vkey, [0, 0.0, 0.0, 0])
            index = -1
            if len(spans) < self.span_limit:
                index = len(spans)
                parent = open_spans[-1][2] if open_spans else -1
                spans.append([key, 0.0, 0.0, parent, self.op])
            frame = [0.0, 0, index]
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                for s in (stats, vstats) if vstats is not None else (stats,):
                    s[0] += 1
                    s[1] += duration - frame[0]
                    s[2] += duration
                    s[3] += frame[1]
                if open_spans:
                    open_spans[-1][0] += duration
                    open_spans[-1][1] += 1 + frame[1]
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a ``cl3`` module binds it."""
        import importlib

        modules = [m for name, m in list(sys.modules.items()) if name == "cl3" or name.startswith("cl3.")]
        for mod_name, fns in LAYERS.items():
            home = importlib.import_module(f"cl3.{mod_name}")
            if home not in modules:
                modules.append(home)
            for fn_name in fns:
                key = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    init = original.__init__
                    self._patch(original, "__init__", init, self._wrap(key, init))
                    continue
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def merge(self, stats: dict) -> None:
        """Add the totals of another tracer (a child process) to this one."""
        for key, values in stats.items():
            mine = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                mine[i] += v


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call, from a wrapped no-op function."""

    def noop():
        return None

    tracer = Tracer(span_limit=0)
    wrapped = tracer._wrap("noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]
