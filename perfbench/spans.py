"""In-memory span recording around calls into pqcat's layers.

A span is recorded only where a call enters a layer from outside it (from
the benchmark or from another layer), so a layer's self time is its spans'
busy time minus the busy time of the spans they caused.  Calls that stay
inside one layer run unwrapped apart from one stack check.

Spans are lists so that the wrapper can update them in place:
[id, parent_id, job, layer, name, start, end, busy, child_busy, items].
`busy` equals end - start except for lazy results, whose span is only
busy while the consumer pulls items from it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections.abc import Iterator

ID, PARENT, JOB, LAYER, NAME, START, END, BUSY, CHILD_BUSY, ITEMS = range(10)

# pqcat modules whose public functions form the traced layers; cli is
# entered by the benchmark itself through an explicit span around run()
LAYER_MODULES = ("digits", "modular", "catalan", "exceptions", "residues",
                 "squarefree", "analytic")

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.job = ""

    def open(self, layer: str, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        t = _now()
        span = [len(self.spans), parent[ID] if parent else None, self.job,
                layer, name, t, t, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list, started: float | None = None) -> None:
        t = _now()
        busy = t - (span[START] if started is None else started)
        span[END] = t
        span[BUSY] += busy
        self.stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD_BUSY] += busy

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        span = self.open(layer, name)
        try:
            yield span
        finally:
            self.close(span)

    def _follow(self, span: list, items: Iterator):
        span[ITEMS] = 0
        while True:
            self.stack.append(span)
            t = _now()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.close(span, started=t)
            span[ITEMS] += 1
            yield item

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][LAYER] == layer:
                return fn(*args, **kwargs)
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if isinstance(result, Iterator):
                return tracer._follow(span, result)
            if isinstance(result, (list, tuple)):
                span[ITEMS] = len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever pqcat
        has bound it."""
        wrappers = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"pqcat.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pqcat" or mod_name.startswith("pqcat.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)


def self_time(span: list) -> float:
    return span[BUSY] - span[CHILD_BUSY]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
