"""Spans and counters recorded around the public entry points of each layer.

The tracer patches nothing inside the package's source: it replaces, at run
time, every reference to a chosen public function (in every loaded
``hwassure`` module) and chosen public methods on their classes with a
wrapper that records a span. Hot per-clause calls are wrapped as counters
(call count and total time) instead of spans.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or ``None``), ``op`` the op id (``"setup-N"`` during set-up).
Spans stay in memory until the run ends; :meth:`Tracer.write_jsonl` dumps
them, one JSON object per line.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter


class Span:
    __slots__ = ("name", "module", "start", "end", "parent", "op", "child_s", "outer", "outer_module")

    def __init__(self, name, module, start, parent, op, outer, outer_module):
        self.name = name
        self.module = module
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0  # time covered by direct child spans and counted calls
        self.outer = outer  # no enclosing span of the same name
        self.outer_module = outer_module  # no enclosing span of the same module

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans, counters and per-op gauges while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._name_depth: Dict[str, int] = {}
        self._module_depth: Dict[str, int] = {}
        # per-op values: sums add up, gauges keep the last value, peaks the max
        self.op_records: List[Dict[str, Any]] = []
        self._current: Dict[str, Any] = {}

    # -- recording ---------------------------------------------------------

    def open(self, name: str, module: str) -> int:
        parent = self._stack[-1] if self._stack else None
        outer = self._name_depth.get(name, 0) == 0
        outer_module = self._module_depth.get(module, 0) == 0
        self._name_depth[name] = self._name_depth.get(name, 0) + 1
        self._module_depth[module] = self._module_depth.get(module, 0) + 1
        span = Span(name, module, perf(), parent, self.op, outer, outer_module)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf()
        self._stack.pop()
        self._name_depth[span.name] -= 1
        self._module_depth[span.module] -= 1
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    def count(self, name: str, seconds: float) -> None:
        self.add(name + ".calls", 1)
        self.add(name + ".s", seconds)
        if self._stack:
            self.spans[self._stack[-1]].child_s += seconds

    def add(self, key: str, value: float) -> None:
        self._current[key] = self._current.get(key, 0) + value

    def gauge(self, key: str, value: Optional[float]) -> None:
        self._current[key] = value

    def peak(self, key: str, value: float, **with_it: Optional[float]) -> None:
        """Keep the largest ``value`` seen in this op, and ``with_it`` read at that moment."""
        if key not in self._current or value > self._current[key]:
            self._current[key] = value
            self._current.update(with_it)

    def begin_op(self, op: str) -> int:
        self.op = op
        self._current = {}
        return self.open("op", "op")

    def end_op(self, index: int) -> Dict[str, Any]:
        self.close(index)
        record = self._current
        self.op_records.append(record)
        self.op = None
        return record

    # -- patching ----------------------------------------------------------

    def wrap_function(self, module: str, name: str, hook: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` everywhere the package refers to it."""
        original = getattr(sys.modules[module], name)
        wrapper = self._span_wrapper(f"{_short(module)}.{name}", _short(module), original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hwassure" or mod_name.startswith("hwassure.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def wrap_module(self, module: str) -> None:
        """Wrap every public function the module defines."""
        mod = sys.modules[module]
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and not name.startswith("_") and value.__module__ == module:
                self.wrap_function(module, name)

    def wrap_method(self, cls: type, name: str, hook: Optional[Callable] = None) -> None:
        module = cls.__module__
        original = cls.__dict__[name]
        label = f"{_short(module)}.{cls.__name__}.{name}"
        setattr(cls, name, self._span_wrapper(label, _short(module), original, hook))

    def count_method(self, cls: type, name: str, label: str) -> None:
        original = cls.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            t = perf()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.count(label, perf() - t)

        setattr(cls, name, counted)

    def _span_wrapper(self, label: str, module: str, original: Callable, hook: Optional[Callable]):
        """``hook(tracer, args, kwargs)`` runs before the call and returns
        ``after(result, seconds)``, which runs after it."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            after = hook(tracer, args, kwargs) if hook else None
            index = tracer.open(label, module)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after:
                after(result, span.duration)
            return result

        return traced

    # -- reading -----------------------------------------------------------

    def op_spans(self, ops: set) -> List[Span]:
        return [s for s in self.spans if s.op in ops]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "self_s": s.self_s,
                }) + "\n")


def _short(module: str) -> str:
    return module[len("hwassure."):] if module.startswith("hwassure.") else module


def calibrate_wrapper_cost(samples: int = 20000) -> float:
    """Seconds one enabled span wrapper adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._span_wrapper("calibrate", "calibrate", noop, None)
    tracer.enabled = True
    tracer.begin_op("calibrate")
    t = perf()
    for _ in range(samples):
        wrapped()
    traced = perf() - t
    t = perf()
    for _ in range(samples):
        noop()
    plain = perf() - t
    return max(0.0, (traced - plain) / samples)
