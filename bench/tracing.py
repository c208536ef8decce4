"""Span tracer for the traced run: wraps the program's public functions.

``Tracer.install`` replaces every public function of the ``rabinowitz``
modules, plus ``BundleParams.crit``, wherever the function's name is bound in
the given modules.  Each call then records its time and the time of the
traced calls made inside it, so self time is span time minus child spans.
Calls of the hot per-generator functions in ``HOT`` are counted and timed in
aggregate only; every other call also records a span (id, name, start, end,
parent id) in memory, written out by ``write_spans`` when the run ends.
Private helpers are not wrapped, so their time shows as their caller's self
time.  The timed runs never install the tracer.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

HOT = {
    "bundle.crit", "generators.action", "generators.level", "generators.grading",
    "generators.eta", "generators.project_to_base", "generators.cz_fiber_disk",
    "generators.sort_key", "generators.validate_generator", "differentials.validate_entry",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.observers = {}         # name -> callback(result, stack of names)
        self._stack: list[list] = []  # frames: [name, child seconds, span id, parent span id]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def observe(self, name: str, callback) -> None:
        self.observers[name] = callback

    def wrap(self, name: str, fn):
        tracer, hot, clock = self, name in HOT, time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            parent_span = None if parent is None else (parent[2] if parent[2] is not None else parent[3])
            span = None
            if not hot:
                span = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, span, parent_span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
                if span is not None:
                    tracer.spans.append((span, name, start, end, parent_span))
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result, [f[0] for f in stack])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap each public function of the program wherever it is bound."""
        from rabinowitz.bundle import BundleParams

        wrapped = {}
        for mod in modules:
            if not mod.__name__.startswith("rabinowitz."):
                continue
            short = mod.__name__.split(".", 1)[1]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
                    self.calls[f"{short}.{attr}"] = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        self.calls["bundle.crit"] = 0
        self._undo.append((BundleParams, "crit", BundleParams.crit))
        BundleParams.crit = self.wrap("bundle.crit", BundleParams.crit)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_spans(self, path, ref_s: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({"ref_s": ref_s, "fields": ["id", "name", "start", "end", "parent"],
                       "spans": sorted(self.spans)}, out)
