"""In-memory spans wrapped around the public calls of each layer.

A :class:`Tracer` replaces a layer's function or method with a wrapper that
records one span per call: name, start, end and the index of the span that
was open when it began (its parent).  Spans stay in memory until the run
ends; :meth:`Tracer.summary` then folds them into per-name call counts,
inclusive time and self time (duration minus the time its child spans
cover), and :meth:`Tracer.write_chrome` exports them as Chrome trace-event
JSON, which Perfetto and ``chrome://tracing`` open directly.

Functions are patched by identity in every loaded ``repro`` module, so a
function imported under another name elsewhere (``from x import f as _f``)
is wrapped there too.  :meth:`Tracer.restore` undoes every patch.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, function, name: str, observe=None):
        """``function`` with one span recorded around every call.

        ``observe``, when given, receives every return value (outside the
        span), for counters read off a layer's results.
        """
        begin, end = self.begin, self.end

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                end(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    # -------------------------------------------------------------- patching

    def patch_method(self, cls: type, attribute: str, name: str,
                     observe=None) -> None:
        """Trace ``cls.attribute`` (a plain function defined on the class)."""
        original = cls.__dict__[attribute]
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(original, name, observe))

    def patch_function(self, function, name: str) -> int:
        """Trace ``function`` wherever a loaded ``repro`` module holds it.

        Returns the number of module attributes replaced (at least one, or
        the function is not reachable and tracing it would be a silent
        no-op).
        """
        traced = self.wrap(function, name)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attribute, function))
                    setattr(module, attribute, traced)
                    replaced += 1
        if not replaced:
            raise LookupError(f"{function!r} is not held by any repro module")
        return replaced

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- reporting

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Inclusive time counts only the outermost span of a name, so a
        recursive or re-entrant layer is not counted twice; self time is
        each span's duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        result: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            entry = result.setdefault(name, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            duration = self.ends[index] - self.starts[index]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            if not self._has_ancestor_named(index, name):
                entry["total_s"] += duration
        return result

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        origin = min(self.starts, default=0.0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": round((start - origin) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "args": {"id": index, "parent": parent}}
                  for index, (name, start, end, parent) in enumerate(
                      zip(self.names, self.starts, self.ends, self.parents))]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
