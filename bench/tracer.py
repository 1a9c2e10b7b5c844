"""In-memory spans around the public functions of each mmrca layer.

The tracer patches module attributes (the names a caller looks up at call
time) with timing wrappers and restores them on exit, so the program itself
carries no tracing code. A span records its name, start, end, parent span and
incident id; spans are kept in memory and written once when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.incident: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "incident": self.incident,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, peak_memory: bool = False):
        """Return fn wrapped in a span; peak_memory adds a tracemalloc peak (bytes)."""
        tracer = self

        def traced(*args, **kwargs):
            if not peak_memory:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                with tracer.span(name) as record:
                    result = fn(*args, **kwargs)
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                return result
            finally:
                tracemalloc.stop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch (owner, attribute, replacement-factory) targets; restore on exit."""
        saved = []
        try:
            for owner, attr, make in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(self, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child_time[s["id"]] for s in self.spans]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps(dict(s, self_s=self_s), sort_keys=True) + "\n")
