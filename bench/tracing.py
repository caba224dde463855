"""Spans and counters recorded by the benchmark around calls into mbqc.

The untraced run uses ``NullTracer``, whose ``call`` only forwards, so the
end-to-end figures carry no tracing cost.  The traced run keeps every span in
memory and writes them out at the end; a layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def op(self):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans ``[name, parent, start, end]``; parent is an index or None."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.alloc_peak: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` in a span."""
        rec = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def alloc(self, name, fn, *args) -> None:
        """Record the tracemalloc peak of ``fn(*args)``, outside any span.

        numpy reports its buffers to tracemalloc.  tracemalloc slows the
        oracle threefold, so this runs apart from the timed ops.
        """
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)

    @contextlib.contextmanager
    def op(self):
        rec = self._open("op")
        try:
            yield
        finally:
            self._close(rec)

    def count(self, name, n=1):
        self.counts[name] += n

    def record(self, name, start, end):
        """A child span of the open span, timed elsewhere (another process)."""
        self.spans.append([name, self._stack[-1] if self._stack else None, start, end])

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and number of spans, by span name."""
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start - child[i]
            calls[name] += 1
        return total, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "parent": p, "start": s, "end": e}
                        for n, p, s, e in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )
