"""In-memory spans recorded around calls into the program's public API.

A span is ``(name, start, end, parent)``; spans of one SDK round trip
carry that request's id as their root.  Nothing is written while the
benchmark measures: :meth:`Tracer.write` dumps everything at the end.
A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Collects spans from any number of threads (each thread keeps its
    own stack of open spans, so parents never cross threads)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: int | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds.

        Children of one parent run sequentially on the parent's thread,
        so the covered part is the sum of the children's durations."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        totals: dict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, covered):
            totals[span[0]] += (span[2] - span[1]) - child
        return dict(totals)

    def write(self, path: Path, counters: dict) -> None:
        """Spans (one JSON line each, after a header line holding the
        counters and per-name self times) to a gzip file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({
                "counters": counters, "self_s": self.self_times(),
            }) + "\n")
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
