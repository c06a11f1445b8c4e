"""In-memory spans around the benchmark's calls into gscsim.

A span records its name, start, end, parent span and the operation id it
belongs to.  Spans stay in memory until the run ends and are then written
out with each span's self time: its duration minus the part covered by its
children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "op": op}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[i] for i, s in enumerate(self.spans)]

    def write(self, path) -> None:
        self_s = self.self_times()
        spans = [dict(s, id=i, self_s=self_s[i]) for i, s in enumerate(self.spans)]
        totals = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s in spans:
            t = totals[s["name"]]
            t["count"] += 1
            t["total_s"] += s["end"] - s["start"]
            t["self_s"] += s["self_s"]
        with open(path, "w") as fh:
            json.dump({"by_name": totals, "spans": spans}, fh, indent=1)


class NoTracer:
    """Stands in for a Tracer where spans are not wanted."""

    def span(self, name: str, op=None):
        return nullcontext()
