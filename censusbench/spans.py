"""In-memory spans and counters for the traced benchmark run.

A span is (id, name, start, end, parent id, run id).  Spans live in a list
until the run ends and are then written out as JSON lines, so recording
one costs a list append and two clock reads.  A span's layer is the part
of its name before the first dot ("census.walk_unit" belongs to "census");
a layer's self time is the time its spans cover minus the part their
direct child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Add a span whose interval was timed elsewhere."""
        self.spans.append([name, start, end, parent])

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] += value

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time_by_layer(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += end - start - child
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def record(self, name: str, start: float, end: float, parent: int | None) -> None:
        pass

    def add(self, counter: str, value: int) -> None:
        pass
