"""In-memory spans recorded around the benchmark's calls into each layer."""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, count], in memory.

    count is the number of items the call handled, where a per-item rate
    is wanted, else None.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter_ns(), 0, parent, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span timed elsewhere, under the span open now."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start_ns, end_ns, parent, None])

    def self_times(self) -> list[tuple[str, float]]:
        """(name, seconds) for every span, each minus its children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [
            (name, (end - start - child_ns[k]) / 1e9)
            for k, (name, start, end, parent, _) in enumerate(self.spans)
        ]

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "unit": "ns since the first span",
                    "fields": ["name", "start", "end", "parent", "count"],
                    "spans": [
                        [name, start - origin, end - origin, parent, count]
                        for name, start, end, parent, count in self.spans
                    ],
                },
                handle,
            )
