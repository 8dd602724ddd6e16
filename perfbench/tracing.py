"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around calls into the program's public layer
functions from the benchmark's own files: nothing inside ``src/`` is
instrumented.  A span is ``(name, start, end, parent, request id)``;
spans stay in memory until :meth:`Tracer.write` dumps them at the end.
A layer's self time is its spans' durations minus the time their
direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

_clock = time.perf_counter


class Tracer:
    """Collects spans; ``parent`` is the index of the enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_clock())
        try:
            yield
        finally:
            self.ends[index] = _clock()
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.names)

    def durations(self, name: str) -> list[float]:
        """Wall durations (s) of every span called ``name``."""
        return [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names)
            if n == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def top_level_total(self, min_request: int) -> float:
        """Summed duration of root spans whose request id is at least
        ``min_request``."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0 and self.requests[i] >= min_request
        )

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, summed self time in seconds)."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        table: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, name in enumerate(self.names):
            row = table[name]
            row[0] += 1
            row[1] += self.ends[i] - self.starts[i] - child_time[i]
        return {name: (row[0], row[1]) for name, row in table.items()}

    def table(self) -> str:
        """Rendered per-layer self-time table, largest first."""
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][1])
        total = sum(t for _, (_, t) in rows) or 1.0
        lines = [f"{'span':<28} {'count':>9} {'self ms':>11} {'share':>7} {'us/call':>9}"]
        for name, (count, self_s) in rows:
            lines.append(
                f"{name:<28} {count:>9} {self_s * 1e3:>11.2f} "
                f"{self_s / total:>7.1%} {self_s / count * 1e6:>9.2f}"
            )
        return "\n".join(lines)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "request": self.requests[i],
                        }
                    )
                    + "\n"
                )
