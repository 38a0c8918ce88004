"""In-memory spans with parent links, self time and peak-RSS growth.

A span records name, start, end, parent span and run id. Spans stay in a
list until ``Tracer.dump`` writes them once, as JSON lines. Peak-RSS growth
comes from ``resource.getrusage(RUSAGE_SELF)``, so it sees only this process.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds, all threads
    rss_growth_kb: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans; a disabled tracer records nothing."""

    def __init__(self, run: str, enabled: bool = True):
        self.run = run
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self.run, 0.0)
        self.spans.append(sp)
        self._stack.append(sp.id)
        rss0 = _peak_rss_kb()
        cpu0 = time.process_time()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu = time.process_time() - cpu0
            sp.rss_growth_kb = _peak_rss_kb() - rss0
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - covered(children.get(sp.id, []), sp.start, sp.end)
        for sp in spans
    }
