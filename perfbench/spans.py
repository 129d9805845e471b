"""The benchmark's own span recorder and the exclusive self-time split.

Spans are recorded from the benchmark's code around the calls it makes into
each layer's public functions; the program's ``repro.obs`` tracer stays off.
Each span has a name, start, end, parent and the id of the check it belongs
to.  A layer's self time is its spans' durations minus the part of each
interval its child spans cover, so the layer rows plus the self time of the
root ``check`` spans (the ``other`` row) sum to the traced total exactly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

ROOT = "check"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    check_id: int


class Tracer:
    """In-memory spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float, end: float) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None:
                self._ids += 1
                check_id = self._ids
            else:
                check_id = self.spans[parent].check_id
            self.spans.append(Span(name, start, end, parent, check_id))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the body as a child of the innermost open span."""
        index = self._open(name, time.perf_counter(), 0.0)
        self._stack().append(index)
        try:
            yield index
        finally:
            self._stack().pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a span measured elsewhere (a server timestamp difference)."""
        with self._lock:
            check_id = self.spans[parent].check_id
            self.spans.append(Span(name, start, end, parent, check_id))
            return len(self.spans) - 1


def _covered(intervals: List[tuple]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus child coverage."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = min(max(span.start, parent.start), parent.end)
            end = max(min(span.end, parent.end), start)
            children.setdefault(span.parent, []).append((start, end))
    rows: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span.end - span.start) - _covered(children.get(index, []))
        rows[span.name] = rows.get(span.name, 0.0) + own
    return rows


def total(spans: List[Span], name: str = ROOT) -> float:
    return sum(span.end - span.start for span in spans if span.name == name)


def durations(spans: List[Span], name: str) -> Dict[int, float]:
    """Per check id: summed duration of the spans called ``name``."""
    per_check: Dict[int, float] = {}
    for span in spans:
        if span.name == name:
            per_check[span.check_id] = per_check.get(span.check_id, 0.0) + (
                span.end - span.start
            )
    return per_check
