"""Opt-in counters and timing spans.

`count` and `span` do nothing unless a `collecting()` block is open; inside
one they add to its `Stats`.  Stats never reach stdout: the CLI's --stats
flag writes them to stderr as one JSON line.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional

__all__ = ["Stats", "collecting", "count", "span"]


class Stats:
    """Counters and the total milliseconds spent in each named span."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.spans_ms: Dict[str, float] = {}

    def line(self) -> str:
        doc = {"spans_ms": {k: round(v, 3) for k, v in self.spans_ms.items()}, "counters": self.counters}
        return json.dumps({"stats": doc}, sort_keys=True) + "\n"


_active: Optional[Stats] = None
_OFF = nullcontext()


@contextmanager
def collecting() -> Iterator[Stats]:
    """Collects counts and spans into a fresh Stats for the block's duration."""
    global _active
    outer, _active = _active, Stats()
    try:
        yield _active
    finally:
        _active = outer


def count(name: str, n: int = 1) -> None:
    if _active is not None:
        _active.counters[name] = _active.counters.get(name, 0) + n


class _Span:
    def __init__(self, stats: Stats, name: str) -> None:
        self.stats, self.name = stats, name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        ms = (time.perf_counter() - self.start) * 1e3
        self.stats.spans_ms[self.name] = self.stats.spans_ms.get(self.name, 0.0) + ms


def span(name: str):
    """Context manager adding the block's wall time to span `name`."""
    return _OFF if _active is None else _Span(_active, name)
