"""Spans around calls into the solver's modules, recorded from outside them.

A traced run replaces module attributes (and three ``BasisSet`` methods) by
wrappers for the duration of the run; the solver's own code is unchanged.
Each call becomes a span with a name, a start, an end and the span that was
open when it began. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Collects spans, named counts, and the time its own wrappers take."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``count(tracer, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name):
                inner = time.perf_counter()
                result = fn(*args, **kwargs)
                done = time.perf_counter()
            if count is not None:
                count(self, args, result)
            # all the wall time the wrapper adds to the call
            self.overhead_s += (inner - entered) + (time.perf_counter() - done)
            return result

        return traced

    @contextmanager
    def patched(self, patches):
        """Install wrappers for ``(owner, attribute, span name, count)`` patches."""
        saved = []
        try:
            for owner, attr, name, count in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds ``s``, self seconds ``self_s`` and ``calls``."""
        own = self_times(self.spans)
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for s in self.spans:
            row = out[s.name]
            row["s"] += s.end - s.start
            row["self_s"] += own[s.id]
            row["calls"] += 1
        return dict(out)

    def write_jsonl(self, fh, **fields) -> None:
        """One JSON line per span, each carrying ``fields`` as well."""
        for s in self.spans:
            fh.write(json.dumps({**fields, **asdict(s)}) + "\n")
