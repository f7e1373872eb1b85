"""In-memory spans recorded around the benchmark's calls into defectca.

A span is one call into a layer's public function, named
``<layer>.<function>``.  It records its start and end (``perf_counter``
seconds), the span that was open when it started, and free-form attributes
(work counts, the phase it belongs to).  Spans stay in memory and are
written out once, when the run ends.

``NULL_TRACER`` is what untraced passes use: its ``span`` returns one
shared object whose enter, exit and ``set`` do nothing, so the call sites
stay in place and cost a method call each.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("tracer", "id", "parent", "name", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr._open[-1].id if tr._open else None
        tr.spans.append(self)
        tr._open.append(self)
        self.end = None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        self.tracer._open.pop()
        return False


class _NullSpan:
    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()


class Tracer:
    """Collects the spans of one workload; ``run_id`` tags each of them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def named(self, name: str, **match) -> list[Span]:
        """Closed spans called ``name`` whose attributes include ``match``."""
        return [s for s in self.spans
                if s.name == name and s.end is not None
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the name's first part), each span counted
        without the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name.split(".")[0]] += s.duration - child[s.id]
        return dict(out)

    def dump(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({"run": self.run_id, "id": s.id,
                                 "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end,
                                 "attrs": s.attrs}, sort_keys=True,
                                default=str) + "\n")
