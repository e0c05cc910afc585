"""The benchmark's own spans around calls into ``repro``'s public functions.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the part covered by its direct children.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int
    call_id: int
    args: dict = field(default_factory=dict)


class Tracer:
    """Single-threaded span recorder (the benchmark drives load from one
    thread, so one parent stack suffices)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, call_id: int = 0, **args):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(name, t0, t1, sid, parent, call_id, args))

    def self_times(self, name: str, **match) -> list[float]:
        """Self times (seconds) of spans called ``name`` whose args match."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent_id:
                child_ns[s.parent_id] = (child_ns.get(s.parent_id, 0)
                                         + s.end_ns - s.start_ns)
        return [
            (s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)) / 1e9
            for s in self.spans
            if s.name == name
            and all(s.args.get(k) == v for k, v in match.items())
        ]

    def dump(self, path, program_spans=()) -> None:
        with open(path, "w") as f:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "program_spans": list(program_spans)}, f)
