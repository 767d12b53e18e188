"""Spans recorded by the benchmark around each call into a commtest module.

Spans stay in memory while the run measures and are written out once it
ends. A span is named `<module>.<operation>` (the request itself is
`request.<kind>`), so a module's busy and self time follow from the names.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Times calls while `enabled`; otherwise `call` is a plain call."""

    def __init__(self) -> None:
        self.enabled = False
        self.request = ""
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.request))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


def module_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Busy time (outermost spans of the module) and self time (busy time
    minus the part covered by child spans) for each module."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.module == s.module:
            continue
        t = out.setdefault(s.module, {"busy_s": 0.0, "self_s": 0.0, "spans": 0})
        t["busy_s"] += s.duration
        t["spans"] += 1
    for s in spans:
        if s.module in out:
            out[s.module]["self_s"] += s.duration - child_time.get(s.id, 0.0)
    return out
