"""In-memory spans and counters for the traced run.

A span records its name, the job it belongs to, its parent span, its
start and end, and optionally the amount of work it did (points
evaluated).  Nothing is written until the run ends.  The untraced run
passes `NULL` instead, whose span and count do nothing.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.job: tuple[str, int] | None = None   # (workload, job index)
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, work: int = 0):
        rec = {"id": len(self.spans), "name": name, "job": self.job,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "work": work, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "job": self.job, "value": value})

    def self_times(self) -> None:
        """Give each span its duration and its self time: the duration
        minus what its child spans cover.  Children of one span run one
        after another, so their durations add up without overlap."""
        child_total = [0.0] * len(self.spans)
        for rec in self.spans:
            rec["dur"] = rec["end"] - rec["start"]
            if rec["parent"] is not None:
                child_total[rec["parent"]] += rec["dur"]
        for rec in self.spans:
            rec["self"] = rec["dur"] - child_total[rec["id"]]


class _Null:
    _ctx = contextlib.nullcontext()
    job = None

    def span(self, name: str, work: int = 0):
        return self._ctx

    def count(self, name: str, value: float) -> None:
        pass


NULL = _Null()
