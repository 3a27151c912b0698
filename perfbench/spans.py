"""In-memory spans and calendar counting for the traced run.

Spans are recorded by the benchmark's own code around the public
calls it makes into each layer; they are kept in memory and written
once, when the run ends.  With tracing off the recorder is disabled
and a span costs one branch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Spans", "CalendarCounter"]


class Spans:
    """Span recorder: name, start, end and parent of each timed call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.records)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.records.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def durations(self, name: str) -> list[float]:
        """Durations of every finished span called ``name``."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["end"] is not None
        ]

    def summary(self) -> dict:
        """Per span name: count, total and self seconds (children excluded)."""
        child_s = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None and r["end"] is not None:
                child_s[r["parent"]] += r["end"] - r["start"]
        out: dict = {}
        for r in self.records:
            if r["end"] is None:
                continue
            dur = r["end"] - r["start"]
            row = out.setdefault(r["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[r["id"]]
        return out


class CalendarCounter:
    """Calendar entries of every simulation environment built while active.

    Registers on ``Environment._init_hooks`` (the creation-hook registry
    the schedule-race probe also uses) and reads each environment's
    ``_seq`` counter -- one increment per calendar insert, the same
    number ``repro.simengine.bench`` reports as events.  Environments
    are held until :meth:`close`, so use it around one pass only.
    """

    def __init__(self):
        from repro.simengine import Environment

        self._hooks = Environment._init_hooks
        self.envs: list = []
        self._hook = self.envs.append
        self._hooks.append(self._hook)

    @property
    def events(self) -> int:
        return sum(env._seq for env in self.envs)

    def close(self) -> None:
        self._hooks.remove(self._hook)
