"""In-memory span recorder for the traced run.

A span has a name, a start and an end (seconds since the recorder was
created), the id of the enclosing span and the id of the operation it belongs
to. Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, op: str):
        """Record a span around the body; yields the span record, whose
        ``end`` is filled in when the body finishes."""
        record = {
            "id": len(self.records) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def duration(record: dict) -> float:
    return record["end"] - record["start"]
