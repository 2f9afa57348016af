"""In-memory spans around the benchmark's calls into the waterweights modules.

A span records its name, start, end, parent span and run id, plus any
counts the caller attaches.  Spans stay in memory until the run ends and
are then written out as one JSON document.  ``NullTracer`` has the same
interface and records nothing; the untraced commands use it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: Path):
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}, indent=1) + "\n")


class NullTracer:
    run_id = None

    @contextmanager
    def span(self, name: str, **counts):
        yield {}

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def load_spans(path: Path) -> list[dict]:
    return json.loads(path.read_text())["spans"]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add.
    """
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def samples(spans: list[dict], name: str) -> list[float]:
    return [duration(s) for s in spans if s["name"] == name]


def count(spans: list[dict], name: str, key: str) -> int:
    return sum(int(s["counts"].get(key, 0)) for s in spans if s["name"] == name)


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, sample count).  Below 21 samples that percentile is
    missing or not above the median, and the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0
    if n < 21:
        return ordered[n // 2], n
    return ordered[n - 11], n
