"""In-memory spans recorded around calls into the quasitrace layers.

A span is a dict with ``id``, ``name``, ``parent``, ``start`` and ``end``
(perf_counter seconds) and ``rss_kb``, the growth of the process's peak
resident set while the span was open.  Each worker process keeps its spans
in memory and reports them when its iteration ends; perfbench/run.py tags
them with the iteration (``run``) and writes them out once, at the end.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Nested spans of one benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        rss0 = _max_rss_kb()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_kb"] = _max_rss_kb() - rss0
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(span: dict, children: list[dict]) -> float:
    """Seconds of ``span`` covered by the union of its children's intervals."""
    total = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_of(spans: list[dict]) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] in kids:
            kids[s["parent"]].append(s)
    return kids


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the part its children cover."""
    kids = children_of(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + duration(s) - covered(s, kids[s["id"]])
    return out


def coverage(spans: list[dict], name: str) -> list[float]:
    """Share of each span called ``name`` that its child spans cover."""
    kids = children_of(spans)
    return [covered(s, kids[s["id"]]) / duration(s) for s in spans if s["name"] == name]
