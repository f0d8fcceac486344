"""In-memory spans recorded from the benchmark's own files.

Each span is ``[id, parent, name, job, start, end]`` (times from
``time.perf_counter``, seconds).  Spans nest by a stack, so the parent
is the span open when a span starts; *job* is the compile job, engine
run or request id that the span belongs to.  Records stay in memory
until the phase ends, then :func:`write` dumps them as JSON lines.

With tracing off, :meth:`Tracer.span` returns one shared no-op context
manager, so the untraced run pays one method call per call site.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, job):
        self.tracer = tracer
        stack = tracer.stack
        self.record = [len(tracer.records), stack[-1] if stack else None,
                       name, job, 0.0, 0.0]

    def __enter__(self):
        tracer = self.tracer
        tracer.records.append(self.record)
        tracer.stack.append(self.record[0])
        self.record[4] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[5] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[list] = []
        self.stack: List[int] = []

    def span(self, name: str, job=None):
        return _Span(self, name, job) if self.enabled else _NULL


def self_times_ms(records: List[list], factors: Dict,
                  default_factor: float) -> Dict[str, List[float]]:
    """Per span name, the self time of each span in reference ms: its
    duration minus the time its child spans cover (children never
    overlap, since one thread records them), scaled by its job's
    wall-to-reference factor (*default_factor* for spans outside any
    timed job, such as set-up)."""
    child = defaultdict(float)
    for _id, parent, _name, _job, start, end in records:
        if parent is not None:
            child[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(list)
    for sid, _parent, name, job, start, end in records:
        scale = factors.get(job, default_factor)
        out[name].append((end - start - child[sid]) * 1000.0 * scale)
    return dict(out)


def write(path: Optional[str], records: List[list]) -> None:
    if not path or not records:
        return
    with open(path, "w") as fh:
        for sid, parent, name, job, start, end in records:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "job": job, "start": start,
                                 "end": end}) + "\n")
