"""In-memory span recorder and the self-time arithmetic.

A span is one timed call into a layer: name, start, end, the span that
caused it, and the operation it belongs to. Spans are kept in memory
and written out once, at the end of a run.

Operations cross threads: an HTTP request's root span is opened by
the client thread, its parse/service/encode spans by the server's
handler thread. So the recorder keeps one stack of open spans per
operation (not per thread), and a thread states which operation its
calls work for with :meth:`Recorder.bound`. Each operation's spans
form a tree whose self times add up to its wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One recorded call. Times are ``perf_counter_ns`` readings."""

    sid: int
    name: str
    op: int
    parent: int | None
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "op": self.op,
                "parent": self.parent, "start_ns": self.start,
                "end_ns": self.end, "attrs": self.attrs}


class Recorder:
    """Collects spans from any thread; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._local = threading.local()

    # -- which operation the current thread works for --------------------

    def current_op(self) -> int | None:
        return getattr(self._local, "op", None)

    def bind(self, op: int | None) -> None:
        """Attribute this thread's calls to ``op`` from now on."""
        self._local.op = op

    @contextmanager
    def bound(self, op: int | None):
        """Attribute this thread's calls to ``op`` inside the block."""
        previous = self.current_op()
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = previous

    # -- spans ------------------------------------------------------------

    @contextmanager
    def operation(self, name: str):
        """Open the root span of a new operation; yields its id."""
        with self._lock:
            op = next(self._ids)
            root = Span(op, name, op, None, 0)
            self._stacks[op] = [op]
        with self.bound(op):
            root.start = time.perf_counter_ns()
            try:
                yield op
            finally:
                root.end = time.perf_counter_ns()
                with self._lock:
                    del self._stacks[op]
                    self.spans.append(root)

    def enter(self, name: str, op: int) -> Span | None:
        """Open a span under ``op``'s innermost open span (``None`` once
        the operation has ended)."""
        start = time.perf_counter_ns()
        with self._lock:
            stack = self._stacks.get(op)
            if stack is None:
                return None
            span = Span(next(self._ids), name, op, stack[-1], start)
            stack.append(span.sid)
        return span

    def exit(self, span: Span, attrs: dict | None = None) -> None:
        end = time.perf_counter_ns()
        with self._lock:
            span.end = end
            if attrs:
                span.attrs = attrs
            stack = self._stacks.get(span.op)
            if stack and stack[-1] == span.sid:
                stack.pop()
            self.spans.append(span)

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON lines."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: (s.op, s.start)):
                doc = span.to_dict()
                doc["self_ns"] = selfs[span.sid]
                out.write(json.dumps(doc, sort_keys=True) + "\n")


def covered(intervals, lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id → self time: its duration minus the part of its interval
    that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.op, span.parent)].append((span.start, span.end))
    return {span.sid: (span.end - span.start)
            - covered(children.get((span.op, span.sid), ()),
                      span.start, span.end)
            for span in spans}


def by_operation(spans) -> dict:
    """Operation id → ``(root span, {layer name: self ns})``."""
    selfs = self_times(spans)
    roots = {}
    layers: dict = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.parent is None:
            roots[span.op] = span
        layers[span.op][span.name] += selfs[span.sid]
    return {op: (root, dict(layers[op])) for op, root in roots.items()}


def self_sum_gap(spans) -> float:
    """Largest ``|sum of self times - wall time| / wall time`` over the
    operations: zero when every operation's spans form a proper tree."""
    worst = 0.0
    for root, layers in by_operation(spans).values():
        wall = root.end - root.start
        if wall > 0:
            worst = max(worst, abs(sum(layers.values()) - wall) / wall)
    return worst
