"""Outside-in span recording and the self-time arithmetic of a traced round.

The recorder never touches the program: ``layers.py`` wraps the public
functions of each layer with :meth:`SpanRecorder.wrap`, and the workloads
open one root span per op with :meth:`SpanRecorder.root`.  A span is
``(id, parent, layer, name, start, end, thread, request)``; spans stay in
memory until the round ends.

Self time of a span is its duration minus the union of its children's
intervals (clipped to the span).  Children normally run on the span's own
thread and nest inside it; a span marked *ambient* (the scheduler's
``run_all``) also adopts spans that open on threads with an empty stack — the
waves its worker pool runs — and those children overlap each other, which is
why the union and not the sum is subtracted.  Spans of an *opaque* layer (the
simulators) record no descendants, so everything the simulator calls —
including SQL parsing — is charged to the simulator.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

#: Layer name of the benchmark's own root spans (glue between layer calls).
GLUE = "bench"

ID, PARENT, LAYER, NAME, START, END, THREAD, REQUEST = range(8)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.opaque = 0


class SpanRecorder:
    """Collects spans from every thread of a traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._ambient: list[list] = []

    def _open(self, layer: str, name: str) -> list:
        state = self._state
        if state.stack:
            parent = state.stack[-1]
        elif self._ambient:
            parent = self._ambient[-1]
        else:
            parent = None
        span_id = next(self._ids)
        span = [
            span_id,
            parent[ID] if parent is not None else None,
            layer,
            name,
            time.perf_counter(),
            0.0,
            threading.get_ident(),
            parent[REQUEST] if parent is not None else span_id,
        ]
        state.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._state.stack.pop()
        self.spans.append(span)

    @contextmanager
    def root(self, name: str):
        """One op of the workload: a glue span that starts a new request."""
        span = self._open(GLUE, name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, layer: str, name: str, fn, opaque: bool = False, ambient: bool = False):
        """``fn`` recorded as a span of ``layer`` on every call."""
        recorder = self

        def traced(*args, **kwargs):
            state = recorder._state
            if state.opaque:
                return fn(*args, **kwargs)
            span = recorder._open(layer, name)
            if opaque:
                state.opaque += 1
            if ambient:
                recorder._ambient.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                if ambient:
                    recorder._ambient.remove(span)
                if opaque:
                    state.opaque -= 1
                recorder._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = union_length(
            (max(start, child[START]), min(end, child[END]))
            for child in children.get(span[ID], ())
            if child[END] > start and child[START] < end
        )
        result[span[ID]] = (end - start) - covered
    return result


def traced_thread_time(spans) -> float:
    """Time threads spent inside spans, minus time spans waited on other threads.

    Computed per thread as the union of that thread's span intervals, less,
    for every span, the part of its children's union that only children on
    other threads cover.  It must equal the sum of all self times; the two
    are computed independently.
    """
    by_thread: dict[int, list] = {}
    for span in spans:
        by_thread.setdefault(span[THREAD], []).append((span[START], span[END]))
    inside = sum(union_length(intervals) for intervals in by_thread.values())
    spans_by_id = {span[ID]: span for span in spans}
    kids_of: dict[int, list] = {}
    for span in spans:
        if span[PARENT] in spans_by_id:
            kids_of.setdefault(span[PARENT], []).append(span)
    waiting = 0.0
    for parent_id, kids in kids_of.items():
        parent = spans_by_id[parent_id]
        if all(kid[THREAD] == parent[THREAD] for kid in kids):
            continue
        clipped = [
            (max(parent[START], kid[START]), min(parent[END], kid[END]), kid[THREAD])
            for kid in kids
            if kid[END] > parent[START] and kid[START] < parent[END]
        ]
        everything = union_length((a, b) for a, b, _ in clipped)
        own_thread = union_length((a, b) for a, b, t in clipped if t == parent[THREAD])
        waiting += everything - own_thread
    return inside - waiting


def layer_self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + own[span[ID]]
    return totals


def call_counts(spans) -> dict[str, int]:
    """Number of spans per ``layer.name``."""
    counts: dict[str, int] = {}
    for span in spans:
        key = f"{span[LAYER]}.{span[NAME]}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def unattributed_share(spans) -> float:
    """Share of traced thread time spent in the benchmark's own glue."""
    totals = layer_self_times(spans)
    whole = sum(totals.values())
    return totals.get(GLUE, 0.0) / whole if whole > 0 else 0.0
