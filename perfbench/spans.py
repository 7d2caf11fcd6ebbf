"""In-memory span recording and self-time arithmetic.

A span is one timed call at a layer boundary, kept as a plain tuple::

    (sid, name, start_ns, end_ns, parent_sid, request_id, raised)

Spans nest per thread: a span opened while another is open on the same
thread is its child.  Spans recorded in another process (the socket
workloads' server) have no parent of their own; they carry the request id
the generator sent in a benchmark-only header, and :func:`aggregate` links
each such root to the generator span with that id.

A span's *self time* is its duration minus the part of its interval that
its children cover.  Children on other threads or processes may overlap
each other, so covered time is the length of the union of the children's
intervals, clipped to the parent's.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

__all__ = ["SpanRecorder", "covered_ns", "self_times", "aggregate"]

SID, NAME, START, END, PARENT, RID, RAISED = range(7)


class SpanRecorder:
    """Records spans and counted events from any thread into memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Names of counted events (list.append is atomic across threads).
        self.events: list[str] = []
        #: ``(name, value)`` measurements that are not durations.
        self.samples: list[tuple[str, float]] = []
        self._local = threading.local()
        #: Span id source; next() on a count is atomic under the GIL.
        self.ids = itertools.count(1)

    def reset(self) -> None:
        """Drop everything recorded so far (set-up traffic)."""

        self.spans.clear()
        self.events.clear()
        self.samples.clear()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.rid = None
            return self._local.stack

    @property
    def rid(self):
        """The request id the calling thread is currently serving."""

        self._stack()
        return self._local.rid

    @rid.setter
    def rid(self, value) -> None:
        self._stack()
        self._local.rid = value

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` timed as a span named ``name``."""

        spans, ids, clock, stack_of = self.spans, self.ids, time.perf_counter_ns, self._stack
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            raised = False
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, local.rid, raised))

        return traced

    def counted(self, name: str, func: Callable) -> Callable:
        """``func`` with each call counted as an event (no span)."""

        events = self.events

        @functools.wraps(func)
        def counting(*args, **kwargs):
            events.append(name)
            return func(*args, **kwargs)

        return counting

    @contextmanager
    def span(self, name: str, rid=None) -> Iterator[None]:
        """Time a block as a span; ``rid`` tags it (and its children)."""

        stack = self._stack()
        sid = next(self.ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        previous = self._local.rid
        if rid is not None:
            self._local.rid = rid
        start = time.perf_counter_ns()
        raised = False
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self._local.rid, raised))
            self._local.rid = previous

    def add(self, name: str, start_ns: int, end_ns: int, rid=None) -> None:
        """Record a span measured elsewhere (e.g. across threads)."""

        self.spans.append((next(self.ids), name, start_ns, end_ns, None, rid, False))


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""

    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _parents(spans: Sequence[tuple], link_root: str | None) -> dict[int, list[tuple[int, int]]]:
    root_by_rid = {}
    if link_root is not None:
        root_by_rid = {span[RID]: span[SID] for span in spans
                       if span[NAME] == link_root and span[RID] is not None}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is None and span[RID] is not None and span[NAME] != link_root:
            parent = root_by_rid.get(span[RID])
        if parent is not None:
            children[parent].append((span[START], span[END]))
    return children


def self_times(spans: Sequence[tuple], link_root: str | None = None) -> dict[int, int]:
    """Self time in ns of every span, keyed by span id."""

    children = _parents(spans, link_root)
    return {span[SID]: (span[END] - span[START])
            - covered_ns(span[START], span[END], children.get(span[SID], ()))
            for span in spans}


def aggregate(spans: Sequence[tuple], link_root: str | None = None) -> dict[str, dict[str, int]]:
    """Per span name: call count, inclusive and self ns, and raised calls."""

    selfs = self_times(spans, link_root)
    out: dict[str, dict[str, int]] = {}
    for span in spans:
        row = out.get(span[NAME])
        if row is None:
            row = out[span[NAME]] = {"count": 0, "total_ns": 0, "self_ns": 0, "raised": 0}
        row["count"] += 1
        row["total_ns"] += span[END] - span[START]
        row["self_ns"] += selfs[span[SID]]
        row["raised"] += span[RAISED]
    return out
