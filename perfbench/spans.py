"""In-memory spans recorded from outside the program.

A span has a name, a start, an end and the span that caused it (its parent).
Each thread keeps its own stack of open spans, so a span opened while
another is open on the same thread becomes its child.  A span may also name
a parent on another thread explicitly (a server handler working for a
client, a client thread working for the benchmark's measured phase).

A span's self time is its duration minus the part of its interval that its
children cover.  Children on one thread never overlap; children on several
threads may, so the covered part is the union of their intervals clipped to
the parent's.  Summed over one tree, self times add up to the root's
duration.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "self_times", "layer_table", "coverage"]


@dataclass(slots=True)
class Span:
    """One timed interval (``perf_counter`` seconds)."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    thread: int = 0
    #: an optional count the wrapper attaches (requests in a batch, EM
    #: iterations of a fit, ...)
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while :attr:`recording` is true.

    The recording flag lets the benchmark keep its wrappers installed while
    it computes reference results that must not appear in the trace.  In a
    child process created by ``fork`` the tracer stops recording: the
    child's spans could never be collected, and the stacks it inherited
    belong to the parent's threads.
    """

    def __init__(self, *, clock=time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self.spans: list[Span] = []
        self.recording = True
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self) -> None:
        self.recording = False
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        return self.recording and os.getpid() == self._pid

    def start(self, name: str, *, parent: int | None = None) -> Span:
        """Open a span; its parent defaults to the thread's innermost span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent,
            start=self._clock(),
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        # a span is closed by the code that opened it, so it is the top of
        # its thread's stack; remove by identity all the same, so a wrapper
        # bypassed by an exception cannot leave the stack misaligned
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index:]
                break
        self.spans.append(span)

    def span(self, name: str, *, parent: int | None = None) -> "_SpanContext":
        return _SpanContext(self, name, parent)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, parent: int | None) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self.span: Span | None = None

    def __enter__(self) -> Span | None:
        if self._tracer.active:
            self.span = self._tracer.start(self._name, parent=self._parent)
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        if self.span is not None:
            self._tracer.end(self.span)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time (seconds)."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return table


#: Span names of the benchmark's own code (the measured phase, a client loop).
HARNESS_PREFIX = "bench."


def coverage(spans: list[Span]) -> float:
    """Share of the benchmark's own time that named layer spans cover.

    For each of the benchmark's spans (named with :data:`HARNESS_PREFIX`),
    the time its layer children cover counts as attributed and its self
    time as unattributed; coverage is attributed over attributed plus
    unattributed.  With several client threads each thread's loop counts
    once, so concurrency neither inflates nor dilutes the share.

    This finds time the harness spends outside the program, nothing finer:
    the outermost layer spans (``scan.runner``, ``runtime.client.scan``)
    enclose each whole request, and their own self time is attributed to
    them as the per-layer metrics ``scan.runner.self_s`` and
    ``runtime.client.overhead_s``.
    """
    own = self_times(spans)
    layer_children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and not span.name.startswith(HARNESS_PREFIX):
            layer_children[span.parent].append((span.start, span.end))
    attributed = unattributed = 0.0
    for span in spans:
        if span.name.startswith(HARNESS_PREFIX):
            attributed += _covered(span.start, span.end, layer_children.get(span.id, []))
            unattributed += own[span.id]
    total = attributed + unattributed
    return attributed / total if total > 0 else 0.0
