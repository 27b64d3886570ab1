"""Hierarchical timing spans.

A *span* is one timed region of execution: it has a name, a category
(the layer that emitted it -- ``opencl``, ``gtpin``, ``sampling``,
``simulation``, ``cli``), ``perf_counter_ns`` start/end timestamps, and
a parent -- the span that was open on the same thread when it started.
Nesting is tracked with a thread-local stack, so spans opened on worker
threads form their own trees and never interleave with other threads'.

Two context managers exist because two costs exist:

* :class:`ActiveSpan` -- a real span; records itself into a
  :class:`SpanCollector` on exit.  Only handed out by an *enabled*
  telemetry registry.
* :class:`Timer` -- measures wall time and nothing else; no allocation
  beyond itself, no recording.  This is what ``timed()`` returns when
  telemetry is disabled, so call sites that *need* the duration (e.g.
  the simulators' ``wall_seconds`` results) keep working at the cost of
  two ``perf_counter_ns`` calls -- exactly what their previous ad-hoc
  ``time.perf_counter()`` timing cost.

:class:`NullSpan` is the do-nothing stand-in for ``span()`` when
telemetry is disabled; a single shared instance is reused so the
disabled path allocates nothing.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from typing import Any

from repro.telemetry import context as trace_context


@dataclasses.dataclass(frozen=True)
class SpanRecord:
    """One completed span, as stored by the collector."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_ns: int
    end_ns: int
    thread_id: int
    depth: int
    args: dict[str, Any]
    #: Trace this span belongs to ("" = never joined a trace).
    trace_id: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9


class _ThreadStack(threading.local):
    """Per-thread stack of currently-open ActiveSpans."""

    def __init__(self) -> None:
        self.stack: list[ActiveSpan] = []


class SpanCollector:
    """Accumulates finished spans; thread-safe.

    Currently-open spans are additionally tracked in a cross-thread
    table (the per-thread stacks are thread-local and cannot be
    enumerated from outside), so the live-observability endpoint can
    report what the process is doing *right now*.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        # The same records by trace id, so one trace's spans are found
        # without a scan of every span the process has kept.
        self._by_trace: dict[str, list[SpanRecord]] = {}
        # Span ids are namespaced by a per-collector random high word:
        # id = (random 31 bits << 32) | sequential low word.  Two
        # registries -- two *processes* -- therefore cannot allocate
        # colliding ids (within 2**-31 per pair), which is what lets the
        # cross-process snapshot merge keep worker span ids (and the
        # parent references between them) verbatim instead of remapping.
        # 63 bits total keeps ids inside a signed 64-bit integer (SQLite,
        # JSON consumers).
        self._id_base = random.getrandbits(31) << 32
        self._next_id = 0
        self._stacks = _ThreadStack()
        self._open: dict[int, "ActiveSpan"] = {}

    def allocate_id(self) -> int:
        with self._lock:
            span_id = self._id_base + self._next_id
            self._next_id += 1
            return span_id

    def open(self, span: "ActiveSpan") -> int:
        """Allocate an id for ``span`` and register it as open."""
        with self._lock:
            span_id = self._id_base + self._next_id
            self._next_id += 1
            self._open[span_id] = span
            return span_id

    def open_spans(self) -> list["ActiveSpan"]:
        """Spans currently open on any thread, oldest first."""
        with self._lock:
            return sorted(self._open.values(), key=lambda s: s.start_ns)

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
            if record.trace_id:
                self._by_trace.setdefault(record.trace_id, []).append(record)
            self._open.pop(record.span_id, None)

    def records(self) -> list[SpanRecord]:
        """Completed spans in completion order."""
        with self._lock:
            return list(self._records)

    def trace_records(self, trace_id: str) -> list[SpanRecord]:
        """One trace's completed spans, in completion order."""
        with self._lock:
            return list(self._by_trace.get(trace_id, ()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class ActiveSpan:
    """A span that is (or is about to be) open.  Context manager."""

    __slots__ = (
        "_collector", "name", "category", "args",
        "span_id", "parent_id", "depth", "thread_id",
        "start_ns", "end_ns", "trace_id",
    )

    def __init__(
        self,
        collector: SpanCollector,
        name: str,
        category: str,
        args: dict[str, Any],
    ) -> None:
        self._collector = collector
        self.name = name
        self.category = category
        self.args = args
        self.span_id = -1
        self.parent_id: int | None = None
        self.depth = 0
        self.thread_id = 0
        self.start_ns = 0
        self.end_ns = 0
        self.trace_id = ""

    def annotate(self, **kwargs: Any) -> None:
        """Attach extra args discovered mid-span (sizes, counts, labels)."""
        self.args.update(kwargs)

    @property
    def duration_ns(self) -> int:
        end = self.end_ns or time.perf_counter_ns()
        return end - self.start_ns

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9

    def __enter__(self) -> "ActiveSpan":
        stack = self._collector._stacks.stack
        if stack:
            # Nested: parent and trace come from the enclosing span.
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            # Root: join the thread's active trace context, if any.
            ctx = trace_context.current()
            if ctx is not None:
                self.parent_id = ctx.parent_span_id
                self.trace_id = ctx.trace_id
        self.depth = len(stack)
        self.span_id = self._collector.open(self)
        self.thread_id = threading.get_ident()
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.end_ns = time.perf_counter_ns()
        stack = self._collector._stacks.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unwound out of order (generator abandoned)
            stack.remove(self)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._collector.record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                category=self.category,
                start_ns=self.start_ns,
                end_ns=self.end_ns,
                thread_id=self.thread_id,
                depth=self.depth,
                args=dict(self.args),
                trace_id=self.trace_id,
            )
        )
        return False


class NullSpan:
    """Shared no-op span: the disabled-mode cost of ``with tm.span(...)``."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def annotate(self, **kwargs: Any) -> None:
        pass

    @property
    def duration_ns(self) -> int:
        return 0

    @property
    def duration_seconds(self) -> float:
        return 0.0


#: The one NullSpan every disabled ``span()`` call returns.
NULL_SPAN = NullSpan()


class Timer:
    """Wall-clock measurement without recording (disabled-mode ``timed()``)."""

    __slots__ = ("start_ns", "end_ns")

    def __init__(self) -> None:
        self.start_ns = 0
        self.end_ns = 0

    def __enter__(self) -> "Timer":
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.end_ns = time.perf_counter_ns()
        return False

    def annotate(self, **kwargs: Any) -> None:
        pass

    @property
    def duration_ns(self) -> int:
        end = self.end_ns or time.perf_counter_ns()
        return end - self.start_ns

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9
