"""The process-global telemetry registry.

Exactly one registry is *active* at any moment: either a live
:class:`Telemetry` (after :func:`enable`) or the shared
:class:`DisabledTelemetry` singleton (the default).  Instrumented code
never branches on configuration -- it asks :func:`get` for the active
registry and calls ``span`` / ``inc`` / ``observe_hist``
unconditionally.  When telemetry is off those calls hit the no-op
singleton: ``span`` returns the one shared
:data:`~repro.telemetry.spans.NULL_SPAN`, ``inc``/``observe_hist``
return immediately, and nothing allocates.  The
hottest paths additionally guard on the ``enabled`` attribute so the
off cost collapses to a single attribute check -- mirroring the paper's
"application performance is unaffected by this capture" discipline
(Section III-A); ``tests/test_telemetry.py`` asserts the disabled-mode
overhead stays negligible.

Usage::

    from repro import telemetry

    tm = telemetry.get()
    with tm.span("pipeline.record", category="sampling", app=name):
        ...
    tm.inc("opencl.api_calls")

    telemetry.enable()       # turn capture on (fresh registry)
    ...run a workflow...
    telemetry.disable()      # back to the no-op singleton
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterator, TypeVar

from repro.telemetry import context as trace_context
from repro.telemetry.counters import Counter, CounterSet
from repro.telemetry.histograms import Histogram
from repro.telemetry.spans import (
    NULL_SPAN,
    ActiveSpan,
    NullSpan,
    SpanCollector,
    SpanRecord,
    Timer,
)

_F = TypeVar("_F", bound=Callable[..., Any])


class Telemetry:
    """A live (capturing) telemetry registry."""

    enabled = True

    def __init__(self, calls: bool = False) -> None:
        #: Span each OpenCL API call too (the timeline ``gtpin trace`` shows).
        self.calls = calls
        #: perf_counter origin; exported timestamps are relative to this.
        self.time_origin_ns = time.perf_counter_ns()
        #: Wall-clock time the registry was created (for trace metadata).
        self.created_unix_seconds = time.time()
        self._collector = SpanCollector()
        self.counters = CounterSet()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, category: str = "", **args: Any) -> ActiveSpan:
        """A recording span; use as ``with tm.span("phase"): ...``."""
        return ActiveSpan(self._collector, name, category, args)

    def timed(self, name: str, category: str = "", **args: Any) -> ActiveSpan:
        """Like :meth:`span`, but guaranteed to measure wall time even on
        the disabled registry (which returns a bare :class:`Timer`)."""
        return ActiveSpan(self._collector, name, category, args)

    def spans(self) -> list[SpanRecord]:
        """All completed spans, in completion order."""
        return self._collector.records()

    def open_spans(self) -> list[ActiveSpan]:
        """Spans currently open on any thread, oldest first.

        The live-observability endpoint renders these as the "what is
        the process doing right now" view.
        """
        return self._collector.open_spans()

    def current_span_id(self) -> int | None:
        """Id of the innermost span open on the calling thread, if any.

        The parallel engine uses this to re-parent merged worker spans
        under the fan-out span that dispatched them.
        """
        stack = self._collector._stacks.stack
        return stack[-1].span_id if stack else None

    def current_trace_id(self) -> str:
        """Trace id of the innermost open span, else the thread's active
        trace context, else ``""`` (not part of any trace)."""
        stack = self._collector._stacks.stack
        if stack and stack[-1].trace_id:
            return stack[-1].trace_id
        ctx = trace_context.current()
        return ctx.trace_id if ctx is not None else ""

    def current_traceparent(self) -> str | None:
        """The W3C traceparent header naming the innermost open span as
        parent, or ``None`` when no trace is active."""
        stack = self._collector._stacks.stack
        if stack and stack[-1].trace_id:
            return trace_context.format_traceparent(
                stack[-1].trace_id, stack[-1].span_id
            )
        ctx = trace_context.current()
        if ctx is not None:
            return trace_context.format_traceparent(
                ctx.trace_id, ctx.parent_span_id
            )
        return None

    def allocate_span_id(self) -> int:
        """Reserve a span id without opening a span.

        The serve queue uses this to name a job's queue span at submit
        time -- the span itself is synthesized at finalize (see
        :meth:`record_span`), but the id must exist first so the worker
        domain can parent under it while the job runs.
        """
        return self._collector.allocate_id()

    def record_span(self, record: SpanRecord) -> None:
        """Append a pre-built span record (synthesized spans)."""
        self._collector.record(record)

    def unix_to_ns(self, unix_seconds: float) -> int:
        """Map a wall-clock timestamp onto this registry's perf clock."""
        return self.time_origin_ns + int(
            round((unix_seconds - self.created_unix_seconds) * 1e9)
        )

    def ns_to_unix(self, perf_ns: int) -> float:
        """Inverse of :meth:`unix_to_ns`: span timestamps -> wall clock.

        The run ledger stores span times as absolute wall-clock
        microseconds so traces from different processes line up."""
        return (
            self.created_unix_seconds + (perf_ns - self.time_origin_ns) / 1e9
        )

    def spans_for_trace(self, trace_id: str) -> list[SpanRecord]:
        """One trace's completed spans, completion order (none for ``""``)."""
        return self._collector.trace_records(trace_id)

    # -- counters ------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters.counter(name).inc(amount)

    def observe_hist(self, name: str, value: float, unit: str = "") -> None:
        """One observation into the named log-bucketed histogram.

        Tail observations (within two octaves of the histogram's
        running maximum) additionally capture an *exemplar* -- the
        innermost open span's (span_id, trace_id) -- so a p99 outlier
        in a report links straight to the trace that produced it.
        """
        hist = self.counters.histogram(name, unit)
        hist.observe(value)
        if value > 0.0 and value * 4.0 >= hist.maximum:
            stack = self._collector._stacks.stack
            if stack:
                span = stack[-1]
                hist.capture_exemplar(value, span.span_id, span.trace_id)

    def histogram(self, name: str, unit: str = "") -> Histogram:
        """The named histogram (created on first use)."""
        return self.counters.histogram(name, unit)

    def counter_value(self, name: str) -> float:
        return self.counters.value(name)


class DisabledTelemetry:
    """The no-op singleton active by default.  Every method is a cheap
    constant-work call; ``span`` never allocates."""

    enabled = False
    calls = False

    def span(self, name: str, category: str = "", **args: Any) -> NullSpan:
        return NULL_SPAN

    def timed(self, name: str, category: str = "", **args: Any) -> Timer:
        # Wall time is still measured: ``timed`` call sites feed result
        # fields (e.g. wall_seconds), not just traces.
        return Timer()

    def spans(self) -> list[SpanRecord]:
        return []

    def open_spans(self) -> list[ActiveSpan]:
        return []

    def current_span_id(self) -> int | None:
        return None

    def current_trace_id(self) -> str:
        ctx = trace_context.current()
        return ctx.trace_id if ctx is not None else ""

    def current_traceparent(self) -> str | None:
        ctx = trace_context.current()
        if ctx is not None:
            return trace_context.format_traceparent(
                ctx.trace_id, ctx.parent_span_id
            )
        return None

    def allocate_span_id(self) -> None:
        return None

    def record_span(self, record: SpanRecord) -> None:
        pass

    def ns_to_unix(self, perf_ns: int) -> float:
        return 0.0

    def spans_for_trace(self, trace_id: str) -> list[SpanRecord]:
        return []

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def observe_hist(self, name: str, value: float, unit: str = "") -> None:
        pass

    def histogram(self, name: str, unit: str = "") -> "Histogram":
        # Never reached by instrumented code (hot paths guard on
        # ``enabled``); exists so ad-hoc callers don't crash.
        return Histogram(name, unit)

    def counter_value(self, name: str) -> float:
        return 0.0


#: The one disabled registry (identity-comparable in tests).
DISABLED = DisabledTelemetry()

_active: Telemetry | DisabledTelemetry = DISABLED


def get() -> Telemetry | DisabledTelemetry:
    """The active registry.  Hot paths hoist this once per operation."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def enable(calls: bool = False) -> Telemetry:
    """Activate a fresh capturing registry and return it."""
    global _active
    _active = Telemetry(calls=calls)
    return _active


def disable() -> None:
    """Deactivate capture; the no-op singleton becomes active again."""
    global _active
    _active = DISABLED


@contextlib.contextmanager
def session() -> Iterator[Telemetry]:
    """Enable for the duration of a ``with`` block, then restore the
    previously active registry (enabled or not)."""
    global _active
    previous = _active
    _active = Telemetry()
    try:
        yield _active
    finally:
        _active = previous


def traced(
    name: str | None = None, category: str = ""
) -> Callable[[_F], _F]:
    """Decorator: wrap a function in a span named after it.

    The active registry is looked up per call, so decorated functions
    respect enable/disable at call time, not at import time.
    """

    def decorate(func: _F) -> _F:
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with _active.span(label, category=category):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


__all__ = [
    "Counter",
    "CounterSet",
    "DISABLED",
    "DisabledTelemetry",
    "Telemetry",
    "disable",
    "enable",
    "get",
    "is_enabled",
    "session",
    "traced",
]
