"""repro.telemetry: spans, counters, and trace export for the whole stack.

The paper devotes Section III-C to *measuring* GT-Pin's own overhead --
a profiler you cannot observe is a profiler you cannot trust.  This
package is the reproduction's equivalent introspection layer:

* :mod:`~repro.telemetry.spans` -- hierarchical wall-time spans with a
  context-manager/decorator API and a thread-local span stack;
* :mod:`~repro.telemetry.counters` -- named monotonic counters with a
  cheap ``inc``, and :mod:`~repro.telemetry.histograms` -- log-bucketed
  distributions with exemplars;
* :mod:`~repro.telemetry.registry` -- the process-global registry;
  a no-op singleton when disabled (the default), so instrumented hot
  paths cost one attribute check when capture is off;
* :mod:`~repro.telemetry.export` -- Chrome trace-event JSON (openable
  in ``chrome://tracing`` or https://ui.perfetto.dev), a JSONL event
  log, and human-readable span-tree / counter summaries.

See ``docs/telemetry.md`` for the API guide and a worked example, or
run ``gtpin trace <app> --out trace.json``.
"""

from repro.telemetry.context import (
    TraceContext,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)
from repro.telemetry.counters import Counter, CounterSet, Sample
from repro.telemetry.export import (
    chrome_trace_events,
    counters_summary,
    jsonl_events,
    span_tree_summary,
    to_chrome_trace,
    trace_chrome_trace,
    trace_tree_summary,
    unit_for,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.histograms import (
    GROWTH,
    Exemplar,
    Histogram,
    HistogramSnapshot,
    bucket_index,
    bucket_midpoint,
)
from repro.telemetry.registry import (
    DISABLED,
    DisabledTelemetry,
    Telemetry,
    disable,
    enable,
    get,
    is_enabled,
    session,
    traced,
)
from repro.telemetry.snapshot import (
    CounterSnapshot,
    DeltaAccumulator,
    DeltaTracker,
    TelemetryDelta,
    merge_delta,
)
from repro.telemetry.spans import (
    NULL_SPAN,
    ActiveSpan,
    NullSpan,
    SpanCollector,
    SpanRecord,
    Timer,
)

__all__ = [
    "ActiveSpan",
    "Counter",
    "CounterSet",
    "CounterSnapshot",
    "DISABLED",
    "DeltaAccumulator",
    "DeltaTracker",
    "DisabledTelemetry",
    "Exemplar",
    "GROWTH",
    "Histogram",
    "HistogramSnapshot",
    "NULL_SPAN",
    "NullSpan",
    "Sample",
    "SpanCollector",
    "SpanRecord",
    "Telemetry",
    "TelemetryDelta",
    "Timer",
    "TraceContext",
    "bucket_index",
    "bucket_midpoint",
    "format_traceparent",
    "chrome_trace_events",
    "counters_summary",
    "disable",
    "enable",
    "get",
    "is_enabled",
    "jsonl_events",
    "merge_delta",
    "new_trace_id",
    "parse_traceparent",
    "session",
    "span_tree_summary",
    "to_chrome_trace",
    "trace_chrome_trace",
    "trace_tree_summary",
    "traced",
    "unit_for",
    "write_chrome_trace",
    "write_jsonl",
]
