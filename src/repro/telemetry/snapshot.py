"""Cross-process telemetry: one delta type from worker to parent.

The parallel execution engine (:mod:`repro.parallel`) fans sweep stages
out to worker processes.  Each worker runs under its own fresh registry
(:func:`repro.telemetry.session`) and reports through one picklable
type, :class:`TelemetryDelta`, captured by a :class:`DeltaTracker`:

* *heartbeats*, sent while the task runs, carry the series that changed
  since the previous capture -- the live endpoint's in-flight view
  (:mod:`repro.obs.live`);
* the *final delta*, returned with the task's result, carries every
  series, the task's spans and event records, and the registry's clock
  origin.

The parent folds each final delta into its own registry with
:func:`merge_delta` -- spans keep their parent/child structure *and
their ids* (span ids are namespaced by a per-process random high word,
so cross-process collisions cannot happen and no remapping is needed),
worker threads get synthetic negative thread ids so they render as
separate tracks, and counter and histogram totals accumulate -- so
``gtpin trace`` produces one complete Chrome trace whether the sweep
ran serially or across N processes.

Timestamps are aligned via each registry's wall-clock creation time:
``perf_counter_ns`` origins are process-local, so a worker span's offset
from its own origin is shifted by the wall-clock delta between the two
registries before being re-based on the parent's origin.
"""

from __future__ import annotations

import collections
import dataclasses
import os

from repro.telemetry.histograms import HistogramSnapshot
from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import SpanRecord


@dataclasses.dataclass(frozen=True)
class CounterSnapshot:
    """Cumulative value of one worker-side counter.

    ``ops`` is the number of ``inc`` calls behind the value; the
    self-overhead attribution layer costs observability by operation
    count, so it must survive the process boundary too.
    """

    name: str
    value: float
    ops: int = 0


def merge_delta(
    target: Telemetry,
    delta: TelemetryDelta,
    parent_span_id: int | None = None,
) -> None:
    """Fold a worker's final delta into ``target``.

    Span ids are globally unique (each collector namespaces them with a
    per-process random high word), so worker spans keep their ids *and*
    their parent references verbatim -- including cross-process parents
    installed by an activated :class:`~repro.telemetry.context
    .TraceContext`.  Only parentless roots are re-parented under
    ``parent_span_id`` (typically the fan-out span that dispatched the
    task), so the merged trace stays one tree even for workers that ran
    without a trace context.
    """
    if not getattr(target, "enabled", False):
        return
    shift_ns = int(
        round(
            (delta.created_unix_seconds - target.created_unix_seconds)
            * 1e9
        )
    ) + (target.time_origin_ns - delta.time_origin_ns)

    # Synthetic negative thread ids: real thread idents are positive, so
    # worker tracks can never collide with (or interleave into) parent
    # threads' tracks, even under fork where idents are inherited.
    thread_map: dict[int, int] = {}

    def remap_thread(thread_id: int) -> int:
        if thread_id not in thread_map:
            thread_map[thread_id] = -(
                delta.pid * 1000 + len(thread_map) + 1
            )
        return thread_map[thread_id]

    collector = target._collector
    for span in delta.spans:
        collector.record(
            SpanRecord(
                span_id=span.span_id,
                parent_id=(
                    span.parent_id
                    if span.parent_id is not None
                    else parent_span_id
                ),
                name=span.name,
                category=span.category,
                start_ns=span.start_ns + shift_ns,
                end_ns=span.end_ns + shift_ns,
                thread_id=remap_thread(span.thread_id),
                depth=span.depth,
                args=dict(span.args),
                trace_id=span.trace_id,
            )
        )

    for counter in delta.counters:
        merged_counter = target.counters.counter(counter.name)
        merged_counter.inc(counter.value)
        # inc() tallied one op for the merge itself; replace that with
        # the worker's true operation count.
        merged_counter.ops += counter.ops - 1
    for hist in delta.histograms:
        target.counters.histogram(hist.name, hist.unit).merge(hist)


# -- streaming deltas ---------------------------------------------------------
#
# A delta ships the *cumulative* state of its series (rather than
# arithmetic increments), stamped with a per-source sequence number.
# Shipping cumulative state is what makes the merge *conservation-exact*
# under float sums and *idempotent* under retransmission: the receiver
# keeps, per (source, series), the state with the highest sequence
# number, so applying a delta twice -- or applying an older delta after
# a newer one -- changes nothing, and the final aggregate equals the
# worker's true final registry values bit-for-bit.

#: Event-tail length: the WARN/ERROR records a heartbeat carries and
#: the live hub keeps per unretired source, and the tail its
#: ``/events`` and ``/health`` views serve.
EVENT_TAIL = 50


@dataclasses.dataclass(frozen=True)
class TelemetryDelta:
    """One capture of a worker registry: a heartbeat or the final delta.

    A heartbeat carries the series that changed since the previous
    capture and, in ``events``, the newest WARN/ERROR records not yet
    sent.  The final delta (``final=True``) carries every series, every
    span and event record of the task, and the clock origin
    :func:`merge_delta` aligns timestamps with.
    """

    source: str
    seq: int
    counters: tuple[CounterSnapshot, ...] = ()
    histograms: tuple[HistogramSnapshot, ...] = ()
    events: tuple = ()
    task: str = ""
    final: bool = False
    spans: tuple[SpanRecord, ...] = ()
    pid: int = 0
    time_origin_ns: int = 0
    created_unix_seconds: float = 0.0


class DeltaTracker:
    """Worker-side capture state: successive heartbeat captures ship
    only the series that changed since the previous call."""

    def __init__(self, source: str, task: str = "") -> None:
        self.source = source
        self.task = task
        self.seq = 0
        self._counter_marks: dict[str, tuple[float, int]] = {}
        self._hist_marks: dict[str, int] = {}
        self._event_watermark = 0.0

    def capture(
        self, telemetry: Telemetry, log=None, final: bool = False
    ) -> TelemetryDelta | None:
        """One delta from a live registry (and event log): a heartbeat,
        ``None`` when nothing changed, or with ``final`` the final
        delta."""
        counters = telemetry.counters
        changed_counters = []
        for name, counter in list(counters.counters.items()):
            mark = (counter.value, counter.ops)
            if final or self._counter_marks.get(name) != mark:
                self._counter_marks[name] = mark
                changed_counters.append(
                    CounterSnapshot(name=name, value=mark[0], ops=mark[1])
                )
        changed_hists = []
        for name, hist in list(counters.histograms.items()):
            if final or self._hist_marks.get(name) != hist.count:
                self._hist_marks[name] = hist.count
                changed_hists.append(hist.snapshot())
        events: tuple = ()
        if log is not None and getattr(log, "enabled", False):
            if final:
                events = tuple(log.records())
            else:
                recent = [
                    r
                    for r in log.records(min_level="WARN")
                    if r.ts_unix > self._event_watermark
                ][-EVENT_TAIL:]
                if recent:
                    self._event_watermark = max(r.ts_unix for r in recent)
                    events = tuple(recent)
        if not (changed_counters or changed_hists or events or final):
            return None
        delta = TelemetryDelta(
            source=self.source,
            seq=self.seq,
            counters=tuple(changed_counters),
            histograms=tuple(changed_hists),
            events=events,
            task=self.task,
            final=final,
            spans=tuple(telemetry.spans()) if final else (),
            pid=os.getpid(),
            time_origin_ns=telemetry.time_origin_ns,
            created_unix_seconds=telemetry.created_unix_seconds,
        )
        self.seq += 1
        return delta


class DeltaAccumulator:
    """Receiver-side aggregate over any number of delta sources.

    ``apply`` is idempotent and order-independent: per (source, series)
    only the highest-sequence cumulative state is retained, so
    duplicated or reordered heartbeats cannot inflate or corrupt the
    aggregate.  Totals across sources are exact sums of each source's
    latest state -- after every source's final delta has arrived they
    equal the end-of-run merged telemetry exactly.  Per source it also
    keeps the newest :data:`EVENT_TAIL` WARN/ERROR records for display.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], tuple[int, CounterSnapshot]] = {}
        self._hists: dict[tuple[str, str], tuple[int, HistogramSnapshot]] = {}
        self._event_seqs: dict[str, set[int]] = {}
        self._events: dict[str, collections.deque] = {}
        self.duplicates = 0

    def apply(self, delta: TelemetryDelta) -> bool:
        """Fold one delta in; ``False`` when every series in it was
        already known at an equal-or-newer sequence number."""
        fresh = False
        for table, series in (
            (self._counters, delta.counters),
            (self._hists, delta.histograms),
        ):
            for item in series:
                key = (delta.source, item.name)
                held = table.get(key)
                if held is None or held[0] < delta.seq:
                    table[key] = (delta.seq, item)
                    fresh = True
        if delta.events:
            seen = self._event_seqs.setdefault(delta.source, set())
            if delta.seq not in seen:
                seen.add(delta.seq)
                tail = self._events.setdefault(
                    delta.source, collections.deque(maxlen=EVENT_TAIL)
                )
                if delta.final:
                    tail.clear()  # the final delta carries every record
                tail.extend(
                    r for r in delta.events if r.level in ("WARN", "ERROR")
                )
                fresh = True
        if not fresh:
            self.duplicates += 1
        return fresh

    def drop_source(self, source: str) -> None:
        """Forget one source's contribution (after its final delta has
        been folded into a real registry, keeping it would double
        count)."""
        for table in (self._counters, self._hists):
            for key in [k for k in table if k[0] == source]:
                del table[key]
        self._event_seqs.pop(source, None)
        self._events.pop(source, None)

    def sources(self) -> set[str]:
        out = {key[0] for key in self._counters}
        out |= {key[0] for key in self._hists}
        return out

    def events(self) -> list:
        """The kept WARN/ERROR records of every unretired source."""
        return [record for tail in self._events.values() for record in tail]

    def counter_totals(self) -> dict[str, float]:
        """Per-counter sums of every source's latest cumulative value."""
        totals: dict[str, float] = {}
        for (_, name), (_, counter) in sorted(self._counters.items()):
            totals[name] = totals.get(name, 0.0) + counter.value
        return totals

    def histogram_totals(self) -> dict[str, Histogram]:
        """Per-histogram merge of every source's latest snapshot."""
        from repro.telemetry.histograms import Histogram

        merged: dict[str, Histogram] = {}
        for (_, name), (_, snapshot) in sorted(self._hists.items()):
            hist = merged.get(name)
            if hist is None:
                hist = Histogram(name, snapshot.unit)
                merged[name] = hist
            hist.merge(snapshot)
        return merged
