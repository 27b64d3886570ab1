"""Cross-process telemetry capture and merge.

The parallel execution engine (:mod:`repro.parallel`) fans sweep stages
out to worker processes.  Each worker runs under its own fresh registry
(:func:`repro.telemetry.session`); when the task finishes, the worker
reduces that registry to a picklable :class:`TelemetrySnapshot` and
ships it back with the result.  The parent then folds every snapshot
into its own live registry -- spans keep their parent/child structure
*and their ids* (span ids are namespaced by a per-process random high
word, so cross-process collisions cannot happen and no remapping is
needed), worker threads get synthetic negative thread ids so they
render as separate tracks, and counter/gauge totals accumulate -- so
``gtpin trace`` produces one complete Chrome trace whether the sweep
ran serially or across N processes.

Timestamps are aligned via each registry's wall-clock creation time:
``perf_counter_ns`` origins are process-local, so a worker span's offset
from its own origin is shifted by the wall-clock delta between the two
registries before being re-based on the parent's origin.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.telemetry.counters import Sample
from repro.telemetry.histograms import HistogramSnapshot
from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import SpanRecord


@dataclasses.dataclass(frozen=True)
class CounterSnapshot:
    """Final value of one worker-side counter.

    ``ops`` is the number of ``inc`` calls behind the value; the
    self-overhead attribution layer costs observability by operation
    count, so it must survive the process boundary too.
    """

    name: str
    value: float
    ops: int = 0


@dataclasses.dataclass(frozen=True)
class GaugeSnapshot:
    """Summary statistics of one worker-side gauge."""

    name: str
    last: float
    count: int
    total: float
    minimum: float
    maximum: float
    samples: tuple[Sample, ...]


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """A registry reduced to picklable parts, ready to merge elsewhere."""

    pid: int
    time_origin_ns: int
    created_unix_seconds: float
    spans: tuple[SpanRecord, ...]
    counters: tuple[CounterSnapshot, ...]
    gauges: tuple[GaugeSnapshot, ...]
    histograms: tuple[HistogramSnapshot, ...] = ()

    def __len__(self) -> int:
        return len(self.spans)


def capture_snapshot(telemetry: Telemetry) -> TelemetrySnapshot:
    """Reduce a live registry to a :class:`TelemetrySnapshot`."""
    counters = telemetry.counters
    return TelemetrySnapshot(
        pid=os.getpid(),
        time_origin_ns=telemetry.time_origin_ns,
        created_unix_seconds=telemetry.created_unix_seconds,
        spans=tuple(telemetry.spans()),
        counters=tuple(
            CounterSnapshot(name=c.name, value=c.value, ops=c.ops)
            for c in counters.counters.values()
        ),
        gauges=tuple(
            GaugeSnapshot(
                name=g.name,
                last=g.last,
                count=g.count,
                total=g.total,
                minimum=g.minimum,
                maximum=g.maximum,
                samples=tuple(g.samples),
            )
            for g in counters.gauges.values()
        ),
        histograms=tuple(
            h.snapshot() for h in counters.histograms.values()
        ),
    )


def merge_snapshot(
    target: Telemetry,
    snapshot: TelemetrySnapshot,
    parent_span_id: int | None = None,
) -> None:
    """Fold a worker snapshot into ``target``.

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
    delta_ns = int(
        round(
            (snapshot.created_unix_seconds - target.created_unix_seconds)
            * 1e9
        )
    ) + (target.time_origin_ns - snapshot.time_origin_ns)

    # Synthetic negative thread ids: real thread idents are positive, so
    # worker tracks can never collide with (or interleave into) parent
    # threads' tracks, even under fork where idents are inherited.
    thread_map: dict[int, int] = {}

    def remap_thread(thread_id: int) -> int:
        if thread_id not in thread_map:
            thread_map[thread_id] = -(
                snapshot.pid * 1000 + len(thread_map) + 1
            )
        return thread_map[thread_id]

    collector = target._collector
    for span in snapshot.spans:
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
                start_ns=span.start_ns + delta_ns,
                end_ns=span.end_ns + delta_ns,
                thread_id=remap_thread(span.thread_id),
                depth=span.depth,
                args=dict(span.args),
                trace_id=span.trace_id,
            )
        )

    for counter in snapshot.counters:
        merged_counter = target.counters.counter(counter.name)
        merged_counter.inc(counter.value)
        # inc() tallied one op for the merge itself; replace that with
        # the worker's true operation count.
        merged_counter.ops += counter.ops - 1
    for gauge in snapshot.gauges:
        merged = target.counters.gauge(gauge.name)
        if gauge.count == 0:
            continue
        merged.last = gauge.last
        merged.count += gauge.count
        merged.total += gauge.total
        merged.minimum = min(merged.minimum, gauge.minimum)
        merged.maximum = max(merged.maximum, gauge.maximum)
        merged.samples.extend(
            Sample(s.ts_ns + delta_ns, s.value) for s in gauge.samples
        )
    for hist in snapshot.histograms:
        target.counters.histogram(hist.name, hist.unit).merge(hist)


# -- streaming deltas ---------------------------------------------------------
#
# The live-observability layer needs *in-flight* telemetry: workers ship
# periodic heartbeats while a task runs, not just one snapshot at task
# end.  A heartbeat is a :class:`TelemetryDelta` -- the cumulative state
# of every series that changed since the previous capture, stamped with
# a per-source sequence number.  Shipping cumulative state (rather than
# arithmetic increments) is what makes the merge *conservation-exact*
# under float sums and *idempotent* under retransmission: the receiver
# keeps, per (source, series), the state with the highest sequence
# number, so applying a delta twice -- or applying an older delta after
# a newer one -- changes nothing, and the final aggregate equals the
# worker's true final registry values bit-for-bit.


@dataclasses.dataclass(frozen=True)
class TelemetryDelta:
    """One heartbeat: cumulative state of the series that changed.

    ``events`` is a display-oriented tail of recently emitted event
    records (exactly-once delivery of events still happens through the
    end-of-task :class:`~repro.obs.events.EventRecord` shipment); the
    counter/gauge/histogram payloads are the conservation-carrying part.
    """

    source: str
    seq: int
    captured_unix: float
    counters: tuple[CounterSnapshot, ...] = ()
    gauges: tuple[GaugeSnapshot, ...] = ()
    histograms: tuple[HistogramSnapshot, ...] = ()
    events: tuple = ()
    task: str = ""
    final: bool = False

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)


class DeltaTracker:
    """Worker-side capture state: successive :meth:`capture` calls ship
    only the series that changed since the previous call."""

    def __init__(self, source: str, task: str = "") -> None:
        self.source = source
        self.task = task
        self.seq = 0
        self._counter_marks: dict[str, tuple[float, int]] = {}
        self._gauge_marks: dict[str, int] = {}
        self._hist_marks: dict[str, int] = {}
        self._event_watermark = 0.0

    def capture(
        self,
        telemetry: Telemetry,
        log=None,
        final: bool = False,
        event_tail: int = 50,
        min_event_level: str = "WARN",
    ) -> TelemetryDelta | None:
        """One heartbeat from a live registry; ``None`` when nothing
        changed (and the heartbeat is not the final one)."""
        counters = telemetry.counters
        changed_counters = []
        for name, counter in list(counters.counters.items()):
            mark = (counter.value, counter.ops)
            if self._counter_marks.get(name) != mark:
                self._counter_marks[name] = mark
                changed_counters.append(
                    CounterSnapshot(name=name, value=mark[0], ops=mark[1])
                )
        changed_gauges = []
        for name, gauge in list(counters.gauges.items()):
            if self._gauge_marks.get(name) != gauge.count:
                self._gauge_marks[name] = gauge.count
                changed_gauges.append(
                    GaugeSnapshot(
                        name=name,
                        last=gauge.last,
                        count=gauge.count,
                        total=gauge.total,
                        minimum=gauge.minimum,
                        maximum=gauge.maximum,
                        samples=(),
                    )
                )
        changed_hists = []
        for name, hist in list(counters.histograms.items()):
            if self._hist_marks.get(name) != hist.count:
                self._hist_marks[name] = hist.count
                changed_hists.append(hist.snapshot())
        fresh_events: tuple = ()
        if log is not None and getattr(log, "enabled", False):
            recent = [
                r
                for r in log.records(min_level=min_event_level)
                if r.ts_unix > self._event_watermark
            ][-event_tail:]
            if recent:
                self._event_watermark = max(r.ts_unix for r in recent)
                fresh_events = tuple(recent)
        if (
            not changed_counters
            and not changed_gauges
            and not changed_hists
            and not fresh_events
            and not final
        ):
            return None
        delta = TelemetryDelta(
            source=self.source,
            seq=self.seq,
            captured_unix=time.time(),
            counters=tuple(changed_counters),
            gauges=tuple(changed_gauges),
            histograms=tuple(changed_hists),
            events=fresh_events,
            task=self.task,
            final=final,
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
    equal the end-of-run merged telemetry exactly.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], tuple[int, CounterSnapshot]] = {}
        self._gauges: dict[tuple[str, str], tuple[int, GaugeSnapshot]] = {}
        self._hists: dict[tuple[str, str], tuple[int, HistogramSnapshot]] = {}
        self._event_seqs: dict[str, set[int]] = {}
        self.events: list = []
        self.applied = 0
        self.duplicates = 0

    def apply(self, delta: TelemetryDelta) -> bool:
        """Fold one heartbeat in; ``False`` when every series in it was
        already known at an equal-or-newer sequence number."""
        fresh = False
        for counter in delta.counters:
            key = (delta.source, counter.name)
            held = self._counters.get(key)
            if held is None or held[0] < delta.seq:
                self._counters[key] = (delta.seq, counter)
                fresh = True
        for gauge in delta.gauges:
            key = (delta.source, gauge.name)
            held = self._gauges.get(key)
            if held is None or held[0] < delta.seq:
                self._gauges[key] = (delta.seq, gauge)
                fresh = True
        for hist in delta.histograms:
            key = (delta.source, hist.name)
            held = self._hists.get(key)
            if held is None or held[0] < delta.seq:
                self._hists[key] = (delta.seq, hist)
                fresh = True
        if delta.events:
            seen = self._event_seqs.setdefault(delta.source, set())
            if delta.seq not in seen:
                seen.add(delta.seq)
                self.events.extend(delta.events)
                fresh = True
        if fresh:
            self.applied += 1
        else:
            self.duplicates += 1
        return fresh

    def drop_source(self, source: str) -> None:
        """Forget one source's contribution (after its final snapshot
        has been merged into a real registry, keeping it would double
        count)."""
        for table in (self._counters, self._gauges, self._hists):
            for key in [k for k in table if k[0] == source]:
                del table[key]
        self._event_seqs.pop(source, None)

    def sources(self) -> set[str]:
        out = {key[0] for key in self._counters}
        out |= {key[0] for key in self._gauges}
        out |= {key[0] for key in self._hists}
        return out

    def counter_totals(self) -> dict[str, float]:
        """Per-counter sums of every source's latest cumulative value."""
        totals: dict[str, float] = {}
        for (_, name), (_, counter) in sorted(self._counters.items()):
            totals[name] = totals.get(name, 0.0) + counter.value
        return totals

    def gauge_totals(self) -> dict[str, GaugeSnapshot]:
        """Per-gauge aggregate across sources (count/total sums,
        min/max envelopes, ``last`` from the newest capture)."""
        merged: dict[str, GaugeSnapshot] = {}
        newest: dict[str, int] = {}
        for (_, name), (seq, gauge) in sorted(self._gauges.items()):
            held = merged.get(name)
            if held is None:
                merged[name] = gauge
                newest[name] = seq
                continue
            last = gauge.last if seq >= newest[name] else held.last
            newest[name] = max(newest[name], seq)
            merged[name] = GaugeSnapshot(
                name=name,
                last=last,
                count=held.count + gauge.count,
                total=held.total + gauge.total,
                minimum=min(held.minimum, gauge.minimum),
                maximum=max(held.maximum, gauge.maximum),
                samples=(),
            )
        return merged

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
