"""The GT-Pin trace buffer.

Section III-A: at runtime initialization GT-Pin mallocs a *trace buffer*
accessible by both CPU and GPU; injected instrumentation streams profiling
data into it during native execution, and when GPU execution concludes the
CPU reads it back for post-processing.

:class:`TraceBuffer` models that shared region: instrumentation appends
:class:`TraceRecord` entries (one per kernel invocation), each accounting
for the bytes the corresponding real payload would occupy.  The CPU side
``drain()``\\ s the buffer.  Overflow is handled the way the real tool
handles it -- an implicit drain (the driver synchronizes and the CPU
empties the buffer), counted so overhead analyses can see it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np

from repro import faults, telemetry


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One kernel invocation's instrumentation output.

    ``block_counts`` is indexed by *original-binary* block id -- GT-Pin
    reports the program's own execution, never its instrumentation.
    ``payloads`` carries tool-specific extras (timer values, memory-trace
    handles) keyed by capability name.
    """

    dispatch_index: int
    kernel_name: str
    global_work_size: int
    arg_values: Mapping[str, float]
    n_hw_threads: int
    block_counts: np.ndarray
    enqueue_call_index: int
    sync_epoch: int
    payloads: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: Input-buffer payload summaries (CoFluent records buffer contents;
    #: replay/simulation needs them to reproduce data-dependent control
    #: flow).  NOT used by feature vectors.
    data_values: Mapping[str, float] = dataclasses.field(default_factory=dict)
    #: True when the ``trace.corrupt`` fault site scrambled this record's
    #: counters; the profiler discards such records before analysis.
    corrupted: bool = False

    @property
    def record_bytes(self) -> int:
        """Bytes this record occupies in the shared buffer."""
        base = 64  # header: indices, sizes, kernel id
        counters = self.block_counts.size * 8
        extras = sum(_payload_bytes(v) for v in self.payloads.values())
        return base + counters + extras


def _payload_bytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 8


class TraceBuffer:
    """Shared CPU/GPU profiling-data region."""

    DEFAULT_CAPACITY = 4 * 1024 * 1024  # 4 MiB, like a modest malloc'd region

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._records: list[TraceRecord] = []
        self._resident_bytes = 0
        #: Times the GPU filled the buffer and the CPU had to drain early.
        self.overflow_drains = 0
        #: Total records ever written (drains do not reset this).
        self.total_records = 0
        #: Total bytes ever written (the conservation-law numerator:
        #: ``total_bytes_written == drained + resident + lost_bytes``).
        self.total_bytes_written = 0
        #: Records whose counters the ``trace.corrupt`` site scrambled.
        self.corrupted_records = 0
        #: Records lost to ``trace.truncate`` flush truncation.
        self.lost_records = 0
        #: Bytes those lost records occupied.
        self.lost_bytes = 0
        self._drained: list[TraceRecord] = []
        #: An admitted record alone exceeded capacity; its forced drain
        #: was already counted, so the next implicit drain must not
        #: double-count it.
        self._oversized_pending = False

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def _apply_corruption(self, record: TraceRecord) -> TraceRecord:
        """``trace.corrupt``: scramble the record's counters in place.

        The scramble preserves the byte footprint (same counter shape) so
        buffer accounting is unaffected; the ``corrupted`` flag is what
        downstream consumers act on.
        """
        fi = faults.get()
        if not fi.enabled:
            return record
        glitch = fi.draw("trace.corrupt")
        if glitch is None:
            return record
        counts = record.block_counts
        scrambled = glitch.rng.permutation(counts) if counts.size else counts
        self.corrupted_records += 1
        return dataclasses.replace(
            record, block_counts=scrambled, corrupted=True
        )

    def _truncate_flush(self, records: list[TraceRecord]) -> list[TraceRecord]:
        """``trace.truncate``: a flush loses its tail records.

        Models the CPU read-back racing the GPU's final writes: the last
        ``k`` records of the flushed batch never make it out of the
        shared region.  Lost records and bytes are accounted so the
        conservation law ``total_bytes_written == drained + resident +
        lost_bytes`` stays exact.
        """
        fi = faults.get()
        if not fi.enabled or not records:
            return records
        cut = fi.draw("trace.truncate")
        if cut is None:
            return records
        k = int(cut.rng.integers(1, len(records) + 1))
        kept, lost = records[:-k], records[-k:]
        self.lost_records += len(lost)
        self.lost_bytes += sum(r.record_bytes for r in lost)
        return kept

    def _flush(self, tm) -> None:
        """Move the resident records out to the CPU side.

        The records and bytes written since the last flush are counted
        here, once per flush, before ``trace.truncate`` can lose any.
        """
        if tm.enabled and self._records:
            tm.inc("gtpin.trace_buffer.records", len(self._records))
            tm.inc("gtpin.trace_buffer.bytes", self._resident_bytes)
        self._drained.extend(self._truncate_flush(self._records))
        self._records = []
        self._resident_bytes = 0

    def write(self, record: TraceRecord) -> None:
        """GPU-side append of one invocation's instrumentation output."""
        record = self._apply_corruption(record)
        size = record.record_bytes
        tm = telemetry.get()
        if self._resident_bytes + size > self.capacity_bytes and self._records:
            # Buffer full: the CPU drains mid-run (costed as an overflow).
            self._flush(tm)
            if self._oversized_pending:
                # This drain was already counted when the oversized
                # record was admitted.
                self._oversized_pending = False
            else:
                self.overflow_drains += 1
                tm.inc("gtpin.trace_buffer.overflow_drains")
        self._records.append(record)
        self._resident_bytes += size
        self.total_records += 1
        self.total_bytes_written += size
        if size > self.capacity_bytes:
            # The record exceeds capacity even in an empty buffer: the
            # driver must sync and the CPU drain it right after the
            # kernel.  Count that forced drain now (the buffer empties on
            # the next write) so overhead analyses see it.
            self.overflow_drains += 1
            self._oversized_pending = True
            tm.inc("gtpin.trace_buffer.overflow_drains")
        if tm.enabled:  # hot path: one attribute check when capture is off
            tm.observe_hist("gtpin.trace_buffer.record_bytes", size, "B")

    def drain(self) -> list[TraceRecord]:
        """CPU-side read-out: all records so far, in write order."""
        tm = telemetry.get()
        with tm.span("gtpin.trace_buffer.drain", category="gtpin") as span:
            self._flush(tm)
            out, self._drained = self._drained, []
            # An explicit drain empties the buffer, so the oversized
            # record's pre-counted implicit drain will never happen.
            self._oversized_pending = False
            span.annotate(records=len(out))
        if tm.enabled:
            tm.observe_hist(
                "gtpin.trace_buffer.drain_records", len(out), "records"
            )
        tm.inc("gtpin.trace_buffer.drains")
        return out

    def __len__(self) -> int:
        return len(self._drained) + len(self._records)
