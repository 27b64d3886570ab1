"""Trace buffer: writes, byte accounting, overflow drains."""

import numpy as np
import pytest

from repro.gtpin.trace_buffer import TraceBuffer, TraceRecord


def _record(i=0, n_blocks=4, payloads=None):
    return TraceRecord(
        dispatch_index=i,
        kernel_name="k",
        global_work_size=64,
        arg_values={"iters": 2.0},
        n_hw_threads=4,
        block_counts=np.ones(n_blocks, dtype=np.int64),
        enqueue_call_index=i,
        sync_epoch=0,
        payloads=payloads or {},
    )


def test_record_bytes_scale_with_blocks():
    small = _record(n_blocks=2).record_bytes
    large = _record(n_blocks=200).record_bytes
    assert large > small
    assert large - small == (200 - 2) * 8


def test_payload_bytes_counted():
    with_payload = _record(payloads={"trace": np.zeros(100)}).record_bytes
    without = _record().record_bytes
    assert with_payload == without + 800


def test_write_and_drain_order():
    buffer = TraceBuffer()
    for i in range(5):
        buffer.write(_record(i))
    assert len(buffer) == 5
    records = buffer.drain()
    assert [r.dispatch_index for r in records] == [0, 1, 2, 3, 4]
    assert len(buffer) == 0
    assert buffer.resident_bytes == 0


def test_total_records_survives_drain():
    buffer = TraceBuffer()
    buffer.write(_record(0))
    buffer.drain()
    buffer.write(_record(1))
    assert buffer.total_records == 2


def test_overflow_triggers_implicit_drain():
    record = _record()
    # Capacity for ~2 records only.
    buffer = TraceBuffer(capacity_bytes=record.record_bytes * 2 + 1)
    for i in range(10):
        buffer.write(_record(i))
    assert buffer.overflow_drains > 0
    # Nothing lost: drain returns everything ever written.
    assert len(buffer.drain()) == 10


def test_invalid_capacity():
    with pytest.raises(ValueError):
        TraceBuffer(capacity_bytes=0)


def test_resident_bytes_tracks_writes():
    buffer = TraceBuffer()
    record = _record()
    buffer.write(record)
    assert buffer.resident_bytes == record.record_bytes


# -- oversized records (larger than the whole buffer) ------------------------
#
# Regression: a record exceeding capacity written into an *empty* buffer
# used to be admitted silently -- no overflow counted then, and the
# forced drain it causes was only counted (once more) when the next
# write flushed it.  The forced drain is now counted at admit time and
# never double-counted.


def test_oversized_record_counts_forced_drain_immediately():
    oversized = _record(n_blocks=100)  # 864 bytes
    buffer = TraceBuffer(capacity_bytes=100)
    buffer.write(oversized)
    assert buffer.overflow_drains == 1
    assert len(buffer) == 1


def test_oversized_record_drain_not_double_counted():
    buffer = TraceBuffer(capacity_bytes=100)
    buffer.write(_record(0, n_blocks=100))
    assert buffer.overflow_drains == 1
    # The next write performs the (already counted) implicit drain.
    buffer.write(_record(1))
    assert buffer.overflow_drains == 1
    # Nothing lost, order preserved.
    assert [r.dispatch_index for r in buffer.drain()] == [0, 1]


def test_consecutive_oversized_records_each_count_once():
    buffer = TraceBuffer(capacity_bytes=100)
    buffer.write(_record(0, n_blocks=100))
    buffer.write(_record(1, n_blocks=100))
    assert buffer.overflow_drains == 2
    assert len(buffer.drain()) == 2


def test_explicit_drain_clears_pending_oversized_flag():
    buffer = TraceBuffer(capacity_bytes=100)
    buffer.write(_record(0, n_blocks=100))
    assert buffer.overflow_drains == 1
    buffer.drain()
    # The pre-counted implicit drain never happens now; a small write
    # into the emptied buffer must not consume the stale flag later.
    buffer.write(_record(1))
    assert buffer.overflow_drains == 1
    # ...and a genuine overflow afterwards still counts normally.
    buffer.write(_record(2))
    assert buffer.overflow_drains == 2


# -- property tests (hypothesis) ---------------------------------------------
#
# The buffer's contract, under *arbitrary* record sizes and capacities:
# records are never split or reordered across flushes, overflow
# accounting matches a greedy-packing oracle, and bytes are conserved
# exactly -- ``total_bytes_written == drained + resident + lost_bytes``
# -- even when fault injection truncates flushes or corrupts records.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry

_block_counts = st.lists(
    st.integers(min_value=0, max_value=120), min_size=1, max_size=30
)
_capacities = st.integers(min_value=80, max_value=1500)


def _records_of(n_blocks_list):
    return [_record(i, n_blocks=n) for i, n in enumerate(n_blocks_list)]


@settings(deadline=None, max_examples=60)
@given(n_blocks_list=_block_counts, capacity=_capacities, data=st.data())
def test_property_no_record_split_or_reorder(n_blocks_list, capacity, data):
    """Every record lands in exactly one drain batch, in write order."""
    buffer = TraceBuffer(capacity_bytes=capacity)
    batches = []
    for record in _records_of(n_blocks_list):
        buffer.write(record)
        if data.draw(st.booleans(), label="drain now"):
            batches.append(buffer.drain())
    batches.append(buffer.drain())
    indices = [r.dispatch_index for batch in batches for r in batch]
    assert indices == list(range(len(n_blocks_list)))
    assert buffer.resident_bytes == 0 and len(buffer) == 0


@settings(deadline=None, max_examples=60)
@given(n_blocks_list=_block_counts, capacity=_capacities)
def test_property_overflow_accounting_matches_oracle(n_blocks_list, capacity):
    """Overflow drains equal a greedy bin-packing oracle's count."""
    records = _records_of(n_blocks_list)
    buffer = TraceBuffer(capacity_bytes=capacity)
    expected = 0
    resident = 0
    pending_oversized = False
    for record in records:
        size = record.record_bytes
        if resident + size > capacity and resident > 0:
            resident = 0
            if pending_oversized:
                pending_oversized = False
            else:
                expected += 1
        resident += size
        if size > capacity:
            expected += 1
            pending_oversized = True
        buffer.write(record)
    assert buffer.overflow_drains == expected


@settings(deadline=None, max_examples=60)
@given(n_blocks_list=_block_counts, capacity=_capacities)
def test_property_bytes_conserved_without_faults(n_blocks_list, capacity):
    records = _records_of(n_blocks_list)
    buffer = TraceBuffer(capacity_bytes=capacity)
    written = 0
    for record in records:
        buffer.write(record)
        written += record.record_bytes
    assert buffer.total_bytes_written == written
    drained = buffer.drain()
    assert sum(r.record_bytes for r in drained) == written
    assert buffer.lost_bytes == 0 and buffer.lost_records == 0


@settings(deadline=None, max_examples=60)
@given(
    n_blocks_list=_block_counts,
    capacity=_capacities,
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_bytes_conserved_under_trace_faults(
    n_blocks_list, capacity, fault_seed
):
    """Conservation holds exactly through corrupted + truncated flushes."""
    plan = faults.FaultPlan(
        seed=fault_seed,
        rules=(
            faults.FaultRule("trace.truncate", 0.5),
            faults.FaultRule("trace.corrupt", 0.3),
        ),
    )
    with faults.session(plan):
        records = _records_of(n_blocks_list)
        buffer = TraceBuffer(capacity_bytes=capacity)
        for record in records:
            buffer.write(record)
        drained = buffer.drain()
    written = sum(r.record_bytes for r in records)
    drained_bytes = sum(r.record_bytes for r in drained)
    # Corruption scrambles counters in place, never the byte footprint.
    assert buffer.total_bytes_written == written
    assert drained_bytes + buffer.lost_bytes == written
    assert len(drained) + buffer.lost_records == len(records)
    # Survivors are a subsequence of the write order (tail-drops only).
    indices = [r.dispatch_index for r in drained]
    assert indices == sorted(indices)
    # Every surviving corrupted record is counted; the count may exceed
    # the survivors because corrupted records can be truncated away too.
    assert buffer.corrupted_records >= sum(1 for r in drained if r.corrupted)
    assert buffer.corrupted_records <= len(records)


def test_counters_add_each_flush_once_before_truncation():
    """Records and bytes are counted once per non-empty flush, before
    ``trace.truncate`` loses any, so the counters equal the buffer's
    own totals."""
    record = _record()
    plan = faults.FaultPlan(
        seed=3, rules=(faults.FaultRule("trace.truncate", 0.5),)
    )
    with telemetry.session() as tm, faults.session(plan):
        buffer = TraceBuffer(capacity_bytes=record.record_bytes * 3)
        drains = 0
        for i in range(20):
            buffer.write(_record(i))
            if i % 7 == 6:
                drains += buffer.resident_bytes > 0
                buffer.drain()
        drains += buffer.resident_bytes > 0
        buffer.drain()
        buffer.drain()  # nothing resident: no flush to count
    assert buffer.overflow_drains > 0 and buffer.lost_records > 0
    records = tm.counters.counter("gtpin.trace_buffer.records")
    written = tm.counters.counter("gtpin.trace_buffer.bytes")
    assert records.value == buffer.total_records == 20
    assert written.value == buffer.total_bytes_written
    assert records.ops == written.ops == buffer.overflow_drains + drains
