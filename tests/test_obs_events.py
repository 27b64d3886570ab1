"""repro.obs.events: the leveled structured event log."""

import io
import json

import pytest

from repro import faults, telemetry
from repro.faults import FaultPlan
from repro.obs import events as obs_events
from repro.obs.events import DISABLED_EVENTS, EventRecord


@pytest.fixture
def log():
    active = obs_events.enable()
    yield active
    obs_events.disable()


def test_registry_lifecycle_mirrors_telemetry():
    assert obs_events.get() is DISABLED_EVENTS
    assert not obs_events.is_enabled()
    live = obs_events.enable()
    try:
        assert obs_events.get() is live
        assert obs_events.is_enabled()
    finally:
        obs_events.disable()
    assert obs_events.get() is DISABLED_EVENTS


def test_session_restores_previous_log(log):
    log.info("outer")
    with obs_events.session() as inner:
        inner.info("inner")
        assert obs_events.get() is inner
        assert len(inner) == 1
    assert obs_events.get() is log
    assert [r.name for r in log.records()] == ["outer"]


def test_levels_and_min_level_filtering(log):
    log.debug("a")
    log.info("b")
    log.warn("c")
    log.error("d")
    assert [r.name for r in log.records()] == ["a", "b", "c", "d"]
    assert [r.name for r in log.records("WARN")] == ["c", "d"]
    assert [r.level for r in log.records("ERROR")] == ["ERROR"]
    with pytest.raises(ValueError, match="level"):
        log.emit("FATAL", "nope")


def test_fields_are_scalarized_and_ordered(log):
    log.info("evt", count=3, site="jit.build", extra=[1, 2])
    (record,) = log.records()
    fields = dict(record.fields)
    assert fields["count"] == 3
    assert fields["site"] == "jit.build"
    assert fields["extra"] == "[1, 2]"  # non-scalars stored as repr
    assert record.ts_unix > 0


def test_events_capture_the_active_span_id(log):
    tm = telemetry.enable()
    try:
        log.info("outside")
        with tm.span("work") as span:
            log.warn("inside")
        records = {r.name: r for r in log.records()}
        assert records["outside"].span_id is None
        assert records["inside"].span_id == span.span_id
    finally:
        telemetry.disable()


def test_absorb_merges_chronologically(log):
    log.info("local")  # stamped now, after the synthetic worker stamps
    shipped = (
        EventRecord(1.0, "WARN", "w1", None, ()),
        EventRecord(2.0, "INFO", "w2", None, (("k", "v"),)),
    )
    log.absorb(shipped)
    assert [r.name for r in log.records()] == ["w1", "w2", "local"]
    assert len(log) == 3


def test_write_events_jsonl(log):
    log.info("first", x=1)
    log.error("second")
    out = io.StringIO()
    obs_events.write_events_jsonl(log, out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [l["name"] for l in lines] == ["first", "second"]
    assert lines[0]["x"] == 1
    assert lines[1]["level"] == "ERROR"

    filtered = io.StringIO()
    obs_events.write_events_jsonl(log, filtered, min_level="ERROR")
    assert len(filtered.getvalue().splitlines()) == 1


def test_disabled_log_is_inert():
    obs_events.disable()
    log = obs_events.get()
    log.info("dropped", a=1)
    log.error("dropped too")
    log.absorb([EventRecord(1.0, "INFO", "x", None, ())])
    assert log.records() == []
    assert log.tail(50, "WARN") == []
    assert log.level_counts() == dict.fromkeys(obs_events.LEVELS, 0)
    assert len(log) == 0


def test_fault_injection_becomes_queryable_events(log):
    """A faulted run leaves WARN records naming site and ordinal."""
    plan = FaultPlan.parse("seed=3;jit.build=1.0:1")
    with faults.session(plan) as injector:
        assert injector.draw("jit.build") is not None
    warns = log.records("WARN")
    assert any(r.name == "fault.injected" for r in warns)
    fields = dict(next(r for r in warns if r.name == "fault.injected").fields)
    assert fields["site"] == "jit.build"


# -- bounded ring buffer -----------------------------------------------------


def test_ring_buffer_caps_memory_and_counts_drops():
    with obs_events.session(capacity=4) as log:
        for i in range(10):
            log.info("evt", i=i)
        assert log.capacity == 4
        assert len(log) == 4
        assert log.dropped == 6
        # Newest survive; oldest were evicted.
        assert [dict(r.fields)["i"] for r in log.records()] == [6, 7, 8, 9]


def test_ring_capacity_env_override(monkeypatch):
    monkeypatch.setenv(obs_events.CAPACITY_ENV, "3")
    with obs_events.session() as log:
        assert log.capacity == 3
        for i in range(5):
            log.info("evt", i=i)
        assert len(log) == 3
        assert log.dropped == 2
    monkeypatch.setenv(obs_events.CAPACITY_ENV, "not-a-number")
    with pytest.raises(ValueError, match=obs_events.CAPACITY_ENV):
        obs_events.enable()


def test_drops_mirror_into_telemetry_counter():
    with telemetry.session() as tm, obs_events.session(capacity=2) as log:
        for _ in range(5):
            log.info("evt")
        assert log.dropped == 3
        assert tm.counter_value("events.dropped") == 3.0


def test_absorbed_events_sort_chronologically_with_stable_ties(log):
    log.info("local")  # time.time() stamp, far after the synthetic ones
    log.absorb(
        [
            EventRecord(2.0, "INFO", "late", None, ()),
            EventRecord(1.0, "WARN", "tie-first", None, ()),
            EventRecord(1.0, "INFO", "tie-second", None, ()),
        ]
    )
    names = [r.name for r in log.records()]
    # Timestamp order across processes; equal stamps keep absorb order.
    assert names == ["tie-first", "tie-second", "late", "local"]
    # A later absorb re-merges rather than appending.
    log.absorb([EventRecord(1.5, "INFO", "between", None, ())])
    names = [r.name for r in log.records()]
    assert names == ["tie-first", "tie-second", "between", "late", "local"]


def test_warn_incidents_survive_debug_floods():
    """Chatty DEBUG loops cannot flush incidents out of the ring."""
    with telemetry.session() as tm, obs_events.session(capacity=8) as log:
        log.warn("fault.injected", site="jit.build")
        for i in range(100):
            log.debug("chatter", i=i)
        warns = log.records("WARN")
        assert [r.name for r in warns] == ["fault.injected"]
        # Only DEBUG records were truly lost: the WARN parked in the
        # reserve when evicted, and the main ring kept the last 8.
        assert log.dropped == 100 - 8
        assert tm.counter_value("events.dropped") == log.dropped
        # Accounting is conservation-exact: every emission is either
        # retained or counted dropped.
        assert len(log) + log.dropped == 101


def test_incident_reserve_is_itself_bounded():
    with obs_events.session(capacity=2) as log:
        for i in range(10):
            log.warn("incident", i=i)
        # capacity 2 main + reserve capped at min(INCIDENT_RESERVE, 2).
        assert len(log) == 4
        assert log.dropped == 6
        kept = [dict(r.fields)["i"] for r in log.records()]
        assert kept == [6, 7, 8, 9]


# -- reading the newest records and the level counts without a scan ---------


def _incident_batches():
    """Six worker-style batches for a 64-record ring: every level mixed,
    timestamps that interleave with and predate the records already
    held (with ties), enough WARN/ERROR to park incidents in the reserve
    and then drop some of them."""
    batches = []
    for batch in range(6):
        batches.append(
            [
                EventRecord(
                    1000.0 + 0.01 * i + 0.003 * (batch % 3),
                    obs_events.LEVELS[(5 * i + batch) % 4],
                    f"batch{batch}",
                    None,
                    (("i", i),),
                )
                for i in range(90)
            ]
        )
    return batches


def _counts_by_scan(log):
    counts = dict.fromkeys(obs_events.LEVELS, 0)
    for record in log.records():
        counts[record.level] += 1
    return counts


def test_tail_and_level_counts_equal_a_full_scan():
    log = obs_events.EventLog(capacity=64)
    for batch in _incident_batches():
        log.absorb(batch)
        log.warn("local.incident")
        log.debug("local.chatter")
        for level in obs_events.LEVELS:
            everything = log.records(level)
            for limit in (1, 7, 50, 64, 1000):
                assert log.tail(limit, level) == everything[-limit:]
            assert log.tail(0, level) == []
        assert log.level_counts() == _counts_by_scan(log)
    assert log.dropped > 0 and len(log) > log.capacity  # reserve in use
    assert sum(log.level_counts().values()) == len(log)
