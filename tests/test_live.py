"""Live observability: streaming deltas, the hub, the endpoint, gtpin top.

The conservation properties here are the load-bearing ones: heartbeat
deltas ship *cumulative* per-series state with per-source sequence
numbers, so the receiver-side merge must be idempotent, order
independent, and bit-exact against the worker registry's final values.
The endpoint tests then assert the acceptance criterion end to end: the
scraped totals equal the end-of-run merged telemetry exactly.
"""

import concurrent.futures
import io
import json
import multiprocessing
import os
import queue
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry
from repro.faults import FaultPlan
from repro.gpu.device import HD4000
from repro.obs import events as obs_events
from repro.obs import live
from repro.obs.metrics import metric_name, parse_exposition
from repro.obs.top import render_top, run_top
from repro.parallel import pool
from repro.parallel.pool import WORKER_ENV, _run_task, parallel_map
from repro.sampling.pipeline import profile_workload
from repro.simulation.detailed import DetailedGPUSimulator
from repro.telemetry.registry import Telemetry
from repro.telemetry.snapshot import DeltaAccumulator, DeltaTracker
from repro.workloads import load_app

from conftest import build_tiny_kernel


@pytest.fixture
def hub():
    active = live.enable()
    yield active
    live.disable()


@pytest.fixture
def served_hub():
    active = live.enable(port=0)
    yield active
    live.disable()


def _url(hub, path):
    return f"http://127.0.0.1:{hub.server.port}{path}"


def _get(hub, path):
    with urllib.request.urlopen(_url(hub, path), timeout=5) as response:
        return response.read().decode()


# -- delta conservation properties -------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "hist"]),
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)


def _apply_ops(tm, ops):
    for kind, name, value in ops:
        if kind == "inc":
            tm.inc(name, value)
        else:
            tm.observe_hist(name, value, "u")


def _capture_all(tm, tracker, ops, n_chunks):
    """Apply ``ops`` in ``n_chunks`` slices, capturing after each."""
    deltas = []
    size = max(1, len(ops) // n_chunks)
    for start in range(0, len(ops), size):
        _apply_ops(tm, ops[start:start + size])
        delta = tracker.capture(tm)
        if delta is not None:
            deltas.append(delta)
    final = tracker.capture(tm, final=True)
    if final is not None:
        deltas.append(final)
    return deltas


def _assert_conserves(acc, tm):
    """Accumulator totals must equal the registry's finals bit-exactly."""
    assert acc.counter_totals() == {
        name: c.value for name, c in tm.counters.counters.items()
    }
    hists = acc.histogram_totals()
    assert set(hists) == set(tm.counters.histograms)
    for name, hist in tm.counters.histograms.items():
        got = hists[name]
        assert (got.count, got.total, got.minimum, got.maximum) == (
            hist.count, hist.total, hist.minimum, hist.maximum
        )
        assert got.buckets == hist.buckets


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, data=st.data())
def test_delta_merge_is_exact_idempotent_and_order_independent(ops, data):
    tm = Telemetry()
    tracker = DeltaTracker("w0")
    deltas = _capture_all(
        tm, tracker, ops, n_chunks=data.draw(st.integers(1, 5))
    )
    assert deltas, "final capture must always produce a delta"

    order = data.draw(st.permutations(range(len(deltas))))
    duplicates = data.draw(
        st.lists(
            st.integers(0, len(deltas) - 1), min_size=0, max_size=5
        )
    )
    acc = DeltaAccumulator()
    for index in list(order) + duplicates:
        acc.apply(deltas[index])
    _assert_conserves(acc, tm)

    # Replaying the entire stream again changes nothing (idempotence).
    for delta in deltas:
        acc.apply(delta)
    _assert_conserves(acc, tm)


def test_delta_totals_sum_across_sources_exactly():
    acc = DeltaAccumulator()
    registries = []
    for worker in range(3):
        tm = Telemetry()
        tracker = DeltaTracker(f"w{worker}")
        _apply_ops(tm, [("inc", "jobs", 1.0 + worker)])
        tm.observe_hist("size", 2.0 * (worker + 1), "B")
        for delta in _capture_all(tm, tracker, [], 1):
            acc.apply(delta)
        registries.append(tm)
    totals = acc.counter_totals()
    assert totals["jobs"] == sum(
        r.counter_value("jobs") for r in registries
    )
    merged = acc.histogram_totals()["size"]
    assert merged.count == 3
    assert merged.minimum == 2.0
    assert merged.maximum == 6.0
    assert acc.sources() == {"w0", "w1", "w2"}
    acc.drop_source("w1")
    assert acc.counter_totals()["jobs"] == pytest.approx(1.0 + 3.0)


def test_stale_delta_never_regresses_a_newer_one():
    tm = Telemetry()
    tracker = DeltaTracker("w0")
    tm.inc("steps", 5)
    early = tracker.capture(tm)
    tm.inc("steps", 7)
    late = tracker.capture(tm, final=True)
    acc = DeltaAccumulator()
    assert acc.apply(late)
    assert not acc.apply(early)  # stale: every series already newer
    assert acc.counter_totals()["steps"] == 12.0
    assert acc.duplicates == 1


def test_tracker_ships_only_changed_series_and_event_tail():
    tm = Telemetry()
    with obs_events.session() as log:
        tracker = DeltaTracker("w0", task="demo")
        tm.inc("a")
        tm.inc("b")
        first = tracker.capture(tm, log)
        assert {c.name for c in first.counters} == {"a", "b"}
        tm.inc("a")
        log.warn("trouble", k=1)
        second = tracker.capture(tm, log)
        assert {c.name for c in second.counters} == {"a"}
        assert [e.name for e in second.events] == ["trouble"]
        assert second.seq == 1
        # Nothing changed: no heartbeat at all.
        assert tracker.capture(tm, log) is None
        final = tracker.capture(tm, log, final=True)
        assert final is not None and final.final


# -- the heartbeat path through _run_task ------------------------------------


def _noisy_task(n):
    tm = telemetry.get()
    for i in range(n):
        tm.inc("live.work")
        tm.observe_hist("live.sizes", i + 1.0, "B")
    obs_events.get().warn("live.trouble", n=n)
    time.sleep(0.1)  # long enough for the ticker to send a heartbeat
    return n


def test_run_task_ships_final_delta_over_the_side_channel(monkeypatch):
    channel = queue.Queue()
    monkeypatch.setattr(pool, "_heartbeat_queue", channel)
    heartbeat = ("src0", "noisy[0]", 0.02)
    try:
        result = _run_task(_noisy_task, (25,), True, heartbeat)
    finally:
        os.environ.pop(WORKER_ENV, None)
    assert result.value == 25
    final = result.delta
    assert final.source == "src0" and final.final
    deltas = []
    while not channel.empty():
        deltas.append(channel.get_nowait())
    # Heartbeats travel on the queue; the final delta comes back with
    # the result.
    assert deltas and not any(delta.final for delta in deltas)
    acc = DeltaAccumulator()
    for delta in deltas + [final]:
        acc.apply(delta)
    assert acc.counter_totals()["live.work"] == 25.0
    hist = acc.histogram_totals()["live.sizes"]
    assert (hist.count, hist.minimum, hist.maximum) == (25, 1.0, 25.0)
    # The final delta carries the worker registry's full state: every
    # series (also those a heartbeat already sent), the task's spans and
    # event records, and the registry's clock origin.
    assert "live.work" in {c.name for c in deltas[0].counters}
    counters = {c.name: (c.value, c.ops) for c in final.counters}
    assert counters["live.work"] == (25.0, 25)
    hists = {h.name: h.count for h in final.histograms}
    assert hists == {"live.sizes": 25, "parallel.task_seconds": 1}
    assert [e.name for e in final.events] == ["live.trouble"]
    assert final.pid == os.getpid()
    assert final.time_origin_ns > 0 and final.created_unix_seconds > 0


def _ticking_task(steps):
    tm = telemetry.get()
    for _ in range(steps):
        tm.inc("live.ticks")
        time.sleep(0.05)
    return steps


def test_heartbeats_reach_the_hub_mid_task_without_a_manager(monkeypatch):
    """Heartbeats travel on a plain queue the pool initializer hands each
    worker: with no ``multiprocessing.Manager`` available, every source
    still delivers a heartbeat before its final delta, and retires only
    after the drain has stopped (a late heartbeat would revive it)."""

    def no_manager(*args, **kwargs):
        raise OSError("no Manager here")

    monkeypatch.setattr(multiprocessing, "Manager", no_manager)
    monkeypatch.setenv(live.INTERVAL_ENV, "0.05")
    calls, retired = [], []
    with telemetry.session() as tm:
        hub = live.enable()
        apply_delta, retire_source = hub.apply_delta, hub.retire_source

        def recording(delta):
            calls.append((delta.source, delta.final))
            apply_delta(delta)

        def retiring(source):
            threads = {thread.name for thread in threading.enumerate()}
            retired.append((source, "repro-heartbeat-drain" in threads))
            retire_source(source)

        monkeypatch.setattr(hub, "apply_delta", recording)
        monkeypatch.setattr(hub, "retire_source", retiring)
        try:
            outcomes = parallel_map(_ticking_task, [(6,), (6,)], jobs=2)
            parsed = parse_exposition(hub.metrics_text())
        finally:
            live.disable()
    assert [o.value for o in outcomes] == [6, 6]
    sources = {source for source, _ in calls}
    assert len(sources) == 2
    for source in sources:
        order = [final for s, final in calls if s == source]
        assert order.count(True) == 1
        assert False in order[: order.index(True)], order
    assert sorted(retired) == sorted((source, False) for source in sources)
    assert tm.counter_value("live.ticks") == 12.0
    for name, counter in tm.counters.counters.items():
        assert parsed[metric_name(name) + "_total"] == counter.value, name


def _bursty_task(i):
    tm = telemetry.get()
    for k in range(i % 4 + 1):
        tm.inc("stress.units", 0.1 * (k + 1))
        tm.observe_hist("stress.sizes", 1.0 + i, "B")
        obs_events.get().warn("stress.warn", i=i)
        time.sleep(0.02)
    return i


def test_heartbeat_stress_with_more_workers_than_cores(monkeypatch):
    """Heartbeats from more workers than cores race the final deltas
    into the hub: once the fan-out returns no source, lane or shipped
    event is left, and the scrape equals the merged registry exactly."""
    monkeypatch.setenv(live.INTERVAL_ENV, "0.05")
    jobs = min((os.cpu_count() or 1) + 1, 8)
    tasks = [(i,) for i in range(24)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with telemetry.session() as tm, obs_events.session() as log:
            hub = live.enable()
            try:
                outcomes = parallel_map(_bursty_task, tasks, jobs=jobs)
                parsed = parse_exposition(hub.metrics_text())
                left = (
                    hub.accumulator.sources(),
                    hub.accumulator.events(),
                    hub.health_doc()["workers"],
                )
            finally:
                live.disable()
    finally:
        sys.setswitchinterval(switch)
    assert [o.value for o in outcomes] == list(range(24))
    assert left == (set(), [], [])
    observations = sum(i % 4 + 1 for i in range(24))
    assert tm.counters.histograms["stress.sizes"].count == observations
    assert len(log.records(min_level="WARN")) == observations
    for name, counter in tm.counters.counters.items():
        assert parsed[metric_name(name) + "_total"] == counter.value, name
    for name, hist in tm.counters.histograms.items():
        assert parsed[metric_name(name) + "_count"] == hist.count, name


# -- hub behavior ------------------------------------------------------------


def test_hub_progress_batches_and_health(hub):
    batch = hub.begin_batch("test.batch", 4)
    hub.task_done(batch)
    hub.task_done(batch, ok=False)
    doc = hub.health_doc()
    assert doc["tasks"] == {"done": 2, "total": 4, "failed": 1}
    assert doc["status"] == "running"
    assert doc["eta_seconds"] is not None
    hub.task_done(batch)
    hub.task_done(batch)
    hub.end_batch(batch)
    doc = hub.health_doc()
    assert doc["tasks"]["done"] == 4
    assert doc["status"] == "done"
    assert doc["eta_seconds"] is None


def test_hub_merges_parent_registry_with_unretired_sources(hub):
    with telemetry.session() as tm:
        tm.inc("demo.counter", 10)
        tracker = DeltaTracker("w7")
        worker_tm = Telemetry()
        worker_tm.inc("demo.counter", 5)
        hub.apply_delta(tracker.capture(worker_tm, final=True))
        parsed = parse_exposition(hub.metrics_text())
        name = metric_name("demo.counter") + "_total"
        assert parsed[name] == 15.0
        assert [w["source"] for w in hub.health_doc()["workers"]] == ["w7"]
        # Simulate the pool's end-of-task merge + retire: no double count.
        tm.inc("demo.counter", 5)
        hub.retire_source("w7")
        parsed = parse_exposition(hub.metrics_text())
        assert parsed[name] == 15.0
        assert hub.health_doc()["workers"] == []


def test_health_reports_simulation_memo_hit_rate(hub):
    """/health carries the batched engine's epoch-memo hit rate."""
    with telemetry.session():
        simulator = DetailedGPUSimulator(HD4000, engine="batched")
        kernel, rng = build_tiny_kernel(), np.random.default_rng(0)
        for _ in range(6):
            simulator.simulate(kernel, {"iters": 4.0, "n": 64.0}, 64, rng)
        rates = hub.health_doc()["hit_rates"]
    hits = simulator.epoch_memo_hits
    assert hits > 0
    assert rates["simulation_memo"] == hits / (
        hits + simulator.epoch_memo_misses
    )


def test_retire_source_drops_lane_and_is_idempotent(hub):
    tracker = DeltaTracker("w1")
    worker_tm = Telemetry()
    worker_tm.inc("retire.counter", 7)
    hub.apply_delta(tracker.capture(worker_tm))
    assert [w["source"] for w in hub.health_doc()["workers"]] == ["w1"]
    hub.retire_source("w1")
    assert hub.health_doc()["workers"] == []
    name = metric_name("retire.counter") + "_total"
    assert name not in parse_exposition(hub.metrics_text())
    # Retiring again -- or a source never seen -- must be a no-op.
    hub.retire_source("w1")
    hub.retire_source("never-registered")
    assert hub.health_doc()["workers"] == []


def test_retired_sources_leave_no_shipped_events_behind(hub):
    """The hub keeps at most EVENT_TAIL WARN/ERROR records per unretired
    source -- not a final delta's full event list -- and none once the
    source retires (the parent's event log holds them then)."""
    for worker in range(4):
        tracker = DeltaTracker(f"w{worker}")
        worker_tm = Telemetry()
        worker_log = obs_events.EventLog()
        for i in range(3 * live.EVENT_TAIL):
            worker_log.debug("tail.chatter", i=i)
            worker_log.warn("tail.trouble", i=i)
            if i % 40 == 0:
                hub.apply_delta(tracker.capture(worker_tm, worker_log))
        hub.apply_delta(tracker.capture(worker_tm, worker_log, final=True))
    shipped = hub.accumulator.events()
    assert len(shipped) == 4 * live.EVENT_TAIL
    assert {record.name for record in shipped} == {"tail.trouble"}
    assert len(hub._recent_events(min_level="DEBUG")) == live.EVENT_TAIL
    for worker in range(4):
        hub.retire_source(f"w{worker}")
    assert hub.accumulator.events() == []
    assert hub._recent_events(min_level="DEBUG") == []


def test_recent_events_filter_by_level(hub):
    with obs_events.session() as log:
        log.debug("lane.debug", i=1)
        log.info("lane.info", i=2)
        log.warn("lane.warn", i=3)
        log.error("lane.error", i=4)
        default_tail = hub._recent_events()
        assert [e["name"] for e in default_tail] == [
            "lane.warn", "lane.error"
        ]
        everything = hub._recent_events(min_level="DEBUG")
        assert [e["name"] for e in everything] == [
            "lane.debug", "lane.info", "lane.warn", "lane.error"
        ]
        errors_only = hub._recent_events(min_level="ERROR")
        assert [e["name"] for e in errors_only] == ["lane.error"]


def test_recent_events_merge_shipped_worker_events(hub):
    # Worker-shipped events (via the delta side channel) merge with the
    # local log and dedup exactly; the level filter applies to local
    # records at read time.
    with obs_events.session() as log:
        log.warn("merge.local")
        tracker = DeltaTracker("w2")
        worker_tm = Telemetry()
        worker_log = obs_events.EventLog()
        worker_log.error("merge.shipped")
        hub.apply_delta(tracker.capture(worker_tm, log=worker_log))
        names = [e["name"] for e in hub._recent_events()]
    assert "merge.local" in names and "merge.shipped" in names


def test_min_level_filters_shipped_worker_records(hub):
    """The level floor applies to the workers' shipped WARN/ERROR tail
    exactly as to the parent's own records."""
    with obs_events.session() as log:
        worker_log = obs_events.EventLog()
        worker_log.warn("shipped.warn")
        worker_log.error("shipped.error")
        hub.apply_delta(
            DeltaTracker("w6").capture(Telemetry(), log=worker_log)
        )
        log.warn("local.warn")
        log.error("local.error")

        def tail(min_level):
            return sorted(
                f"{e['name']}:{e['level']}"
                for e in hub._recent_events(min_level=min_level)
            )

        assert tail("ERROR") == ["local.error:ERROR", "shipped.error:ERROR"]
        everything = [
            "local.error:ERROR", "local.warn:WARN",
            "shipped.error:ERROR", "shipped.warn:WARN",
        ]
        assert tail("WARN") == tail("DEBUG") == everything


def _recent_by_full_scan(hub, log, min_level):
    """The hub's event tail as it was read before ``EventLog.tail``:
    every local record at the level, merged with the shipped ones."""
    merged = {}
    for record in log.records(min_level=min_level) + hub.accumulator.events():
        key = (record.ts_unix, record.level, record.name, record.fields)
        merged[key] = record
    ordered = sorted(merged.values(), key=lambda r: r.ts_unix)
    return [r.to_json() for r in ordered[-live.EVENT_TAIL:]]


def test_scrapes_equal_a_full_scan_without_reading_the_ring(
    hub, monkeypatch
):
    """``/health`` and ``/events`` read the event log's newest records
    and its level counts, not every retained record, and still return
    what a full scan returns -- over a ring holding every level, parked
    incidents and out-of-order worker records not yet sorted."""
    from test_obs_events import _counts_by_scan, _incident_batches

    tracker = DeltaTracker("w5")
    worker_log = obs_events.EventLog()
    worker_log.error("shipped.incident")
    hub.apply_delta(tracker.capture(Telemetry(), log=worker_log))
    scanned = obs_events.EventLog(capacity=64)
    with obs_events.session(capacity=64) as log:
        for batch in _incident_batches():
            for target in (scanned, log):
                target.absorb(batch)
        want = {
            level: _recent_by_full_scan(hub, scanned, level)
            for level in ("WARN", "DEBUG")
        }
        counts = _counts_by_scan(scanned)

        def no_scan(*args, **kwargs):
            raise AssertionError("a scrape read every retained record")

        monkeypatch.setattr(obs_events.EventLog, "records", no_scan)
        doc = hub.health_doc()
        assert doc["events"]["counts"] == counts
        assert doc["events"]["recent"] == want["WARN"]
        assert hub._recent_events(min_level="DEBUG") == want["DEBUG"]
    assert "shipped.incident" in {e["name"] for e in want["WARN"]}


def test_disabled_hub_is_inert():
    assert live.get() is live.DISABLED_HUB
    assert not live.is_enabled()
    assert live.get().begin_batch("x", 3) == -1
    live.get().task_done(-1)
    live.get().retire_source("nope")


# -- the HTTP endpoint -------------------------------------------------------


def test_endpoint_serves_metrics_health_and_events(served_hub):
    with telemetry.session() as tm, obs_events.session() as log:
        tm.inc("endpoint.counter", 3)
        tm.observe_hist("endpoint.sizes", 7.0, "B")
        log.warn("endpoint.warned", k=2)
        served_hub.set_command("gtpin test")

        metrics = _get(served_hub, "/metrics")
        parsed = parse_exposition(metrics)
        assert parsed[metric_name("endpoint.counter") + "_total"] == 3.0
        assert parsed[metric_name("endpoint.sizes") + "_count"] == 1.0
        assert parsed[metric_name("endpoint.sizes") + "_min"] == 7.0
        assert metric_name("uptime_seconds") in metrics

        health = json.loads(_get(served_hub, "/health"))
        assert health["command"] == "gtpin test"
        assert health["events"]["counts"]["WARN"] == 1
        assert [e["name"] for e in health["events"]["recent"]] == [
            "endpoint.warned"
        ]

        events = json.loads(_get(served_hub, "/events"))
        assert [e["name"] for e in events] == ["endpoint.warned"]

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(served_hub, "/nope")
        assert err.value.code == 404


def test_endpoint_port_zero_binds_ephemeral(served_hub):
    assert served_hub.server.port > 0


def test_resolve_port_env(monkeypatch):
    monkeypatch.delenv(live.PORT_ENV, raising=False)
    assert live.resolve_port(None) is None
    assert live.resolve_port(9000) == 9000
    monkeypatch.setenv(live.PORT_ENV, "9100")
    assert live.resolve_port(None) == 9100
    monkeypatch.setenv(live.PORT_ENV, "nope")
    with pytest.raises(ValueError):
        live.resolve_port(None)


@pytest.mark.parametrize(
    "raw, seconds",
    [("", 0.5), ("0.2", 0.2), ("-3", 0.05), ("0", 0.05), ("inf", None),
     ("-inf", None), ("1e400", None), ("nan", None), ("abc", None)],
)
def test_heartbeat_interval_must_be_finite(monkeypatch, raw, seconds):
    monkeypatch.setenv(live.INTERVAL_ENV, raw)
    if seconds is not None:
        assert live.heartbeat_interval() == seconds
        return
    with pytest.raises(ValueError, match=live.INTERVAL_ENV):
        live.heartbeat_interval()


def _no_pool(*args, **kwargs):
    raise AssertionError("the pool must not start")


def test_bad_interval_raises_before_the_pool_starts(monkeypatch, hub):
    monkeypatch.setenv(live.INTERVAL_ENV, "inf")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    with telemetry.session():
        with pytest.raises(ValueError, match=live.INTERVAL_ENV):
            parallel_map(abs, [(-1,), (-2,)], jobs=2)
    assert "repro-heartbeat-drain" not in {
        thread.name for thread in threading.enumerate()
    }


# -- gtpin top ---------------------------------------------------------------


def _sample_health():
    return {
        "status": "running",
        "command": "gtpin explore demo",
        "uptime_seconds": 12.5,
        "tasks": {"done": 3, "total": 10, "failed": 1},
        "eta_seconds": 42.0,
        "instructions": {"total": 1.5e6, "per_second": 1.2e5},
        "hit_rates": {"gpu_cache": 0.82},
        "active_spans": [
            {"name": "sampling.explore", "category": "sampling",
             "seconds": 3.2},
        ],
        "workers": [
            {"source": "b0.t1", "task": "score[1]", "age_seconds": 0.4,
             "heartbeats": 7, "final": False},
        ],
        "events": {
            "counts": {"DEBUG": 0, "INFO": 4, "WARN": 2, "ERROR": 0},
            "dropped": 0,
            "recent": [
                {"ts_unix": 1700000000.0, "level": "WARN",
                 "name": "fault.injected", "span_id": 3, "site": "jit.build"},
            ],
        },
        "flags": ["fault.injected"],
        "faults_injected": 2,
    }


def test_render_top_is_pure_and_complete():
    frame = render_top(_sample_health())
    for expected in (
        "gtpin explore demo", "3/10", "eta 42s", "120.00k/s",
        "gpu_cache 82%", "b0.t1", "score[1]", "fault.injected",
        "faults injected: 2", "sampling.explore",
    ):
        assert expected in frame, expected
    assert "\x1b" not in frame  # frames carry no escapes; the loop does


def test_run_top_once_renders_live_endpoint(served_hub):
    with telemetry.session() as tm:
        tm.inc("gtpin.instrumented_instructions", 1000)
        served_hub.set_command("gtpin once")
        out = io.StringIO()
        status = run_top(
            port=served_hub.server.port, once=True, stream=out
        )
    assert status == 0
    assert "gtpin once" in out.getvalue()
    assert "\x1b" not in out.getvalue()


def test_run_top_once_unreachable_is_an_error():
    out = io.StringIO()
    status = run_top(port=1, once=True, stream=out)
    assert status == 1
    assert "unreachable" in out.getvalue()


def test_run_top_once_server_disconnect_is_one_line_error():
    """A server that accepts then hangs up raises RemoteDisconnected
    (an http.client.HTTPException, not OSError); --once must turn it
    into the same one-line error, never a traceback."""
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def accept_and_close():
        try:
            conn, _ = listener.accept()
            conn.close()
        except OSError:
            pass

    thread = threading.Thread(target=accept_and_close, daemon=True)
    thread.start()
    try:
        out = io.StringIO()
        status = run_top(port=port, once=True, stream=out)
    finally:
        listener.close()
        thread.join(timeout=5)
    assert status == 1
    text = out.getvalue()
    assert "unreachable" in text
    assert len(text.strip().splitlines()) == 1
    assert "Traceback" not in text


# -- end-to-end: jobs=2 sweep under faults vs the endpoint -------------------

FAULT_SPEC = "seed=11;event.lost=0.4;trace.truncate=0.4"


def _profile_under_faults(app_name, scale, spec):
    app = load_app(app_name, scale=scale)
    with faults.session(FaultPlan.parse(spec)):
        workload = profile_workload(app, HD4000, 0)
    return workload.health.flags


@pytest.mark.slow
def test_endpoint_totals_match_merged_telemetry_under_parallel_faults():
    tasks = [
        ("cb-gaussian-buffer", 0.1, FAULT_SPEC),
        ("cb-gaussian-image", 0.1, FAULT_SPEC),
    ]
    with telemetry.session() as tm, obs_events.session() as log:
        hub = live.enable(port=0)
        try:
            outcomes = parallel_map(
                _profile_under_faults, tasks, jobs=2, label="live.fanout"
            )
            assert all(o.ok for o in outcomes), [o.error for o in outcomes]
            assert any(o.value for o in outcomes), "no degradation flags"

            parsed = parse_exposition(_get(hub, "/metrics"))
            health = json.loads(_get(hub, "/health"))
        finally:
            live.disable()

        # Acceptance: scraped totals equal merged telemetry EXACTLY.
        for name, counter in tm.counters.counters.items():
            metric = metric_name(name) + "_total"
            assert parsed[metric] == counter.value, name
        for name, hist in tm.counters.histograms.items():
            assert parsed[metric_name(name) + "_count"] == hist.count, name
            assert parsed[metric_name(name) + "_sum"] == hist.total, name
            assert parsed[metric_name(name) + "_min"] == hist.minimum, name
            assert parsed[metric_name(name) + "_max"] == hist.maximum, name

        assert health["tasks"] == {"done": 2, "total": 2, "failed": 0}
        instructions = tm.counter_value(
            "gtpin.instrumented_instructions"
        ) + tm.counter_value("simulation.stepped_instructions")
        assert health["instructions"]["total"] == instructions
        assert health["instructions"]["per_second"] > 0

        # Fault incidents that crossed the process boundary are visible.
        warn_count = len(
            [r for r in log.records() if r.name == "fault.injected"]
        )
        assert warn_count
        assert health["events"]["counts"]["WARN"] >= warn_count
