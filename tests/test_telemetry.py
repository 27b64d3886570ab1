"""repro.telemetry: spans, counters, registry, and exporters."""

import json
import threading
import time

import pytest

from repro import telemetry


@pytest.fixture
def tm():
    """A fresh enabled registry, always restored to disabled afterwards."""
    registry = telemetry.enable()
    yield registry
    telemetry.disable()


# -- spans -------------------------------------------------------------------


def test_span_nesting_parents_and_depth(tm):
    with tm.span("outer", category="t") as outer:
        with tm.span("middle") as middle:
            with tm.span("inner") as inner:
                pass
    spans = {s.name: s for s in tm.spans()}
    assert spans["outer"].parent_id is None
    assert spans["middle"].parent_id == spans["outer"].span_id
    assert spans["inner"].parent_id == spans["middle"].span_id
    assert (spans["outer"].depth, spans["middle"].depth,
            spans["inner"].depth) == (0, 1, 2)
    assert outer.span_id != middle.span_id != inner.span_id


def test_span_timestamps_are_ordered_and_contained(tm):
    with tm.span("outer"):
        with tm.span("inner"):
            time.sleep(0.001)
    spans = {s.name: s for s in tm.spans()}
    outer, inner = spans["outer"], spans["inner"]
    assert outer.start_ns <= inner.start_ns
    assert inner.end_ns <= outer.end_ns
    assert inner.duration_ns > 0
    assert outer.duration_seconds >= inner.duration_seconds


def test_sibling_spans_share_parent_in_order(tm):
    with tm.span("parent") as parent:
        with tm.span("first"):
            pass
        with tm.span("second"):
            pass
    records = [s for s in tm.spans() if s.parent_id == parent.span_id]
    assert [s.name for s in records] == ["first", "second"]
    assert records[0].start_ns <= records[1].start_ns


def test_span_annotate_and_error_marking(tm):
    with pytest.raises(ValueError):
        with tm.span("failing", category="t", app="x") as span:
            span.annotate(items=3)
            raise ValueError("boom")
    (record,) = tm.spans()
    assert record.args["app"] == "x"
    assert record.args["items"] == 3
    assert record.args["error"] == "ValueError"


def test_traced_decorator_respects_activation():
    @telemetry.traced(category="t")
    def workload():
        return 41 + 1

    assert workload() == 42          # disabled: no registry, still works
    registry = telemetry.enable()
    try:
        assert workload() == 42
        names = [s.name for s in registry.spans()]
        assert len(names) == 1 and names[0].endswith("workload")
    finally:
        telemetry.disable()


def test_spans_on_other_threads_form_their_own_trees(tm):
    done = threading.Event()

    def worker():
        with tm.span("thread-root"):
            with tm.span("thread-child"):
                pass
        done.set()

    with tm.span("main-root"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert done.wait(1)
    spans = {s.name: s for s in tm.spans()}
    # The worker's root must NOT be parented under the main thread's span.
    assert spans["thread-root"].parent_id is None
    assert spans["thread-child"].parent_id == spans["thread-root"].span_id
    assert spans["thread-root"].thread_id != spans["main-root"].thread_id


# -- counters ----------------------------------------------------------------


def test_counter_accumulation(tm):
    tm.inc("events")
    tm.inc("events", 4)
    tm.inc("bytes", 2.5)
    assert tm.counter_value("events") == 5
    assert tm.counter_value("bytes") == 2.5
    assert tm.counter_value("never-touched") == 0.0


def test_counter_sample_trail_is_bounded(tm):
    from repro.telemetry.counters import MAX_SAMPLES

    counter = tm.counters.counter("hot")
    for _ in range(4 * MAX_SAMPLES):
        counter.inc()
    assert counter.value == 4 * MAX_SAMPLES  # values stay exact
    assert len(counter.samples) <= MAX_SAMPLES + 1  # trail stays bounded


# -- disabled mode -----------------------------------------------------------


def test_disabled_is_the_default_and_a_noop():
    assert telemetry.get() is telemetry.DISABLED
    assert not telemetry.is_enabled()
    tm = telemetry.get()
    # span() returns the shared NullSpan: no allocation, no recording.
    span = tm.span("anything", category="x", cost=1)
    assert span is telemetry.NULL_SPAN
    with span:
        tm.inc("counter", 100)
    assert tm.spans() == []
    assert tm.counter_value("counter") == 0.0


def test_disabled_timed_still_measures_wall_time():
    tm = telemetry.get()
    assert not tm.enabled
    with tm.timed("work") as timer:
        time.sleep(0.002)
    assert timer.duration_seconds >= 0.001
    assert tm.spans() == []  # measured, not recorded


def test_enable_disable_roundtrip_and_session():
    registry = telemetry.enable()
    assert telemetry.get() is registry
    telemetry.disable()
    assert telemetry.get() is telemetry.DISABLED
    with telemetry.session() as tm:
        assert telemetry.get() is tm
        with tm.span("inside"):
            pass
        assert len(tm.spans()) == 1
    assert telemetry.get() is telemetry.DISABLED


def test_disabled_overhead_smoke():
    """The zero-overhead contract: a disabled span + counter op must cost
    on the order of a function call.  200k iterations of both together
    should finish orders of magnitude under the (very generous) bound."""
    tm = telemetry.get()
    assert not tm.enabled
    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        with tm.span("hot"):
            tm.inc("hot.counter")
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"disabled-mode overhead too high: {elapsed:.3f}s"
    per_op_us = elapsed / iterations * 1e6
    assert per_op_us < 10.0, f"{per_op_us:.2f}us per disabled span+inc"


# -- exporters ---------------------------------------------------------------


def _populated_registry():
    registry = telemetry.enable()
    with registry.span("root", category="cli", app="demo"):
        with registry.span("child", category="gtpin"):
            registry.inc("gtpin.records", 3)
    return registry


def test_chrome_trace_is_wellformed_json():
    registry = _populated_registry()
    try:
        trace = telemetry.to_chrome_trace(registry)
        parsed = json.loads(json.dumps(trace))  # round-trips cleanly
    finally:
        telemetry.disable()
    events = parsed["traceEvents"]
    span_events = [e for e in events if e["ph"] == "X"]
    counter_events = [e for e in events if e["ph"] == "C"]
    assert {e["name"] for e in span_events} == {"root", "child"}
    assert counter_events, "counters must export as 'C' events"
    for event in span_events:
        for field in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            assert field in event
        assert event["ts"] >= 0
        assert event["dur"] >= 0
    for event in counter_events:
        for field in ("name", "ph", "ts", "pid", "tid", "args"):
            assert field in event


def test_chrome_trace_nesting_survives_export():
    registry = _populated_registry()
    try:
        events = telemetry.chrome_trace_events(registry)
    finally:
        telemetry.disable()
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    root, child = by_name["root"], by_name["child"]
    assert root["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3
    assert root["tid"] == child["tid"]


def test_write_chrome_trace_and_jsonl(tmp_path):
    registry = _populated_registry()
    try:
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "events.jsonl"
        telemetry.write_chrome_trace(registry, str(trace_path))
        telemetry.write_jsonl(registry, str(jsonl_path))
    finally:
        telemetry.disable()
    data = json.loads(trace_path.read_text())
    assert data["traceEvents"]
    lines = jsonl_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert {r["type"] for r in records} >= {"span", "counter"}
    spans = [r for r in records if r["type"] == "span"]
    assert {s["name"] for s in spans} == {"root", "child"}


def test_exported_args_are_json_safe():
    registry = telemetry.enable()
    try:
        with registry.span("s", payload=object(), n=1, ok=True, label="x"):
            pass
        events = telemetry.chrome_trace_events(registry)
    finally:
        telemetry.disable()
    (span,) = [e for e in events if e["ph"] == "X"]
    json.dumps(span)  # must not raise
    assert span["args"]["n"] == 1
    assert isinstance(span["args"]["payload"], str)


def test_span_tree_summary_aggregates_siblings():
    registry = telemetry.enable()
    try:
        with registry.span("outer"):
            for _ in range(3):
                with registry.span("repeated"):
                    pass
        summary = telemetry.span_tree_summary(registry)
        counters = telemetry.counters_summary(registry)
    finally:
        telemetry.disable()
    assert "outer" in summary
    assert "repeated x3" in summary
    assert "ms" in summary
    assert counters == "counters: (none)"


def test_counters_summary_lists_values():
    registry = telemetry.enable()
    try:
        registry.inc("a.count", 7)
        text = telemetry.counters_summary(registry)
    finally:
        telemetry.disable()
    assert "a.count" in text and "7" in text


# -- instrumented stack (unit level) ----------------------------------------


def test_profiling_stack_emits_spans_and_counters():
    from repro.gtpin.profiler import profile
    from repro.opencl.api import CallCategory
    from repro.sampling import profile_workload
    from repro.workloads import load_app

    app = load_app("cb-gaussian-image", scale=0.5)
    with telemetry.session() as tm:
        profile(app)
        names = {s.name for s in tm.spans()}
        assert "gtpin.profile" in names
        assert "runtime.run" in names
        assert "gtpin.post_process" in names
        assert any(n.startswith("gtpin.tool.") for n in names)
        assert tm.counter_value("opencl.api_calls") > 0
        assert tm.counter_value("gtpin.trace_buffer.records") > 0
        assert tm.counter_value("gtpin.trace_buffer.drains") >= 1
        assert tm.counter_value("gtpin.instrumented_instructions") > 0

    # A cold profile runs the host program twice (CoFluent record, then
    # GT-Pin profile).  Its spans are stages and dispatches; API calls
    # are only counted, per category.
    calls = app.host_program.calls
    counts = app.host_program.category_counts()
    with telemetry.session() as tm:
        profile_workload(app, trial_seed=5)
        spans = tm.spans()
        assert not [s for s in spans if s.name.startswith("api.")]
        dispatches = tm.counter_value("opencl.dispatches")
        assert dispatches > 0
        assert len(spans) <= dispatches + 16
        assert tm.counter_value("opencl.api_calls") == 2 * len(calls)
        assert tm.counter_value("opencl.kernel_enqueues") == (
            2 * counts[CallCategory.KERNEL]
        )
        assert tm.counter_value("opencl.sync_calls") == (
            2 * counts[CallCategory.SYNCHRONIZATION]
        )

    # The registry ``gtpin trace`` uses brings back the per-call timeline:
    # a span per API call under runtime.run, and each flush's dispatches
    # under the sync call that flushed them.
    tm = telemetry.enable(calls=True)
    try:
        profile_workload(app, trial_seed=5)
    finally:
        telemetry.disable()
    spans = tm.spans()
    by_id = {s.span_id: s for s in spans}
    api = [s for s in spans if s.name.startswith("api.")]
    assert len(api) == 2 * len(calls)
    assert {by_id[s.parent_id].name for s in api} == {"runtime.run"}
    sync_names = {f"api.{c.name}" for c in calls if c.is_synchronization}
    kernels = [s for s in spans if s.name.startswith("kernel.")]
    assert len(kernels) == dispatches
    for span in kernels:
        parent = by_id[span.parent_id]
        if parent.name == "runtime.run":
            # Work left after the last sync flushes at the run's end.
            assert span.args["sync_epoch"] == (
                counts[CallCategory.SYNCHRONIZATION]
            )
        else:
            assert parent.name in sync_names
            assert by_id[parent.parent_id].name == "runtime.run"


def test_disabled_profiling_identical_results():
    """Telemetry off (default) must not change behaviour: the same seed
    yields bit-identical reports with capture on and off."""
    from repro.gtpin.profiler import profile
    from repro.workloads import load_app

    app = load_app("cb-gaussian-image", scale=0.5)
    plain = profile(app, trial_seed=3)
    with telemetry.session():
        captured = profile(app, trial_seed=3)
    assert plain.run.total_instructions == captured.run.total_instructions
    assert plain.report.record_count == captured.report.record_count
    assert (
        plain.report["opcode_mix"].dynamic_fractions()
        == captured.report["opcode_mix"].dynamic_fractions()
    )
