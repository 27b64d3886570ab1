"""Trace propagation and the run ledger: context, ids, ledger, CLI, e2e.

The observability contract under test: one serve job yields *one*
trace whose spans cross four execution domains (client process, daemon
queue, worker subprocess, simulation engine), and every run leaves a
durable record in the SQLite ledger that survives a daemon restart.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.obs.ledger import (
    DEFAULT_LEDGER_NAME,
    RunLedger,
    RunRecord,
    render_diff,
    render_run,
    render_runs_table,
    resolve_ledger_path,
)
from repro.telemetry import context as trace_context
from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import SpanRecord

# -- W3C traceparent context -------------------------------------------------


def test_traceparent_roundtrip_preserves_ids():
    trace_id = trace_context.new_trace_id()
    header = trace_context.format_traceparent(trace_id, 0xDEAD_BEEF)
    ctx = trace_context.parse_traceparent(header)
    assert ctx is not None
    assert ctx.trace_id == trace_id
    assert ctx.parent_span_id == 0xDEAD_BEEF


def test_traceparent_zero_parent_means_no_parent():
    trace_id = trace_context.new_trace_id()
    header = trace_context.format_traceparent(trace_id, None)
    assert header.endswith("-0000000000000000-01")
    ctx = trace_context.parse_traceparent(header)
    assert ctx is not None
    assert ctx.parent_span_id is None


@pytest.mark.parametrize(
    "header",
    [
        "",
        "garbage",
        "00-zz-11-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 31 + "-" + "1" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "1" * 15 + "-01",  # short parent
        "ff-" + "a" * 32 + "-" + "1" * 16 + "-01",  # forbidden version
    ],
)
def test_traceparent_rejects_malformed(header):
    assert trace_context.parse_traceparent(header) is None


_HEX = "0123456789abcdefABCDEF"


def _hex_field(size: int):
    """A field of the right width four times in five, else a near miss."""
    return st.integers(0, 4).flatmap(
        lambda i: st.text(_HEX, min_size=size, max_size=size) if i else
        st.text(_HEX + "-g", min_size=size - 1, max_size=size + 1)
    )


@settings(max_examples=300, deadline=None)
@given(
    header=st.builds(
        "{}{}-{}-{}-{}{}".format,
        st.sampled_from(["", " "]),
        st.sampled_from(["00", "ff", "FF", "01", "fe"]) | _hex_field(2),
        st.just("0" * 32) | _hex_field(32),
        st.just("0" * 16) | _hex_field(16),
        _hex_field(2),
        st.sampled_from(["", "\n"]),
    )
    | st.text(max_size=64)
)
def test_traceparent_parses_and_round_trips_or_returns_none(header):
    ctx = trace_context.parse_traceparent(header)
    if ctx is None:
        return
    assert not header.strip().lower().startswith("ff-")
    wire = trace_context.format_traceparent(ctx.trace_id, ctx.parent_span_id)
    assert trace_context.parse_traceparent(wire) == ctx


def test_traceparent_parse_is_case_insensitive():
    header = "00-" + "AB" * 16 + "-" + "0F" * 8 + "-01"
    ctx = trace_context.parse_traceparent(header)
    assert ctx is not None
    assert ctx.trace_id == "ab" * 16


def test_activate_nests_and_restores():
    assert trace_context.current() is None
    outer = trace_context.TraceContext(trace_context.new_trace_id(), 1)
    inner = trace_context.TraceContext(trace_context.new_trace_id(), 2)
    with trace_context.activate(outer):
        assert trace_context.current() is outer
        with trace_context.activate(None):  # no-op passthrough
            assert trace_context.current() is outer
        with trace_context.activate(inner):
            assert trace_context.current() is inner
        assert trace_context.current() is outer
    assert trace_context.current() is None


def test_root_spans_join_the_active_context():
    with telemetry.session() as tm:
        ctx = trace_context.TraceContext(
            trace_context.new_trace_id(), parent_span_id=424242
        )
        with trace_context.activate(ctx):
            with tm.span("outer") as outer:
                assert outer.trace_id == ctx.trace_id
                with tm.span("inner") as nested:
                    # Nested spans inherit from their parent span, not
                    # the thread context.
                    assert nested.trace_id == ctx.trace_id
        records = {s.name: s for s in tm.spans()}
    assert records["outer"].parent_id == 424242
    assert records["outer"].trace_id == ctx.trace_id
    assert records["inner"].parent_id == records["outer"].span_id


# -- span-id namespaces: cross-process merge without remapping ---------------


def test_span_ids_share_a_random_high_word_per_collector():
    tm = Telemetry()
    first = tm.allocate_span_id()
    ids = [first] + [tm.allocate_span_id() for _ in range(10)]
    assert all(b - a == 1 for a, b in zip(ids, ids[1:]))
    assert first >> 32, "high word must be a nonzero random base"
    assert all(i < 2**63 for i in ids), "ids must stay signed-int64 safe"


def test_span_id_namespaces_are_disjoint_across_registries():
    # Each collector draws a random 31-bit base; five fresh registries
    # colliding is a ~1e-8 event, so disjointness is effectively law.
    bases = {Telemetry().allocate_span_id() >> 32 for _ in range(5)}
    assert len(bases) == 5


def test_cross_registry_parent_edges_survive_without_remapping():
    # A "worker" registry records spans under a parent id handed over
    # from the "main" registry; because ids are globally unique, the
    # edge is stored verbatim and the assembled trace parents cleanly.
    main_tm = Telemetry()
    with main_tm.span("serve.job") as job:
        handoff = trace_context.TraceContext(job.trace_id, job.span_id)
    worker_tm = Telemetry()
    with trace_context.activate(handoff):
        with worker_tm.span("worker.task"):
            pass
    (worker_span,) = worker_tm.spans()
    (job_span,) = main_tm.spans()
    assert worker_span.parent_id == job_span.span_id
    assert worker_span.trace_id == job_span.trace_id
    combined = [job_span, worker_span]
    tree = telemetry.trace_tree_summary(combined, job_span.trace_id)
    assert "serve.job" in tree and "worker.task" in tree
    # worker.task must render indented under serve.job, not as a root.
    job_line = next(l for l in tree.splitlines() if "serve.job" in l)
    task_line = next(l for l in tree.splitlines() if "worker.task" in l)
    indent = lambda l: len(l) - len(l.lstrip())  # noqa: E731
    assert indent(task_line) > indent(job_line)


def test_spans_for_trace_equals_a_scan_in_completion_order():
    # Interleave two traces, untraced spans, a synthesized span and a
    # worker's merged spans: the per-trace index must hold exactly what
    # a scan of every retained span finds, in the same order.
    from repro.telemetry.snapshot import DeltaTracker, merge_delta

    tm = Telemetry()
    ctx_a = trace_context.TraceContext(trace_context.new_trace_id(), 7)
    ctx_b = trace_context.TraceContext(trace_context.new_trace_id(), 8)
    worker = Telemetry()
    for round_ in range(3):
        with tm.span("untraced"):
            pass
        for ctx in (ctx_a, ctx_b):
            with trace_context.activate(ctx):
                with tm.span("job", round=round_):
                    with tm.span("stage"):
                        pass
                with worker.span("worker.task", round=round_):
                    pass
    tm.record_span(SpanRecord(
        span_id=tm.allocate_span_id(), parent_id=7, name="serve.queue",
        category="serve", start_ns=0, end_ns=1, thread_id=1, depth=0,
        args={}, trace_id=ctx_a.trace_id,
    ))
    merge_delta(tm, DeltaTracker("w").capture(worker, final=True))
    with tm.span("untraced.last"):
        pass

    everything = tm.spans()
    for ctx in (ctx_a, ctx_b):
        indexed = tm.spans_for_trace(ctx.trace_id)
        assert indexed == [
            s for s in everything if s.trace_id == ctx.trace_id
        ]
        assert [s.name for s in indexed].count("worker.task") == 3
    assert "serve.queue" in {
        s.name for s in tm.spans_for_trace(ctx_a.trace_id)
    }
    assert tm.spans_for_trace(trace_context.new_trace_id()) == []
    assert tm.spans_for_trace("") == []
    # A returned list is a copy: appending to it leaves the index alone.
    tm.spans_for_trace(ctx_b.trace_id).append(everything[0])
    assert len(tm.spans_for_trace(ctx_b.trace_id)) == 9


# -- the run ledger ----------------------------------------------------------


def _record(command="profile", **overrides):
    base = dict(
        command=command,
        trace_id=trace_context.new_trace_id(),
        app="cb-gaussian-buffer",
        kind="profile",
        device="HD4000",
        engine="batched",
        status="ok",
        started_unix=1_700_000_000.0,
        duration_seconds=1.5,
        health_flags=(),
        counters={"gtpin.records": 100.0},
        quantiles={"serve.job_seconds": {"p50": 1.0, "p99": 2.0}},
    )
    base.update(overrides)
    return RunRecord(**base)


def test_ledger_records_and_reads_back(tmp_path):
    ledger = RunLedger(tmp_path / "runs.sqlite")
    rid = ledger.record_run(_record())
    assert rid == 1
    record = ledger.run(rid)
    assert record.command == "profile"
    assert record.counters == {"gtpin.records": 100.0}
    assert record.quantiles["serve.job_seconds"]["p99"] == 2.0
    metrics = record.metrics()
    assert metrics["serve.job_seconds/p99"] == 2.0
    assert metrics["duration_seconds"] == 1.5
    with pytest.raises(KeyError):
        ledger.run(999)


def test_ledger_runs_are_newest_first(tmp_path):
    ledger = RunLedger(tmp_path / "runs.sqlite")
    for seconds in (1.0, 2.0, 3.0):
        ledger.record_run(_record(duration_seconds=seconds))
    listed = ledger.runs(limit=2)
    assert [r.duration_seconds for r in listed] == [3.0, 2.0]
    pair = ledger.latest_pair(command="profile")
    assert pair is not None
    older, newer = pair
    assert (older.duration_seconds, newer.duration_seconds) == (2.0, 3.0)
    assert ledger.latest_pair(command="serve") is None


def test_ledger_survives_reopen_like_a_daemon_restart(tmp_path):
    path = tmp_path / "runs.sqlite"
    first = RunLedger(path)
    a = first.record_run(_record(duration_seconds=1.0))
    del first
    # A daemon restart constructs a brand-new RunLedger on the same
    # file; prior runs must be visible and diffable against new ones.
    reopened = RunLedger(path)
    assert [r.id for r in reopened.runs()] == [a]
    b = reopened.record_run(
        _record(duration_seconds=3.0, health_flags=("event.lost",))
    )
    diff = reopened.diff(a, b)
    assert diff["health_changed"]
    deltas = {name: delta for name, _, _, delta, _ in diff["deltas"]}
    assert deltas["duration_seconds"] == 2.0


def test_ledger_diff_reports_ratio_and_one_sided_metrics(tmp_path):
    ledger = RunLedger(tmp_path / "runs.sqlite")
    a = ledger.record_run(_record(counters={"zeroed": 0.0, "shared": 2.0}))
    b = ledger.record_run(_record(counters={"shared": 4.0, "fresh": 1.0}))
    diff = ledger.diff(a, b)
    by_name = {name: (va, vb, delta, ratio)
               for name, va, vb, delta, ratio in diff["deltas"]}
    assert by_name["shared"] == (2.0, 4.0, 2.0, 2.0)
    assert diff["only_a"] == ["zeroed"]
    assert diff["only_b"] == ["fresh"]
    rendered = render_diff(diff)
    assert "shared: 2 -> 4" in rendered
    assert "(x2.000)" in rendered
    assert "only in b: fresh" in rendered


def test_ledger_render_helpers(tmp_path):
    assert "ledger is empty" in render_runs_table([])
    ledger = RunLedger(tmp_path / "runs.sqlite")
    rid = ledger.record_run(_record())
    record = ledger.run(rid)
    table = render_runs_table([record])
    assert "profile" in table and record.trace_id[:16] in table
    shown = render_run(record)
    assert record.trace_id in shown
    assert "gtpin.records = 100" in shown
    same = ledger.diff(rid, rid)
    assert "no metric changed" in render_diff(same)


def test_ledger_span_roundtrip_assembles_the_tree(tmp_path):
    ledger = RunLedger(tmp_path / "runs.sqlite")
    trace_id = trace_context.new_trace_id()
    spans = [
        SpanRecord(
            span_id=10, parent_id=None, name="serve.client.submit",
            category="serve", start_ns=1_000_000, end_ns=9_000_000,
            thread_id=1, depth=0, args={}, trace_id=trace_id,
        ),
        SpanRecord(
            span_id=11, parent_id=10, name="serve.queue.job",
            category="serve", start_ns=2_000_000, end_ns=8_000_000,
            thread_id=1, depth=1, args={"job": "j-1"}, trace_id=trace_id,
        ),
        SpanRecord(
            span_id=12, parent_id=11, name="simulation.epoch_counts.task",
            category="simulation", start_ns=3_000_000, end_ns=4_000_000,
            thread_id=-7, depth=0, args={}, trace_id=trace_id,
        ),
    ]
    # Identity clock mapping: pretend perf_ns already is unix ns.
    assert ledger.record_spans(trace_id, spans, lambda ns: ns / 1e9) == 3
    back = ledger.trace(trace_id)
    assert [s.name for s in back] == [
        "serve.client.submit", "serve.queue.job",
        "simulation.epoch_counts.task",
    ]
    assert back[1].parent_id == 10
    assert back[2].thread_id == -7
    assert back[1].args == {"job": "j-1"}
    tree = telemetry.trace_tree_summary(back, trace_id)
    assert "1 worker lanes" in tree
    chrome = telemetry.trace_chrome_trace(back, trace_id)
    names = {e["name"] for e in chrome["traceEvents"]}
    assert "serve.queue.job" in names
    assert chrome["otherData"]["trace_id"] == trace_id
    # Re-recording the same spans is idempotent, not duplicating.
    ledger.record_spans(trace_id, spans, lambda ns: ns / 1e9)
    assert len(ledger.trace(trace_id)) == 3
    assert ledger.trace_ids() == []  # no runs reference the trace yet


def test_resolve_ledger_path_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    assert resolve_ledger_path(None) is None
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.sqlite"))
    assert resolve_ledger_path(None) == tmp_path / "env.sqlite"
    explicit = tmp_path / "flag.sqlite"
    assert resolve_ledger_path(str(explicit)) == explicit
    assert (
        resolve_ledger_path(str(tmp_path))
        == tmp_path / DEFAULT_LEDGER_NAME
    )


# -- the gtpin runs / gtpin trace show CLI -----------------------------------


@pytest.fixture
def cli_ledger(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    path = tmp_path / "runs.sqlite"
    ledger = RunLedger(path)
    return path, ledger


def test_cli_runs_list_show_diff(cli_ledger, capsys):
    path, ledger = cli_ledger
    a = ledger.record_run(_record(duration_seconds=1.0))
    b = ledger.record_run(_record(duration_seconds=4.0))
    assert main(["runs", "list", "--ledger", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"{a}" in out and f"{b}" in out
    assert main(["runs", "show", str(a), "--ledger", str(path)]) == 0
    assert "cb-gaussian-buffer" in capsys.readouterr().out
    assert main(["runs", "diff", str(a), str(b),
                 "--ledger", str(path)]) == 0
    assert "duration_seconds: 1 -> 4" in capsys.readouterr().out


def test_cli_runs_error_exits(cli_ledger, capsys):
    path, _ = cli_ledger
    assert main(["runs", "list"]) == 2  # no ledger configured
    assert "no ledger configured" in capsys.readouterr().err
    assert main(["runs", "show", "--ledger", str(path)]) == 2
    assert main(["runs", "show", "7", "--ledger", str(path)]) == 1
    assert "no run 7" in capsys.readouterr().err
    assert main(["runs", "diff", "1", "--ledger", str(path)]) == 2


def test_cli_runs_reads_ledger_from_env(cli_ledger, monkeypatch, capsys):
    path, ledger = cli_ledger
    ledger.record_run(_record())
    monkeypatch.setenv("REPRO_LEDGER", str(path))
    assert main(["runs", "list"]) == 0
    assert "profile" in capsys.readouterr().out


def test_cli_trace_show_renders_and_exports(cli_ledger, tmp_path, capsys):
    path, ledger = cli_ledger
    trace_id = trace_context.new_trace_id()
    span = SpanRecord(
        span_id=1, parent_id=None, name="serve.job", category="serve",
        start_ns=0, end_ns=5_000_000, thread_id=1, depth=0, args={},
        trace_id=trace_id,
    )
    ledger.record_spans(trace_id, [span], lambda ns: ns / 1e9)
    out_json = tmp_path / "assembled.json"
    assert main([
        "trace", "show", trace_id,
        "--ledger", str(path), "--out", str(out_json),
    ]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "serve.job" in out
    trace_doc = json.loads(out_json.read_text())
    assert any(
        e.get("name") == "serve.job" for e in trace_doc["traceEvents"]
    )


def test_cli_trace_show_error_exits(cli_ledger, capsys):
    path, _ = cli_ledger
    assert main(["trace", "show", "--ledger", str(path)]) == 2
    assert "missing <trace_id>" in capsys.readouterr().err
    assert main(["trace", "show", "feed" * 8, "--ledger", str(path)]) == 1
    assert "no spans recorded" in capsys.readouterr().err
    assert main(["trace", "not-an-app"]) == 2


# -- end to end: one serve job, one trace, four domains ----------------------


def _domains(spans):
    names = {s.name for s in spans}
    return {
        "client": "serve.client.submit" in names,
        "queue": "serve.queue.job" in names,
        "worker": any(s.thread_id < 0 for s in spans),
        "simulation": any(s.category == "simulation" for s in spans),
    }


@pytest.mark.slow
def test_serve_job_assembles_one_four_domain_trace(tmp_path, monkeypatch):
    from repro.serve import ServeClient, ServeDaemon

    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    path = tmp_path / "runs.sqlite"
    daemon = ServeDaemon(
        port=0, workers=1, capacity=4, sim_engine="batched",
        ledger=RunLedger(path),
    )
    with telemetry.session():
        daemon.start()
        try:
            client = ServeClient(daemon.port, timeout=60.0)
            view = client.run(
                "simulate", "cb-throughput-ao", scale=0.2, jobs=2,
                timeout=180.0,
            )
        finally:
            daemon.stop()
    assert view["state"] == "done"
    trace_id = view["trace_id"]
    assert trace_id and len(trace_id) == 32

    # The daemon recorded exactly one run for the job, and the job's
    # spans assembled under exactly one trace id across all domains.
    ledger = RunLedger(path)  # fresh handle == post-restart read
    (record,) = ledger.runs()
    assert record.command == "serve"
    assert record.kind == "simulate"
    assert record.trace_id == trace_id
    assert record.status == "done"

    spans = ledger.trace(trace_id)
    assert spans, "ledger must persist the trace's spans"
    assert {s.trace_id for s in spans} == {trace_id}
    domains = _domains(spans)
    assert all(domains.values()), f"missing domains: {domains}"

    tree = telemetry.trace_tree_summary(spans, trace_id)
    assert "serve.client.submit" in tree
    assert "serve.queue.job" in tree
    assert "worker lanes" in tree


@pytest.mark.slow
def test_serve_runs_diff_after_restart(tmp_path, monkeypatch):
    """Two serve jobs across a daemon restart diff through the ledger."""
    from repro.serve import ServeClient, ServeDaemon

    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    path = tmp_path / "runs.sqlite"

    def one_job(seed):
        daemon = ServeDaemon(
            port=0, workers=1, capacity=4, ledger=RunLedger(path)
        )
        daemon.start()
        try:
            client = ServeClient(daemon.port, timeout=60.0)
            view = client.run(
                "select", "cb-gaussian-buffer", scale=0.2, seed=seed,
                timeout=120.0,
            )
            assert view["state"] == "done"
        finally:
            daemon.stop()

    one_job(1)
    one_job(2)  # a different daemon process-equivalent: fresh RunLedger
    ledger = RunLedger(path)
    runs = ledger.runs()
    assert len(runs) == 2
    assert {r.command for r in runs} == {"serve"}
    pair = ledger.latest_pair(command="serve")
    assert pair is not None
    diff = ledger.diff(pair[0].id, pair[1].id)
    assert render_diff(diff).startswith("runs diff:")
