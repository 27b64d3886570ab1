"""repro.obs.report: the self-contained HTML run report."""

import re
import time
import types

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.faults.health import HEALTHY, ProfileHealth
from repro.gpu.device import HD4000
from repro.obs import events as obs_events
from repro.obs import report
from repro.obs.report import render_report, write_report
from repro.simulation.detailed import DetailedGPUSimulator

from conftest import build_tiny_kernel


@pytest.fixture
def tm():
    registry = telemetry.enable()
    yield registry
    telemetry.disable()


@pytest.fixture
def log():
    active = obs_events.enable()
    yield active
    obs_events.disable()


def _recorded(tm, log):
    with tm.span("root", category="cli"):
        with tm.span("work", category="sampling"):
            tm.inc("demo.counter", 7)
            for v in (0.001, 0.004, 0.016, 0.064):
                tm.observe_hist("demo.latency_seconds", v, "s")
            log.info("demo.started", app="x")
            log.warn("fault.injected", site="jit.build", ordinal=0)


def test_report_is_self_contained_html(tm, log):
    _recorded(tm, log)
    html = render_report(tm, log=log, title="unit test <run>")
    assert html.startswith("<!DOCTYPE html>")
    assert html.rstrip().endswith("</html>")
    # Self-contained: no external fetches of any kind.
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html
    assert "unit test &lt;run&gt;" in html  # titles are escaped


def test_report_sections_cover_run_state(tm, log):
    _recorded(tm, log)
    html = render_report(tm, log=log)
    assert "Span timeline" in html and "<svg" in html and "<rect" in html
    assert "demo.latency_seconds" in html
    for column in ("p50", "p90", "p99"):
        assert column in html
    assert "demo.counter" in html
    assert "Faults and health" in html
    assert "fault.injected" in html  # WARN incidents are listed
    assert "Event log" in html


def test_report_shows_simulation_memo_hit_rate(tm):
    """A batched simulate run's epoch-memo rate lands in the hit-rate table."""
    simulator = DetailedGPUSimulator(HD4000, engine="batched")
    kernel, rng = build_tiny_kernel(), np.random.default_rng(0)
    for _ in range(6):
        simulator.simulate(kernel, {"iters": 4.0, "n": 64.0}, 64, rng)
    assert simulator.epoch_memo_hits > 0
    html = render_report(tm)
    assert "Hit rates" in html
    assert "Simulation memo" in html


def test_report_without_events_or_study(tm):
    with tm.span("only", category="t"):
        tm.observe_hist("h.seconds", 0.5, "s")
    html = render_report(tm)
    assert "no events recorded" in html
    assert "Table I" not in html


def test_report_timeline_caps_span_count(tm):
    for _ in range(900):
        with tm.span("tick", category="t"):
            pass
    html = render_report(tm)
    assert html.count("<rect") <= 800


def _fake_study(health=HEALTHY):
    # len() goes through the class, so build a tiny log type.
    class _Log:
        total_instructions = 12345

        def __len__(self):
            return 42

    workload = types.SimpleNamespace(log=_Log(), health=health)
    selection = types.SimpleNamespace(
        config=types.SimpleNamespace(label="Sync-BB"),
        simulation_speedup=53.0,
    )
    result = types.SimpleNamespace(
        selection=selection,
        error_percent=1.5,
        config=selection.config,
    )
    return types.SimpleNamespace(
        scale=0.1,
        device="HD4000",
        workloads={"cb-gaussian-buffer": workload},
        explorations={
            "cb-gaussian-buffer": types.SimpleNamespace(health=None)
        },
        error_minimizing=[("cb-gaussian-buffer", result)],
    )


def test_report_table1_rows(tm, log):
    _recorded(tm, log)
    html = render_report(tm, log=log, study=_fake_study())
    assert "Per-workload statistics (Table I)" in html
    assert "cb-gaussian-buffer" in html
    assert "Sync-BB" in html
    assert "53.0x" in html
    assert "1.50" in html


def test_report_flags_partial_profiles(tm, log):
    damaged = ProfileHealth(lost_events=3)
    html = render_report(tm, log=log, study=_fake_study(damaged))
    assert "lost_events:3" in html
    assert "partial" in html


def _log_parts_by_full_scan(log):
    """The run row's event count, the fault section and the event
    section as rendered from full scans of ``log.records()`` (for a
    registry without ``faults.*`` counters and no study)."""
    records = log.records()
    incidents = log.records(min_level="WARN")[-report.MAX_EVENT_ROWS:]
    rows = [
        (
            time.strftime("%H:%M:%S", time.localtime(r.ts_unix)),
            r.level,
            r.name,
            ", ".join(f"{k}={v}" for k, v in r.fields),
        )
        for r in incidents
    ]
    faults = report._section(
        "Faults and health",
        report._table(("time", "level", "event", "fields"), rows),
    )
    by_level = dict.fromkeys(obs_events.LEVELS, 0)
    for record in records:
        by_level[record.level] += 1
    events = report._section(
        "Event log",
        report._table(
            ("level", "events"),
            [(level, report._fmt(n)) for level, n in by_level.items()],
            "num",
        ),
        note=f"{len(records)} events total; "
        "WARN/ERROR detail appears under Faults and health.",
    )
    return report._fmt(len(records)), faults, events


def _log_parts(html):
    count = re.search(r"<tr><td>events</td><td>([^<]*)</td></tr>", html)
    sections = dict(
        re.findall(r"<section><h2>([^<]*)</h2>(.*?</section>)", html)
    )
    return (
        count.group(1),
        "<section><h2>Faults and health</h2>"
        + sections["Faults and health"],
        "<section><h2>Event log</h2>" + sections["Event log"],
    )


def test_report_reads_kept_event_counts_not_every_record(
    tm, monkeypatch
):
    """The run row, the fault section and the event section come from
    the log's kept counts and tail, not a copy of every record, and
    equal a full-scan rendering -- over a ring holding every level,
    parked and dropped incidents and absorbed worker batches."""
    from test_obs_events import _incident_batches

    monkeypatch.setattr(report, "MAX_EVENT_ROWS", 40)
    scanned = obs_events.EventLog(capacity=64)
    log = obs_events.EventLog(capacity=64)
    for batch in _incident_batches():
        for target in (scanned, log):
            target.absorb(batch)
            target.warn("local.incident", n=len(batch))
            target.debug("local.chatter")
    assert log.dropped > 0 and len(log) > log.capacity
    want = _log_parts_by_full_scan(scanned)
    assert want[1].count("<tr>") == 41  # header + a cut WARN/ERROR tail

    def no_scan(*args, **kwargs):
        raise AssertionError("the report read every retained record")

    monkeypatch.setattr(obs_events.EventLog, "records", no_scan)
    assert _log_parts(render_report(tm, log)) == want


def test_write_report(tm, log, tmp_path):
    _recorded(tm, log)
    out = tmp_path / "run.html"
    write_report(str(out), tm, log=log)
    assert out.read_text().startswith("<!DOCTYPE html>")


@pytest.mark.slow
def test_cli_explore_with_report_flag(tmp_path, capsys):
    out = tmp_path / "explore.html"
    assert main(
        ["explore", "cb-gaussian-buffer", "--scale", "0.1",
         "--report", str(out)]
    ) == 0
    assert f"(HTML run report written to {out})" in capsys.readouterr().out
    html = out.read_text()
    assert "Span timeline" in html
    assert "opencl.dispatch_seconds" in html
    assert "sampling.config_seconds" in html
    # Registries are restored after the run.
    assert not telemetry.get().enabled
    assert not obs_events.is_enabled()


@pytest.mark.slow
def test_cli_trace_style_report_under_faults(tmp_path, capsys):
    """--report composes with --faults: incidents land in the report."""
    out = tmp_path / "faulted.html"
    assert main(
        ["select", "cb-gaussian-buffer", "--scale", "0.2",
         "--faults", "seed=11;event.lost=0.3",
         "--report", str(out)]
    ) == 0
    html = out.read_text()
    assert "Faults and health" in html
    assert "fault.injected" in html
