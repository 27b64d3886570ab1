"""Self-contained HTML run reports.

One call turns a run's observability state -- the telemetry registry
(spans, counters, histograms), the structured event log, and
optionally a full :class:`~repro.analysis.study.StudyResults` -- into a
single HTML file with zero external references: stdlib templating
(f-strings + ``html.escape``), inline CSS, and an inline-SVG span
timeline.  The file opens identically from a CI artifact tab, a mail
attachment, or ``file://``.

Sections, in order: run metadata, span-tree timeline, per-workload
Table I statistics (when a study is supplied), cache/memo hit rates,
histogram quantiles, counters, fault & health summary,
and the WARN/ERROR event tail.
"""

from __future__ import annotations

import html
import time
from typing import Any, Iterable

from repro.faults.health import HEALTHY, ProfileHealth
from repro.obs.events import DisabledEventLog, EventLog
from repro.obs.metrics import hit_rates
from repro.telemetry.export import unit_for
from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import SpanRecord

#: Timeline span cap: beyond it only the longest spans are drawn (the
#: point of the timeline is phase structure, not per-invocation detail),
#: so report size stays bounded for arbitrarily long runs.
MAX_TIMELINE_SPANS = 800

#: Event-tail cap per level table.
MAX_EVENT_ROWS = 200

_SVG_WIDTH = 1140
_ROW_HEIGHT = 14
_LANE_GAP = 8

#: Category -> fill color; unknown categories rotate through the tail.
_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#9c755f", "#bab0ac", "#d37295",
)


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """Compact numeric rendering for table cells."""
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.4g}"


def _table(
    headers: Iterable[str], rows: Iterable[Iterable[Any]], klass: str = ""
) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f'<table class="{klass}"><thead><tr>{head}</tr></thead>'
        f"<tbody>{body}</tbody></table>"
    )


def _section(title: str, body: str, note: str = "") -> str:
    note_html = f'<p class="note">{_esc(note)}</p>' if note else ""
    return f"<section><h2>{_esc(title)}</h2>{note_html}{body}</section>"


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 1200px; color: #1a1a2e;
       background: #fafafa; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #4e79a7;
     padding-bottom: .4rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; color: #2a2a4e; }
table { border-collapse: collapse; font-size: .82rem; margin: .6rem 0;
        background: #fff; }
th, td { border: 1px solid #ddd; padding: .25rem .55rem;
         text-align: left; white-space: nowrap; }
th { background: #eef1f6; }
td:first-child { font-family: ui-monospace, monospace; }
.num td { text-align: right; }
.num td:first-child { text-align: left; }
.note { color: #666; font-size: .8rem; margin: .2rem 0; }
.ok { color: #2e7d32; font-weight: 600; }
.bad { color: #c62828; font-weight: 600; }
.timeline { background: #fff; border: 1px solid #ddd; }
.lvl-WARN { color: #b26a00; }
.lvl-ERROR { color: #c62828; }
"""


# -- timeline ----------------------------------------------------------------


def _timeline_svg(tm: Telemetry) -> str:
    spans = tm.spans()
    if not spans:
        return '<p class="note">(no spans recorded)</p>'
    dropped = 0
    if len(spans) > MAX_TIMELINE_SPANS:
        keep = sorted(spans, key=lambda s: -s.duration_ns)[
            :MAX_TIMELINE_SPANS
        ]
        dropped = len(spans) - len(keep)
        spans = sorted(keep, key=lambda s: s.start_ns)

    origin = min(s.start_ns for s in spans)
    extent = max(max(s.end_ns for s in spans) - origin, 1)

    # One band per thread; rows inside a band by span depth.
    threads: dict[int, int] = {}
    for span in spans:
        depth_rows = max(span.depth + 1, threads.get(span.thread_id, 1))
        threads[span.thread_id] = depth_rows
    band_top: dict[int, int] = {}
    y = 0
    for thread_id in sorted(
        threads, key=lambda t: min(
            s.start_ns for s in spans if s.thread_id == t
        )
    ):
        band_top[thread_id] = y
        y += threads[thread_id] * _ROW_HEIGHT + _LANE_GAP
    height = max(y, _ROW_HEIGHT)

    categories = sorted({s.category or "repro" for s in spans})
    colors = {
        cat: _PALETTE[i % len(_PALETTE)]
        for i, cat in enumerate(categories)
    }

    rects: list[str] = []
    for span in spans:
        x = (span.start_ns - origin) / extent * _SVG_WIDTH
        w = max(span.duration_ns / extent * _SVG_WIDTH, 0.5)
        ry = band_top[span.thread_id] + span.depth * _ROW_HEIGHT
        color = colors[span.category or "repro"]
        label = _esc(f"{span.name} ({span.duration_ns / 1e6:.3f} ms)")
        rects.append(
            f'<rect x="{x:.2f}" y="{ry}" width="{w:.2f}" '
            f'height="{_ROW_HEIGHT - 2}" fill="{color}">'
            f"<title>{label}</title></rect>"
        )
    legend = " &nbsp; ".join(
        f'<span style="color:{colors[cat]}">&#9632;</span> {_esc(cat)}'
        for cat in categories
    )
    note = (
        f"{dropped} shorter spans omitted (cap {MAX_TIMELINE_SPANS})."
        if dropped
        else ""
    )
    svg = (
        f'<svg class="timeline" viewBox="0 0 {_SVG_WIDTH} {height}" '
        f'width="100%" height="{min(height, 600)}">{"".join(rects)}</svg>'
    )
    body = f'<p class="note">{legend}</p>{svg}'
    return _section("Span timeline", body, note)


# -- tables ------------------------------------------------------------------


def _histogram_section(tm: Telemetry) -> str:
    histograms = tm.counters.histograms
    if not histograms:
        return _section(
            "Histograms", '<p class="note">(no histograms recorded)</p>'
        )
    rows = []
    for name in sorted(histograms):
        h = histograms[name]
        pct = h.percentiles()
        tail = h.tail_exemplars()
        exemplar = ""
        if tail:
            top = tail[0]
            where = top.trace_id[:8] if top.trace_id else f"span {top.span_id}"
            exemplar = f"{_fmt(top.value)} @ {where}"
        rows.append(
            (
                name,
                unit_for(name, h.unit),
                _fmt(h.count),
                _fmt(h.mean),
                _fmt(pct["p50"]),
                _fmt(pct["p90"]),
                _fmt(pct["p99"]),
                _fmt(pct["max"]),
                exemplar,
            )
        )
    return _section(
        "Histograms",
        _table(
            ("histogram", "unit", "count", "mean", "p50", "p90", "p99",
             "max", "tail exemplar"),
            rows,
            klass="num",
        ),
        note=(
            "Log-bucketed quantile estimates "
            "(~19% relative bucket width).  The tail exemplar names the "
            "trace that produced the largest tail observation -- drill "
            "down with 'gtpin trace show <trace_id>'."
        ),
    )


def _counters_section(tm: Telemetry) -> str:
    counters = tm.counters.counters
    if not counters:
        body = '<p class="note">(no counters recorded)</p>'
    else:
        rows = [
            (name, unit_for(name), _fmt(counters[name].value))
            for name in sorted(counters)
        ]
        body = _table(("counter", "unit", "value"), rows, "num")
    return _section("Counters", body)


def _hit_rates_section(tm: Telemetry) -> str:
    rates = hit_rates(
        {name: c.value for name, c in tm.counters.counters.items()}
    )
    rows = [
        (label, f"{rates[rate] * 100.0:.2f}%")
        for rate, label in (
            ("gpu_cache", "GPU cache (sim)"),
            ("simulation_memo", "Simulation memo"),
            ("profile_cache", "Profile cache"),
        )
        if rate in rates
    ]
    if not rows:
        return ""
    return _section("Hit rates", _table(("cache", "hit rate"), rows, "num"))


# -- self-overhead attribution -----------------------------------------------


def _overhead_section(
    tm: Telemetry, log: EventLog | DisabledEventLog
) -> str:
    """Section III-style attribution of the observability stack's own
    cost, from the run's exact operation tallies (see
    :mod:`repro.gtpin.overhead`)."""
    from repro.gtpin.overhead import attribute_self_overhead

    report = attribute_self_overhead(tm, log)
    rows = [
        (
            site.site,
            _fmt(site.operations),
            f"{site.unit_cost_seconds * 1e6:.3f}",
            f"{site.total_seconds * 1e3:.3f}",
        )
        for site in report.sites
    ]
    parts = [
        _table(
            ("site", "operations", "unit cost (us)", "total (ms)"),
            rows,
            "num",
        )
    ]
    if report.tools:
        parts.append(
            _table(
                ("tool", "spans", "measured seconds"),
                [
                    (f"gtpin.tool.{t.tool}", _fmt(t.spans),
                     f"{t.seconds:.6f}")
                    for t in report.tools
                ],
                "num",
            )
        )
    return _section(
        "Self-overhead attribution",
        "".join(parts),
        note=(
            "Estimated observability cost: exact per-site operation "
            f"counts x calibrated unit costs "
            f"({report.attributed_seconds * 1e3:.2f} ms attributed). "
            "Run 'gtpin overhead APP --self' for a measured "
            "walltime-delta reconciliation."
        ),
    )


# -- faults / health ---------------------------------------------------------


def _study_health(study) -> ProfileHealth:
    combined = HEALTHY
    for workload in study.workloads.values():
        if workload.health is not None:
            combined = combined.union(workload.health)
    for exploration in study.explorations.values():
        if exploration.health is not None:
            combined = combined.union(exploration.health)
    return combined


def _fault_section(
    tm: Telemetry, log: EventLog | DisabledEventLog, study=None
) -> str:
    counters = tm.counters
    fault_counters = [
        (name, _fmt(counters.counters[name].value))
        for name in sorted(counters.counters)
        if name.startswith("faults.")
    ]
    health = _study_health(study) if study is not None else None

    parts: list[str] = []
    if health is not None:
        if health.ok:
            parts.append('<p class="ok">All profiles healthy.</p>')
        else:
            parts.append(
                '<p class="bad">Partial profiles: '
                + _esc(", ".join(health.flags))
                + "</p>"
            )
    if fault_counters:
        parts.append(_table(("counter", "value"), fault_counters, "num"))
    incidents = log.tail(MAX_EVENT_ROWS, "WARN")
    if incidents:
        rows = [
            (
                time.strftime("%H:%M:%S", time.localtime(r.ts_unix)),
                r.level,
                r.name,
                ", ".join(f"{k}={v}" for k, v in r.fields),
            )
            for r in incidents
        ]
        parts.append(_table(("time", "level", "event", "fields"), rows))
    if not parts:
        parts.append(
            '<p class="ok">No faults injected, no incidents recorded.</p>'
        )
    return _section("Faults and health", "".join(parts))


def _events_section(log: EventLog | DisabledEventLog) -> str:
    counts = log.level_counts()
    total = sum(counts.values())
    if not total:
        return _section(
            "Event log", '<p class="note">(no events recorded)</p>'
        )
    summary = _table(
        ("level", "events"),
        [(level, _fmt(count)) for level, count in counts.items()],
        "num",
    )
    return _section(
        "Event log",
        summary,
        note=f"{total} events total; "
        "WARN/ERROR detail appears under Faults and health.",
    )


# -- Table I -----------------------------------------------------------------


def _table1_section(study) -> str:
    from repro.workloads.suite import SUITE_SPECS

    specs = {spec.name: spec for spec in SUITE_SPECS}
    best = dict(study.error_minimizing)
    rows = []
    for name, workload in study.workloads.items():
        spec = specs.get(name)
        result = best.get(name)
        rows.append(
            (
                name,
                spec.suite if spec else "-",
                spec.domain if spec else "-",
                _fmt(spec.n_kernels) if spec else "-",
                _fmt(len(workload.log)),
                _fmt(workload.log.total_instructions),
                result.config.label if result else "-",
                f"{result.error_percent:.2f}" if result else "-",
                f"{result.selection.simulation_speedup:.1f}x"
                if result
                else "-",
                "ok" if workload.health.ok else "partial",
            )
        )
    return _section(
        "Per-workload statistics (Table I)",
        _table(
            (
                "application", "source", "domain", "kernels",
                "invocations", "instructions", "best config", "error %",
                "speedup", "profile",
            ),
            rows,
            "num",
        ),
        note=f"Workload scale {study.scale:g}, device {study.device}.",
    )


def _ledger_delta_section(ledger) -> str | None:
    """Run-over-run deltas from the run ledger's two newest entries."""
    try:
        pair = ledger.latest_pair()
    except Exception:
        return None
    if pair is None:
        return None
    prev, last = pair
    diff = ledger.diff(prev.id, last.id)
    rows = [
        (name, _fmt(va), _fmt(vb), f"{delta:+g}",
         f"x{ratio:.3f}" if ratio is not None else "-")
        for name, va, vb, delta, ratio in diff["deltas"]
        if delta != 0
    ]
    if not rows:
        body = '<p class="note">(no metric changed between the runs)</p>'
    else:
        body = _table(
            ("metric", f"run {prev.id}", f"run {last.id}", "delta",
             "ratio"),
            rows, "num",
        )
    return _section(
        "Run-over-run (ledger)",
        body,
        note=(
            f"Comparing ledger runs {prev.id} ({prev.command}) -> "
            f"{last.id} ({last.command}); see 'gtpin runs diff "
            f"{prev.id} {last.id}'."
        ),
    )


# -- entry points ------------------------------------------------------------


def render_report(
    tm: Telemetry,
    log: EventLog | DisabledEventLog | None = None,
    study=None,
    title: str = "GT-Pin run report",
    ledger=None,
) -> str:
    """Render one self-contained HTML document from run state."""
    log = DisabledEventLog() if log is None else log
    spans = tm.spans()
    meta_rows = [
        ("generated",
         time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(time.time()))),
        ("spans", _fmt(len(spans))),
        ("counters", _fmt(len(tm.counters.counters))),
        ("histograms", _fmt(len(tm.counters.histograms))),
        ("events", _fmt(len(log))),
    ]
    sections = [
        _section("Run", _table(("field", "value"), meta_rows)),
        _timeline_svg(tm),
    ]
    if study is not None:
        sections.append(_table1_section(study))
    hit_rates = _hit_rates_section(tm)
    if hit_rates:
        sections.append(hit_rates)
    sections.append(_histogram_section(tm))
    sections.append(_counters_section(tm))
    sections.append(_overhead_section(tm, log))
    if ledger is not None:
        delta_section = _ledger_delta_section(ledger)
        if delta_section:
            sections.append(delta_section)
    sections.append(_fault_section(tm, log, study))
    sections.append(_events_section(log))
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>"
        + "".join(sections)
        + "</body></html>\n"
    )


def write_report(
    path: str,
    tm: Telemetry,
    log: EventLog | DisabledEventLog | None = None,
    study=None,
    title: str = "GT-Pin run report",
    ledger=None,
) -> None:
    """Render and write the HTML report to ``path``."""
    with open(path, "w") as out:
        out.write(render_report(tm, log, study, title=title, ledger=ledger))
