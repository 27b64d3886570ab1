"""Exporters: Chrome trace-event JSON, JSONL event log, text summaries.

The Chrome trace format (``chrome://tracing`` / https://ui.perfetto.dev)
is the lingua franca Daisen-style GPU-stack visualizers speak: complete
spans become ``"ph": "X"`` events with microsecond ``ts``/``dur``,
counters become ``"ph": "C"`` events that Perfetto plots as stacked
area tracks.  The JSONL log is the machine-greppable flat form of the
same data, one JSON object per line.

All timestamps are relative to the registry's ``time_origin_ns`` so the
trace starts near zero regardless of process uptime.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any

from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import SpanRecord


def _tid_map(spans: list[SpanRecord]) -> dict[int, int]:
    """Stable small integers for thread ids (0 = first thread seen)."""
    mapping: dict[int, int] = {}
    for span in sorted(spans, key=lambda s: s.start_ns):
        if span.thread_id not in mapping:
            mapping[span.thread_id] = len(mapping)
    return mapping


def _span_events(
    spans: list[SpanRecord], origin: int, pid: int, process_name: str
) -> list[dict[str, Any]]:
    """The process-name event, then one ``"ph": "X"`` event per span
    with ``ts`` relative to ``origin``."""
    tids = _tid_map(spans)
    events: list[dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": process_name},
    }]
    for span in sorted(spans, key=lambda s: (s.start_ns, s.depth)):
        events.append({
            "name": span.name,
            "cat": span.category or "repro",
            "ph": "X",
            "ts": (span.start_ns - origin) / 1e3,
            "dur": span.duration_ns / 1e3,
            "pid": pid,
            "tid": tids.get(span.thread_id, 0),
            "args": _jsonable(span.args),
        })
    return events


def chrome_trace_events(telemetry: Telemetry) -> list[dict[str, Any]]:
    """The ``traceEvents`` list for one registry."""
    origin = telemetry.time_origin_ns
    pid = os.getpid()
    events = _span_events(telemetry.spans(), origin, pid, "gtpin-repro")
    for counter in telemetry.counters.counters.values():
        for sample in counter.samples:
            events.append(
                {
                    "name": counter.name,
                    "cat": "counter",
                    "ph": "C",
                    "ts": (sample.ts_ns - origin) / 1e3,
                    "pid": pid,
                    "tid": 0,
                    "args": {counter.name.rpartition(".")[2]: sample.value},
                }
            )
    return events


def to_chrome_trace(telemetry: Telemetry) -> dict[str, Any]:
    """The full Chrome trace JSON object."""
    return {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "gtpin-repro telemetry",
            "created_unix_seconds": telemetry.created_unix_seconds,
        },
    }


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    """Write a ``chrome://tracing`` / Perfetto-loadable trace file."""
    with open(path, "w") as out:
        json.dump(to_chrome_trace(telemetry), out)


def jsonl_events(telemetry: Telemetry) -> list[dict[str, Any]]:
    """Flat structured event log: spans, then counter and histogram
    summaries."""
    origin = telemetry.time_origin_ns
    events: list[dict[str, Any]] = []
    for span in sorted(telemetry.spans(), key=lambda s: s.start_ns):
        events.append(
            {
                "type": "span",
                "name": span.name,
                "category": span.category,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                "depth": span.depth,
                "start_us": (span.start_ns - origin) / 1e3,
                "duration_us": span.duration_ns / 1e3,
                "thread": span.thread_id,
                "args": _jsonable(span.args),
            }
        )
    for counter in telemetry.counters.counters.values():
        events.append(
            {
                "type": "counter",
                "name": counter.name,
                "value": counter.value,
                "samples": len(counter.samples),
            }
        )
    for hist in telemetry.counters.histograms.values():
        pct = hist.percentiles()
        events.append(
            {
                "type": "histogram",
                "name": hist.name,
                "unit": hist.unit,
                "count": hist.count,
                "mean": hist.mean,
                "p50": pct["p50"],
                "p90": pct["p90"],
                "p99": pct["p99"],
                "max": pct["max"],
            }
        )
    return events


def write_jsonl(telemetry: Telemetry, path_or_file: str | IO[str]) -> None:
    """One JSON object per line -- grep/jq-friendly."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as out:
            write_jsonl(telemetry, out)
        return
    for event in jsonl_events(telemetry):
        path_or_file.write(json.dumps(event))
        path_or_file.write("\n")


def _tree_lines(
    spans: list[SpanRecord], title: str, max_depth: int = 12
) -> list[str]:
    """Shared tree renderer over a bare span list.

    A span whose parent is absent from the list (``None``, or an id
    recorded by another process that never reached us) renders as a
    root, so partial traces still draw.
    """
    ids = {span.span_id for span in spans}
    by_parent: dict[int | None, list[SpanRecord]] = {}
    for span in sorted(spans, key=lambda s: s.start_ns):
        parent = (
            span.parent_id if span.parent_id in ids else None
        )
        by_parent.setdefault(parent, []).append(span)

    lines: list[str] = [title]

    def render(siblings: list[SpanRecord], depth: int) -> None:
        if depth > max_depth or not siblings:
            return
        groups: dict[str, list[SpanRecord]] = {}
        for span in siblings:
            groups.setdefault(span.name, []).append(span)
        # Sort sibling groups by name: output must be byte-stable across
        # runs whose spans raced each other (goldens diff these).
        for name, members in sorted(groups.items()):
            total_ms = sum(m.duration_ns for m in members) / 1e6
            label = name if len(members) == 1 else f"{name} x{len(members)}"
            indent = "  " * depth
            lines.append(f"{indent}{label:<{max(44 - 2 * depth, 10)}} "
                         f"{total_ms:10.3f} ms")
            children = [
                child
                for member in members
                for child in by_parent.get(member.span_id, [])
            ]
            render(children, depth + 1)

    render(by_parent.get(None, []), 1)
    return lines


def span_tree_summary(telemetry: Telemetry, max_depth: int = 12) -> str:
    """Human-readable span tree.

    Sibling spans with the same name are collapsed into one aggregated
    line (``name xN``) so per-invocation spans don't swamp the output;
    their children are aggregated the same way, recursively.
    """
    spans = telemetry.spans()
    if not spans:
        return "(no spans recorded)"
    return "\n".join(_tree_lines(
        spans, "span tree (wall time, sibling spans aggregated):",
        max_depth,
    ))


def trace_tree_summary(
    spans: list[SpanRecord], trace_id: str = "", max_depth: int = 12
) -> str:
    """Assembled-trace tree over a bare span list (e.g. read back from
    the run ledger): one tree spanning every process that contributed."""
    if not spans:
        return "(no spans in trace)"
    label = f"trace {trace_id}" if trace_id else "trace"
    threads = {span.thread_id for span in spans}
    workers = sum(1 for t in threads if t < 0)
    title = (
        f"{label} ({len(spans)} spans, {len(threads)} threads, "
        f"{workers} worker lanes):"
    )
    return "\n".join(_tree_lines(spans, title, max_depth))


def trace_chrome_trace(
    spans: list[SpanRecord], trace_id: str = ""
) -> dict[str, Any]:
    """Chrome trace JSON for a bare span list (ledger read-back).

    Timestamps are shifted to start near zero; worker-subprocess lanes
    (synthetic negative thread ids) keep their own rows.
    """
    origin = min(span.start_ns for span in spans) if spans else 0
    name = f"gtpin trace {trace_id}" if trace_id else "gtpin trace"
    return {
        "traceEvents": _span_events(spans, origin, 0, name),
        "displayTimeUnit": "ms",
        "otherData": {"tool": "gtpin-repro ledger", "trace_id": trace_id},
    }


#: Name-suffix conventions -> display unit, checked longest-first.
_UNIT_SUFFIXES = (
    ("_seconds", "s"),
    (".seconds", "s"),
    ("_bytes", "B"),
    (".bytes", "B"),
    ("_ns", "ns"),
    (".ns", "ns"),
)


def unit_for(name: str, declared: str = "") -> str:
    """Display unit for a series: declared unit, else name convention."""
    if declared:
        return declared
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return ""


def counters_summary(telemetry: Telemetry) -> str:
    """Plain-text table of final counter values and histogram
    quantiles.  Every section is name-sorted and unit-tagged so the
    output diffs cleanly across runs."""
    lines = ["counters:"]
    counters = telemetry.counters
    if not (counters.counters or counters.histograms):
        return "counters: (none)"
    for name in sorted(counters.counters):
        value = counters.counters[name].value
        rendered = f"{int(value)}" if value == int(value) else f"{value:.6g}"
        unit = unit_for(name)
        lines.append(f"  {name:<44} {rendered:>14} {unit}".rstrip())
    if counters.histograms:
        lines.append("histograms:")
        for name in sorted(counters.histograms):
            hist = counters.histograms[name]
            unit = unit_for(name, hist.unit)
            suffix = f" [{unit}]" if unit else ""
            pct = hist.percentiles()
            lines.append(
                f"  {name:<44} n={hist.count} mean={hist.mean:.4g} "
                f"p50={pct['p50']:.4g} p90={pct['p90']:.4g} "
                f"p99={pct['p99']:.4g} max={pct['max']:.4g}{suffix}"
            )
    return "\n".join(lines)


def _jsonable(args: dict[str, Any]) -> dict[str, Any]:
    """Coerce span args to JSON-safe scalars (repr anything exotic)."""
    safe: dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe
