"""Prometheus-style text exposition of telemetry state.

The live endpoint (:mod:`repro.obs.live`) serves this at ``/metrics``.
Rendering is deliberately dependency-free: the exposition format is
just lines of ``name{labels} value`` with ``# HELP`` / ``# TYPE``
comments, so the stdlib suffices and any Prometheus scraper (or
``curl`` + ``grep``) can consume it.

Metric names derive from the internal dotted series names:
``gtpin.trace_buffer.records`` becomes
``repro_gtpin_trace_buffer_records``.  Histograms render in native
Prometheus histogram shape -- cumulative ``_bucket{le="..."}`` series
over the log-bucket upper edges, plus exact ``_count`` / ``_sum`` and
``_min`` / ``_max`` gauges (the latter two are exact observed extremes,
see :meth:`repro.telemetry.histograms.Histogram.percentile`).
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable, Mapping

from repro.telemetry.histograms import GROWTH, Histogram

#: Every exported metric is namespaced under this prefix.
PREFIX = "repro"

_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(series_name: str) -> str:
    """``gtpin.trace_buffer.bytes`` -> ``repro_gtpin_trace_buffer_bytes``."""
    sanitized = _INVALID.sub("_", series_name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{PREFIX}_{sanitized}"


def _fmt(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_counter(name: str, value: float) -> list[str]:
    metric = metric_name(name) + "_total"
    return [f"# TYPE {metric} counter", f"{metric} {_fmt(value)}"]


def render_gauge(name: str, value: float) -> list[str]:
    metric = metric_name(name)
    return [f"# TYPE {metric} gauge", f"{metric} {_fmt(value)}"]


def render_histogram(hist: Histogram) -> list[str]:
    """Native Prometheus histogram shape from the log-bucketed state."""
    metric = metric_name(hist.name)
    out = [f"# TYPE {metric} histogram"]
    cumulative = hist.zero_count
    if hist.zero_count:
        out.append(f'{metric}_bucket{{le="0"}} {_fmt(cumulative)}')
    for index in sorted(hist.buckets):
        cumulative += hist.buckets[index]
        edge = GROWTH ** (index + 1)
        out.append(f'{metric}_bucket{{le="{edge!r}"}} {_fmt(cumulative)}')
    out.append(f'{metric}_bucket{{le="+Inf"}} {_fmt(hist.count)}')
    out.append(f"{metric}_count {_fmt(hist.count)}")
    out.append(f"{metric}_sum {_fmt(hist.total)}")
    if hist.count:
        out.append(f"{metric}_min {_fmt(hist.minimum)}")
        out.append(f"{metric}_max {_fmt(hist.maximum)}")
    return out


def render_labelled(
    name: str, rows: Iterable[tuple[Mapping[str, Any], float]],
    kind: str = "gauge",
) -> list[str]:
    """One metric family with per-row label sets (overhead sites etc.)."""
    metric = metric_name(name)
    out = [f"# TYPE {metric} {kind}"]
    for labels, value in rows:
        rendered = ",".join(
            f'{key}="{_escape_label(value_)}"'
            for key, value_ in labels.items()
        )
        out.append(f"{metric}{{{rendered}}} {_fmt(value)}")
    return out


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace(
        "\n", r"\n"
    )


def hit_rates(counters: Mapping[str, float]) -> dict[str, float]:
    """Hits over lookups from a ``{counter name: value}`` mapping: the
    simulated GPU cache (``gpu_cache``), the batched simulator's epoch
    memo (``simulation_memo``) and the profile cache
    (``profile_cache``).  A cache with no lookups has no entry."""

    def value(name: str) -> float:
        return counters.get(name, 0.0)

    memo_hits = value("simulation.epoch_memo_hits")
    profile_hits = value("sampling.profile_cache.hits")
    rates: dict[str, float] = {}
    for rate, hits, lookups in (
        ("gpu_cache", value("gpu.cache.hits"), value("gpu.cache.accesses")),
        ("simulation_memo", memo_hits,
         memo_hits + value("simulation.epoch_memo_misses")),
        ("profile_cache", profile_hits,
         profile_hits + value("sampling.profile_cache.misses")),
    ):
        if lookups > 0:
            rates[rate] = hits / lookups
    return rates


def exposition(
    counters: Mapping[str, float],
    histograms: Mapping[str, Histogram] | None = None,
    extra_lines: Iterable[str] = (),
) -> str:
    """The full ``/metrics`` document, terminated by a newline."""
    lines: list[str] = []
    for name in sorted(counters):
        lines.extend(render_counter(name, counters[name]))
    for name in sorted(histograms or {}):
        lines.extend(render_histogram((histograms or {})[name]))
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, float]:
    """Parse an exposition document back to ``{series: value}``.

    A test helper (``gtpin top`` reads only ``/health``); labelled
    series key as ``name{label="..."}`` verbatim.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, raw = line.rpartition(" ")
        try:
            out[name] = float(raw)
        except ValueError:
            continue
    return out
