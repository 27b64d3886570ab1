"""Live observability: an in-flight view of a running sweep.

Everything else in :mod:`repro.obs` explains a run *after* it finishes;
this module explains it *while it happens*.  Three pieces:

* :class:`LiveHub` -- process-global aggregation point.  The parallel
  pool reports batch/task progress to it, worker heartbeats and each
  task's final delta (:class:`~repro.telemetry.snapshot.TelemetryDelta`)
  stream into its :class:`~repro.telemetry.snapshot.DeltaAccumulator`,
  and scrapes combine that in-flight state with the parent's own
  telemetry registry.  When a task's final delta is folded into the
  parent registry the task's delta source is retired, so a scrape never
  double counts -- and once every source is retired the endpoint's
  totals equal the end-of-run merged telemetry exactly.
* :class:`LiveServer` -- a stdlib ``http.server`` thread serving
  ``/metrics`` (Prometheus-style text, see :mod:`repro.obs.metrics`),
  ``/health`` (a JSON progress/health document), and ``/events`` (the
  recent structured-event tail).
* the usual ``enable()/disable()/get()`` registry mirroring
  :mod:`repro.telemetry.registry`: one hub is active at a time, a no-op
  singleton otherwise, and instrumented code guards on ``enabled`` so
  the off cost is one attribute check.

Enable from the CLI with ``--live-port N`` (or ``REPRO_LIVE_PORT``);
watch with ``gtpin top`` (see :mod:`repro.obs.top` and docs/live.md).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import telemetry
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.telemetry.histograms import Histogram
from repro.telemetry.snapshot import (
    EVENT_TAIL,
    DeltaAccumulator,
    TelemetryDelta,
)

#: Port environment control (the CLI flag wins).
PORT_ENV = "REPRO_LIVE_PORT"

#: Worker heartbeat period, seconds (``REPRO_LIVE_INTERVAL`` override).
INTERVAL_ENV = "REPRO_LIVE_INTERVAL"
DEFAULT_INTERVAL_SECONDS = 0.5

#: Counters summed into the health document's ``instructions`` figure:
#: dynamic instructions the profiler observed plus instructions the
#: detailed simulator stepped.
INSTRUCTION_COUNTERS = (
    "gtpin.instrumented_instructions",
    "simulation.stepped_instructions",
)


def resolve_port(port: int | None = None) -> int | None:
    """Explicit port wins; ``None`` falls back to ``REPRO_LIVE_PORT``;
    unset means live observability stays off."""
    if port is not None:
        return int(port)
    raw = os.environ.get(PORT_ENV, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{PORT_ENV} must be an integer port, got {raw!r}"
        ) from None


def heartbeat_interval() -> float:
    """The heartbeat period from ``REPRO_LIVE_INTERVAL``, at least 0.05 s;
    a value that is not a finite number raises ``ValueError``."""
    raw = os.environ.get(INTERVAL_ENV, "").strip()
    if not raw:
        return DEFAULT_INTERVAL_SECONDS
    try:
        seconds = float(raw)
        if not math.isfinite(seconds):
            raise ValueError(raw)
    except ValueError:
        raise ValueError(
            f"{INTERVAL_ENV} must be a finite float (seconds), got {raw!r}"
        ) from None
    return max(0.05, seconds)


class _Batch:
    """One ``parallel_map`` fan-out's progress."""

    __slots__ = ("label", "total", "done", "failed", "started", "ended")

    def __init__(self, label: str, total: int) -> None:
        self.label = label
        self.total = total
        self.done = 0
        self.failed = 0
        self.started = time.time()
        self.ended: float | None = None


class _Lane:
    """One worker source's latest heartbeat state."""

    __slots__ = ("source", "task", "last_seen", "heartbeats", "final")

    def __init__(self, source: str) -> None:
        self.source = source
        self.task = ""
        self.last_seen = time.time()
        self.heartbeats = 0
        self.final = False


class LiveHub:
    """Process-global aggregation point for in-flight run state."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_unix = time.time()
        self.command = ""
        self.accumulator = DeltaAccumulator()
        self._batches: dict[int, _Batch] = {}
        self._lanes: dict[str, _Lane] = {}
        self._next_batch = 0
        self._unit_costs: dict[str, float] | None = None
        self.server: "LiveServer | None" = None
        #: Pluggable sections: other subsystems (``gtpin serve``)
        #: contribute a named health sub-document and extra metric
        #: lines without this module importing them.
        self._sections: dict[
            str, tuple[Any | None, Any | None]
        ] = {}

    def add_section(
        self, name: str, health: Any | None = None,
        metrics: Any | None = None,
    ) -> None:
        """Register providers: ``health()`` returns a JSON-able dict
        merged into the health document under ``name``; ``metrics()``
        returns extra exposition lines appended to ``/metrics``."""
        self._sections[name] = (health, metrics)

    def _section_health(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, (health, _) in list(self._sections.items()):
            if health is None:
                continue
            try:
                out[name] = health()
            except Exception as exc:  # a section must never kill a scrape
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def _section_metrics(self) -> list[str]:
        lines: list[str] = []
        for _, (_, metrics) in list(self._sections.items()):
            if metrics is None:
                continue
            try:
                lines.extend(metrics())
            except Exception:
                continue
        return lines

    # -- progress hooks ------------------------------------------------------

    def set_command(self, command: str) -> None:
        self.command = command

    def begin_batch(self, label: str, total: int) -> int:
        with self._lock:
            batch_id = self._next_batch
            self._next_batch += 1
            self._batches[batch_id] = _Batch(label, total)
            return batch_id

    def task_done(self, batch_id: int, ok: bool = True) -> None:
        with self._lock:
            batch = self._batches.get(batch_id)
            if batch is None:
                return
            batch.done += 1
            if not ok:
                batch.failed += 1

    def end_batch(self, batch_id: int) -> None:
        with self._lock:
            batch = self._batches.get(batch_id)
            if batch is not None:
                batch.ended = time.time()

    # -- heartbeat ingestion -------------------------------------------------

    def apply_delta(self, delta: TelemetryDelta) -> None:
        with self._lock:
            self.accumulator.apply(delta)
            lane = self._lanes.get(delta.source)
            if lane is None:
                lane = self._lanes[delta.source] = _Lane(delta.source)
            lane.task = delta.task or lane.task
            lane.last_seen = time.time()
            lane.heartbeats += 1
            lane.final = lane.final or delta.final

    def retire_source(self, source: str) -> None:
        """The source's final delta was folded into the parent registry;
        drop its in-flight contribution so scrapes never double count."""
        with self._lock:
            self.accumulator.drop_source(source)
            self._lanes.pop(source, None)

    # -- merged view ---------------------------------------------------------

    def _merged(self) -> tuple[dict[str, float], dict[str, Histogram]]:
        """Parent registry + unretired in-flight worker state."""
        tm = telemetry.get()
        counters: dict[str, float] = {}
        histograms: dict[str, Histogram] = {}
        if tm.enabled:
            for name, counter in list(tm.counters.counters.items()):
                counters[name] = counter.value
            for name, hist in list(tm.counters.histograms.items()):
                clone = Histogram(name, hist.unit)
                clone.merge(hist)
                histograms[name] = clone
        with self._lock:
            live_counters = self.accumulator.counter_totals()
            live_hists = self.accumulator.histogram_totals()
        for name, value in live_counters.items():
            counters[name] = counters.get(name, 0.0) + value
        for name, live_hist in live_hists.items():
            held = histograms.get(name)
            if held is None:
                histograms[name] = live_hist
            else:
                held.merge(live_hist)
        return counters, histograms

    def _overhead_lines(self, counters_unused: dict[str, float]) -> list[str]:
        """Self-overhead attribution as labelled gauges (lazy import:
        the overhead module pulls the whole gtpin stack)."""
        try:
            from repro.gtpin.overhead import estimate_observation_costs
        except Exception:  # pragma: no cover - import guard
            return []
        tm = telemetry.get()
        if not tm.enabled:
            return []
        if self._unit_costs is None:
            from repro.gtpin.overhead import calibrate_unit_costs

            self._unit_costs = calibrate_unit_costs()
        sites = estimate_observation_costs(
            tm, obs_events.get(), unit_costs=self._unit_costs
        )
        if not sites:
            return []
        rows = [
            ({"site": site.site}, site.total_seconds) for site in sites
        ]
        ops_rows = [({"site": site.site}, site.operations) for site in sites]
        return obs_metrics.render_labelled(
            "self_overhead_seconds", rows
        ) + obs_metrics.render_labelled("self_overhead_operations", ops_rows)

    def metrics_text(self) -> str:
        counters, histograms = self._merged()
        uptime = max(time.time() - self.started_unix, 1e-9)
        instructions = sum(
            counters.get(name, 0.0) for name in INSTRUCTION_COUNTERS
        )
        done, total, failed = self._task_counts()
        extra = obs_metrics.render_gauge("uptime_seconds", uptime)
        extra += obs_metrics.render_gauge("instructions_observed", instructions)
        extra += obs_metrics.render_gauge(
            "instructions_per_second", instructions / uptime
        )
        extra += obs_metrics.render_gauge("tasks_done", done)
        extra += obs_metrics.render_gauge("tasks_total", total)
        extra += obs_metrics.render_gauge("tasks_failed", failed)
        log = obs_events.get()
        extra += obs_metrics.render_gauge("events_dropped", log.dropped)
        extra += self._overhead_lines(counters)
        extra += self._section_metrics()
        return obs_metrics.exposition(counters, histograms, extra_lines=extra)

    # -- health document -----------------------------------------------------

    def _task_counts(self) -> tuple[int, int, int]:
        with self._lock:
            done = sum(b.done for b in self._batches.values())
            total = sum(b.total for b in self._batches.values())
            failed = sum(b.failed for b in self._batches.values())
        return done, total, failed

    def _eta_seconds(self) -> float | None:
        now = time.time()
        with self._lock:
            open_batches = [
                b for b in self._batches.values() if b.ended is None
            ]
            etas = []
            for batch in open_batches:
                if batch.done <= 0 or batch.total <= batch.done:
                    continue
                elapsed = max(now - batch.started, 1e-9)
                etas.append(
                    elapsed / batch.done * (batch.total - batch.done)
                )
        if not etas:
            return None
        return max(etas)

    def _recent_events(self, min_level: str = "WARN") -> list[dict[str, Any]]:
        local = obs_events.get().tail(EVENT_TAIL, min_level)
        with self._lock:
            shipped = self.accumulator.events()
        floor = obs_events.LEVELS.index(min_level)
        shipped = [
            r for r in shipped if obs_events.LEVELS.index(r.level) >= floor
        ]
        merged: dict[tuple, Any] = {}
        for record in local + shipped:
            key = (record.ts_unix, record.level, record.name, record.fields)
            merged[key] = record
        ordered = sorted(merged.values(), key=lambda r: r.ts_unix)
        return [r.to_json() for r in ordered[-EVENT_TAIL:]]

    def health_doc(self) -> dict[str, Any]:
        counters, _ = self._merged()
        now = time.time()
        uptime = max(now - self.started_unix, 1e-9)
        done, total, failed = self._task_counts()
        instructions = sum(
            counters.get(name, 0.0) for name in INSTRUCTION_COUNTERS
        )
        tm = telemetry.get()
        active_spans = [
            {
                "name": span.name,
                "category": span.category,
                "seconds": round(span.duration_seconds, 6),
            }
            for span in tm.open_spans()[:25]
        ]
        with self._lock:
            lanes = [
                {
                    "source": lane.source,
                    "task": lane.task,
                    "age_seconds": round(now - lane.last_seen, 3),
                    "heartbeats": lane.heartbeats,
                    "final": lane.final,
                }
                for lane in sorted(
                    self._lanes.values(), key=lambda l: l.source
                )
            ]
            batches = [
                {
                    "label": b.label,
                    "done": b.done,
                    "total": b.total,
                    "failed": b.failed,
                    "open": b.ended is None,
                }
                for b in self._batches.values()
            ]
        log = obs_events.get()
        level_counts = log.level_counts()
        recent = self._recent_events()
        flags = sorted(
            {
                event["name"]
                for event in recent
                if event["level"] in ("WARN", "ERROR")
            }
        )
        faults_injected = sum(
            value
            for name, value in counters.items()
            if name.startswith("faults.injected.")
        )
        eta = self._eta_seconds()
        doc = {
            "status": "running" if total > done or total == 0 else "done",
            "command": self.command,
            "generated_unix": now,
            "uptime_seconds": round(uptime, 3),
            "tasks": {"done": done, "total": total, "failed": failed},
            "eta_seconds": None if eta is None else round(eta, 3),
            "instructions": {
                "total": instructions,
                "per_second": instructions / uptime,
            },
            "active_spans": active_spans,
            "workers": lanes,
            "batches": batches,
            "events": {
                "counts": level_counts,
                "dropped": log.dropped,
                "recent": recent,
            },
            "flags": flags,
            "faults_injected": faults_injected,
            "hit_rates": obs_metrics.hit_rates(counters),
        }
        doc.update(self._section_health())
        return doc


class DisabledLiveHub:
    """The no-op singleton active by default."""

    enabled = False
    server = None

    def set_command(self, command: str) -> None:
        pass

    def begin_batch(self, label: str, total: int) -> int:
        return -1

    def task_done(self, batch_id: int, ok: bool = True) -> None:
        pass

    def end_batch(self, batch_id: int) -> None:
        pass

    def apply_delta(self, delta: TelemetryDelta) -> None:
        pass

    def retire_source(self, source: str) -> None:
        pass

    def add_section(
        self, name: str, health: Any | None = None,
        metrics: Any | None = None,
    ) -> None:
        pass


#: The one disabled hub (identity-comparable in tests).
DISABLED_HUB = DisabledLiveHub()

_active: LiveHub | DisabledLiveHub = DISABLED_HUB


def get() -> LiveHub | DisabledLiveHub:
    """The active hub.  Hot paths hoist this once per operation."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def enable(
    port: int | None = None, host: str = "127.0.0.1"
) -> LiveHub:
    """Activate a fresh hub; with ``port`` also start the HTTP endpoint
    (``port=0`` binds an ephemeral port -- read it back from
    ``hub.server.port``)."""
    global _active
    hub = LiveHub()
    if port is not None:
        hub.server = LiveServer(hub, port=port, host=host)
        hub.server.start()
    _active = hub
    return hub


def disable() -> None:
    """Deactivate the hub (and stop its endpoint, if one is serving)."""
    global _active
    hub = _active
    _active = DISABLED_HUB
    if hub.server is not None:
        hub.server.stop()


# -- HTTP endpoint ------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    hub: LiveHub  # set by LiveServer

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = self.hub.metrics_text().encode()
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path in ("/health", "/healthz", "/"):
                body = (
                    json.dumps(self.hub.health_doc(), indent=1) + "\n"
                ).encode()
                content_type = "application/json"
            elif path == "/events":
                body = (
                    json.dumps(
                        self.hub._recent_events(min_level="DEBUG"), indent=1
                    )
                    + "\n"
                ).encode()
                content_type = "application/json"
            else:
                self.send_error(404, "unknown path")
                return
        except Exception as exc:  # scrape must never kill the run
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Scrapes are not run output; stay quiet."""


class LiveServer:
    """The endpoint thread wrapping :class:`ThreadingHTTPServer`."""

    def __init__(
        self, hub: LiveHub, port: int, host: str = "127.0.0.1"
    ) -> None:
        handler = type("BoundHandler", (_Handler,), {"hub": hub})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-live-endpoint",
            daemon=True,
        )
        self.host = host

    @property
    def port(self) -> int:
        """The bound port (meaningful after ``port=0`` ephemeral binds)."""
        return self._server.server_address[1]

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
