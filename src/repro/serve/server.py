"""The ``gtpin serve`` HTTP daemon (stdlib, JSON over HTTP).

Same construction as the live endpoint (:mod:`repro.obs.live`): a
``ThreadingHTTPServer`` on a background thread, handler threads kept
trivially short.  Submissions and queries go straight through to the
:class:`~repro.serve.queue.JobQueue` (one lock guards all its state;
its own worker threads run the jobs); job *work* never runs on a
handler thread.

Routes::

    POST   /v1/jobs             submit a job spec        -> 202 job view
                                queue full               -> 429 + Retry-After
                                malformed spec           -> 400
    GET    /v1/jobs             all job views (+ counts)
    GET    /v1/jobs/<id>        one job view (result when done)
    GET    /v1/jobs/<id>/events the job's serve.* event records
    POST   /v1/jobs/<id>/cancel cancel (also DELETE /v1/jobs/<id>)
    GET    /v1/cache            profile-cache stats (entries, bytes, hits)
    GET    /metrics, /health, /events   the LiveHub views (gtpin top
                                        points at this same port)

The daemon registers a ``serve`` section with the active
:class:`~repro.obs.live.LiveHub`, so ``/health`` documents and
``/metrics`` expositions -- and therefore ``gtpin top`` -- show queue
depth, per-state job counts, and the profile-cache hit rate.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Mapping

from repro import telemetry
from repro.obs import events as obs_events
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.ledger import RunLedger, RunRecord
from repro.parallel.cache import ProfileCache
from repro.serve.protocol import JobSpec, JobState, ProtocolError
from repro.serve.queue import DEFAULT_CAPACITY, JobQueue, QueueFull, UnknownJob
from repro.serve.work import execute_job

#: Default daemon worker slots (concurrent jobs).
DEFAULT_WORKERS = 2


class ServeDaemon:
    """The queue + HTTP endpoint + LiveHub registration, as one unit."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        workers: int = DEFAULT_WORKERS,
        capacity: int = DEFAULT_CAPACITY,
        cache: ProfileCache | None = None,
        sim_engine: str = "batched",
        ledger: "RunLedger | None" = None,
    ) -> None:
        self.host = host
        self.cache = cache
        self._sim_engine = sim_engine
        self.ledger = ledger
        self.queue = JobQueue(
            self._execute, workers=workers, capacity=capacity,
            on_terminal=self._record_run if ledger is not None else None,
        )
        self.started_unix = time.time()
        # Binding happens here, so an in-use port raises EADDRINUSE
        # before any thread starts (the CLI turns that into a one-line
        # error instead of a traceback).
        from http.server import ThreadingHTTPServer

        handler = type("BoundServeHandler", (_ServeHandler,),
                       {"daemon_ref": self, "hub": obs_live.get()})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-endpoint",
            daemon=True,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> None:
        hub = obs_live.get()
        if hub.enabled:
            hub.add_section(
                "serve", health=self.health_section,
                metrics=self.metrics_lines,
            )
        self.queue.start()
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self.queue.stop()

    def _execute(self, spec: JobSpec, cancel: threading.Event) -> Mapping[str, Any]:
        return execute_job(
            spec, cancel=cancel, cache=self.cache,
            sim_engine=self._sim_engine,
        )

    # -- run ledger ----------------------------------------------------------

    def _record_run(self, view: Mapping[str, Any]) -> None:
        """Append one terminal job (and its trace's spans so far) to the
        run ledger.  Runs under the queue lock via ``on_terminal``, so
        ledger writes never interleave; the queue swallows exceptions so
        a bad disk never kills a job.
        """
        if self.ledger is None:
            return
        tm = telemetry.get()
        spec = view.get("spec") or {}
        result = view.get("result") or {}
        counters = {
            name: float(value)
            for name, value in result.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value is not None
        }
        quantiles: dict[str, dict[str, float]] = {}
        if tm.enabled:
            for name in ("serve.queue_wait_seconds", "serve.job_seconds"):
                hist = tm.counters.histograms.get(name)
                if hist is not None and hist.count:
                    quantiles[name] = hist.percentiles()
        submitted = view.get("submitted_unix") or 0.0
        ended = view.get("ended_unix") or time.time()
        trace_id = view.get("trace_id", "")
        self.ledger.record_run(RunRecord(
            command="serve",
            trace_id=trace_id,
            app=spec.get("app", ""),
            kind=spec.get("kind", ""),
            device=spec.get("device", ""),
            engine=self._sim_engine,
            status=view.get("state", ""),
            started_unix=submitted,
            duration_seconds=max(0.0, ended - submitted),
            health_flags=tuple(result.get("health_flags") or ()),
            counters=counters,
            quantiles=quantiles,
        ))
        if trace_id and tm.enabled:
            self.ledger.record_spans(
                trace_id, tm.spans_for_trace(trace_id), tm.ns_to_unix
            )

    # -- LiveHub section -----------------------------------------------------

    def health_section(self) -> dict[str, Any]:
        counts = self.queue.counts()
        section: dict[str, Any] = {
            "port": self.port,
            "workers": counts.pop("workers"),
            "capacity": counts.pop("capacity"),
            "jobs": counts,
        }
        if self.cache is not None:
            section["cache"] = self.cache_stats()
        return section

    def cache_stats(self) -> dict[str, Any]:
        stats = (
            self.cache.stats()
            if self.cache is not None
            else {"entries": 0, "bytes": 0, "root": None}
        )
        tm = telemetry.get()
        counters: dict[str, float] = {}
        if tm.enabled:
            for name, target in (
                ("sampling.profile_cache.hits", "hits"),
                ("sampling.profile_cache.misses", "misses"),
                ("sampling.profile_cache.stores", "stores"),
                ("sampling.profile_cache.evictions", "evictions"),
            ):
                counters[name] = stats[target] = tm.counters.value(name)
        stats["hit_rate"] = obs_metrics.hit_rates(counters).get(
            "profile_cache", 0.0
        )
        return stats

    def metrics_lines(self) -> list[str]:
        counts = self.queue.counts()
        lines = obs_metrics.render_gauge("serve.workers",
                                         counts.pop("workers"))
        lines += obs_metrics.render_gauge("serve.queue_capacity",
                                          counts.pop("capacity"))
        lines += obs_metrics.render_gauge("serve.queue_depth",
                                          counts[JobState.QUEUED])
        lines += obs_metrics.render_labelled(
            "serve.jobs",
            [({"state": state}, counts[state]) for state in JobState.ALL],
        )
        stats = self.cache_stats()
        lines += obs_metrics.render_gauge(
            "serve.profile_cache_hit_rate", stats["hit_rate"]
        )
        lines += obs_metrics.render_gauge(
            "serve.profile_cache_entries", stats.get("entries", 0)
        )
        lines += obs_metrics.render_gauge(
            "serve.profile_cache_bytes", stats.get("bytes", 0)
        )
        if self.ledger is not None:
            try:
                records = self.ledger.runs(limit=50)
                lines += obs_metrics.render_gauge(
                    "serve.ledger_runs", len(records)
                )
                pair = self.ledger.latest_pair(command="serve")
                if pair is not None:
                    prev, last = pair
                    lines += obs_metrics.render_gauge(
                        "serve.ledger_last_duration_delta_seconds",
                        last.duration_seconds - prev.duration_seconds,
                    )
            except Exception:
                pass  # a scrape must never fail on ledger I/O
        return lines

    # -- job-scoped events ---------------------------------------------------

    def job_events(self, job_id: str) -> list[dict[str, Any]]:
        """The job's ``serve.*`` event records, chronological."""
        return [
            record.to_json()
            for record in obs_events.get().job_records(job_id)
            if record.name.startswith("serve.")
        ]


class _ServeHandler(obs_live._Handler):
    """Extends the live handler's GET routes with the /v1 job API."""

    daemon_ref: ServeDaemon  # set by ServeDaemon

    # -- plumbing ------------------------------------------------------------

    def _send_json(
        self, payload: Any, status: int = 200,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        body = (json.dumps(payload, indent=1) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         retry_after: int | None = None) -> None:
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        self._send_json({"error": message}, status, headers)

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        # Digits only (RFC 9110): a negative length would block read()
        # until the client hangs up.
        if not (header.isascii() and header.isdigit()):
            raise ProtocolError(f"malformed Content-Length {header!r}")
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ProtocolError("empty request body (expected a JSON spec)")
        try:
            return json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not JSON: {exc}") from None

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if not path.startswith("/v1/"):
            super().do_GET()  # /metrics, /health, /events
            return
        daemon = self.daemon_ref
        try:
            if path == "/v1/jobs":
                self._send_json({
                    "jobs": daemon.queue.list(),
                    "counts": daemon.queue.counts(),
                })
            elif path == "/v1/cache":
                self._send_json(daemon.cache_stats())
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                job_id = path[len("/v1/jobs/"):-len("/events")]
                daemon.queue.get(job_id)  # 404 on unknown id
                self._send_json({"job": job_id,
                                 "events": daemon.job_events(job_id)})
            elif path.startswith("/v1/jobs/"):
                self._send_json(daemon.queue.get(path[len("/v1/jobs/"):]))
            else:
                self._send_error_json(404, f"unknown path {path}")
        except UnknownJob as exc:
            self._send_error_json(404, f"unknown job {exc.args[0]!r}")
        except Exception as exc:  # a bad request must never kill the daemon
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        daemon = self.daemon_ref
        try:
            if path == "/v1/jobs":
                body = self._read_body()
                # The W3C-style header is the transport of record for
                # trace context; the spec field is the fallback for
                # clients that splice it into the JSON themselves.
                header = self.headers.get("traceparent")
                if (
                    header
                    and isinstance(body, dict)
                    and not body.get("traceparent")
                ):
                    body["traceparent"] = header
                spec = JobSpec.from_json(body)
                self._send_json(daemon.queue.submit(spec), status=202)
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/"):-len("/cancel")]
                self._send_json(daemon.queue.cancel(job_id))
            else:
                self._send_error_json(404, f"unknown path {path}")
        except ProtocolError as exc:
            self._send_error_json(400, str(exc))
        except QueueFull as exc:
            # Delay-seconds are digits only (RFC 9110).
            self._send_error_json(429, str(exc), retry_after=1)
        except UnknownJob as exc:
            self._send_error_json(404, f"unknown job {exc.args[0]!r}")
        except Exception as exc:
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/v1/jobs/"):
            self._send_error_json(404, f"unknown path {path}")
            return
        try:
            self._send_json(self.daemon_ref.queue.cancel(
                path[len("/v1/jobs/"):]
            ))
        except UnknownJob as exc:
            self._send_error_json(404, f"unknown job {exc.args[0]!r}")
        except Exception as exc:
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
