"""Stdlib client for a running ``gtpin serve`` daemon.

Wraps the JSON-over-HTTP protocol in plain method calls; the only
dependency is ``urllib``.  Backpressure is part of the contract: a 429
(queue full) surfaces as :class:`QueueFullError` carrying the server's
``Retry-After`` hint, and :meth:`ServeClient.submit_with_retry` honors
that hint (falling back to its own bounded exponential backoff) -- the
polite client loop the acceptance workload ("N concurrent clients,
zero lost jobs") runs.

Every submission carries a W3C-style ``traceparent`` header (see
:mod:`repro.telemetry.context`): with telemetry enabled the client
opens a ``serve.client.submit`` span and names it as the parent, so
the daemon's queue span -- and everything below it -- assembles into
one trace rooted at this client call.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request
from typing import Any

from repro import telemetry
from repro.telemetry import context as trace_context
from repro.serve.protocol import JobState

#: Default poll period while waiting on a job.
POLL_SECONDS = 0.15


def _retry_after_seconds(headers: Any) -> float | None:
    """Parse a ``Retry-After`` header (seconds form) if present/sane."""
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    # A non-finite hint (``inf``, ``1e400``) would overflow time.sleep.
    return value if math.isfinite(value) and value >= 0.0 else None


class ServeError(RuntimeError):
    """An HTTP-level error from the daemon."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class QueueFullError(ServeError):
    """The daemon's bounded queue rejected the submission (429).

    ``retry_after`` is the server's ``Retry-After`` hint in seconds
    (``None`` when the response carried none).
    """

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


class ServeClient:
    """One daemon connection (host/port pair; requests are stateless)."""

    def __init__(
        self, port: int, host: str = "127.0.0.1", timeout: float = 10.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw request ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Any | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> Any:
        url = f"http://{self.host}:{self.port}{path}"
        data = None
        headers = dict(extra_headers or {})
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode()).get("error", "")
            except Exception:
                message = exc.reason
            if exc.code == 429:
                raise QueueFullError(
                    exc.code, message,
                    retry_after=_retry_after_seconds(exc.headers),
                ) from None
            raise ServeError(exc.code, message) from None

    # -- protocol calls ------------------------------------------------------

    def submit(self, kind: str, app: str, **spec: Any) -> dict[str, Any]:
        """Submit one job; returns its view.  Raises
        :class:`QueueFullError` on backpressure.

        The submission joins the caller's active trace (open span or
        :mod:`~repro.telemetry.context` context) or starts a fresh one,
        and ships it as the ``traceparent`` header; with telemetry
        enabled the call itself is a ``serve.client.submit`` span and
        becomes the trace's client-domain root.
        """
        payload = {"kind": kind, "app": app, **spec}
        if payload.get("traceparent"):
            return self._request("POST", "/v1/jobs", payload)
        tm = telemetry.get()
        ctx = trace_context.current()
        if not tm.enabled:
            trace_id = (
                ctx.trace_id if ctx is not None
                else trace_context.new_trace_id()
            )
            parent = ctx.parent_span_id if ctx is not None else None
            header = trace_context.format_traceparent(trace_id, parent)
            return self._request(
                "POST", "/v1/jobs", payload,
                extra_headers={"traceparent": header},
            )
        if ctx is None and not tm.current_trace_id():
            ctx = trace_context.TraceContext(trace_context.new_trace_id())
        with trace_context.activate(ctx):
            with tm.span(
                "serve.client.submit", category="serve", kind=kind, app=app,
            ) as span:
                trace_id = span.trace_id or trace_context.new_trace_id()
                header = trace_context.format_traceparent(
                    trace_id, span.span_id
                )
                view = self._request(
                    "POST", "/v1/jobs", payload,
                    extra_headers={"traceparent": header},
                )
                span.annotate(job=view.get("id", ""), trace=trace_id)
                return view

    def submit_with_retry(
        self,
        kind: str,
        app: str,
        retries: int = 20,
        backoff_seconds: float = 0.1,
        **spec: Any,
    ) -> dict[str, Any]:
        """Submit, backing off through 429s.

        The server's ``Retry-After`` hint, when present, takes
        precedence over the client's own (bounded, exponential-ish)
        backoff schedule -- the daemon knows its queue better than the
        client's guess does.
        """
        delay = backoff_seconds
        for attempt in range(retries + 1):
            try:
                return self.submit(kind, app, **spec)
            except QueueFullError as exc:
                if attempt == retries:
                    raise
                if exc.retry_after is not None and exc.retry_after >= 0.0:
                    time.sleep(exc.retry_after)
                else:
                    time.sleep(delay)
                delay = min(delay * 1.5, 2.0)
        raise AssertionError("unreachable")

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> dict[str, Any]:
        """``{"jobs": [...], "counts": {...}}``."""
        return self._request("GET", "/v1/jobs")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def job_events(self, job_id: str) -> list[dict[str, Any]]:
        return self._request("GET", f"/v1/jobs/{job_id}/events")["events"]

    def cache_stats(self) -> dict[str, Any]:
        return self._request("GET", "/v1/cache")

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/health")

    def metrics_text(self) -> str:
        url = f"http://{self.host}:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=self.timeout) as response:
            return response.read().decode()

    # -- convenience ---------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_seconds: float = POLL_SECONDS,
    ) -> dict[str, Any]:
        """Poll until the job reaches a terminal state (or time out)."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in JobState.TERMINAL:
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']} after {timeout}s"
                )
            time.sleep(poll_seconds)

    def run(self, kind: str, app: str, timeout: float = 120.0,
            **spec: Any) -> dict[str, Any]:
        """Submit (with backpressure retry) and wait for the result."""
        view = self.submit_with_retry(kind, app, **spec)
        return self.wait(view["id"], timeout=timeout)
