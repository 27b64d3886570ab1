"""The daemon's asyncio job queue: priorities, fairness, backpressure.

One event loop (on a dedicated thread) owns every piece of queue state,
so there are no locks to get wrong: HTTP handler threads talk to the
loop through ``asyncio.run_coroutine_threadsafe`` and get plain dict
snapshots back.  Actual job work runs in a bounded
``ThreadPoolExecutor`` (``workers`` slots) so the loop itself never
blocks; per-job parallel stages can still fan out through
:mod:`repro.parallel` (each executing job may carry its own ``jobs``
fan-out, exactly like the CLI).

Scheduling order is ``(-priority, client_rank, seq)``:

* higher **priority** runs first (band-checked by the protocol);
* **client_rank** is how many jobs the same client already had pending
  or running at submit time, which interleaves clients round-robin --
  a client that bulk-submits 20 jobs cannot starve a client that
  submits 1 (the fairness model from the connection-pooled
  client/manager split in PAPERS.md);
* **seq** keeps arrival order within a (priority, rank) tie.

Backpressure is a bounded queue: more than ``capacity`` *queued* jobs
raises :class:`QueueFull`, which the server maps to HTTP 429 with a
``Retry-After`` hint -- clients retry instead of the daemon hoarding
unbounded work.  Cancellation is per-job: a queued job cancels
immediately; a running job gets its cancel token set and the work
function aborts at its next checkpoint (see :mod:`repro.serve.work`).

Every submitted job reaches exactly one terminal state -- the invariant
the acceptance workload ("zero lost jobs under an active fault plan")
asserts.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import heapq
import threading
import time
from typing import Any, Callable, Mapping

from repro import telemetry
from repro.obs import events as obs_events
from repro.serve.protocol import JobSpec, JobState, job_view
from repro.serve.work import JobCancelled
from repro.telemetry import context as trace_context
from repro.telemetry.spans import SpanRecord

#: Default bound on *queued* (not yet running) jobs.
DEFAULT_CAPACITY = 32

#: How long ``stop()`` waits for in-flight jobs before giving up.
STOP_TIMEOUT_SECONDS = 30.0


class QueueFull(RuntimeError):
    """The bounded queue rejected a submission (HTTP 429)."""


class UnknownJob(KeyError):
    """No job with that id (HTTP 404)."""


class _Job:
    """Queue-internal mutable job record (views are the public face)."""

    __slots__ = (
        "id", "spec", "state", "seq", "rank", "submitted_unix",
        "started_unix", "ended_unix", "result", "error", "cancel",
        "trace_id", "parent_span_id", "queue_span_id",
    )

    def __init__(self, job_id: str, spec: JobSpec, seq: int, rank: int) -> None:
        self.id = job_id
        self.spec = spec
        self.state = JobState.QUEUED
        self.seq = seq
        self.rank = rank
        self.submitted_unix = time.time()
        self.started_unix: float | None = None
        self.ended_unix: float | None = None
        self.result: Mapping[str, Any] | None = None
        self.error: str | None = None
        self.cancel = threading.Event()
        # Trace context: the submitting side's trace/parent (from the
        # spec's traceparent) plus the id reserved for this job's own
        # "serve.queue.job" span, synthesized at finalize.
        ctx = (
            trace_context.parse_traceparent(spec.traceparent)
            if spec.traceparent
            else None
        )
        self.trace_id = ctx.trace_id if ctx is not None else ""
        self.parent_span_id = ctx.parent_span_id if ctx is not None else None
        self.queue_span_id: int | None = telemetry.get().allocate_span_id()

    @property
    def order_key(self) -> tuple[int, int, int]:
        return (-self.spec.priority, self.rank, self.seq)

    def context(self) -> trace_context.TraceContext | None:
        """The context job work runs under: this job's trace, parented
        beneath the queue span (so the tree reads client -> queue ->
        work)."""
        parent = (
            self.queue_span_id
            if self.queue_span_id is not None
            else self.parent_span_id
        )
        if not self.trace_id and parent is None:
            return None
        return trace_context.TraceContext(self.trace_id, parent)

    def view(self) -> dict[str, Any]:
        return job_view(
            self.id,
            self.spec,
            self.state,
            submitted_unix=self.submitted_unix,
            started_unix=self.started_unix,
            ended_unix=self.ended_unix,
            result=self.result,
            error=self.error,
            cancel_requested=self.cancel.is_set(),
            trace_id=self.trace_id,
        )


class JobQueue:
    """Priority/fair/bounded scheduler over an asyncio loop thread."""

    def __init__(
        self,
        execute: Callable[[JobSpec, threading.Event], Mapping[str, Any]],
        workers: int = 2,
        capacity: int = DEFAULT_CAPACITY,
        on_terminal: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._execute = execute
        #: Called (loop thread) with the job view after each terminal
        #: transition -- the server hangs the run ledger off this hook.
        self._on_terminal = on_terminal
        self.workers = workers
        self.capacity = capacity
        self._jobs: dict[str, _Job] = {}
        # Kept up to date at every transition (``_move``), so a submit or
        # a scrape costs the same however many jobs the daemon has held.
        self._state_counts = {state: 0 for state in JobState.ALL}
        #: Queued + running jobs per client (absent = none).
        self._in_flight: dict[str, int] = {}
        self._heap: list[tuple[tuple[int, int, int], str]] = []
        self._running: set[str] = set()
        self._seq = 0
        self._closing = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._wake: asyncio.Event | None = None
        self._scheduler_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._loop is not None:
            raise RuntimeError("queue already started")
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-job"
        )
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._wake = asyncio.Event()
            self._scheduler_task = self._loop.create_task(self._scheduler())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        started.wait(timeout=10.0)

    def stop(self, timeout: float = STOP_TIMEOUT_SECONDS) -> None:
        """Graceful shutdown: reject new work, cancel queued jobs,
        request cancellation of running ones, wait briefly."""
        if self._loop is None:
            return
        self._call(self._close_jobs())
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self._call(self._snapshot_running()):
                break
            time.sleep(0.05)
        self._executor.shutdown(wait=False, cancel_futures=True)
        try:
            self._call(self._stop_scheduler())
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()
        self._loop = None

    # -- public (thread-safe) API -------------------------------------------

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Enqueue one validated spec; raises :class:`QueueFull`."""
        return self._call(self._submit(spec))

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel one job; raises :class:`UnknownJob`."""
        return self._call(self._cancel(job_id))

    def get(self, job_id: str) -> dict[str, Any]:
        return self._call(self._get(job_id))

    def list(self) -> list[dict[str, Any]]:
        return self._call(self._list())

    def counts(self) -> dict[str, int]:
        """Jobs per state plus queue depth / worker occupancy."""
        return self._call(self._counts())

    def join(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (tests / smoke)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                return True
            time.sleep(0.02)
        return False

    def _call(self, coro: Any) -> Any:
        if self._loop is None:
            coro.close()
            raise RuntimeError("queue is not running (call start() first)")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=30.0
        )

    # -- loop-side state (single-threaded; no locks) -------------------------

    async def _submit(self, spec: JobSpec) -> dict[str, Any]:
        tm = telemetry.get()
        if self._closing:
            raise QueueFull("daemon is shutting down")
        queued = self._state_counts[JobState.QUEUED]
        if queued >= self.capacity:
            tm.inc("serve.jobs_rejected")
            obs_events.get().warn(
                "serve.job.rejected",
                client=spec.client, kind=spec.kind, app=spec.app,
                queued=queued, capacity=self.capacity,
            )
            raise QueueFull(
                f"queue full ({queued}/{self.capacity} jobs queued); "
                "retry later"
            )
        self._seq += 1
        rank = self._in_flight.get(spec.client, 0)
        job = _Job(f"j{self._seq:06d}", spec, self._seq, rank)
        self._jobs[job.id] = job
        self._state_counts[JobState.QUEUED] += 1
        self._in_flight[spec.client] = rank + 1
        heapq.heappush(self._heap, (job.order_key, job.id))
        self._wake.set()
        tm.inc("serve.jobs_submitted")
        obs_events.get().info(
            "serve.job.queued",
            job=job.id, client=spec.client, kind=spec.kind, app=spec.app,
            priority=spec.priority,
        )
        return job.view()

    async def _cancel(self, job_id: str) -> dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        if job.state == JobState.QUEUED:
            self._move(job, JobState.CANCELLED)
            job.cancel.set()
            job.ended_unix = time.time()
            self._finalize(job)
        elif job.state == JobState.RUNNING:
            # Best effort: the work function aborts at its next
            # checkpoint; the job terminates as CANCELLED then.
            job.cancel.set()
        return job.view()

    async def _get(self, job_id: str) -> dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job.view()

    async def _list(self) -> list[dict[str, Any]]:
        return [
            job.view()
            for job in sorted(self._jobs.values(), key=lambda j: j.seq)
        ]

    async def _counts(self) -> dict[str, int]:
        counts = dict(self._state_counts)
        counts["workers"] = self.workers
        counts["capacity"] = self.capacity
        return counts

    async def _snapshot_running(self) -> int:
        return len(self._running)

    async def _stop_scheduler(self) -> None:
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass

    async def _close_jobs(self) -> None:
        self._closing = True
        for job in self._jobs.values():
            if job.state == JobState.QUEUED:
                self._move(job, JobState.CANCELLED)
                job.cancel.set()
                job.ended_unix = time.time()
                self._finalize(job)
            elif job.state == JobState.RUNNING:
                job.cancel.set()
        self._wake.set()

    # -- scheduler -----------------------------------------------------------

    async def _scheduler(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._heap and len(self._running) < self.workers:
                _, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job.state != JobState.QUEUED:
                    continue  # cancelled while queued; entry is stale
                # Claim the job *before* the task runs so a cancel that
                # lands in between sees RUNNING (token set, checkpoint
                # abort) rather than double-finalizing a queued job.
                self._move(job, JobState.RUNNING)
                self._running.add(job.id)
                asyncio.get_running_loop().create_task(self._run_job(job))

    async def _run_job(self, job: _Job) -> None:
        tm = telemetry.get()
        job.started_unix = time.time()
        tm.observe_hist(
            "serve.queue_wait_seconds",
            job.started_unix - job.submitted_unix, "s",
        )
        obs_events.get().info(
            "serve.job.started",
            job=job.id, client=job.spec.client, kind=job.spec.kind,
            app=job.spec.app,
        )
        loop = asyncio.get_running_loop()
        try:
            job.result = await loop.run_in_executor(
                self._executor, self._execute_traced, job
            )
            state = JobState.DONE
        except JobCancelled:
            state = JobState.CANCELLED
        except Exception as exc:
            state = JobState.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        self._move(job, state)
        job.ended_unix = time.time()
        self._running.discard(job.id)
        self._finalize(job)
        self._wake.set()

    def _move(self, job: _Job, state: str) -> None:
        """Every state change goes through here, to keep the counts."""
        self._state_counts[job.state] -= 1
        self._state_counts[state] += 1
        if state in JobState.TERMINAL:
            client = job.spec.client
            self._in_flight[client] -= 1
            if not self._in_flight[client]:
                del self._in_flight[client]
        job.state = state

    def _execute_traced(self, job: _Job) -> Mapping[str, Any]:
        """Run the work function on a worker thread under the job's
        trace context, so spans the work opens (and hands to
        subprocesses) join the client's trace."""
        with trace_context.activate(job.context()):
            return self._execute(job.spec, job.cancel)

    def _finalize(self, job: _Job) -> None:
        """Terminal-state accounting (runs on the loop thread)."""
        tm = telemetry.get()
        log = obs_events.get()
        self._record_queue_span(job, tm)
        if job.state == JobState.DONE:
            tm.inc("serve.jobs_completed")
            if job.started_unix is not None:
                tm.observe_hist(
                    "serve.job_seconds",
                    job.ended_unix - job.started_unix, "s",
                )
            log.info(
                "serve.job.completed",
                job=job.id, client=job.spec.client, kind=job.spec.kind,
                app=job.spec.app,
            )
        elif job.state == JobState.FAILED:
            tm.inc("serve.jobs_failed")
            log.error(
                "serve.job.failed",
                job=job.id, client=job.spec.client, kind=job.spec.kind,
                app=job.spec.app, error=job.error,
            )
        elif job.state == JobState.CANCELLED:
            tm.inc("serve.jobs_cancelled")
            log.info(
                "serve.job.cancelled",
                job=job.id, client=job.spec.client, kind=job.spec.kind,
                app=job.spec.app,
            )
        if self._on_terminal is not None:
            try:
                self._on_terminal(job.view())
            except Exception:
                # The ledger (or any observer) must never take a job
                # down with it; terminal accounting already happened.
                log.warn("serve.job.on_terminal_error", job=job.id)

    def _record_queue_span(self, job: _Job, tm: Any) -> None:
        """Synthesize the job's ``serve.queue.job`` span.

        Queue jobs interleave on the loop thread, so an
        :class:`~repro.telemetry.spans.ActiveSpan` (thread-local stack)
        would corrupt nesting; instead the span id was reserved at
        submit and the record is written whole at finalize, covering
        submit -> terminal (queue wait + run).
        """
        if job.queue_span_id is None or not tm.enabled:
            return
        ended = job.ended_unix if job.ended_unix is not None else time.time()
        tm.record_span(SpanRecord(
            span_id=job.queue_span_id,
            parent_id=job.parent_span_id,
            name="serve.queue.job",
            category="serve",
            start_ns=tm.unix_to_ns(job.submitted_unix),
            end_ns=tm.unix_to_ns(ended),
            thread_id=threading.get_ident(),
            depth=0,
            args={
                "job": job.id,
                "state": job.state,
                "kind": job.spec.kind,
                "app": job.spec.app,
                "client": job.spec.client,
            },
            trace_id=job.trace_id,
        ))
