"""The daemon's job queue: priorities, fairness, backpressure.

One :class:`threading.Condition` guards every piece of queue state.
HTTP handler threads submit, cancel and query under its lock and get
plain dict views back.  The queue's own ``workers`` threads each take
the next job under the lock, run it outside the lock, and record how
it ended under the lock again, so job work never runs on a handler
thread and never holds up a query; per-job parallel stages can still
fan out through :mod:`repro.parallel` (each executing job may carry
its own ``jobs`` fan-out, exactly like the CLI).

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
    """Priority/fair/bounded scheduler run by its own worker threads."""

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
        #: Called (under the queue lock) with the job view after each
        #: terminal transition -- the server hangs the run ledger off
        #: this hook.
        self._on_terminal = on_terminal
        self.workers = workers
        self.capacity = capacity
        # Guards every field below; idle workers, join() and stop() all
        # wait on it, so every change wakes every waiter.
        self._cond = threading.Condition()
        self._jobs: dict[str, _Job] = {}
        # Kept up to date at every transition (``_move``), so a submit or
        # a scrape costs the same however many jobs the daemon has held.
        self._state_counts = {state: 0 for state in JobState.ALL}
        #: Queued + running jobs per client (absent = none).
        self._in_flight: dict[str, int] = {}
        self._heap: list[tuple[tuple[int, int, int], _Job]] = []
        self._seq = 0
        self._closing = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("queue already started")
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-serve-job-{n}", daemon=True
            )
            for n in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self, timeout: float = STOP_TIMEOUT_SECONDS) -> None:
        """Graceful shutdown: reject new work, cancel queued jobs,
        request cancellation of running ones, wait up to ``timeout``.
        A job still running then keeps its (daemon) worker thread and
        reaches its terminal state when it returns."""
        deadline = time.monotonic() + timeout
        with self._cond:
            self._closing = True
            for job in self._jobs.values():
                self._cancel(job)
            self._cond.notify_all()
            self._cond.wait_for(
                lambda: not self._state_counts[JobState.RUNNING], timeout
            )
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    # -- public (thread-safe) API -------------------------------------------

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Enqueue one validated spec; raises :class:`QueueFull`."""
        with self._cond:
            if not self._threads:
                raise RuntimeError("queue is not running (call start() first)")
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
            heapq.heappush(self._heap, (job.order_key, job))
            tm.inc("serve.jobs_submitted")
            obs_events.get().info(
                "serve.job.queued",
                job=job.id, client=spec.client, kind=spec.kind, app=spec.app,
                priority=spec.priority,
            )
            self._cond.notify_all()
            return job.view()

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel one job; raises :class:`UnknownJob`."""
        with self._cond:
            job = self._job(job_id)
            self._cancel(job)
            return job.view()

    def get(self, job_id: str) -> dict[str, Any]:
        with self._cond:
            return self._job(job_id).view()

    def list(self) -> list[dict[str, Any]]:
        with self._cond:
            # Jobs are held in submit (seq) order.
            return [job.view() for job in self._jobs.values()]

    def counts(self) -> dict[str, int]:
        """Jobs per state plus queue depth / worker occupancy."""
        with self._cond:
            counts = dict(self._state_counts)
        counts["workers"] = self.workers
        counts["capacity"] = self.capacity
        return counts

    def join(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (tests / smoke)."""
        counts = self._state_counts
        with self._cond:
            return self._cond.wait_for(
                lambda: not counts[JobState.QUEUED]
                and not counts[JobState.RUNNING],
                timeout,
            )

    # -- under the lock ------------------------------------------------------

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

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

    def _cancel(self, job: _Job) -> None:
        """A queued job cancels now; a running one gets its token set
        and aborts at the work function's next checkpoint, terminating
        as CANCELLED then (best effort)."""
        if job.state not in JobState.TERMINAL:
            job.cancel.set()
        if job.state == JobState.QUEUED:
            self._end(job, JobState.CANCELLED)

    def _end(self, job: _Job, state: str) -> None:
        """Move ``job`` to its terminal ``state`` and account for it."""
        job.ended_unix = time.time()
        self._move(job, state)
        self._finalize(job)
        self._cond.notify_all()

    # -- workers -------------------------------------------------------------

    def _work(self) -> None:
        """One worker thread: take the best queued job, run it outside
        the lock under the job's trace context (so the spans the work
        opens join the client's trace), record how it ended."""
        while True:
            with self._cond:
                job = self._next_job()
                while job is None and not self._closing:
                    self._cond.wait()
                    job = self._next_job()
                if job is None:
                    return
                # Claimed under the lock, so a cancel that lands next
                # sees RUNNING (token set, checkpoint abort) rather than
                # ending a job that is about to run.
                self._move(job, JobState.RUNNING)
                job.started_unix = time.time()
            telemetry.get().observe_hist(
                "serve.queue_wait_seconds",
                job.started_unix - job.submitted_unix, "s",
            )
            obs_events.get().info(
                "serve.job.started",
                job=job.id, client=job.spec.client, kind=job.spec.kind,
                app=job.spec.app,
            )
            result = error = None
            try:
                with trace_context.activate(job.context()):
                    result = self._execute(job.spec, job.cancel)
                state = JobState.DONE
            except JobCancelled:
                state = JobState.CANCELLED
            except Exception as exc:
                state = JobState.FAILED
                error = f"{type(exc).__name__}: {exc}"
            with self._cond:
                job.result, job.error = result, error
                self._end(job, state)

    def _next_job(self) -> _Job | None:
        """Pop the best still-queued job (entries of jobs cancelled
        while queued are stale and skipped)."""
        while self._heap:
            _, job = heapq.heappop(self._heap)
            if job.state == JobState.QUEUED:
                return job
        return None

    def _finalize(self, job: _Job) -> None:
        """Terminal-state accounting (under the queue lock, so terminal
        records and ``on_terminal`` calls never interleave)."""
        tm = telemetry.get()
        log = obs_events.get()
        self._record_queue_span(job, tm)
        if job.state == JobState.DONE:
            tm.inc("serve.jobs_completed")
            tm.observe_hist(
                "serve.job_seconds", job.ended_unix - job.started_unix, "s"
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

        The span opens on the submitting thread and closes on whichever
        thread ends the job, so an
        :class:`~repro.telemetry.spans.ActiveSpan` (thread-local stack)
        cannot hold it; instead the span id was reserved at submit and
        the record is written whole at finalize, covering submit ->
        terminal (queue wait + run).
        """
        if job.queue_span_id is None or not tm.enabled:
            return
        tm.record_span(SpanRecord(
            span_id=job.queue_span_id,
            parent_id=job.parent_span_id,
            name="serve.queue.job",
            category="serve",
            start_ns=tm.unix_to_ns(job.submitted_unix),
            end_ns=tm.unix_to_ns(job.ended_unix),
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
