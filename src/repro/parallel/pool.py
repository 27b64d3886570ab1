"""Process-pool fan-out for embarrassingly-parallel sweep stages.

The selection methodology's hot loop -- 30 (interval scheme x feature
kind) configurations per application, 25 applications per suite -- is
pure post-processing over one immutable profile, so every task is
independent.  :func:`parallel_map` turns that structure into wall-clock
speedup while preserving three guarantees the sweep drivers rely on:

* **Determinism** -- results come back in task order, and every task is
  a pure function of its (pickled) arguments, so a parallel sweep is
  bit-identical to the serial one.
* **Isolation** -- a task that raises is captured as a per-task error
  (:class:`TaskOutcome`); the other tasks still complete and return.
* **Observability** -- when telemetry is enabled, each worker records
  into its own fresh registry and ships a snapshot back; the parent
  merges every snapshot (in task order) so the Chrome trace stays
  complete under parallel runs (see :mod:`repro.telemetry.snapshot`).

An argument that is the same object in every task (``explore``'s
profile and timing trace) reaches each worker once, through the pool
initializer; each task carries only its own arguments (the config).

Job count comes from the explicit ``jobs`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (serial).  ``jobs=0``
means "all cores"; anything else non-positive (or non-integer) is
rejected with a clear :class:`ValueError` rather than silently
misbehaving.  ``jobs=1`` -- and any pool that fails to start, in its
constructor or when the first submit forks its workers -- runs the
exact same tasks serially in-process.  Workers export
``REPRO_PARALLEL_WORKER=1`` so nested sweeps inside a worker always
resolve to serial instead of forking grandchild pools.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import queue as queue_module
import threading
import time
import traceback
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.obs import events as obs_events
from repro.obs import live as obs_live
from repro.obs.events import EventRecord
from repro.telemetry import context as trace_context
from repro.telemetry.snapshot import (
    DeltaTracker,
    TelemetrySnapshot,
    capture_snapshot,
)

#: Job-count environment control (``0`` = all cores).
JOBS_ENV = "REPRO_JOBS"

#: Set inside workers; forces :func:`resolve_jobs` to 1 (no nested pools).
WORKER_ENV = "REPRO_PARALLEL_WORKER"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the effective worker count.

    Explicit ``jobs`` wins; ``None`` falls back to ``REPRO_JOBS``; unset
    means 1 (serial).  ``0`` means "all cores".  Anything else --
    non-integers, negative counts -- raises ``ValueError`` with a
    message naming the offending source, so ``REPRO_JOBS=abc`` or
    ``--jobs -3`` fail loudly instead of silently doing something the
    caller didn't ask for.  Inside a worker process the answer is
    always 1.
    """
    if os.environ.get(WORKER_ENV):
        return 1
    source = "jobs"
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        source = JOBS_ENV
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be a non-negative integer "
                f"(0 = all cores), got {raw!r}"
            ) from None
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a non-negative integer (0 = all cores), "
            f"got {jobs!r}"
        ) from None
    if jobs < 0:
        raise ValueError(
            f"{source} must be >= 0 (0 = all cores), got {jobs}"
        )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """One task's result or captured failure, at its input position."""

    index: int
    value: Any = None
    error: str | None = None
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass(frozen=True)
class _WorkerResult:
    """What a worker process ships back per task."""

    value: Any
    error: str | None
    traceback: str | None
    snapshot: TelemetrySnapshot | None
    events: tuple[EventRecord, ...] = ()
    #: Heartbeat source name, so the parent can retire the source's
    #: in-flight live-hub contribution after merging the final snapshot.
    source: str = ""


#: Position -> object for the arguments every task of this worker's
#: pool shares; set once per worker process by the pool initializer.
_shared_args: dict[int, Any] = {}


def _install_shared(shared: dict[int, Any]) -> None:
    """Pool initializer: keep the arguments every task shares."""
    global _shared_args
    _shared_args = shared


def _split_shared(tasks: list[tuple]) -> tuple[dict[int, Any], list[tuple]]:
    """Split off the positions that hold the same object in every
    task; returns them and each task's own arguments."""
    if any(len(args) != len(tasks[0]) for args in tasks):
        return {}, tasks
    shared = {
        i: arg
        for i, arg in enumerate(tasks[0])
        if all(args[i] is arg for args in tasks)
    }
    return shared, [
        tuple(arg for i, arg in enumerate(args) if i not in shared)
        for args in tasks
    ]


def _with_shared(args: tuple) -> tuple:
    """A task's own arguments with the worker's shared ones put back."""
    own = iter(args)
    return tuple(
        _shared_args[i] if i in _shared_args else next(own)
        for i in range(len(args) + len(_shared_args))
    )


def _stop_workers(executor: concurrent.futures.ProcessPoolExecutor) -> None:
    """Terminate the workers of a pool whose start failed part way:
    they wait for tasks no manager thread will send, and would block
    interpreter exit."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
        process.join()


def _heartbeat_loop(
    heartbeat_queue: Any,
    tracker: DeltaTracker,
    tm: Any,
    log: Any,
    stop: threading.Event,
    interval: float,
) -> None:
    """Worker-side ticker: ship a delta every ``interval`` seconds while
    the task runs.  Any channel failure ends heartbeating quietly -- the
    end-of-task snapshot still delivers everything."""
    while not stop.wait(interval):
        try:
            delta = tracker.capture(tm, log)
            if delta is not None:
                heartbeat_queue.put(delta)
        except Exception:
            return


def _run_task(
    fn: Callable[..., Any],
    args: tuple,
    capture: bool,
    heartbeat: Any = None,
    trace: tuple[str, int | None] | None = None,
) -> _WorkerResult:
    """Worker-side wrapper: run one task under fresh telemetry and
    event-log sessions; both are shipped back for the parent to merge.

    ``trace`` is the parent's ``(trace_id, fan-out span id)``: the
    worker activates it as a :class:`~repro.telemetry.context
    .TraceContext`, so every root span the task opens joins the
    dispatching request's trace and parents under the fan-out span --
    with globally-unique span ids, the merged edges need no remapping.

    With a ``heartbeat`` spec, a daemon ticker thread additionally
    streams :class:`~repro.telemetry.snapshot.TelemetryDelta` heartbeats
    over the side channel while the task runs, ending with a ``final``
    delta -- the live endpoint's in-flight view (see
    :mod:`repro.obs.live`).
    """
    os.environ[WORKER_ENV] = "1"
    args = _with_shared(args)
    if not capture:
        try:
            return _WorkerResult(fn(*args), None, None, None)
        except Exception as exc:
            return _WorkerResult(
                None, _format_error(exc), traceback.format_exc(), None
            )
    ctx = None
    if trace is not None:
        ctx = trace_context.TraceContext(trace[0], trace[1])
    with telemetry.session() as tm, obs_events.session() as log, \
            trace_context.activate(ctx):
        tracker = stop = ticker = None
        source = ""
        if heartbeat is not None:
            try:
                heartbeat_queue, source, task_label, interval = heartbeat
                tracker = DeltaTracker(source, task=task_label)
                stop = threading.Event()
                ticker = threading.Thread(
                    target=_heartbeat_loop,
                    args=(heartbeat_queue, tracker, tm, log, stop, interval),
                    name="repro-heartbeat",
                    daemon=True,
                )
                ticker.start()
            except Exception:
                tracker = stop = ticker = None
                source = ""
        start = time.perf_counter()
        error = tb = None
        try:
            value = fn(*args)
        except Exception as exc:
            value = None
            error = _format_error(exc)
            tb = traceback.format_exc()
        tm.observe_hist(
            "parallel.task_seconds", time.perf_counter() - start, "s"
        )
        if tracker is not None:
            stop.set()
            ticker.join(timeout=5.0)
            try:
                final = tracker.capture(tm, log, final=True)
                if final is not None:
                    heartbeat_queue.put(final)
            except Exception:
                pass
        return _WorkerResult(
            value,
            error,
            tb,
            capture_snapshot(tm),
            tuple(log.records()),
            source,
        )


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serial_map(
    fn: Callable[..., Any], tasks: Sequence[tuple], batch_id: int = -1
) -> list[TaskOutcome]:
    """In-process execution; telemetry records directly into the caller's
    registry, so no snapshot plumbing is needed (and the live endpoint
    reads the caller's registry directly -- serial runs are inherently
    live)."""
    tm = telemetry.get()
    hub = obs_live.get()
    outcomes: list[TaskOutcome] = []
    for index, args in enumerate(tasks):
        start = time.perf_counter()
        try:
            outcomes.append(TaskOutcome(index, value=fn(*args)))
        except Exception as exc:
            outcomes.append(
                TaskOutcome(
                    index,
                    error=_format_error(exc),
                    traceback=traceback.format_exc(),
                )
            )
        if tm.enabled:
            tm.observe_hist(
                "parallel.task_seconds", time.perf_counter() - start, "s"
            )
        if hub.enabled:
            hub.task_done(batch_id, ok=outcomes[-1].ok)
    return outcomes


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Sequence[Any]],
    *,
    jobs: int | None = None,
    capture_telemetry: bool | None = None,
    label: str = "parallel.map",
) -> list[TaskOutcome]:
    """Run ``fn(*args)`` for every args-tuple in ``tasks``.

    Returns one :class:`TaskOutcome` per task, **in task order**
    regardless of completion order.  ``fn`` must be a module-level
    callable and every argument picklable (both trivially hold for the
    sweep stages this serves).  See the module docstring for the
    determinism / isolation / telemetry guarantees.
    """
    task_tuples = [tuple(args) for args in tasks]
    n_jobs = min(resolve_jobs(jobs), max(1, len(task_tuples)))
    tm = telemetry.get()
    hub = obs_live.get()
    if capture_telemetry is None:
        capture_telemetry = tm.enabled or obs_events.is_enabled()
    batch_id = (
        hub.begin_batch(label, len(task_tuples)) if hub.enabled else -1
    )
    with tm.span(
        label, category="parallel", tasks=len(task_tuples), jobs=n_jobs
    ) as span:
        try:
            if n_jobs == 1:
                outcomes = _serial_map(fn, task_tuples, batch_id)
            else:
                outcomes = _pool_map(
                    fn, task_tuples, n_jobs, bool(capture_telemetry), batch_id
                )
        finally:
            if hub.enabled:
                hub.end_batch(batch_id)
        failed = sum(1 for o in outcomes if not o.ok)
        span.annotate(failed=failed)
    if tm.enabled:
        tm.inc("parallel.tasks", len(task_tuples))
        if failed:
            tm.inc("parallel.task_failures", failed)
    return outcomes


def _drain_heartbeats(
    heartbeat_queue: Any, hub: Any, stop: threading.Event
) -> None:
    """Parent-side drain: apply worker deltas to the live hub as they
    arrive.  Runs until ``stop`` is set *and* the queue is empty --
    every final delta is put before the worker's result is returned, so
    a post-``stop`` drain-to-empty consumes everything."""
    while True:
        try:
            delta = heartbeat_queue.get(timeout=0.25)
        except queue_module.Empty:
            if stop.is_set():
                return
            continue
        except Exception:
            # Manager torn down; nothing more will arrive.
            return
        if delta is None:
            return
        try:
            hub.apply_delta(delta)
        except Exception:
            pass


def _start_heartbeat_channel(
    hub: Any,
) -> tuple[Any, Any, threading.Event, threading.Thread] | None:
    """Build the side channel: a Manager queue (proxy objects pickle
    into ProcessPoolExecutor tasks, plain multiprocessing queues do
    not) plus the parent drain thread.  ``None`` -- live view degrades
    to end-of-task merges only -- when no Manager can start."""
    try:
        import multiprocessing

        manager = multiprocessing.Manager()
        heartbeat_queue = manager.Queue()
    except Exception:
        tm = telemetry.get()
        if tm.enabled:
            tm.inc("parallel.heartbeat_fallbacks")
        return None
    stop = threading.Event()
    thread = threading.Thread(
        target=_drain_heartbeats,
        args=(heartbeat_queue, hub, stop),
        name="repro-heartbeat-drain",
        daemon=True,
    )
    thread.start()
    return manager, heartbeat_queue, stop, thread


def _pool_map(
    fn: Callable[..., Any],
    tasks: list[tuple],
    n_jobs: int,
    capture: bool,
    batch_id: int = -1,
) -> list[TaskOutcome]:
    tm = telemetry.get()
    hub = obs_live.get()
    # Shared arguments are inherited under fork and pickled once per
    # worker under spawn or forkserver.
    shared, own_args = _split_shared(tasks)
    try:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=n_jobs,
            initializer=_install_shared,
            initargs=(shared,),
        )
    except (OSError, ValueError, ImportError, NotImplementedError):
        # No usable multiprocessing (restricted sandboxes, missing
        # semaphores): the serial path produces identical results.
        tm.inc("parallel.pool_fallbacks")
        return _serial_map(fn, tasks, batch_id)
    channel = None
    if capture and hub.enabled:
        channel = _start_heartbeat_channel(hub)
    interval = obs_live.heartbeat_interval() if channel else 0.0
    task_name = getattr(fn, "__name__", "task")
    parent_span_id = tm.current_span_id()
    # Hand the dispatching request's trace (and the fan-out span as the
    # parent) to every worker; "" means "no trace", which still carries
    # the parent edge so merged worker roots stay attached.
    trace = (
        (tm.current_trace_id(), parent_span_id)
        if parent_span_id is not None
        else None
    )
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    snapshots: list[TelemetrySnapshot | None] = [None] * len(tasks)
    worker_events: list[tuple[EventRecord, ...]] = [()] * len(tasks)
    sources: list[str] = [""] * len(tasks)
    with executor:
        futures = {}
        for index, args in enumerate(own_args):
            heartbeat = None
            if channel is not None:
                heartbeat = (
                    channel[1],
                    f"b{batch_id}.t{index}",
                    f"{task_name}[{index}]",
                    interval,
                )
            try:
                future = executor.submit(
                    _run_task, fn, args, capture, heartbeat, trace
                )
            except OSError:
                if futures:
                    raise
                # Workers start at the first submit, not in the
                # constructor: a fork that fails (EAGAIN) lands here,
                # before any task has run.
                _stop_workers(executor)
                break
            futures[future] = index
        for future in concurrent.futures.as_completed(futures):
            index = futures[future]
            try:
                result = future.result()
            except Exception as exc:
                # The pool itself broke (worker killed, pickling of the
                # *result* failed, ...) -- Python-level task exceptions
                # never reach here, _run_task captures them.
                outcomes[index] = TaskOutcome(
                    index,
                    error=_format_error(exc),
                    traceback=traceback.format_exc(),
                )
                if hub.enabled:
                    hub.task_done(batch_id, ok=False)
                continue
            outcomes[index] = TaskOutcome(
                index,
                value=result.value,
                error=result.error,
                traceback=result.traceback,
            )
            snapshots[index] = result.snapshot
            worker_events[index] = result.events
            sources[index] = result.source
            if hub.enabled:
                hub.task_done(batch_id, ok=result.error is None)
    if channel is not None:
        # Every final delta was enqueued before its task's result came
        # back, so drain-to-empty here is complete -- and it must finish
        # BEFORE sources are retired below, or a late delta would
        # resurrect a retired source and double count.
        manager, _, stop, thread = channel
        stop.set()
        thread.join(timeout=10.0)
        try:
            manager.shutdown()
        except Exception:
            pass
    if not futures:
        # The first submit could not start the workers.
        tm.inc("parallel.pool_fallbacks")
        return _serial_map(fn, tasks, batch_id)
    if capture and tm.enabled:
        # Deterministic merge order: task order, not completion order.
        # Retiring each source right after its snapshot merges keeps the
        # live totals monotonic: the worker's contribution moves from
        # the accumulator into the parent registry, never vanishing.
        for index, snapshot in enumerate(snapshots):
            if snapshot is not None:
                telemetry.merge_snapshot(tm, snapshot, parent_span_id)
                if sources[index] and hub.enabled:
                    hub.retire_source(sources[index])
    if capture:
        log = obs_events.get()
        if log.enabled:
            for records in worker_events:
                log.absorb(records)
    return [o for o in outcomes if o is not None]
