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
* **Observability** -- when telemetry or the event log is enabled,
  each worker records into its own fresh registry and event log and
  returns the task's *final delta* with its result: one
  :class:`~repro.telemetry.snapshot.TelemetryDelta` carrying every
  series, span and event record.  The parent folds the final deltas
  in task order, so the Chrome trace and the event log stay complete
  under parallel runs.  With the live hub on, workers also send
  heartbeats (deltas of the same type) on a queue while a task runs,
  and each final delta reaches the hub as its result arrives (see
  :mod:`repro.obs.live`).

An argument that is the same object in every task (``explore``'s
profile and timing trace) reaches each worker once, through the pool
initializer, as does the heartbeat queue; each task carries only its
own arguments (the config).

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
import contextlib
import dataclasses
import os
import threading
import time
import traceback
from typing import Any, Callable, Iterator, Sequence

from repro import telemetry
from repro.obs import events as obs_events
from repro.obs import live as obs_live
from repro.telemetry import context as trace_context
from repro.telemetry.snapshot import DeltaTracker, TelemetryDelta

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
    #: The task's final telemetry delta; ``None`` with capture off.
    delta: TelemetryDelta | None = None


#: Set once per worker process by the pool initializer: position ->
#: object for the arguments every task of the pool shares, and the
#: queue heartbeats travel on (``None`` with the live hub off).
_shared_args: dict[int, Any] = {}
_heartbeat_queue: Any = None


def _install_worker(shared: dict[int, Any], channel: list[Any]) -> None:
    """Pool initializer: keep the arguments every task shares, and the
    heartbeat queue when ``channel`` holds one."""
    global _shared_args, _heartbeat_queue
    _shared_args = shared
    _heartbeat_queue = channel[0] if channel else None


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
    tracker: DeltaTracker,
    tm: Any,
    log: Any,
    stop: threading.Event,
    interval: float,
) -> None:
    """Worker-side ticker: send a heartbeat every ``interval`` seconds
    while the task runs.  Any channel failure ends heartbeating quietly
    -- the final delta still delivers everything."""
    while not stop.wait(interval):
        try:
            delta = tracker.capture(tm, log)
            if delta is not None:
                _heartbeat_queue.put(delta)
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
    event-log sessions and return both as the task's final delta.

    ``trace`` is the parent's ``(trace_id, fan-out span id)``: the
    worker activates it as a :class:`~repro.telemetry.context
    .TraceContext`, so every root span the task opens joins the
    dispatching request's trace and parents under the fan-out span --
    with globally-unique span ids, the merged edges need no remapping.

    ``heartbeat`` is ``(source, task label, interval)``, naming the
    task's deltas for the parent's live hub.  With a heartbeat queue
    installed, a daemon ticker thread also sends heartbeats on it every
    ``interval`` seconds while the task runs -- the live endpoint's
    in-flight view (see :mod:`repro.obs.live`).
    """
    os.environ[WORKER_ENV] = "1"
    args = _with_shared(args)
    if not capture:
        try:
            return _WorkerResult(fn(*args), None, None)
        except Exception as exc:
            return _WorkerResult(
                None, _format_error(exc), traceback.format_exc()
            )
    source, task_label, interval = heartbeat or ("", "", 0.0)
    ctx = None
    if trace is not None:
        ctx = trace_context.TraceContext(trace[0], trace[1])
    with telemetry.session() as tm, obs_events.session() as log, \
            trace_context.activate(ctx):
        tracker = DeltaTracker(source, task=task_label)
        ticker = None
        if interval and _heartbeat_queue is not None:
            stop = threading.Event()
            ticker = threading.Thread(
                target=_heartbeat_loop,
                args=(tracker, tm, log, stop, interval),
                name="repro-heartbeat",
                daemon=True,
            )
            try:
                ticker.start()
            except RuntimeError:  # no thread to spare: no heartbeats
                ticker = None
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
        if ticker is not None:
            stop.set()
            ticker.join(timeout=5.0)
        return _WorkerResult(
            value, error, tb, tracker.capture(tm, log, final=True)
        )


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serial_map(
    fn: Callable[..., Any], tasks: Sequence[tuple], batch_id: int = -1
) -> list[TaskOutcome]:
    """In-process execution; telemetry records directly into the caller's
    registry, so no delta plumbing is needed (and the live endpoint
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
                outcomes = _pool_map(fn, task_tuples, n_jobs, batch_id)
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


@contextlib.contextmanager
def _draining(heartbeat_queue: Any, hub: Any) -> Iterator[None]:
    """A parent thread applies worker heartbeats from ``heartbeat_queue``
    to the live hub for the block, until the ``None`` sentinel.

    Enter it before the executor's block.  A worker flushes its queued
    heartbeats before it exits, and leaving the executor's block waits
    for every worker to exit -- so the sentinel sent here goes in behind
    the last heartbeat, and the thread keeps reading until then.
    """

    def drain() -> None:
        for delta in iter(heartbeat_queue.get, None):
            try:
                hub.apply_delta(delta)
            except Exception:
                pass  # keep reading: a worker's exit waits on its queue

    thread = threading.Thread(
        target=drain,
        name="repro-heartbeat-drain",
        daemon=True,
    )
    thread.start()
    try:
        yield
    finally:
        heartbeat_queue.put(None)
        thread.join(timeout=10.0)
        heartbeat_queue.close()
        if thread.is_alive():
            # No sentinel came through: a killed worker may hold the
            # queue's write lock, which the join would wait on forever.
            heartbeat_queue.cancel_join_thread()
        else:
            heartbeat_queue.join_thread()


def _pool_map(
    fn: Callable[..., Any],
    tasks: list[tuple],
    n_jobs: int,
    batch_id: int = -1,
) -> list[TaskOutcome]:
    tm = telemetry.get()
    hub = obs_live.get()
    # Workers capture when the parent keeps telemetry or an event log.
    capture = tm.enabled or obs_events.is_enabled()
    live = capture and hub.enabled
    # Read before any process or queue exists: a bad value raises here,
    # with nothing to clean up.
    interval = obs_live.heartbeat_interval() if live else 0.0
    # Shared arguments are inherited under fork and pickled once per
    # worker under spawn or forkserver.  The heartbeat queue must come
    # from the pool's own start-method context, so it joins ``channel``
    # once the executor exists -- before the first submit starts the
    # workers that receive it.
    shared, own_args = _split_shared(tasks)
    channel: list[Any] = []
    try:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=n_jobs,
            initializer=_install_worker,
            initargs=(shared, channel),
        )
    except (OSError, ValueError, ImportError, NotImplementedError):
        # No usable multiprocessing (restricted sandboxes, missing
        # semaphores): the serial path produces identical results.
        tm.inc("parallel.pool_fallbacks")
        return _serial_map(fn, tasks, batch_id)
    drain: Any = contextlib.nullcontext()
    if live:
        channel.append(executor._mp_context.Queue())
        drain = _draining(channel[0], hub)
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
    deltas: list[TelemetryDelta | None] = [None] * len(tasks)
    with drain, executor:
        futures = {}
        for index, args in enumerate(own_args):
            heartbeat = None
            if live:
                heartbeat = (
                    f"b{batch_id}.t{index}", f"{task_name}[{index}]", interval
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
            deltas[index] = result.delta
            if live:
                hub.apply_delta(result.delta)
            if hub.enabled:
                hub.task_done(batch_id, ok=result.error is None)
    if not futures:
        # The first submit could not start the workers.
        tm.inc("parallel.pool_fallbacks")
        return _serial_map(fn, tasks, batch_id)
    # Fold in task order, not completion order: float sums depend on
    # it.  A source retires only after its fold, so its live totals move
    # from the hub into the registry without vanishing, and only after
    # the drain, so no late heartbeat brings it back.
    log = obs_events.get()
    for delta in deltas:
        if delta is not None:
            telemetry.merge_delta(tm, delta, parent_span_id)
            log.absorb(delta.events)
            hub.retire_source(delta.source)
    return [o for o in outcomes if o is not None]
