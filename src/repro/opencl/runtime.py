"""The OpenCL runtime model: API dispatch, command queue, sync semantics.

This is the left-hand column of Figure 1.  The runtime receives host API
calls, forwards kernel enqueues to the driver's command queue, and -- at
each of the seven synchronization calls -- flushes the queue, which is
when kernel invocations actually execute on the device.  Kernel work is
asynchronous to the host between sync calls, which is why the paper treats
sync calls as the only legal simulation-interval boundaries (Section II).

Two interposition points are modelled faithfully:

* ``add_interceptor`` registers a callable invoked with every API call
  just before the runtime acts on it -- where Intel CoFluent captures its
  traces (Section IV-B);
* at construction the runtime accepts ``init_hooks`` -- GT-Pin's
  runtime-initialization interception (Figure 1, middle), used to allocate
  the trace buffer and install the binary rewriter into the driver.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro import faults, telemetry
from repro.obs import events as obs_events

# Module-style fault imports: this module sits inside the import cycle
# repro.faults.errors -> repro.opencl -> runtime, so injected-error names
# must resolve lazily at call time rather than at import time.
from repro.faults import errors as fault_errors
from repro.faults import retry as fault_retry
from repro.gpu.execution import KernelDispatch
from repro.opencl.api import (
    KERNEL_ENQUEUE,
    PAPER_KERNEL_ENQUEUE_SPELLING,
    SYNCHRONIZATION_CALLS,
    APICall,
)
from repro.opencl.errors import (
    BuildProgramFailure,
    InvalidArgIndex,
    InvalidKernelArgs,
    InvalidKernelName,
    InvalidMemObject,
    InvalidOperation,
    InvalidWorkSize,
)
from repro.opencl.host_program import HostProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (driver -> errors)
    from repro.driver.driver import GPUDriver
    from repro.driver.jit import KernelSource

#: Interceptors observe every API call (CoFluent's capture point).
APIInterceptor = Callable[[APICall], None]

#: Init hooks run once when a runtime session starts (GT-Pin's attach point).
RuntimeInitHook = Callable[["OpenCLRuntime"], None]


@dataclasses.dataclass
class _PendingEnqueue:
    """A kernel enqueue sitting in the command queue awaiting a flush."""

    kernel_name: str
    arg_values: dict[str, float]
    global_work_size: int
    enqueue_call_index: int
    #: Snapshot of device-memory data state at enqueue time.
    data_env: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ProgramRun:
    """Everything one execution of a host program produced."""

    program_name: str
    api_calls: tuple[APICall, ...]
    dispatches: tuple[KernelDispatch, ...]
    #: API-stream indices of the synchronization calls, in order.
    sync_call_indices: tuple[int, ...]
    trial_seed: int
    device_name: str
    #: Unrecovered injected faults this run degraded through (empty when
    #: faults are disabled or every fault was retried away).
    fault_events: tuple[fault_errors.FaultEvent, ...] = ()
    #: Host buffer-write log: ``(api call index, buffer key)`` for every
    #: ``clEnqueueWrite*`` payload, in stream order.  Together with each
    #: dispatch's ``buffer_reads``/``buffer_writes`` this is the raw
    #: material for dispatch-dependency analysis
    #: (:mod:`repro.simulation.dispatch_graph`).
    host_writes: tuple[tuple[int, str], ...] = ()

    @property
    def total_instructions(self) -> int:
        return sum(d.instruction_count for d in self.dispatches)

    @property
    def total_kernel_seconds(self) -> float:
        return sum(d.time_seconds for d in self.dispatches)

    @property
    def measured_spi(self) -> float:
        """Whole-program seconds-per-instruction (Eq. 1 denominator).

        Combined kernel seconds over combined dynamic instructions, exactly
        as Section V-B defines "measured SPI".
        """
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return self.total_kernel_seconds / instructions


class OpenCLRuntime:
    """Executes host programs against a driver + device."""

    def __init__(
        self,
        driver: "GPUDriver",
        init_hooks: tuple[RuntimeInitHook, ...] = (),
    ) -> None:
        self.driver = driver
        self._interceptors: list[APIInterceptor] = []
        self._sources: dict[str, "KernelSource"] = {}
        self._kernel_args: dict[str, dict[str, float]] = {}
        self._queue: list[_PendingEnqueue] = []
        self._built = False
        self._failed_kernels: set[str] = set()
        self._fault_events: list[fault_errors.FaultEvent] = []
        self._host_writes: list[tuple[int, str]] = []
        self._dispatches: list[KernelDispatch] = []
        self._sync_indices: list[int] = []
        self._enqueues = 0
        self._rng: np.random.Generator | None = None
        # Device-memory contents the host has written (buffer payload
        # scalars); data-dependent kernel control flow reads these.  Keys
        # use the reserved "__" prefix so they can never collide with
        # kernel argument names.
        self._data_env: dict[str, float] = {}
        # GT-Pin intercepts the application's initial contact with the
        # runtime; hooks run exactly once, here.
        for hook in init_hooks:
            hook(self)

    # -- interposition -------------------------------------------------------

    def add_interceptor(self, interceptor: APIInterceptor) -> None:
        self._interceptors.append(interceptor)

    # -- program setup ---------------------------------------------------------

    def load_sources(self, sources: Mapping[str, "KernelSource"]) -> None:
        """Associate kernel sources (``clCreateProgramWithSource`` payload)."""
        self._sources = dict(sources)

    def _arg_names(self, kernel_name: str) -> tuple[str, ...]:
        try:
            return self._sources[kernel_name].body.arg_names
        except KeyError:
            known = ", ".join(sorted(self._sources)) or "<none>"
            raise InvalidKernelName(
                f"kernel {kernel_name!r} not in program sources; known: {known}"
            ) from None

    # -- execution ----------------------------------------------------------------

    def run(self, program: HostProgram, trial_seed: int = 0) -> ProgramRun:
        """Execute a host program end-to-end; returns the full run record.

        ``trial_seed`` drives all device non-determinism (data-dependent
        trip counts and timing noise); re-running with the same seed is the
        modelled equivalent of a CoFluent deterministic replay.
        """
        self._rng = np.random.default_rng(trial_seed)
        self.driver.device.reset()
        self._kernel_args.clear()
        self._queue.clear()
        self._built = False
        self._data_env.clear()
        self._failed_kernels = set()
        self._fault_events = []
        self._host_writes = []
        self._dispatches = []
        self._sync_indices = []
        self._enqueues = 0
        # Same program + same trial seed => same fault-scope tag, so the
        # CoFluent recording pass and the GT-Pin profiling pass of one
        # workload replay an *identical* injected-fault sequence and their
        # dispatch streams stay aligned.
        fi = faults.get()
        if fi.enabled:
            fi.begin_scope(f"run/{program.name}/{trial_seed}")

        tm = telemetry.get()
        traced = tm.calls
        interceptors = self._interceptors
        handlers = _HANDLERS
        with tm.span(
            "runtime.run", category="opencl",
            program=program.name, seed=trial_seed,
        ) as run_span:
            for call_index, call in enumerate(program.calls):
                for interceptor in interceptors:
                    interceptor(call)
                # One lookup finds what the call does; calls with no
                # device-visible effect have no handler.
                handler = handlers.get(call.name)
                if traced:
                    with tm.span(f"api.{call.name}", category="opencl"):
                        if handler is not None:
                            handler(self, call, call_index)
                elif handler is not None:
                    handler(self, call, call_index)

            # Work enqueued after the last synchronization call still
            # executes (the process exit implies a finish); it belongs to
            # the trailing sync epoch.
            self._dispatches.extend(self._flush(len(self._sync_indices)))
            run_span.annotate(
                api_calls=len(program.calls),
                dispatches=len(self._dispatches),
            )

        run = ProgramRun(
            program_name=program.name,
            api_calls=tuple(program.calls),
            dispatches=tuple(self._dispatches),
            sync_call_indices=tuple(self._sync_indices),
            trial_seed=trial_seed,
            device_name=self.driver.device.spec.name,
            fault_events=tuple(self._fault_events),
            host_writes=tuple(self._host_writes),
        )
        if tm.enabled:
            # Once per run, not per call or dispatch: ``gtpin serve``
            # always captures, and per-event counts slowed cold profiles.
            tm.inc("opencl.api_calls", len(run.api_calls))
            tm.inc("opencl.kernel_enqueues", self._enqueues)
            tm.inc("opencl.sync_calls", len(run.sync_call_indices))
            tm.inc("opencl.dispatches", len(run.dispatches))
            tm.inc("opencl.instructions", run.total_instructions)
        return run

    # -- handlers ------------------------------------------------------------

    def _handle_enqueue(self, call: APICall, call_index: int) -> None:
        self._enqueues += 1
        if not self._built:
            raise InvalidOperation(
                f"{KERNEL_ENQUEUE} before clBuildProgram in call #{call_index}"
            )
        kernel_name = call.args.get("kernel")
        if not kernel_name:
            raise InvalidKernelName(f"{KERNEL_ENQUEUE} without a kernel argument")
        gws = int(call.args.get("global_work_size", 0))
        if gws <= 0:
            raise InvalidWorkSize(
                f"kernel {kernel_name!r} enqueued with global_work_size={gws}"
            )
        arg_names = self._arg_names(kernel_name)
        current = self._kernel_args.get(kernel_name, {})
        missing = [name for name in arg_names if name not in current]
        if missing:
            raise InvalidKernelArgs(
                f"kernel {kernel_name!r} enqueued with unset arguments {missing}"
            )
        if kernel_name in self._failed_kernels:
            # Graceful degradation: this kernel's JIT build exhausted its
            # retries, so its work is dropped rather than aborting the run.
            self._note_degraded(
                fault_errors.FaultEvent(
                    site="jit.build",
                    detail=kernel_name,
                    index=call_index,
                )
            )
            return
        self._queue.append(
            _PendingEnqueue(
                kernel_name=kernel_name,
                arg_values=dict(current),
                global_work_size=gws,
                enqueue_call_index=call_index,
                data_env=dict(self._data_env),
            )
        )

    def _handle_sync(self, call: APICall, call_index: int) -> None:
        self._dispatches.extend(self._flush(len(self._sync_indices)))
        self._sync_indices.append(call_index)

    def _handle_build(self, call: APICall, call_index: int) -> None:
        if not self._sources:
            raise BuildProgramFailure(
                "clBuildProgram with no program sources loaded; call "
                "load_sources() with the application's kernels first"
            )
        failed = self.driver.build_program(self._sources)
        for kernel_name in failed:
            self._failed_kernels.add(kernel_name)
            self._note_degraded(
                fault_errors.FaultEvent(site="jit.build", detail=kernel_name)
            )
        self._built = True

    def _handle_create_kernel(self, call: APICall, call_index: int) -> None:
        kernel_name = call.args.get("kernel", "")
        self._arg_names(kernel_name)  # validates existence
        self._kernel_args.setdefault(kernel_name, {})

    def _handle_set_arg(self, call: APICall, call_index: int) -> None:
        kernel_name = call.args.get("kernel", "")
        arg_names = self._arg_names(kernel_name)
        index = int(call.args.get("arg_index", -1))
        if not 0 <= index < len(arg_names):
            raise InvalidArgIndex(
                f"kernel {kernel_name!r} has {len(arg_names)} args; "
                f"got arg_index={index}"
            )
        args = self._kernel_args.setdefault(kernel_name, {})
        args[arg_names[index]] = float(call.args.get("value", 0.0))

    def _handle_write(self, call: APICall, call_index: int) -> None:
        # Host->device data transfer: scalar payload summaries become
        # device-memory state that data-dependent kernels consume.
        for key, value in call.args.items():
            if key.startswith("__"):
                self._data_env[key] = float(value)
                self._host_writes.append((call_index, key))

    def _handle_create_memory(self, call: APICall, call_index: int) -> None:
        """Model ``clCreateBuffer`` / ``clCreateImage`` memory allocation.

        The ``alloc.buffer`` fault site can fail an allocation attempt
        transiently; the runtime retries with bounded backoff.  On
        exhaustion the allocation is *degraded* to a no-op -- the model
        carries no buffer payloads, so execution proceeds with a recorded
        :class:`fault_errors.FaultEvent` instead of aborting.
        """
        size = int(call.args.get("size", 1))
        if size <= 0:
            raise InvalidMemObject(f"{call.name} with non-positive size {size}")
        fi = faults.get()
        if not fi.enabled:
            return

        def _attempt() -> None:
            if fi.draw("alloc.buffer") is not None:
                raise fault_errors.InjectedAllocFailure(
                    f"transient allocation failure in {call.name}"
                )

        try:
            fault_retry.retry_transient(
                _attempt,
                policy=self.driver.retry_policy,
                site="alloc.buffer",
            )
        except fault_errors.FaultError:
            self._note_degraded(
                fault_errors.FaultEvent(site="alloc.buffer", detail=call.name)
            )

    def _note_degraded(self, event: fault_errors.FaultEvent) -> None:
        """Record a degradation: the run continues without the faulted
        work, and the incident becomes a queryable WARN event."""
        self._fault_events.append(event)
        obs_events.get().warn(
            "runtime.degraded",
            site=event.site,
            detail=event.detail,
            index=event.index,
        )

    def _dispatch_pending(
        self, pending: _PendingEnqueue, sync_epoch: int
    ) -> KernelDispatch | None:
        """Dispatch one pending enqueue; None if it was dropped to faults.

        Injected dispatch faults (``dispatch.resources`` transient errors
        and ``dispatch.hang`` timeouts) are raised *before* the device
        executes, so a failed attempt never consumes the trial RNG and
        deterministic replay stays aligned.
        """
        fi = faults.get()
        if not fi.enabled:
            # Only injected faults are transient: nothing to retry.
            return self._execute(pending, sync_epoch)

        def _attempt() -> KernelDispatch:
            if fi.draw("dispatch.resources") is not None:
                raise fault_errors.InjectedOutOfResources(
                    f"transient dispatch failure for kernel "
                    f"{pending.kernel_name!r}"
                )
            hang = fi.draw("dispatch.hang")
            if hang is not None:
                timeout = fi.plan.dispatch_timeout_seconds
                hang_seconds = timeout * (1.0 + 3.0 * hang.rng.uniform())
                raise fault_errors.DispatchTimeoutError(
                    f"kernel {pending.kernel_name!r} exceeded the "
                    f"{timeout:.3f}s dispatch timeout (simulated hang "
                    f"of {hang_seconds:.3f}s)"
                )
            return self._execute(pending, sync_epoch)

        try:
            dispatch = fault_retry.retry_transient(
                _attempt,
                policy=self.driver.retry_policy,
                site="dispatch.resources",
            )
        except fault_errors.FaultError as exc:
            self._note_degraded(
                fault_errors.FaultEvent(
                    site=getattr(exc, "site", "dispatch.resources"),
                    detail=pending.kernel_name,
                    index=pending.enqueue_call_index,
                )
            )
            return None
        self._perturb_completion_event(pending, dispatch, fi)
        return dispatch

    def _execute(
        self, pending: _PendingEnqueue, sync_epoch: int
    ) -> KernelDispatch:
        return self.driver.dispatch(
            pending.kernel_name,
            pending.arg_values,
            pending.global_work_size,
            self._rng,
            enqueue_call_index=pending.enqueue_call_index,
            sync_epoch=sync_epoch,
            data_env=pending.data_env,
        )

    def _perturb_completion_event(
        self,
        pending: _PendingEnqueue,
        dispatch: KernelDispatch,
        fi: "faults.FaultInjector",
    ) -> None:
        """Model lost / late kernel-complete events after a dispatch."""
        lost = fi.draw("event.lost")
        if lost is not None:
            dispatch.time_seconds = 0.0
            self._note_degraded(
                fault_errors.FaultEvent(
                    site="event.lost",
                    detail=pending.kernel_name,
                    index=pending.enqueue_call_index,
                )
            )
            return
        late = fi.draw("event.late")
        if late is not None:
            dispatch.time_seconds *= 1.0 + 3.0 * late.rng.uniform()
            self._note_degraded(
                fault_errors.FaultEvent(
                    site="event.late",
                    detail=pending.kernel_name,
                    index=pending.enqueue_call_index,
                )
            )

    def _flush(self, sync_epoch: int) -> list[KernelDispatch]:
        """Execute every queued enqueue; stamp queue/sync bookkeeping."""
        tm = telemetry.get()
        if tm.enabled:
            tm.observe_hist(
                "opencl.flush_batch_kernels", len(self._queue), "kernels"
            )
        queue, self._queue = self._queue, []
        flushed: list[KernelDispatch] = []
        for pending in queue:
            if tm.enabled:
                dispatch = self._traced_dispatch(tm, pending, sync_epoch)
            else:
                dispatch = self._dispatch_pending(pending, sync_epoch)
            if dispatch is not None:
                flushed.append(dispatch)
        return flushed

    def _traced_dispatch(
        self, tm: telemetry.Telemetry, pending: _PendingEnqueue,
        sync_epoch: int,
    ) -> KernelDispatch | None:
        """:meth:`_dispatch_pending` inside its ``kernel.<name>`` span."""
        with tm.span(
            f"kernel.{pending.kernel_name}", category="opencl",
            global_work_size=pending.global_work_size,
            sync_epoch=sync_epoch,
        ) as span:
            dispatch = self._dispatch_pending(pending, sync_epoch)
            if dispatch is None:
                span.annotate(dropped=True)
                return None
            span.annotate(instructions=dispatch.instruction_count)
        tm.observe_hist("opencl.dispatch_seconds", span.duration_seconds, "s")
        return dispatch


#: The handler of each API call with device-visible semantics.  Every
#: other call (context, queue and release management, profiling queries)
#: only reaches the interceptors, which record it.
_HANDLERS: dict[str, Callable[[OpenCLRuntime, APICall, int], None]] = {
    KERNEL_ENQUEUE: OpenCLRuntime._handle_enqueue,
    PAPER_KERNEL_ENQUEUE_SPELLING: OpenCLRuntime._handle_enqueue,
    **dict.fromkeys(SYNCHRONIZATION_CALLS, OpenCLRuntime._handle_sync),
    "clBuildProgram": OpenCLRuntime._handle_build,
    "clCreateBuffer": OpenCLRuntime._handle_create_memory,
    "clCreateImage": OpenCLRuntime._handle_create_memory,
    "clCreateKernel": OpenCLRuntime._handle_create_kernel,
    "clSetKernelArg": OpenCLRuntime._handle_set_arg,
    "clEnqueueWriteBuffer": OpenCLRuntime._handle_write,
    "clEnqueueWriteImage": OpenCLRuntime._handle_write,
}
