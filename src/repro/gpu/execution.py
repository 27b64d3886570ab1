"""The functional GPU device: executes kernel binaries natively (fast).

This is the stand-in for the physical HD 4000/4600.  A dispatch:

1. derives the hardware-thread count from the global work size and the
   kernel's SIMD compile width,
2. evaluates the kernel's count walk -- its structured program lowered
   once per kernel to a flat op list
   (:attr:`~repro.isa.kernel.KernelBinary.count_walk`) -- to obtain
   per-thread basic block execution counts (data-dependent trip counts
   resolved with the trial RNG, in the tree's pre-order), and scales
   them across threads,
3. turns the per-block counts into dynamic totals: instructions, bytes
   read and bytes written in one exact int64 product against the
   kernel's footprint matrix, issue cycles in one float product, and
4. prices the invocation with the roofline timing model.

If the binary was rewritten by GT-Pin, the injected instrumentation "runs"
here too: the executor invokes the binary's ``on_execute`` hook (stored by
the rewriter in kernel metadata) so the instrumentation can write its
counters to the trace buffer -- and the instrumentation's own instructions
are included in the cycle count, which is exactly the 2-10x profiling
overhead the paper reports (Section III-C).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.timing import KernelCost, TimingModel, TimingParameters
from repro.isa.kernel import KernelBinary

#: Metadata key under which the GT-Pin rewriter stores its execution hook.
ON_EXECUTE_HOOK_KEY = "gtpin.on_execute"

#: Metadata key referencing the uninstrumented original binary.
ORIGINAL_BINARY_KEY = "gtpin.original_binary"


@dataclasses.dataclass
class KernelDispatch:
    """Ground-truth record of one kernel invocation on the device.

    ``block_counts`` is indexed by the *executed* binary's block ids.  The
    ``enqueue_call_index`` / ``sync_epoch`` fields are stamped by the
    OpenCL runtime when it flushes its queue (-1 until then).
    """

    dispatch_index: int
    kernel_name: str
    global_work_size: int
    arg_values: Mapping[str, float]
    n_hw_threads: int
    block_counts: np.ndarray
    instruction_count: int
    issue_cycles: float
    bytes_read: int
    bytes_written: int
    cost: KernelCost
    time_seconds: float
    instrumented: bool
    enqueue_call_index: int = -1
    sync_epoch: int = -1
    #: Device-memory input state (buffer payload summaries) at dispatch.
    data_env: Mapping[str, float] = dataclasses.field(default_factory=dict)
    #: Host-written buffer keys this invocation's control flow consumed
    #: (its read set) and the buffer keys it wrote (empty in the current
    #: device model).  Dependency analysis between dispatches
    #: (:mod:`repro.simulation.dispatch_graph`) is built on these.
    buffer_reads: tuple[str, ...] = ()
    buffer_writes: tuple[str, ...] = ()

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def spi(self) -> float:
        """Seconds per instruction of this single invocation."""
        if self.instruction_count == 0:
            return 0.0
        return self.time_seconds / self.instruction_count


#: Signature of the instrumentation hook a rewritten binary carries.
OnExecuteHook = Callable[[KernelBinary, "KernelDispatch"], None]


class GPUDevice:
    """Executes kernel binaries and keeps a dispatch log."""

    def __init__(
        self,
        spec: DeviceSpec,
        timing_params: TimingParameters | None = None,
    ) -> None:
        self.spec = spec
        self.timing = TimingModel(spec, timing_params)
        self.dispatch_log: list[KernelDispatch] = []
        #: Binaries already checked against the provider's exec-size
        #: capability set (id -> binary, keeping the key alive so a
        #: recycled id cannot alias).
        self._validated: dict[int, KernelBinary] = {}

    def _validate_binary(self, binary: KernelBinary) -> None:
        """Once per binary: reject exec sizes this backend cannot run."""
        if self._validated.get(id(binary)) is binary:
            return
        from repro.gpu.providers import provider_of

        try:
            provider = provider_of(self.spec)
        except KeyError:
            # Hand-built specs with no registered provider skip the
            # capability check (the generic model runs anything).
            pass
        else:
            provider.validate_binary(binary)
        self._validated[id(binary)] = binary

    def reset(self) -> None:
        """Clear the dispatch log (device state between program runs)."""
        self.dispatch_log.clear()

    def execute(
        self,
        binary: KernelBinary,
        arg_values: Mapping[str, float],
        global_work_size: int,
        rng: np.random.Generator,
        enqueue_call_index: int = -1,
        sync_epoch: int = -1,
        data_env: Mapping[str, float] | None = None,
    ) -> KernelDispatch:
        """Run one kernel invocation natively and log its dispatch record.

        ``data_env`` models *input-buffer contents*: values the host wrote
        to device memory (e.g. scene complexity) that data-dependent
        control flow reads.  They feed trip-count resolution exactly like
        arguments, but -- unlike arguments -- they are invisible to the
        host API stream, so only block-level observation (GT-Pin counters)
        can see their effect.
        """
        if global_work_size <= 0:
            raise ValueError(
                f"global_work_size must be positive, got {global_work_size}"
            )
        self._validate_binary(binary)
        items_per_thread = self.spec.items_per_thread(binary.simd_width)
        n_hw_threads = max(1, math.ceil(global_work_size / items_per_thread))

        exec_env: Mapping[str, float] = (
            {**data_env, **arg_values} if data_env else arg_values
        )
        (block_counts, instruction_count, bytes_read, bytes_written,
         issue_cycles) = binary.invocation_totals(exec_env, rng, n_hw_threads)

        cost = self.timing.cost(
            total_issue_cycles=issue_cycles,
            total_bytes=bytes_read + bytes_written,
            n_hw_threads=min(n_hw_threads, self.spec.hardware_threads * 4),
        )
        time_seconds = self.timing.sample_seconds(cost, rng)

        hook = binary.metadata.get(ON_EXECUTE_HOOK_KEY)
        dispatch = KernelDispatch(
            dispatch_index=len(self.dispatch_log),
            kernel_name=binary.name,
            global_work_size=global_work_size,
            arg_values=dict(arg_values),
            n_hw_threads=n_hw_threads,
            block_counts=block_counts,
            instruction_count=instruction_count,
            issue_cycles=issue_cycles,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            cost=cost,
            time_seconds=time_seconds,
            instrumented=hook is not None,
            enqueue_call_index=enqueue_call_index,
            sync_epoch=sync_epoch,
            data_env=dict(data_env or {}),
            buffer_reads=tuple(sorted(
                key for key in binary.trip_args if key in data_env
            )) if data_env else (),
        )
        self.dispatch_log.append(dispatch)

        if hook is not None:
            # The injected instrumentation executes: counters flow out to
            # the GT-Pin trace buffer.
            hook(binary, dispatch)
        return dispatch

    def with_spec(self, spec: DeviceSpec) -> "GPUDevice":
        """A fresh device of a different spec (same timing parameters)."""
        return GPUDevice(spec, self.timing.params)
