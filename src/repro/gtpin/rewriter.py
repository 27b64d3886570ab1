"""The GT-Pin binary rewriter.

Figure 1's right-hand column: after the driver's JIT produces a
machine-specific binary, the rewriter injects profiling instructions and
hands the instrumented binary back for dispatch.  The original binary is
never mutated -- instrumented blocks are *new* blocks built around the
original instructions, preserving the tool's no-perturbation guarantee.

What gets injected depends on the requested
:class:`~repro.gtpin.instrumentation.Capability` set:

* ``BLOCK_COUNTS``: one counter increment at the top of every basic block,
  plus an end-of-kernel flush of the counters to the trace buffer;
* ``TIMERS``: an event-timer read at kernel entry and exit;
* ``MEMORY_TRACE``: an address-capture pair before every original send.

The rewritten binary carries two metadata entries the executor honours:
a reference to the original binary, and an ``on_execute`` hook that
models the injected code running -- it writes one
:class:`~repro.gtpin.trace_buffer.TraceRecord` per invocation into the
trace buffer.
"""

from __future__ import annotations

from typing import Sequence

from repro.gpu.execution import (
    ON_EXECUTE_HOOK_KEY,
    ORIGINAL_BINARY_KEY,
    KernelDispatch,
)
from repro.gtpin.instrumentation import (
    Capability,
    block_counter_probe,
    counter_flush_probe,
    memory_trace_probe,
    timer_probe,
)
from repro.gtpin.trace_buffer import TraceBuffer, TraceRecord
from repro.isa.basic_block import BasicBlock
from repro.isa.kernel import KernelBinary


class GTPinRewriter:
    """Injects instrumentation for a capability set into kernel binaries."""

    def __init__(
        self,
        capabilities: frozenset[Capability] | set[Capability],
        trace_buffer: TraceBuffer,
    ) -> None:
        self.capabilities = frozenset(capabilities)
        self.trace_buffer = trace_buffer
        #: kernel name -> original (uninstrumented) binary, for post-processing.
        self.original_binaries: dict[str, KernelBinary] = {}
        self.rewritten_count = 0

    # The driver calls the rewriter as a plain callable (it knows nothing
    # about GT-Pin).
    def __call__(self, binary: KernelBinary) -> KernelBinary:
        return self.rewrite(binary)

    def rewrite(self, binary: KernelBinary) -> KernelBinary:
        """Produce the instrumented twin of ``binary``."""
        if ORIGINAL_BINARY_KEY in binary.metadata:
            raise ValueError(
                f"kernel {binary.name!r} is already instrumented; "
                "GT-Pin must not instrument its own output"
            )
        self.original_binaries[binary.name] = binary
        self.rewritten_count += 1
        return binary.rewritten(
            self.capabilities,
            self._instrument,
            metadata={
                ORIGINAL_BINARY_KEY: binary,
                ON_EXECUTE_HOOK_KEY: self._on_execute,
            },
        )

    # -- block-level rewriting ---------------------------------------------

    def _instrument(self, binary: KernelBinary) -> Sequence[BasicBlock]:
        """The instrumented blocks of ``binary`` for this capability set.

        Depends only on the capabilities and the blocks, so
        :meth:`KernelBinary.rewritten` keeps the result with the
        application's kernel and later GT-Pin passes reuse it.  Each
        probe sequence is built once per kernel.
        """
        caps = self.capabilities
        if not caps:
            # A tool that collects nothing still observes dispatches.
            return binary.blocks
        counter = (
            block_counter_probe() if Capability.BLOCK_COUNTS in caps else []
        )
        trace_sends = Capability.MEMORY_TRACE in caps
        blocks = []
        for block in binary.blocks:
            instructions = list(counter)
            for instr in block.instructions:
                if trace_sends and instr.is_send:
                    instructions.extend(memory_trace_probe(instr))
                instructions.append(instr)
            blocks.append(block.with_instructions(instructions))
        if Capability.TIMERS in caps:
            timer = timer_probe()
            blocks[0] = blocks[0].with_instructions(
                timer + list(blocks[0].instructions)
            )
            blocks[-1] = blocks[-1].with_instructions(
                list(blocks[-1].instructions) + timer
            )
        if Capability.BLOCK_COUNTS in caps:
            blocks[-1] = blocks[-1].with_instructions(
                list(blocks[-1].instructions)
                + counter_flush_probe(binary.n_blocks)
            )
        return blocks

    # -- the instrumentation "runs" ------------------------------------------

    def _on_execute(
        self, executed: KernelBinary, dispatch: KernelDispatch
    ) -> None:
        """Stream one invocation's profiling data to the trace buffer.

        Block ids are preserved by rewriting, so the dispatch's per-block
        counts index the original binary's blocks directly.
        """
        payloads: dict[str, object] = {}
        if Capability.TIMERS in self.capabilities:
            payloads[Capability.TIMERS.value] = dispatch.time_seconds
        if Capability.MEMORY_TRACE in self.capabilities:
            # The address records themselves are expanded lazily by the
            # post-processing tools (see gtpin.tools.cache_sim); the buffer
            # accounts for their footprint via the send count.
            original = executed.metadata[ORIGINAL_BINARY_KEY]
            n_addresses = int(
                dispatch.block_counts @ original.arrays.send_counts
            )
            payloads[Capability.MEMORY_TRACE.value] = n_addresses

        # The record shares the dispatch's counts and dicts: the device
        # builds them fresh per invocation and nothing modifies them.
        self.trace_buffer.write(
            TraceRecord(
                dispatch_index=dispatch.dispatch_index,
                kernel_name=dispatch.kernel_name,
                global_work_size=dispatch.global_work_size,
                arg_values=dispatch.arg_values,
                n_hw_threads=dispatch.n_hw_threads,
                block_counts=dispatch.block_counts,
                enqueue_call_index=dispatch.enqueue_call_index,
                sync_epoch=dispatch.sync_epoch,
                payloads=payloads,
                data_values=dispatch.data_env,
            )
        )
