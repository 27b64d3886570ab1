"""The custom GT-Pin tool behind the sampling study (Section V).

The paper: "we wrote a custom GT-Pin tool that collected only instruction
counts and opcodes, basic block counts, and memory bytes read and written
per instruction."  This tool is that collector: it turns the trace buffer
into an ordered log of per-invocation profiles -- one
:class:`InvocationProfile` per ``clEnqueueNDRangeKernel`` execution --
which is the *only* input the interval/feature/selection pipeline consumes.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Mapping

import numpy as np

from repro.gtpin.instrumentation import Capability
from repro.gtpin.tools.base import ProfileContext, ProfilingTool
from repro.isa.kernel import KernelBinary


@dataclasses.dataclass(frozen=True)
class InvocationProfile:
    """Profile of one kernel invocation.

    ``arg_items`` is the kernel-argument snapshot at enqueue time, sorted
    by name (hashable, so KN-ARGS feature keys can use it directly).
    ``block_counts`` is indexed by the kernel's basic-block ids; together
    with the kernel binary's static per-block footprints it reconstructs
    every per-invocation statistic the feature vectors need.
    """

    index: int
    kernel_name: str
    global_work_size: int
    arg_items: tuple[tuple[str, float], ...]
    instruction_count: int
    bytes_read: int
    bytes_written: int
    block_counts: np.ndarray
    sync_epoch: int
    enqueue_call_index: int
    #: Input-buffer payload snapshot (sorted); needed to re-execute the
    #: invocation faithfully (data-dependent control flow), deliberately
    #: NOT part of any Table III feature vector.
    data_items: tuple[tuple[str, float], ...] = ()

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


@dataclasses.dataclass(frozen=True)
class InvocationLog:
    """Ordered per-invocation profiles plus the binaries to interpret them."""

    invocations: tuple[InvocationProfile, ...]
    binaries: Mapping[str, KernelBinary]

    def __len__(self) -> int:
        return len(self.invocations)

    def __iter__(self) -> Iterator[InvocationProfile]:
        return iter(self.invocations)

    @property
    def total_instructions(self) -> int:
        return sum(p.instruction_count for p in self.invocations)

    def binary(self, kernel_name: str) -> KernelBinary:
        return self.binaries[kernel_name]


class InvocationLogTool(ProfilingTool):
    """Collects the Section V per-invocation profile log."""

    name = "invocations"
    capabilities = frozenset({Capability.BLOCK_COUNTS})

    def process(self, context: ProfileContext) -> InvocationLog:
        profiles = []
        for record in context.records:
            counts = record.block_counts
            instructions, bytes_read, bytes_written = (
                counts @ context.binary(record.kernel_name).footprints
            ).tolist()
            profiles.append(
                InvocationProfile(
                    index=record.dispatch_index,
                    kernel_name=record.kernel_name,
                    global_work_size=record.global_work_size,
                    arg_items=tuple(sorted(record.arg_values.items())),
                    instruction_count=instructions,
                    bytes_read=bytes_read,
                    bytes_written=bytes_written,
                    block_counts=counts,
                    sync_epoch=record.sync_epoch,
                    enqueue_call_index=record.enqueue_call_index,
                    data_items=tuple(sorted(record.data_values.items())),
                )
            )
        profiles.sort(key=lambda p: p.index)
        return InvocationLog(
            invocations=tuple(profiles),
            binaries=dict(context.original_binaries),
        )
