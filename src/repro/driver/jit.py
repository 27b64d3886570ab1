"""The GPU driver's JIT compiler.

In the real stack the driver JIT-compiles OpenCL C into GEN machine code
when ``clBuildProgram`` is issued (Section III-A).  Our "source" form is a
:class:`KernelSource` that already carries the lowered kernel body (the
workload generator produces kernels directly in the ISA model); *compiling*
stamps JIT metadata onto a fresh :class:`~repro.isa.kernel.KernelBinary`
that keeps the body's block tuple and program tree, and so shares the
body's derived state (footprint arrays, send plan, exec sizes, count
walk): a kernel is lowered once however often it is built.

What matters for fidelity is the *pipeline position*: compilation happens
inside the driver, and GT-Pin's binary rewriter is interposed between the
JIT and the device -- exactly where Figure 1 places it.
"""

from __future__ import annotations

import dataclasses

from repro import faults
from repro.faults.errors import InjectedBuildFailure
from repro.isa.kernel import KernelBinary


@dataclasses.dataclass(frozen=True)
class KernelSource:
    """Pre-lowered kernel source as handed to ``clCreateProgramWithSource``."""

    name: str
    body: KernelBinary

    def __post_init__(self) -> None:
        if self.name != self.body.name:
            raise ValueError(
                f"kernel source name {self.name!r} does not match "
                f"body kernel name {self.body.name!r}"
            )


class JITCompiler:
    """Compiles kernel sources into machine-specific binaries."""

    #: The driver version string the paper's system reports.
    DRIVER_VERSION = "15.33.30.64.3958 (modelled)"

    def __init__(self) -> None:
        self.compile_count = 0

    def compile(self, source: KernelSource) -> KernelBinary:
        """Lower a kernel source to a machine-specific binary.

        Under an active fault plan the ``jit.build`` site can make a
        compile attempt fail transiently (the driver retries; see
        :meth:`repro.driver.driver.GPUDriver.build_program`).
        """
        fi = faults.get()
        if fi.enabled and fi.draw("jit.build") is not None:
            raise InjectedBuildFailure(
                f"transient JIT failure compiling kernel {source.name!r}"
            )
        self.compile_count += 1
        return source.body.with_blocks(
            source.body.blocks,
            metadata={
                "jit.compiled": True,
                "jit.compile_index": self.compile_count,
                "jit.driver_version": self.DRIVER_VERSION,
            },
        )
