"""OpenCL API-call vocabulary and the Figure 3a classification.

Section II of the paper partitions host API calls into three groups:

* **kernel invocations** -- ``clEnqueueNDRangeKernel`` (the paper spells it
  ``clEnqueueNDKernelRange``; we keep the standard name and provide the
  paper's spelling as an alias),
* **synchronization calls** -- exactly the seven calls the paper lists
  (these are the only points where host and device are guaranteed to
  align, and therefore the natural boundaries for simulation intervals),
* **other calls** -- setup, argument passing, post-processing, cleanup.

:class:`APICall` is the immutable record of one dynamic call -- the unit
the CoFluent-style tracer captures and the unit host programs are made of.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping


class CallCategory(enum.Enum):
    """Figure 3a's three API-call categories."""

    KERNEL = "kernel"
    SYNCHRONIZATION = "synchronization"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The kernel-dispatch call (Section II).
KERNEL_ENQUEUE = "clEnqueueNDRangeKernel"

#: Alias using the paper's spelling.
PAPER_KERNEL_ENQUEUE_SPELLING = "clEnqueueNDKernelRange"

#: The seven synchronization calls, verbatim from Section II.
SYNCHRONIZATION_CALLS: tuple[str, ...] = (
    "clFinish",
    "clEnqueueCopyImageToBuffer",
    "clWaitForEvents",
    "clFlush",
    "clEnqueueReadImage",
    "clEnqueueCopyBuffer",
    "clEnqueueReadBuffer",
)

#: A representative set of "other" calls used by the workload generator.
OTHER_CALLS: tuple[str, ...] = (
    "clGetPlatformIDs",
    "clGetDeviceIDs",
    "clGetDeviceInfo",
    "clCreateContext",
    "clCreateCommandQueue",
    "clCreateProgramWithSource",
    "clBuildProgram",
    "clCreateKernel",
    "clCreateBuffer",
    "clCreateImage",
    "clSetKernelArg",
    "clEnqueueWriteBuffer",
    "clEnqueueWriteImage",
    "clGetEventProfilingInfo",
    "clReleaseMemObject",
    "clReleaseKernel",
    "clReleaseProgram",
    "clReleaseCommandQueue",
    "clReleaseContext",
)


#: Category of every kernel and synchronization call; the rest are OTHER.
_CATEGORIES: dict[str, CallCategory] = {
    KERNEL_ENQUEUE: CallCategory.KERNEL,
    PAPER_KERNEL_ENQUEUE_SPELLING: CallCategory.KERNEL,
    **dict.fromkeys(SYNCHRONIZATION_CALLS, CallCategory.SYNCHRONIZATION),
}


def categorize(call_name: str) -> CallCategory:
    """Map a call name onto Figure 3a's three categories."""
    return _CATEGORIES.get(call_name, CallCategory.OTHER)


def is_synchronization(call_name: str) -> bool:
    return call_name in SYNCHRONIZATION_CALLS


@dataclasses.dataclass(frozen=True)
class APICall:
    """One dynamic OpenCL API call as issued by the host.

    ``args`` is a name -> value mapping of the call's relevant arguments:
    for ``clEnqueueNDRangeKernel`` it includes ``kernel`` (the kernel
    name), ``global_work_size``, and the kernel's current scalar arguments
    (what ``clSetKernelArg`` supplied); for ``clSetKernelArg`` it includes
    ``kernel``, ``arg_index`` and ``value``; and so on.  These are exactly
    the fields CoFluent's recorder captures (Section V-E).
    """

    name: str
    args: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def category(self) -> CallCategory:
        return categorize(self.name)

    @property
    def is_kernel_enqueue(self) -> bool:
        return self.category is CallCategory.KERNEL

    @property
    def is_synchronization(self) -> bool:
        return self.category is CallCategory.SYNCHRONIZATION

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.args.items())
        return f"{self.name}({rendered})"
