"""Per-kernel timing capture (the Eq. (1) "measured" side).

Section V-B validates selections against "per-kernel timing data, which we
collected with the CoFluent CPR tool": wall seconds per kernel invocation.
:func:`capture_timings` extracts that stream from a completed program run.
Only *time* comes from CoFluent; instruction counts come from GT-Pin --
the division of labour the paper describes.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro import faults
from repro.opencl.runtime import ProgramRun


@dataclasses.dataclass(frozen=True)
class KernelTiming:
    """Wall time of one kernel invocation, in dispatch order."""

    index: int
    kernel_name: str
    seconds: float
    sync_epoch: int
    #: True when the ``timing.flaky`` fault site glitched this sample.
    flaky: bool = False


@dataclasses.dataclass(frozen=True)
class TimingTrace:
    """Ordered per-invocation timings for one trial."""

    program_name: str
    device_name: str
    trial_seed: int
    timings: tuple[KernelTiming, ...]

    def __len__(self) -> int:
        return len(self.timings)

    def __iter__(self) -> Iterator[KernelTiming]:
        return iter(self.timings)

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    @property
    def flaky_count(self) -> int:
        """How many samples the ``timing.flaky`` fault site glitched."""
        return sum(1 for t in self.timings if t.flaky)


def capture_timings(run: ProgramRun) -> TimingTrace:
    """Extract the CoFluent-visible timing stream from a program run.

    Under an active fault plan the ``timing.flaky`` site models glitchy
    SPI timing reads: a flagged sample either drops to zero (missed
    read) or spikes by 5-30x (counter wrap / contention).  Flagged
    samples keep their slot so indices stay aligned with the profiling
    log; downstream health accounting counts them via
    :attr:`TimingTrace.flaky_count`.
    """
    fi = faults.get()
    if fi.enabled:
        fi.begin_scope(f"timings/{run.program_name}/{run.trial_seed}")
    timings: list[KernelTiming] = []
    for d in run.dispatches:
        seconds = d.time_seconds
        flaky = False
        if fi.enabled:
            glitch = fi.draw("timing.flaky")
            if glitch is not None:
                flaky = True
                u = float(glitch.rng.uniform())
                if u < 0.5:
                    seconds = 0.0
                else:
                    seconds *= 5.0 + 25.0 * u
        timings.append(
            KernelTiming(
                index=d.dispatch_index,
                kernel_name=d.kernel_name,
                seconds=seconds,
                sync_epoch=d.sync_epoch,
                flaky=flaky,
            )
        )
    return TimingTrace(
        program_name=run.program_name,
        device_name=run.device_name,
        trial_seed=run.trial_seed,
        timings=tuple(timings),
    )
