"""Loop-reduced ("micro-kernel") sampled simulation -- the extension the
paper's Related Work sketches.

Yu et al. (GPGPU-MiniBench) accelerate simulation by reconstructing
reduced-loop-count micro-kernels; the GT-Pin paper notes "such a partial
selection method could be combined with our method of skipping whole
invocations for improved simulation speedups."  This module implements
that combination:

1. interval selection picks *which invocations* to simulate (Section V);
2. each selected invocation is simulated as a micro-kernel -- its
   data-dependent loop argument scaled down by ``loop_reduction`` -- and
   its SPI is taken from the reduced execution (SPI is dominated by the
   steady-state loop body, so the reduced run's SPI tracks the full
   run's);
3. whole-program SPI extrapolates through the representation ratios as
   usual.

The extra speedup multiplies the selection's: instructions stepped fall
by roughly the reduction factor, at a small accuracy cost from the now
over-weighted prologue/epilogue -- exactly the trade the bench
(`bench_ext_microkernels.py`) quantifies.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.driver.jit import KernelSource
from repro.gpu.cache import CacheConfig
from repro.gpu.device import DeviceSpec
from repro.gtpin.tools.invocations import InvocationLog
from repro.sampling.selection import Selection
from repro.simulation import dispatch_graph
from repro.simulation.detailed import DetailedGPUSimulator


@dataclasses.dataclass(frozen=True)
class MicroKernelResult:
    """Outcome of loop-reduced sampled simulation."""

    application_name: str
    selection_label: str
    loop_reduction: float
    projected_spi: float
    stepped_instructions: int  #: instructions actually stepped
    wall_seconds: float
    #: Instruction speedup vs full detailed simulation of the program.
    total_program_instructions: int

    @property
    def instruction_speedup(self) -> float:
        if self.stepped_instructions == 0:
            return float("inf")
        return self.total_program_instructions / self.stepped_instructions


def _reduced_args(
    arg_items: tuple[tuple[str, float], ...], loop_reduction: float,
    data_items: tuple[tuple[str, float], ...] = (),
) -> dict[str, float]:
    args = {**dict(data_items), **dict(arg_items)}
    if "iters" in args:
        args["iters"] = max(1.0, round(args["iters"] / loop_reduction))
    return args


def simulate_selection_microkernels(
    application_name: str,
    sources: Mapping[str, KernelSource],
    log: InvocationLog,
    selection: Selection,
    device: DeviceSpec | str,
    loop_reduction: float = 4.0,
    cache_config: CacheConfig | None = None,
    seed: int = 0,
    engine: str = "batched",
) -> MicroKernelResult:
    """Sampled simulation with loop-reduced micro-kernels."""
    if loop_reduction < 1.0:
        raise ValueError(
            f"loop_reduction must be >= 1, got {loop_reduction}"
        )
    simulator = DetailedGPUSimulator(device, cache_config, engine=engine)
    rng = np.random.default_rng(seed)
    projected = 0.0
    simulated_total = 0
    tm = telemetry.get()
    # timed() measures wall time even with telemetry disabled (the result
    # needs it); enabled, it is a real span in the exported trace.
    with tm.timed(
        "simulation.microkernels", category="simulation",
        app=application_name, loop_reduction=loop_reduction,
    ) as timer:
        sim_seconds_total = 0.0
        for chosen in selection.selected:
            seconds = 0.0
            instructions = 0.0
            indices = list(chosen.interval.invocation_indices())
            # The epoch partition comes from the *original* profiles
            # (loop reduction rescales an argument, not the buffer reads
            # the hazard analysis keys on), and flattening it preserves
            # invocation order, so the accumulation below matches a
            # per-invocation loop exactly.
            epochs = dispatch_graph.partition_epochs(
                dispatch_graph.nodes_from_log(log, indices)
            )
            for epoch in epochs:
                items = []
                for j in epoch.indices:
                    profile = log.invocations[j]
                    items.append((
                        sources[profile.kernel_name].body,
                        _reduced_args(
                            profile.arg_items, loop_reduction,
                            profile.data_items,
                        ),
                        profile.global_work_size,
                    ))
                for result in simulator.simulate_epoch(items, rng):
                    seconds += result.seconds
                    instructions += result.instruction_count
            if instructions > 0:
                projected += chosen.ratio * (seconds / instructions)
            simulated_total += int(instructions)
            sim_seconds_total += seconds
    wall = timer.duration_seconds
    if tm.enabled:
        tm.inc("simulation.simulated_seconds", sim_seconds_total)
        tm.inc("simulation.wall_seconds", wall)
    return MicroKernelResult(
        application_name=application_name,
        selection_label=selection.config.label,
        loop_reduction=loop_reduction,
        projected_spi=projected,
        # Whole-invocation reduced instruction counts: the same accounting
        # basis as plain sampled simulation, so the speedups compose.
        stepped_instructions=simulated_total,
        wall_seconds=wall,
        total_program_instructions=log.total_instructions,
    )
