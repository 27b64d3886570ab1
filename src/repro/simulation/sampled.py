"""Sampled simulation: simulate the selection, extrapolate the program.

This module closes the loop the selection methodology promises
(Section V-A, steps 6-7): simulate only the selected intervals in detail,
fast-forward everything else, and extrapolate whole-program performance
as the representation-ratio-weighted average of the selected intervals'
simulated SPIs.

Fast-forwarding is modelled honestly: skipped invocations are *not*
stepped -- their instruction counts come from the GT-Pin profile (which
the methodology already has), at zero simulation cost.

The detailed intervals run through the cross-dispatch scheduler:
invocations partition into hazard-free epochs
(:mod:`repro.simulation.dispatch_graph`) and each epoch simulates as one
unit, overlapping the fast-forwarded structure with the detailed work
(the reference engine steps each epoch's invocations one at a time).
``jobs`` optionally fans the pure trip-count resolution of jitter-free
kernels out to a worker pool first (the simulation itself stays on one
cache, so results are bit-identical at any worker count).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import telemetry
from repro.driver.jit import KernelSource
from repro.gpu.cache import CacheConfig
from repro.gpu.device import DeviceSpec
from repro.gtpin.tools.invocations import InvocationLog
from repro.parallel.pool import parallel_map, resolve_jobs
from repro.sampling.selection import Selection
from repro.simulation import dispatch_graph
from repro.simulation.detailed import DetailedGPUSimulator
from typing import Mapping, Sequence


@dataclasses.dataclass(frozen=True)
class SampledSimulationResult:
    """Outcome of simulating only the selected intervals."""

    application_name: str
    selection_label: str
    projected_spi: float
    simulated_instructions: int  #: instructions detail-stepped
    fast_forwarded_instructions: int  #: skipped via the profile
    wall_seconds: float  #: host time spent in detailed simulation

    @property
    def instruction_speedup(self) -> float:
        """The paper's speedup metric: total over simulated instructions."""
        total = self.simulated_instructions + self.fast_forwarded_instructions
        if self.simulated_instructions == 0:
            return float("inf")
        return total / self.simulated_instructions


@dataclasses.dataclass(frozen=True)
class FullSimulationResult:
    """Baseline: detailed simulation of the entire program."""

    application_name: str
    measured_spi: float
    simulated_instructions: int
    wall_seconds: float


def _counts_task(walk, env, n_blocks):
    """Worker-side trip-count resolution (jitter-free kernels only).

    The span is the worker's contribution to the dispatching request's
    trace: it roots under the fan-out span via the handed-down
    :class:`~repro.telemetry.context.TraceContext`, so an assembled
    serve trace shows the simulation engine's subprocess lanes.
    """
    with telemetry.get().span(
        "simulation.epoch_counts.task", category="simulation",
        blocks=n_blocks,
    ):
        return walk.counts(env, None, n_blocks)


def _precompute_epoch_counts(
    sources: Mapping[str, KernelSource],
    log: InvocationLog,
    indices: Sequence[int],
    jobs: int | None,
) -> dict[int, np.ndarray]:
    """Resolve jitter-free invocations' block counts on a worker pool.

    Counts of ``counts_deterministic`` kernels are a pure function of
    their trip arguments, so fanning the resolution out changes nothing
    but wall time; jittered kernels are skipped and resolve in-stream
    with the live RNG.  Failed tasks degrade to in-stream resolution.
    """
    tasks = []
    owners = []
    for i in indices:
        profile = log.invocations[i]
        binary = sources[profile.kernel_name].body
        if not binary.counts_deterministic:
            continue
        env = {**dict(profile.data_items), **dict(profile.arg_items)}
        tasks.append((binary.count_walk, env, binary.n_blocks))
        owners.append(i)
    if not tasks:
        return {}
    outcomes = parallel_map(
        _counts_task, tasks, jobs=jobs, label="simulation.epoch_counts"
    )
    return {
        i: outcome.value
        for i, outcome in zip(owners, outcomes)
        if outcome.ok
    }


def _simulate_invocations(
    simulator: DetailedGPUSimulator,
    sources: Mapping[str, KernelSource],
    log: InvocationLog,
    indices: list[int],
    seed: int,
    jobs: int | None = 1,
) -> tuple[float, float, float]:
    """Simulate the given invocations; returns (seconds, instrs, wall).

    Invocations run epoch by epoch.  Flattened epochs reproduce
    ``indices`` exactly, and each result is accumulated in that order,
    so the sums are bit-identical to a per-invocation loop.
    """
    tm = telemetry.get()
    rng = np.random.default_rng(seed)
    sim_seconds = 0.0
    sim_instructions = 0
    # timed() measures wall time even with telemetry disabled (the result
    # needs it); enabled, it is a real span in the exported trace.
    with tm.timed(
        "simulation.invocations", category="simulation",
        invocations=len(indices),
    ) as timer:
        epochs = dispatch_graph.partition_epochs(
            dispatch_graph.nodes_from_log(log, indices)
        )
        counts_by_index: dict[int, np.ndarray] = {}
        # The reference engine resolves its own counts, so a fan-out
        # would only be discarded.
        if simulator.engine != "reference" and resolve_jobs(jobs) > 1:
            counts_by_index = _precompute_epoch_counts(
                sources, log, indices, jobs
            )
        for epoch in epochs:
            items = []
            counts = []
            for node in epoch.nodes:
                profile = log.invocations[node.index]
                binary = sources[profile.kernel_name].body
                items.append((
                    binary,
                    {**dict(profile.data_items), **dict(profile.arg_items)},
                    profile.global_work_size,
                ))
                counts.append(counts_by_index.get(node.index))
            for result in simulator.simulate_epoch(items, rng, counts):
                sim_seconds += result.seconds
                sim_instructions += result.instruction_count
    wall = timer.duration_seconds
    if tm.enabled:
        # Simulated (device) vs wall (host) clock, side by side.
        tm.inc("simulation.simulated_seconds", sim_seconds)
        tm.inc("simulation.wall_seconds", wall)
    return sim_seconds, float(sim_instructions), wall


def simulate_selection(
    application_name: str,
    sources: Mapping[str, KernelSource],
    log: InvocationLog,
    selection: Selection,
    device: DeviceSpec | str,
    cache_config: CacheConfig | None = None,
    seed: int = 0,
    engine: str = "batched",
    jobs: int | None = 1,
) -> SampledSimulationResult:
    """Detailed-simulate the selected intervals only, then extrapolate.

    ``jobs`` fans jitter-free trip-count resolution out to a worker pool
    (the reference engine ignores it); the default 1 stays serial and
    never consults ``REPRO_JOBS`` (pass ``None`` to opt in).
    """
    tm = telemetry.get()
    simulator = DetailedGPUSimulator(device, cache_config, engine=engine)
    projected = 0.0
    stepped_total = 0
    wall_total = 0.0
    selected_instr = 0
    with tm.span(
        "simulation.sampled", category="simulation",
        app=application_name, selection=selection.config.label,
    ) as span:
        for chosen in selection.selected:
            indices = list(chosen.interval.invocation_indices())
            seconds, instructions, wall = _simulate_invocations(
                simulator, sources, log, indices, seed, jobs
            )
            wall_total += wall
            selected_instr += int(instructions)
            if instructions > 0:
                projected += chosen.ratio * (seconds / instructions)
            stepped = simulator.total_simulated_instructions
            stepped_total = stepped
        span.annotate(
            simulated_instructions=selected_instr, stepped=stepped_total
        )
    total_instr = log.total_instructions
    if tm.enabled:
        tm.inc(
            "simulation.fast_forwarded_instructions",
            max(0, total_instr - selected_instr),
        )
    return SampledSimulationResult(
        application_name=application_name,
        selection_label=selection.config.label,
        projected_spi=projected,
        simulated_instructions=selected_instr,
        fast_forwarded_instructions=max(0, total_instr - selected_instr),
        wall_seconds=wall_total,
    )


def simulate_full(
    application_name: str,
    sources: Mapping[str, KernelSource],
    log: InvocationLog,
    device: DeviceSpec | str,
    cache_config: CacheConfig | None = None,
    seed: int = 0,
    engine: str = "batched",
    jobs: int | None = 1,
) -> FullSimulationResult:
    """Detailed-simulate every invocation (the cost the method avoids)."""
    simulator = DetailedGPUSimulator(device, cache_config, engine=engine)
    indices = list(range(len(log.invocations)))
    with telemetry.get().span(
        "simulation.full", category="simulation",
        app=application_name, invocations=len(indices),
    ):
        seconds, instructions, wall = _simulate_invocations(
            simulator, sources, log, indices, seed, jobs
        )
    if instructions <= 0:
        raise ValueError("program simulated zero instructions")
    return FullSimulationResult(
        application_name=application_name,
        measured_spi=seconds / instructions,
        simulated_instructions=int(instructions),
        wall_seconds=wall,
    )


def sampled_vs_full_error_percent(
    sampled: SampledSimulationResult, full: FullSimulationResult
) -> float:
    """Eq. (1) applied to the simulator's own SPIs."""
    if full.measured_spi <= 0:
        raise ValueError("full-simulation SPI must be positive")
    return (
        abs(full.measured_spi - sampled.projected_spi)
        / full.measured_spi
        * 100.0
    )
