"""Profiling-overhead accounting (Section III-C).

The paper reports that GT-Pin profiling runs take 2-10x as long as
uninstrumented executions, versus up to 2,000,000x for simulation.  The
overhead has two components, both modelled:

* **GPU-side**: the injected probe instructions cost real EU cycles and
  (for memory tracing) real memory bandwidth, so instrumented dispatches
  are slower on the device;
* **host-side**: the CPU must drain the trace buffer and post-process it;
  per-record driver/PCIe round-trips dominate for short kernels.

:func:`measure_overhead` runs an application twice -- natively and under a
GT-Pin session -- with the same trial seed (so device non-determinism is
identical) and decomposes the slowdown.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.gpu.device import HD4000, DeviceSpec
from repro.gtpin.profiler import (
    Application,
    GTPinSession,
    build_runtime,
    default_tools,
)
from repro.gtpin.tools.base import ProfilingTool

#: Host-side cost per drained trace record (driver round-trip, µs-scale).
HOST_COST_PER_RECORD_S = 200e-6

#: Host-side readout bandwidth for trace-buffer bytes.
HOST_READOUT_BYTES_PER_S = 2e9

#: The slowdown bound the paper quotes for detailed simulation.
SIMULATION_SLOWDOWN_BOUND = 2_000_000


@dataclasses.dataclass(frozen=True)
class OverheadReport:
    """Native-vs-instrumented timing decomposition for one application."""

    application_name: str
    native_seconds: float
    instrumented_gpu_seconds: float
    host_drain_seconds: float
    record_count: int
    trace_bytes: int

    @property
    def instrumented_seconds(self) -> float:
        return self.instrumented_gpu_seconds + self.host_drain_seconds

    @property
    def overhead_factor(self) -> float:
        """Total profiling slowdown; the paper observes 2-10x."""
        if self.native_seconds == 0:
            return 1.0
        return self.instrumented_seconds / self.native_seconds

    @property
    def gpu_overhead_factor(self) -> float:
        """Device-only slowdown from the injected instructions."""
        if self.native_seconds == 0:
            return 1.0
        return self.instrumented_gpu_seconds / self.native_seconds


def measure_overhead(
    application: Application,
    device_spec: DeviceSpec = HD4000,
    tools: Sequence[ProfilingTool] | None = None,
    trial_seed: int = 0,
) -> OverheadReport:
    """Compare a native run against a GT-Pin run of the same application."""
    native_runtime = build_runtime(application, device_spec)
    native_run = native_runtime.run(application.host_program, trial_seed)

    session = GTPinSession(list(tools) if tools is not None else default_tools())
    instrumented_runtime = build_runtime(
        application, device_spec, session=session
    )
    instrumented_run = instrumented_runtime.run(
        application.host_program, trial_seed
    )

    records = session.trace_buffer.drain()
    trace_bytes = sum(r.record_bytes for r in records)
    host_drain = (
        len(records) * HOST_COST_PER_RECORD_S
        + trace_bytes / HOST_READOUT_BYTES_PER_S
    )
    return OverheadReport(
        application_name=application.name,
        native_seconds=native_run.total_kernel_seconds,
        instrumented_gpu_seconds=instrumented_run.total_kernel_seconds,
        host_drain_seconds=host_drain,
        record_count=len(records),
        trace_bytes=trace_bytes,
    )


# -- self-overhead attribution ------------------------------------------------
#
# Section III-C measures GT-Pin's overhead on the profiled application;
# this block applies the same discipline to the reproduction's *own*
# observability stack.  Every instrumentation hook (span, counter,
# histogram, event emission, fault check, trace-buffer flush)
# keeps an exact operation count; multiplying those counts by calibrated
# per-operation unit costs yields a per-site attribution of where the
# enabled-observability walltime went.  The estimate never reconciles
# perfectly with a measured walltime delta (unit costs are means, cache
# state differs), so the report carries an explicit **residual** row:
# the table's total equals the measured delta exactly, and the residual
# is the honest "everything we could not attribute" entry.

#: The costed instrumentation sites, in table order.
OBSERVATION_SITES: tuple[str, ...] = (
    "telemetry.span",
    "telemetry.counter",
    "telemetry.histogram",
    "events.emit",
    "faults.check",
    "trace_buffer.flush",
)

#: The residual row's label.
RESIDUAL_SITE = "unattributed"


@dataclasses.dataclass(frozen=True)
class SiteCost:
    """One instrumentation site's attributed cost."""

    site: str
    operations: int
    unit_cost_seconds: float
    total_seconds: float


@dataclasses.dataclass(frozen=True)
class ToolCost:
    """One GT-Pin tool's measured (span-summed) processing time."""

    tool: str
    spans: int
    seconds: float


@dataclasses.dataclass(frozen=True)
class SelfOverheadReport:
    """Section III-style attribution of the observability stack's cost.

    ``sites`` are estimates (ops x calibrated unit cost); ``tools`` are
    *measured* ``gtpin.tool.<name>`` span sums.  When a measured
    ``walltime_delta_seconds`` is supplied, :meth:`rows` appends the
    residual row so the table total equals the measurement exactly.
    """

    sites: tuple[SiteCost, ...]
    tools: tuple[ToolCost, ...] = ()
    walltime_delta_seconds: float | None = None

    @property
    def attributed_seconds(self) -> float:
        return sum(site.total_seconds for site in self.sites)

    @property
    def residual_seconds(self) -> float:
        """Measured-minus-attributed; 0 when no measurement was taken.
        Negative means the estimate over-attributes (unit costs were
        calibrated hotter than the run's actual cache behaviour)."""
        if self.walltime_delta_seconds is None:
            return 0.0
        return self.walltime_delta_seconds - self.attributed_seconds

    @property
    def total_seconds(self) -> float:
        """What the table's rows sum to: the measured delta when one
        exists, the attribution sum otherwise."""
        if self.walltime_delta_seconds is None:
            return self.attributed_seconds
        return self.walltime_delta_seconds

    def rows(self) -> list[SiteCost]:
        """Site rows plus (when a measurement exists) the residual row."""
        out = list(self.sites)
        if self.walltime_delta_seconds is not None:
            out.append(
                SiteCost(
                    site=RESIDUAL_SITE,
                    operations=0,
                    unit_cost_seconds=0.0,
                    total_seconds=self.residual_seconds,
                )
            )
        return out

    def table(self) -> str:
        """The Section III-style text table."""
        # Share denominator: the measured total when it is meaningfully
        # non-zero, else the attribution sum (a near-zero measured delta
        # would otherwise turn shares into noise).
        total = max(abs(self.total_seconds), self.attributed_seconds, 1e-12)
        lines = [
            f"{'site':<24} {'operations':>12} {'unit cost':>12} "
            f"{'total':>12} {'share':>7}"
        ]
        for row in self.rows():
            share = row.total_seconds / total
            lines.append(
                f"{row.site:<24} {row.operations:>12} "
                f"{row.unit_cost_seconds * 1e6:>10.3f}us "
                f"{row.total_seconds * 1e3:>10.3f}ms {share:>6.1%}"
            )
        lines.append(
            f"{'total':<24} {'':>12} {'':>12} "
            f"{self.total_seconds * 1e3:>10.3f}ms {1.0:>6.1%}"
        )
        if self.tools:
            lines.append("")
            lines.append(f"{'tool (measured spans)':<24} {'spans':>12} "
                         f"{'seconds':>12}")
            for tool in self.tools:
                lines.append(
                    f"gtpin.tool.{tool.tool:<13} {tool.spans:>12} "
                    f"{tool.seconds:>11.6f}s"
                )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "walltime_delta_seconds": self.walltime_delta_seconds,
            "attributed_seconds": self.attributed_seconds,
            "residual_seconds": self.residual_seconds,
            "total_seconds": self.total_seconds,
            "sites": [dataclasses.asdict(row) for row in self.rows()],
            "tools": [dataclasses.asdict(tool) for tool in self.tools],
        }


@contextlib.contextmanager
def _all_observability_disabled() -> Iterator[None]:
    """Force every registry to its disabled singleton for a block.

    Calibration micro-benchmarks scratch objects; without this, hooks
    that consult the *global* registries (trace-buffer writes, event
    span correlation) would pollute a live run's counters mid-scrape.
    """
    from repro import telemetry as _telemetry_pkg
    from repro.faults import injector as _injector_module
    from repro.obs import events as _events_module
    from repro.telemetry import registry as _registry_module

    prev_tm = _registry_module._active
    prev_log = _events_module._active
    prev_fi = _injector_module._active
    _registry_module._active = _registry_module.DISABLED
    _events_module._active = _events_module.DISABLED_EVENTS
    _injector_module._active = _injector_module.DISABLED
    try:
        yield
    finally:
        _registry_module._active = prev_tm
        _events_module._active = prev_log
        _injector_module._active = prev_fi
    del _telemetry_pkg


def _time_loop(fn: Callable[[], None], iterations: int) -> float:
    """Mean per-call seconds of ``fn`` over ``iterations`` calls."""
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn()
    elapsed = time.perf_counter_ns() - start
    return max(elapsed / iterations, 1.0) / 1e9


def calibrate_unit_costs(scale: int = 1) -> dict[str, float]:
    """Micro-benchmark each site's per-operation cost, in seconds.

    Runs on scratch registries with the global ones forced disabled, so
    calibration leaves no trace in a live run's telemetry.  ``scale``
    multiplies the iteration counts (1 keeps the whole pass at a few
    milliseconds; raise it for steadier numbers in offline analysis).
    """
    import numpy as np

    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.gtpin.trace_buffer import TraceBuffer, TraceRecord
    from repro.obs.events import EventLog
    from repro.telemetry.registry import Telemetry

    costs: dict[str, float] = {}
    with _all_observability_disabled():
        tm = Telemetry()
        n = 2000 * scale
        costs["telemetry.counter"] = _time_loop(
            lambda: tm.inc("calibration.counter"), n
        )
        costs["telemetry.histogram"] = _time_loop(
            lambda: tm.observe_hist("calibration.hist", 1.5, "s"), n
        )

        def one_span() -> None:
            with tm.span("calibration.span", category="calibration"):
                pass

        costs["telemetry.span"] = _time_loop(one_span, 500 * scale)

        log = EventLog(capacity=1024)
        costs["events.emit"] = _time_loop(
            lambda: log.debug("calibration.event", k=1), 1000 * scale
        )

        injector = FaultInjector(
            FaultPlan.uniform(1e-9, sites=("jit.build",))
        )
        injector.begin_scope("calibration")
        costs["faults.check"] = _time_loop(
            lambda: injector.draw("jit.build"), 200 * scale
        )

        buffer = TraceBuffer()
        record = TraceRecord(
            dispatch_index=0,
            kernel_name="calibration",
            global_work_size=64,
            arg_values={},
            n_hw_threads=1,
            block_counts=np.zeros(8, dtype=np.int64),
            enqueue_call_index=0,
            sync_epoch=0,
        )

        def one_flush() -> None:
            for _ in range(8):
                buffer.write(record)
            buffer.drain()

        # Per-drain cost of the flush mechanics themselves; the
        # telemetry calls inside write()/drain() are globally disabled
        # here, so this does NOT overlap the primitive sites above.
        costs["trace_buffer.flush"] = _time_loop(one_flush, 50 * scale)
    return costs


def estimate_observation_costs(
    tm: Any,
    log: Any = None,
    injector: Any = None,
    unit_costs: Mapping[str, float] | None = None,
) -> tuple[SiteCost, ...]:
    """Ops x unit-cost attribution from live registry state.

    Operation counts are the registries' own exact tallies
    (``Counter.ops``, histogram observation counts, completed
    spans, emitted events including ring-dropped ones, fault draws,
    trace-buffer drains), all of which survive cross-process snapshot
    merges -- so the attribution covers worker processes too.
    """
    if injector is None:
        from repro import faults

        injector = faults.get()
    if unit_costs is None:
        unit_costs = calibrate_unit_costs()
    ops: dict[str, int] = {site: 0 for site in OBSERVATION_SITES}
    if getattr(tm, "enabled", False):
        ops["telemetry.span"] = len(tm.spans())
        ops["telemetry.counter"] = sum(
            c.ops for c in tm.counters.counters.values()
        )
        ops["telemetry.histogram"] = sum(
            h.count for h in tm.counters.histograms.values()
        )
        ops["trace_buffer.flush"] = int(
            tm.counter_value("gtpin.trace_buffer.drains")
        )
    if log is not None and getattr(log, "enabled", False):
        ops["events.emit"] = len(log) + log.dropped
    ops["faults.check"] = getattr(injector, "draws", 0)
    return tuple(
        SiteCost(
            site=site,
            operations=ops[site],
            unit_cost_seconds=unit_costs.get(site, 0.0),
            total_seconds=ops[site] * unit_costs.get(site, 0.0),
        )
        for site in OBSERVATION_SITES
    )


def tool_costs(tm: Any) -> tuple[ToolCost, ...]:
    """Measured per-tool processing time from ``gtpin.tool.<name>`` spans."""
    if not getattr(tm, "enabled", False):
        return ()
    sums: dict[str, tuple[int, float]] = {}
    for span in tm.spans():
        if not span.name.startswith("gtpin.tool."):
            continue
        tool = span.name[len("gtpin.tool."):]
        count, seconds = sums.get(tool, (0, 0.0))
        sums[tool] = (count + 1, seconds + span.duration_seconds)
    return tuple(
        ToolCost(tool=tool, spans=count, seconds=seconds)
        for tool, (count, seconds) in sorted(sums.items())
    )


def attribute_self_overhead(
    tm: Any,
    log: Any = None,
    injector: Any = None,
    walltime_delta_seconds: float | None = None,
    unit_costs: Mapping[str, float] | None = None,
) -> SelfOverheadReport:
    """Build the full self-overhead report from live registry state."""
    return SelfOverheadReport(
        sites=estimate_observation_costs(tm, log, injector, unit_costs),
        tools=tool_costs(tm),
        walltime_delta_seconds=walltime_delta_seconds,
    )


def measure_self_overhead(
    fn: Callable[[], Any],
    unit_costs: Mapping[str, float] | None = None,
) -> SelfOverheadReport:
    """Run ``fn`` twice -- observability off, then on -- and attribute
    the walltime delta.

    The off run executes under forced-disabled registries (whatever the
    caller had active is restored afterwards); the on run executes under
    fresh telemetry and event-log sessions whose final state feeds the
    attribution.  Mirrors :func:`measure_overhead`'s native-vs-
    instrumented structure, pointed at ourselves.
    """
    from repro import telemetry as telemetry_pkg
    from repro.obs import events as events_module

    if unit_costs is None:
        unit_costs = calibrate_unit_costs()
    # Off, on, off again: the first run pays one-time warmup (imports,
    # allocator growth, caches), so the baseline is the *minimum* of the
    # two off runs -- otherwise warmup would be mis-billed as negative
    # observability overhead.
    baselines = []
    with _all_observability_disabled():
        start = time.perf_counter()
        fn()
        baselines.append(time.perf_counter() - start)
    with telemetry_pkg.session() as tm, events_module.session() as log:
        start = time.perf_counter()
        fn()
        instrumented = time.perf_counter() - start
        report_tm, report_log = tm, log
    with _all_observability_disabled():
        start = time.perf_counter()
        fn()
        baselines.append(time.perf_counter() - start)
    return attribute_self_overhead(
        report_tm,
        report_log,
        walltime_delta_seconds=max(instrumented - min(baselines), 0.0),
        unit_costs=unit_costs,
    )
