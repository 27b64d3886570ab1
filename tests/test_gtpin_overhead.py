"""Section III-C: profiling overhead accounting."""

import pytest

from repro.gtpin.instrumentation import Capability
from repro.gtpin.overhead import (
    SIMULATION_SLOWDOWN_BOUND,
    measure_overhead,
)
from repro.gtpin.tools import CacheSimTool, InstructionCountTool


def test_overhead_report_fields(tiny_app):
    report = measure_overhead(tiny_app)
    assert report.native_seconds > 0
    assert report.instrumented_gpu_seconds > report.native_seconds
    assert report.host_drain_seconds > 0
    assert report.record_count == 6
    assert report.trace_bytes > 0


def test_overhead_factor_above_one(tiny_app):
    report = measure_overhead(tiny_app)
    assert report.overhead_factor > 1.0
    assert report.gpu_overhead_factor > 1.0
    assert report.instrumented_seconds == pytest.approx(
        report.instrumented_gpu_seconds + report.host_drain_seconds
    )


def test_overhead_far_below_simulation_bound(tiny_app):
    """The whole point: profiling costs ~2-10x, simulation up to 2,000,000x."""
    report = measure_overhead(tiny_app)
    assert report.overhead_factor < SIMULATION_SLOWDOWN_BOUND / 1000


def test_memory_tracing_costs_more_than_counting(tiny_app):
    light = measure_overhead(tiny_app, tools=[InstructionCountTool()])
    heavy = measure_overhead(
        tiny_app, tools=[InstructionCountTool(), CacheSimTool()]
    )
    assert (
        heavy.instrumented_gpu_seconds > light.instrumented_gpu_seconds
    )


def test_same_seed_native_time_is_stable(tiny_app):
    a = measure_overhead(tiny_app, trial_seed=4)
    b = measure_overhead(tiny_app, trial_seed=4)
    assert a.native_seconds == pytest.approx(b.native_seconds)


# -- Section III applied to ourselves: self-overhead attribution -------------


from repro import faults, telemetry
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.gtpin.overhead import (
    OBSERVATION_SITES,
    RESIDUAL_SITE,
    SelfOverheadReport,
    SiteCost,
    attribute_self_overhead,
    calibrate_unit_costs,
    estimate_observation_costs,
    measure_self_overhead,
)
from repro.obs import events as obs_events

UNIT = {site: 1.0 for site in OBSERVATION_SITES}


def test_calibration_covers_every_site_with_positive_costs():
    costs = calibrate_unit_costs()
    assert set(costs) == set(OBSERVATION_SITES)
    for site, cost in costs.items():
        assert cost > 0, site
        assert cost < 0.01, site  # per-op cost, not per-loop


def test_calibration_leaves_no_trace_in_live_registries():
    with telemetry.session() as tm, obs_events.session() as log:
        calibrate_unit_costs()
        assert len(tm.counters) == 0
        assert tm.spans() == []
        assert len(log) == 0


def test_estimate_counts_operations_exactly():
    with telemetry.session() as tm, obs_events.session() as log:
        tm.inc("x")
        tm.inc("x", 5)  # value grows by 5, ops by 1
        tm.observe_hist("h", 2.0, "s")
        with tm.span("s"):
            pass
        log.warn("w")
        log.debug("d")
        # Near-zero probability: draws are counted but never inject
        # (an injection would emit events and inc counters of its own).
        plan = FaultPlan.uniform(1e-12, sites=("jit.build",))
        with faults.session(plan) as injector:
            for _ in range(3):
                injector.draw("jit.build")
            sites = {
                s.site: s
                for s in estimate_observation_costs(
                    tm, log, unit_costs=UNIT
                )
            }
    assert sites["telemetry.counter"].operations == 2
    assert sites["telemetry.histogram"].operations == 1
    assert sites["telemetry.span"].operations == 1
    assert sites["events.emit"].operations == 2
    assert sites["faults.check"].operations == 3
    # Unit cost 1.0 makes total_seconds mirror the op count.
    assert sites["telemetry.counter"].total_seconds == 2.0


def test_fault_injector_tallies_draws():
    injector = FaultInjector(FaultPlan.uniform(0.5, sites=("jit.build",)))
    injector.begin_scope("test")
    for _ in range(7):
        injector.draw("jit.build")
    assert injector.draws == 7
    assert faults.get().draws == 0  # disabled singleton never counts


def test_residual_row_reconciles_table_to_measured_delta():
    report = SelfOverheadReport(
        sites=(SiteCost("telemetry.counter", 10, 1e-6, 1e-5),),
        walltime_delta_seconds=0.5,
    )
    rows = report.rows()
    assert rows[-1].site == RESIDUAL_SITE
    # Exact reconciliation: attributed + residual == measured delta.
    assert sum(r.total_seconds for r in rows) == report.total_seconds == 0.5
    assert report.residual_seconds == 0.5 - 1e-5
    assert RESIDUAL_SITE in report.table()
    doc = report.to_json()
    assert doc["walltime_delta_seconds"] == 0.5
    assert doc["sites"][-1]["site"] == RESIDUAL_SITE


def test_unmeasured_report_has_no_residual_row():
    report = SelfOverheadReport(
        sites=(SiteCost("telemetry.counter", 10, 1e-6, 1e-5),)
    )
    assert [r.site for r in report.rows()] == ["telemetry.counter"]
    assert report.total_seconds == report.attributed_seconds == 1e-5


def test_measure_self_overhead_off_on_off():
    def workload():
        tm = telemetry.get()
        for _ in range(200):
            tm.inc("self.demo")

    report = measure_self_overhead(workload, unit_costs=UNIT)
    assert report.walltime_delta_seconds is not None
    assert report.walltime_delta_seconds >= 0.0
    sites = {s.site: s for s in report.sites}
    # Only the instrumented (on) run records ops: exactly one run's worth.
    assert sites["telemetry.counter"].operations == 200
    # The caller's registries come back disabled, not leaked.
    assert not telemetry.is_enabled()
    assert not obs_events.is_enabled()


def test_attribute_self_overhead_includes_measured_tool_spans(tiny_app):
    with telemetry.session() as tm:
        with tm.span("gtpin.tool.icount"):
            pass
        with tm.span("gtpin.tool.icount"):
            pass
        report = attribute_self_overhead(tm, unit_costs=UNIT)
    (tool,) = report.tools
    assert tool.tool == "icount"
    assert tool.spans == 2
    assert tool.seconds >= 0.0
    assert "gtpin.tool.icount" in report.table()
