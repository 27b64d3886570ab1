"""Outside decompositions of the program's composite calls, for traced runs.

``profile_workload`` and ``evaluate_config`` each run several layers in
one call.  The traced runs replace them with the same sequence of public
calls, each inside its own span, so every layer's time is measured from
outside the program.  The untraced runs never use this module; the
output checks (and, for configs, an exact comparison with the real
call's result) show that both paths compute the same thing.
"""

from __future__ import annotations

from typing import Any

from benchcore import Tracer
from repro.cofluent.recorder import record
from repro.cofluent.timing import capture_timings
from repro.faults.health import ProfileHealth
from repro.gtpin.profiler import GTPinSession, build_runtime
from repro.gtpin.tools.invocations import InvocationLogTool
from repro.sampling import (
    ConfigResult,
    ProfiledWorkload,
    SelectionConfig,
    build_feature_vectors,
    divide,
    run_simpoint,
    selection_from_simpoint,
    spi_error_percent,
)
from repro.sampling.error import arrays_from_profile
from repro.sampling.intervals import DEFAULT_APPROX_SIZE


def profile(
    tracer: Tracer, application: Any, device: Any, trial_seed: int = 0,
    cache: Any = None,
) -> ProfiledWorkload:
    """``profile_workload`` as CoFluent record + GT-Pin pass + cache calls.

    Runs without fault injection, where the pipeline's log/timing
    reconciliation is the identity; a misaligned pair raises instead.
    """
    key = ""
    if cache is not None:
        with tracer.span("parallel.cache_load"):
            key = cache.key(application, device, trial_seed, None)
            cached = cache.load(key)
        if cached is not None:
            return cached
    with tracer.span("cofluent.record"):
        recording, timed_run = record(application, device, trial_seed)
    with tracer.span("gtpin.profile") as span:
        session = GTPinSession([InvocationLogTool()])
        runtime = build_runtime(recording, device, None, session)
        profile_run = runtime.run(
            recording.host_program, trial_seed=trial_seed
        )
        report = session.post_process(profile_run)
        log = report["invocations"]
        if span is not None:
            span.setdefault("attrs", {})["invocations"] = len(log.invocations)
    timings = capture_timings(timed_run)
    if [p.index for p in log.invocations] != [t.index for t in timings.timings]:
        raise RuntimeError(
            f"{application.name}: profile and timing trace are misaligned"
        )
    health = report.health.union(
        ProfileHealth.from_events(timed_run.fault_events)
    ).union(ProfileHealth(flaky_timings=timings.flaky_count))
    workload = ProfiledWorkload(
        application_name=application.name,
        recording=recording,
        log=log,
        timings=timings,
        device=device,
        trial_seed=trial_seed,
        health=health,
    )
    if cache is not None:
        with tracer.span("parallel.cache_store"):
            cache.store(key, workload)
    return workload


def evaluate_config(
    tracer: Tracer, config: SelectionConfig, workload: ProfiledWorkload,
) -> ConfigResult:
    """``evaluate_config`` as divide, featurize, cluster and score spans."""
    log = workload.log
    with tracer.span("sampling.divide") as span:
        intervals = divide(log, config.scheme, DEFAULT_APPROX_SIZE)
        if span is not None:
            span.setdefault("attrs", {})["intervals"] = len(intervals)
    with tracer.span("sampling.featurize"):
        vectors = build_feature_vectors(
            log, intervals, config.feature, weighted=True
        )
    weights = [iv.instruction_count for iv in intervals]
    with tracer.span("sampling.cluster"):
        result = run_simpoint(vectors, weights, None)
    with tracer.span("sampling.score"):
        selection = selection_from_simpoint(
            config, intervals, result, log.total_instructions
        )
        seconds, instructions = arrays_from_profile(log, workload.timings)
        error = spi_error_percent(
            selection, seconds, instructions,
            workload=workload.application_name,
        )
    return ConfigResult(selection=selection, error_percent=error)
