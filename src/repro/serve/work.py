"""Job execution: one validated spec in, one JSON-scalar result out.

Every kind starts from the same (cached) profiling pass -- the paper's
"profile once, post-process everywhere" economy is exactly what makes a
multi-tenant daemon worthwhile: the first client to ask for an
application pays the profiling cost, every later client (and every
later *kind* over the same app/device/seed) is served from the shared
:class:`~repro.parallel.cache.ProfileCache`.

Cancellation is cooperative: the queue hands each job a cancel token
(a ``threading.Event``) and the stages below check it at their
boundaries -- before profiling, between profiling and post-processing.
A checkpoint that finds the token set raises :class:`JobCancelled`,
which the queue maps to the ``cancelled`` terminal state.  Work already
done is not wasted: a cancelled job's completed profiling pass is
already in the cache.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro import telemetry
from repro.gpu.providers import resolve_device
from repro.parallel.cache import ProfileCache
from repro.sampling import (
    FeatureKind,
    IntervalScheme,
    explore_application,
    profile_workload,
    select_simpoints,
)
from repro.serve.protocol import JobSpec
from repro.workloads import load_app


class JobCancelled(Exception):
    """Raised at a checkpoint when the job's cancel token is set."""


def _checkpoint(cancel: threading.Event | None) -> None:
    if cancel is not None and cancel.is_set():
        raise JobCancelled()


def execute_job(
    spec: JobSpec,
    cancel: threading.Event | None = None,
    cache: ProfileCache | None = None,
    sim_engine: str = "batched",
) -> dict[str, Any]:
    """Run one job to completion; returns a JSON-scalar result dict."""
    tm = telemetry.get()
    with tm.span(
        "serve.job", category="serve",
        kind=spec.kind, app=spec.app, client=spec.client,
    ):
        _checkpoint(cancel)
        # Specs are validated at submission, so this cannot fail here.
        device = resolve_device(spec.device)
        app = load_app(spec.app, scale=spec.scale)
        workload = profile_workload(app, device, spec.seed, cache=cache)
        _checkpoint(cancel)
        result: dict[str, Any] = {
            "app": spec.app,
            "kind": spec.kind,
            "invocations": len(workload.log.invocations),
            "total_instructions": int(workload.log.total_instructions),
            "health_flags": list(workload.health.flags),
        }
        if spec.kind == "profile":
            return result
        scheme = IntervalScheme(spec.scheme)
        feature = FeatureKind(spec.feature)
        if spec.kind == "select":
            config_result = select_simpoints(workload, scheme, feature)
            result.update(_config_result_json(config_result))
            return result
        if spec.kind == "explore":
            exploration = explore_application(workload, jobs=spec.jobs)
            best = exploration.minimize_error()
            result.update(_config_result_json(best))
            result["configs_scored"] = len(exploration.results)
            result["configs_failed"] = len(exploration.errors)
            if exploration.errors:
                result["failed_configs"] = sorted(
                    config.label for config in exploration.errors
                )
            return result
        # kind == "simulate": select, then detailed-simulate the subset.
        from repro.simulation.sampled import simulate_selection

        config_result = select_simpoints(workload, scheme, feature)
        _checkpoint(cancel)
        sim = simulate_selection(
            spec.app, workload.recording.sources, workload.log,
            config_result.selection, device, seed=spec.seed,
            engine=sim_engine, jobs=spec.jobs,
        )
        result.update(_config_result_json(config_result))
        result["projected_spi"] = sim.projected_spi
        result["simulated_instructions"] = int(sim.simulated_instructions)
        result["instruction_speedup"] = (
            None
            if sim.simulated_instructions == 0
            else sim.instruction_speedup
        )
        result["simulation_wall_seconds"] = sim.wall_seconds
        return result


def _config_result_json(config_result: Any) -> Mapping[str, Any]:
    return {
        "config": config_result.config.label,
        "error_percent": config_result.error_percent,
        "selection_fraction": config_result.selection_fraction,
        "simulation_speedup": config_result.simulation_speedup,
        "k": config_result.selection.k,
    }
