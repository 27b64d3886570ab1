"""Job execution: one validated spec in, one JSON-scalar result out.

Every kind starts from the same (cached) profiling pass -- the paper's
"profile once, post-process everywhere" economy is exactly what makes a
multi-tenant daemon worthwhile: the first client to ask for an
application pays the profiling cost, every later client (and every
later *kind* over the same app/device/seed) is served from the shared
:class:`~repro.parallel.cache.ProfileCache`.

Repeated requests do not even reach the disk: two small process-wide
LRUs (the *warm tiers*) hold generated applications, keyed by (app,
scale), and decoded profiles, keyed by (cache root, app, scale, device,
trial seed), from each key's second request on.  With fault injection
off, both :func:`load_app` and :func:`profile_workload` are pure
functions of those keys and every later stage only reads what they
return, so a held object answers exactly as a fresh one would.  The
tiers apply only when the daemon has a profile cache and no fault plan
is active -- the same bypass :func:`profile_workload` applies to the
disk cache -- and a memory hit counts as a
``sampling.profile_cache.hits``, so the daemon's hit rate still reads
as the share of requests answered without profiling.  Every miss calls
:func:`load_app` and :func:`profile_workload` through this module's
names.

Cancellation is cooperative: the queue hands each job a cancel token
(a ``threading.Event``) and the stages below check it at their
boundaries -- before profiling, between profiling and post-processing.
A checkpoint that finds the token set raises :class:`JobCancelled`,
which the queue maps to the ``cancelled`` terminal state.  Work already
done is not wasted: a cancelled job's completed profiling pass is
already in the cache.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Hashable, Mapping

from repro import faults, telemetry
from repro.gpu.device import DeviceSpec
from repro.gpu.providers import resolve_device
from repro.parallel.cache import ProfileCache
from repro.sampling import (
    FeatureKind,
    IntervalScheme,
    ProfiledWorkload,
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


#: Values each warm tier holds.
WARM_ENTRIES = 8

#: Keys requested once that each warm tier remembers.  Keys are a few
#: small fields, so the tier can look further back for a second request
#: than it holds values.
SEEN_KEYS = 64


class WarmTier:
    """A thread-safe LRU that holds a value from its key's second request.

    The first request only records the key, so a one-off request (a
    fresh trial seed, say) never holds memory.  At most
    :data:`WARM_ENTRIES` values are held; the least recently used goes
    first.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: collections.OrderedDict = collections.OrderedDict()
        self._seen: collections.OrderedDict = collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._held)

    def get(self, key: Hashable) -> Any | None:
        """The held value for ``key``, or ``None``."""
        with self._lock:
            value = self._held.get(key)
            if value is not None:
                self._held.move_to_end(key)
            return value

    def offer(self, key: Hashable, value: Any) -> None:
        """Record a request for ``key`` that missed and computed
        ``value``; hold the value unless this was the key's first."""
        with self._lock:
            if key not in self._seen:
                self._seen[key] = None
                if len(self._seen) > SEEN_KEYS:
                    self._seen.popitem(last=False)
                return
            del self._seen[key]
            self._held[key] = value
            if len(self._held) > WARM_ENTRIES:
                self._held.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._held.clear()
            self._seen.clear()


#: Generated applications, keyed by (app, scale).
WARM_APPS = WarmTier()
#: Decoded profiles, keyed by (cache root, app, scale, device, seed).
WARM_PROFILES = WarmTier()


def _profile(
    spec: JobSpec, device: DeviceSpec, cache: ProfileCache | None
) -> ProfiledWorkload:
    """The job's profiling pass, from the warm tiers where they apply."""
    if cache is None or faults.is_enabled():
        app = load_app(spec.app, scale=spec.scale)
        return profile_workload(app, device, spec.seed, cache=cache)
    key = (cache.root, spec.app, spec.scale, device, spec.seed)
    workload = WARM_PROFILES.get(key)
    if workload is not None:
        telemetry.get().inc("sampling.profile_cache.hits")
        return workload
    app_key = (spec.app, spec.scale)
    app = WARM_APPS.get(app_key)
    if app is None:
        app = load_app(spec.app, scale=spec.scale)
        WARM_APPS.offer(app_key, app)
    workload = profile_workload(app, device, spec.seed, cache=cache)
    WARM_PROFILES.offer(key, workload)
    return workload


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
        workload = _profile(spec, device, cache)
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
