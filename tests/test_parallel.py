"""The parallel execution engine: pool, cache, and telemetry merge."""

from __future__ import annotations

import concurrent.futures
import errno
import hashlib
import functools
import multiprocessing
import multiprocessing.popen_fork
import os
import pickle

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.parallel import cache as cache_module
from repro.gpu.device import HD4000
from repro.parallel import (
    CACHE_ENV,
    JOBS_ENV,
    ProfileCache,
    TaskOutcome,
    parallel_map,
    resolve_jobs,
)
from repro.parallel.pool import WORKER_ENV
from repro.sampling.explorer import (
    ALL_CONFIGS,
    ExplorationError,
    explore,
)
from repro.sampling.pipeline import explore_application, profile_workload
from repro.sampling.simpoint import SimPointOptions
from repro.telemetry.snapshot import DeltaTracker, merge_delta

FAST_OPTIONS = SimPointOptions(max_k=4, restarts=1, max_iterations=30)

#: Every 5th config: both interval schemes and feature families appear,
#: but the serial-vs-parallel comparison stays fast.
SUBSET = ALL_CONFIGS[::5]


# -- module-level task functions (workers pickle them by reference) ----------


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"poisoned input {x}")
    return x + 100


def _always_fail(x):
    raise RuntimeError("nope")


class _PickleCounted:
    """A task argument that counts how often the parent pickles it."""

    pickles = 0

    def __init__(self, payload):
        self.payload = payload

    def __reduce__(self):
        _PickleCounted.pickles += 1
        return (_PickleCounted, (self.payload,))


def _read_shared(index, shared, offset):
    return index + len(shared.payload) + offset


def _traced_task(x):
    tm = telemetry.get()
    with tm.span("worker.task", category="test", x=x):
        tm.inc("worker.tasks")
        tm.observe_hist("worker.value", float(x))
    return x


# -- resolve_jobs ------------------------------------------------------------


def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    monkeypatch.delenv(WORKER_ENV, raising=False)
    assert resolve_jobs() == 1


def test_resolve_jobs_explicit_argument_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_reads_environment(monkeypatch):
    monkeypatch.delenv(WORKER_ENV, raising=False)
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs() == 5


def test_resolve_jobs_zero_means_all_cores(monkeypatch):
    monkeypatch.delenv(WORKER_ENV, raising=False)
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    monkeypatch.setenv(JOBS_ENV, "0")
    assert resolve_jobs() == (os.cpu_count() or 1)


def test_resolve_jobs_inside_worker_is_serial(monkeypatch):
    monkeypatch.setenv(WORKER_ENV, "1")
    monkeypatch.setenv(JOBS_ENV, "8")
    assert resolve_jobs() == 1
    assert resolve_jobs(8) == 1


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.delenv(WORKER_ENV, raising=False)
    monkeypatch.setenv(JOBS_ENV, "many")
    with pytest.raises(ValueError, match=JOBS_ENV):
        resolve_jobs()


# -- parallel_map ------------------------------------------------------------


def test_parallel_map_preserves_task_order():
    tasks = [(i,) for i in range(20)]
    serial = parallel_map(_square, tasks, jobs=1)
    pooled = parallel_map(_square, tasks, jobs=2)
    assert [o.value for o in serial] == [i * i for i in range(20)]
    assert [o.value for o in pooled] == [i * i for i in range(20)]
    assert [o.index for o in pooled] == list(range(20))
    assert all(o.ok for o in pooled)


def test_parallel_map_isolates_failures():
    tasks = [(i,) for i in range(6)]
    outcomes = parallel_map(_fail_on_three, tasks, jobs=2)
    bad = outcomes[3]
    assert not bad.ok
    assert "ValueError" in bad.error and "poisoned input 3" in bad.error
    assert bad.traceback and "poisoned input 3" in bad.traceback
    good = [o for o in outcomes if o.ok]
    assert [o.value for o in good] == [100, 101, 102, 104, 105]


def test_parallel_map_serial_failures_match_pool_shape():
    outcomes = parallel_map(_fail_on_three, [(3,), (4,)], jobs=1)
    assert not outcomes[0].ok and outcomes[1].value == 104
    assert isinstance(outcomes[0], TaskOutcome)


def test_parallel_map_empty_input():
    assert parallel_map(_square, [], jobs=4) == []


def test_parallel_map_counts_tasks_and_failures():
    with telemetry.session() as tm:
        parallel_map(_fail_on_three, [(i,) for i in range(4)], jobs=2)
        assert tm.counter_value("parallel.tasks") == 4
        assert tm.counter_value("parallel.task_failures") == 1


def _use_context(monkeypatch, method):
    """Make the pool start its workers with the ``method`` context."""
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context(method),
        ),
    )


@pytest.mark.parametrize("method, most", [("fork", 0), ("spawn", 2)])
def test_shared_arguments_ship_once_per_worker(monkeypatch, method, most):
    """An argument that is the same object in every task reaches each
    worker once, through the pool initializer: never pickled under
    ``fork`` (the workers inherit it), once per worker under ``spawn``
    (as under ``forkserver``), instead of once per task."""
    shared = _PickleCounted(list(range(1000)))
    tasks = [(i, shared, 7) for i in range(30)]
    serial = parallel_map(_read_shared, tasks, jobs=1)
    _use_context(monkeypatch, method)
    monkeypatch.setattr(_PickleCounted, "pickles", 0)
    pooled = parallel_map(_read_shared, tasks, jobs=2)
    assert _PickleCounted.pickles <= most
    assert pooled == serial
    assert [o.value for o in pooled] == [i + 1007 for i in range(30)]


@pytest.mark.parametrize("fail_at", [1, 2])
def test_pool_falls_back_to_serial_when_fork_fails(monkeypatch, fail_at):
    """Workers fork at the first submit, not in the executor's
    constructor.  A fork that fails there (EAGAIN) falls back to the
    serial path like a constructor failure -- also when one worker had
    forked before the failure, which must not be left running."""
    _use_context(monkeypatch, "fork")
    launch = multiprocessing.popen_fork.Popen._launch
    forks = []

    def failing_launch(self, process_obj):
        forks.append(process_obj)
        if len(forks) >= fail_at:
            raise BlockingIOError(
                errno.EAGAIN, "Resource temporarily unavailable"
            )
        return launch(self, process_obj)

    monkeypatch.setattr(
        multiprocessing.popen_fork.Popen, "_launch", failing_launch
    )
    before = set(multiprocessing.active_children())
    try:
        with telemetry.session() as tm:
            outcomes = parallel_map(
                _square, [(i,) for i in range(6)], jobs=2
            )
            fallbacks = tm.counter_value("parallel.pool_fallbacks")
    finally:
        # A leaked worker would block interpreter exit; stop it so the
        # failure is reported instead of hanging the run.
        leaked = set(multiprocessing.active_children()) - before
        for process in leaked:
            process.terminate()
            process.join(timeout=10)
    assert not leaked
    assert fallbacks == 1
    assert [o.value for o in outcomes] == [i * i for i in range(6)]
    assert all(o.ok for o in outcomes)
    assert len(forks) == fail_at


# -- explore: serial/parallel identity and error capture ---------------------


def test_explore_parallel_matches_serial(small_workload):
    kwargs = dict(
        configs=SUBSET, approx_size=200_000, options=FAST_OPTIONS
    )
    serial = explore(
        small_workload.application_name,
        small_workload.log,
        small_workload.timings,
        jobs=1,
        **kwargs,
    )
    parallel = explore(
        small_workload.application_name,
        small_workload.log,
        small_workload.timings,
        jobs=2,
        **kwargs,
    )
    assert not serial.errors and not parallel.errors
    assert list(serial.results) == list(parallel.results) == list(SUBSET)
    assert serial.results == parallel.results


def test_explore_application_jobs_passthrough(small_workload):
    result = explore_application(
        small_workload, options=FAST_OPTIONS, configs=SUBSET, jobs=2
    )
    assert set(result.results) == set(SUBSET)
    assert not result.errors


def test_explore_captures_per_config_errors(small_workload, monkeypatch):
    poisoned = SUBSET[1]

    def sometimes(config, *args, **kwargs):
        if config == poisoned:
            raise RuntimeError("synthetic failure")
        return real(config, *args, **kwargs)

    import repro.sampling.explorer as explorer_mod

    real = explorer_mod.evaluate_config
    monkeypatch.setattr(explorer_mod, "evaluate_config", sometimes)
    result = explore(
        small_workload.application_name,
        small_workload.log,
        small_workload.timings,
        configs=SUBSET,
        approx_size=200_000,
        options=FAST_OPTIONS,
        jobs=1,
    )
    assert poisoned not in result.results
    assert "synthetic failure" in result.errors[poisoned]
    assert set(result.results) == set(SUBSET) - {poisoned}


def test_explore_raises_when_every_config_fails(small_workload, monkeypatch):
    import repro.sampling.explorer as explorer_mod

    def boom(*args, **kwargs):
        raise RuntimeError("total loss")

    monkeypatch.setattr(explorer_mod, "evaluate_config", boom)
    with pytest.raises(ExplorationError, match="every configuration failed"):
        explore(
            small_workload.application_name,
            small_workload.log,
            small_workload.timings,
            configs=SUBSET,
            jobs=1,
        )


# -- profile cache -----------------------------------------------------------


def _assert_same_workload(a, b):
    assert a.application_name == b.application_name
    assert a.trial_seed == b.trial_seed
    assert a.device == b.device
    assert len(a.log.invocations) == len(b.log.invocations)
    assert a.log.total_instructions == b.log.total_instructions
    assert a.timings.program_name == b.timings.program_name


def test_profile_cache_roundtrip(small_app, tmp_path):
    cache = ProfileCache(tmp_path)
    with telemetry.session() as tm:
        first = profile_workload(small_app, HD4000, 3, None, cache)
        assert tm.counter_value("sampling.profile_cache.misses") == 1
        assert tm.counter_value("sampling.profile_cache.stores") == 1
        assert len(cache) == 1
        second = profile_workload(small_app, HD4000, 3, None, cache)
        assert tm.counter_value("sampling.profile_cache.hits") == 1
        # The cache must not have re-profiled.
        assert tm.counter_value("pipeline.workloads_profiled") == 1
    _assert_same_workload(first, second)


def test_profile_cache_key_depends_on_seed_and_device(small_app, tmp_path):
    cache = ProfileCache(tmp_path)
    base = cache.key(small_app, HD4000, 3, None)
    assert cache.key(small_app, HD4000, 4, None) != base
    assert base == cache.key(small_app, HD4000, 3, None)


class _CallCountingApp:
    """An application that counts how often its call stream is read."""

    def __init__(self, app) -> None:
        self._app = app
        self.walks = 0

    @property
    def name(self) -> str:
        return self._app.name

    @property
    def sources(self):
        return self._app.sources

    @property
    def host_program(self):
        self.walks += 1
        return self._app.host_program


def _uncached_key(app, device, seed, timing_params=None) -> str:
    """The cache key computed from scratch, as the cache defines it."""
    fingerprint = hashlib.sha256()
    fingerprint.update(app.name.encode())
    for kernel_name in sorted(app.sources):
        fingerprint.update(kernel_name.encode())
        counts = app.sources[kernel_name].body.arrays.instruction_counts
        fingerprint.update(np.asarray(counts, dtype=np.float64).tobytes())
    for call in app.host_program.calls:
        fingerprint.update(call.name.encode())
        fingerprint.update(repr(sorted(call.args.items())).encode())
    digest = hashlib.sha256()
    digest.update(f"schema={cache_module.SCHEMA_VERSION}".encode())
    digest.update(f"version={repro.__version__}".encode())
    digest.update(fingerprint.hexdigest().encode())
    digest.update(f"device={device.name}".encode())
    digest.update(f"seed={seed}".encode())
    digest.update(f"timing={timing_params!r}".encode())
    return digest.hexdigest()


def test_profile_cache_key_hashes_each_application_once(small_app, tmp_path):
    cache = ProfileCache(tmp_path)
    app = _CallCountingApp(small_app)
    first = cache.key(app, HD4000, 3, None)
    second = cache.key(app, HD4000, 4, None)
    assert app.walks == 1
    assert first == _uncached_key(small_app, HD4000, 3)
    assert second == _uncached_key(small_app, HD4000, 4)


def test_profile_cache_corrupt_entry_is_a_miss(small_app, tmp_path):
    cache = ProfileCache(tmp_path)
    profile_workload(small_app, HD4000, 3, None, cache)
    key = cache.key(small_app, HD4000, 3, None)
    cache.path_for(key).write_bytes(b"not a pickle")
    with telemetry.session() as tm:
        again = profile_workload(small_app, HD4000, 3, None, cache)
        assert tm.counter_value("sampling.profile_cache.misses") == 1
        assert tm.counter_value("sampling.profile_cache.hits") == 0
    assert again.application_name == small_app.name
    # The corrupt entry was dropped and rewritten.
    with open(cache.path_for(key), "rb") as stream:
        assert pickle.load(stream).application_name == small_app.name


def test_profile_cache_clear(small_app, tmp_path):
    cache = ProfileCache(tmp_path)
    profile_workload(small_app, HD4000, 3, None, cache)
    assert cache.clear() == 1
    assert len(cache) == 0


def test_profile_cache_from_env(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert ProfileCache.from_env() is None
    monkeypatch.setenv(CACHE_ENV, "0")
    assert ProfileCache.from_env() is None
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "profiles"))
    cache = ProfileCache.from_env()
    assert cache is not None and cache.root == tmp_path / "profiles"
    monkeypatch.setenv(CACHE_ENV, "1")
    cache = ProfileCache.from_env()
    assert cache is not None and cache.root.name == "profiles"


# -- telemetry capture + merge ----------------------------------------------


def test_worker_telemetry_merges_into_parent():
    with telemetry.session() as tm:
        with tm.span("driver", category="test"):
            parallel_map(_traced_task, [(i,) for i in range(4)], jobs=2)
        assert tm.counter_value("worker.tasks") == 4
        hist = tm.counters.histograms["worker.value"]
        assert hist.count == 4
        assert hist.minimum == 0.0 and hist.maximum == 3.0
        spans = tm.spans()
        names = [s.name for s in spans]
        assert names.count("worker.task") == 4
        # Merged ids resolve within the combined registry, and worker
        # spans sit on synthetic (negative) threads.
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)
        fanout = next(s for s in spans if s.name == "parallel.map")
        for span in spans:
            if span.name == "worker.task":
                assert span.thread_id < 0
                assert span.parent_id == fanout.span_id
                assert span.end_ns >= span.start_ns
            if span.parent_id is not None:
                assert span.parent_id in by_id


def test_explore_parallel_telemetry_is_complete(small_workload):
    with telemetry.session() as tm:
        explore(
            small_workload.application_name,
            small_workload.log,
            small_workload.timings,
            configs=SUBSET,
            approx_size=200_000,
            options=FAST_OPTIONS,
            jobs=2,
        )
        # Every config evaluation is visible in the parent registry even
        # though the work ran in worker processes.
        assert tm.counter_value("sampling.configs_evaluated") == len(SUBSET)
        config_spans = [
            s for s in tm.spans() if s.name == "select.config"
        ]
        assert len(config_spans) == len(SUBSET)
        labels = {s.args.get("config") for s in config_spans}
        assert labels == {c.label for c in SUBSET}


def test_merge_snapshot_roundtrip_without_pool():
    """merge_delta alone: ids remapped, times shifted, totals added."""
    with telemetry.session() as worker_tm:
        with worker_tm.span("outer", category="test"):
            with worker_tm.span("inner", category="test"):
                worker_tm.inc("some.counter", 2)
                worker_tm.observe_hist("some.hist", 5.0)
        snapshot = DeltaTracker("w").capture(worker_tm, final=True)
    assert len(snapshot.spans) == 2

    with telemetry.session() as tm:
        with tm.span("parent", category="test"):
            parent_id = tm.current_span_id()
            merge_delta(tm, snapshot, parent_id)
        spans = {s.name: s for s in tm.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id == parent_id
        assert spans["outer"].span_id != spans["parent"].span_id
        assert tm.counter_value("some.counter") == 2
        assert tm.counters.histograms["some.hist"].count == 1


def test_merge_snapshot_into_disabled_registry_is_noop():
    with telemetry.session() as worker_tm:
        with worker_tm.span("outer", category="test"):
            pass
        snapshot = DeltaTracker("w").capture(worker_tm, final=True)
    merge_delta(telemetry.get(), snapshot)  # disabled -> no-op, no raise
    assert telemetry.get().spans() == []
