"""The serve executor's warm tiers: held apps and decoded profiles.

Every test runs the real :func:`repro.serve.work.execute_job` against a
:class:`~repro.parallel.cache.ProfileCache` in ``tmp_path`` and counts
the ``load_app`` / ``profile_workload`` calls it makes through
``repro.serve.work``'s names -- the calls a held object saves.
"""

from __future__ import annotations

import sys
import threading
import types

import pytest

from repro import faults, telemetry
from repro.faults import FaultPlan
from repro.parallel.cache import ProfileCache
from repro.serve import work
from repro.serve.protocol import JobSpec
from repro.workloads import SUITE_NAMES

APP = "cb-gaussian-buffer"


def _without_host_time(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "simulation_wall_seconds"}


@pytest.fixture(autouse=True)
def empty_tiers():
    work.WARM_APPS.clear()
    work.WARM_PROFILES.clear()
    yield
    work.WARM_APPS.clear()
    work.WARM_PROFILES.clear()


@pytest.fixture
def calls(monkeypatch):
    """Counts of the executor's ``load_app`` / ``profile_workload``
    calls (the real functions still run)."""
    counts = {"load_app": 0, "profile_workload": 0}
    load_app, profile_workload = work.load_app, work.profile_workload

    def counted_load_app(*args, **kwargs):
        counts["load_app"] += 1
        return load_app(*args, **kwargs)

    def counted_profile_workload(*args, **kwargs):
        counts["profile_workload"] += 1
        return profile_workload(*args, **kwargs)

    monkeypatch.setattr(work, "load_app", counted_load_app)
    monkeypatch.setattr(work, "profile_workload", counted_profile_workload)
    return counts


def _spec(kind: str = "profile", seed: int = 0, **fields) -> JobSpec:
    fields.setdefault("app", APP)
    fields.setdefault("scale", 0.05)
    return JobSpec(kind=kind, seed=seed, **fields)


@pytest.mark.parametrize(
    "kind, scheme, feature",
    [("profile", "sync", "BB"), ("select", "100m", "KN-ARGS"),
     ("simulate", "single", "KN-ARGS")],
)
def test_third_identical_request_is_answered_from_memory(
    tmp_path, calls, kind, scheme, feature
):
    cache = ProfileCache(tmp_path / "profiles")
    spec = _spec(kind, scheme=scheme, feature=feature)
    with telemetry.session() as tm:
        first = work.execute_job(spec, cache=cache)
        work.execute_job(spec, cache=cache)
        # The second request admitted the app and the profile.
        assert calls == {"load_app": 2, "profile_workload": 2}
        third = work.execute_job(spec, cache=cache)
        assert calls == {"load_app": 2, "profile_workload": 2}
        # One disk miss, one disk hit, one memory hit.
        assert tm.counter_value("sampling.profile_cache.misses") == 1
        assert tm.counter_value("sampling.profile_cache.hits") == 2
    assert _without_host_time(third) == _without_host_time(first)


def test_a_request_made_once_is_never_held(tmp_path, calls):
    cache = ProfileCache(tmp_path / "profiles")
    work.execute_job(_spec(seed=1), cache=cache)
    assert len(work.WARM_APPS) == 0 and len(work.WARM_PROFILES) == 0
    work.execute_job(_spec(seed=0), cache=cache)
    work.execute_job(_spec(seed=0), cache=cache)
    assert len(work.WARM_APPS) == 1 and len(work.WARM_PROFILES) == 1
    # A fresh seed after a held one: the app is held, its profile is not.
    work.execute_job(_spec(seed=2), cache=cache)
    assert len(work.WARM_PROFILES) == 1
    assert calls == {"load_app": 2, "profile_workload": 4}


@pytest.mark.parametrize("bypass", ["no-cache", "faults"])
def test_without_cache_or_under_faults_every_request_profiles(
    tmp_path, calls, bypass
):
    cache = None if bypass == "no-cache" else ProfileCache(tmp_path / "p")
    plan = FaultPlan.parse("seed=3;event.lost=0.1")
    for _ in range(3):
        if bypass == "faults":
            with faults.session(plan):
                work.execute_job(_spec(), cache=cache)
        else:
            work.execute_job(_spec(), cache=cache)
    assert calls == {"load_app": 3, "profile_workload": 3}
    assert len(work.WARM_APPS) == 0 and len(work.WARM_PROFILES) == 0


def test_two_cache_roots_never_share_a_profile(tmp_path, calls):
    first = ProfileCache(tmp_path / "a")
    second = ProfileCache(tmp_path / "b")
    work.execute_job(_spec(), cache=first)
    work.execute_job(_spec(), cache=first)
    assert calls["profile_workload"] == 2
    work.execute_job(_spec(), cache=second)
    # Held for root a, so root b profiles (and stores) its own.
    assert calls["profile_workload"] == 3
    assert second.stats()["entries"] == 1
    work.execute_job(_spec(), cache=second)
    assert len(work.WARM_PROFILES) == 2
    work.execute_job(_spec(), cache=first)
    work.execute_job(_spec(), cache=second)
    assert calls["profile_workload"] == 4


def test_neither_tier_grows_past_its_capacity(tmp_path, monkeypatch):
    """Cheap stand-ins for the app and its profile: the tiers hold
    whatever the two calls return."""
    calls = []

    def fake_load_app(name, scale=1.0):
        calls.append(("load_app", name))
        return types.SimpleNamespace(name=name)

    def fake_profile_workload(application, device, trial_seed=0, cache=None):
        calls.append(("profile_workload", application.name))
        log = types.SimpleNamespace(invocations=[], total_instructions=0)
        health = types.SimpleNamespace(flags=())
        return types.SimpleNamespace(log=log, health=health)

    monkeypatch.setattr(work, "load_app", fake_load_app)
    monkeypatch.setattr(work, "profile_workload", fake_profile_workload)
    cache = ProfileCache(tmp_path / "profiles")
    apps = SUITE_NAMES[: work.WARM_ENTRIES + 3]
    for app in apps:
        for _ in range(2):
            work.execute_job(_spec(app=app), cache=cache)
        assert len(work.WARM_APPS) <= work.WARM_ENTRIES
        assert len(work.WARM_PROFILES) <= work.WARM_ENTRIES
    assert len(work.WARM_APPS) == len(work.WARM_PROFILES) == work.WARM_ENTRIES
    # The least recently used went first.
    calls.clear()
    work.execute_job(_spec(app=apps[-1]), cache=cache)
    assert calls == []
    work.execute_job(_spec(app=apps[0]), cache=cache)
    assert calls == [("load_app", apps[0]), ("profile_workload", apps[0])]


def test_threads_sharing_one_held_profile_match_serial_runs(tmp_path, calls):
    configs = [("sync", "KN-ARGS"), ("100m", "KN-ARGS"), ("sync", "BB"),
               ("single", "KN-ARGS")]
    specs = [
        _spec("select", scale=0.25, scheme=scheme, feature=feature)
        for scheme, feature in configs
    ]
    # Serial references on fresh profiles, never held.
    expected = [work.execute_job(spec) for spec in specs]
    cache = ProfileCache(tmp_path / "profiles")
    for _ in range(2):
        work.execute_job(_spec(scale=0.25), cache=cache)
    assert len(work.WARM_PROFILES) == 1
    profiled = dict(calls)
    results: dict[int, list[dict]] = {}
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            results[index] = [
                work.execute_job(specs[i], cache=cache)
                for i in (index, index + 2, index, index + 2)
            ]
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for index in (0, 1):
        assert results[index] == [
            expected[i] for i in (index, index + 2, index, index + 2)
        ]
    assert calls == profiled
