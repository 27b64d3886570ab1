"""``gtpin serve``: protocol, queue scheduling, HTTP endpoint, CLI.

The fast tests drive the queue and the HTTP surface with a stub
execute function (no profiling), so scheduling semantics -- priority
order, cross-client fairness, bounded-queue backpressure, cooperative
cancellation -- are asserted deterministically.  The slow acceptance
test at the bottom runs the real pipeline: four concurrent clients,
a mixed mini-suite workload, an active fault plan, and the invariant
the issue names -- zero lost jobs.
"""

from __future__ import annotations

import collections
import json
import math
import operator
import os
import random
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.cli import main
from repro.obs import events as obs_events
from repro.obs import live
from repro.obs.metrics import metric_name, parse_exposition
from repro.obs.top import render_top
from repro.serve import (
    JobQueue,
    JobSpec,
    ProtocolError,
    QueueFull,
    QueueFullError,
    ServeClient,
    ServeDaemon,
    ServeError,
)
from repro.serve.protocol import JobState, job_view
from repro.serve.work import JobCancelled

APP = "cb-gaussian-buffer"


# -- protocol ----------------------------------------------------------------


def test_spec_from_json_minimal_applies_defaults():
    spec = JobSpec.from_json({"kind": "profile", "app": APP})
    assert spec.scale == 1.0
    assert spec.device == "hd4000"
    assert spec.priority == 0
    assert spec.client == "anon"
    assert spec.to_json()["kind"] == "profile"


def test_spec_from_json_coerces_numeric_strings():
    spec = JobSpec.from_json(
        {"kind": "select", "app": APP, "scale": "0.5", "seed": "3",
         "priority": "7"}
    )
    assert (spec.scale, spec.seed, spec.priority) == (0.5, 3, 7)


@pytest.mark.parametrize(
    "payload",
    [
        "not an object",
        {"app": APP},
        {"kind": "profile"},
        {"kind": "profile", "app": APP, "bogus": 1},
        {"kind": "nope", "app": APP},
        {"kind": "profile", "app": "not-an-app"},
        {"kind": "profile", "app": APP, "scale": 0.0},
        {"kind": "profile", "app": APP, "scale": 5.0},
        {"kind": "profile", "app": APP, "scale": "huge"},
        {"kind": "profile", "app": APP, "device": "rtx4090"},
        {"kind": "profile", "app": APP, "priority": 101},
        {"kind": "profile", "app": APP, "priority": -101},
        {"kind": "profile", "app": APP, "jobs": -1},
        {"kind": "select", "app": APP, "scheme": "nope"},
        {"kind": "select", "app": APP, "feature": "nope"},
        {"kind": "profile", "app": APP, "client": 7},
        {"kind": "profile", "app": APP, "seed": 1e400},
        {"kind": "profile", "app": APP, "priority": -math.inf},
        {"kind": "profile", "app": APP, "jobs": math.inf},
    ],
)
def test_spec_rejects_malformed_payloads(payload):
    with pytest.raises(ProtocolError):
        JobSpec.from_json(payload)


def test_job_view_derives_queue_and_run_seconds():
    spec = JobSpec(kind="profile", app=APP)
    view = job_view(
        "j1", spec, JobState.DONE,
        submitted_unix=10.0, started_unix=12.5, ended_unix=14.0,
        result={"ok": True},
    )
    assert view["queue_seconds"] == 2.5
    assert view["run_seconds"] == 1.5
    assert view["result"] == {"ok": True}
    assert JobState.DONE in JobState.TERMINAL
    assert JobState.RUNNING not in JobState.TERMINAL


# -- queue scheduling (stubbed work) -----------------------------------------


class _StubWork:
    """Deterministic execute stub driven by events, not wall clock.

    Every job waits for ``release`` before completing; the completion
    order (recorded by ``seed``) is therefore exactly the scheduler's
    dispatch order.  ``fail_seeds`` raise; a set cancel token raises
    :class:`JobCancelled` like the real work function's checkpoints.
    """

    def __init__(self, fail_seeds: tuple[int, ...] = ()) -> None:
        self.release = threading.Event()
        self.started: list[int] = []
        self.finished: list[int] = []
        self.fail_seeds = fail_seeds
        self._lock = threading.Lock()

    def __call__(self, spec: JobSpec, cancel: threading.Event) -> dict:
        with self._lock:
            self.started.append(spec.seed)
        while not self.release.wait(timeout=0.02):
            if cancel.is_set():
                raise JobCancelled()
        if cancel.is_set():
            raise JobCancelled()
        if spec.seed in self.fail_seeds:
            raise RuntimeError(f"boom seed={spec.seed}")
        with self._lock:
            self.finished.append(spec.seed)
        return {"seed": spec.seed}


@pytest.fixture
def make_queue():
    queues = []

    def factory(execute, **kwargs) -> JobQueue:
        queue = JobQueue(execute, **kwargs)
        queue.start()
        queues.append(queue)
        return queue

    yield factory
    for queue in queues:
        queue.stop(timeout=5.0)


def _spec(seed: int = 0, priority: int = 0, client: str = "anon") -> JobSpec:
    return JobSpec(
        kind="profile", app=APP, scale=0.1, seed=seed,
        priority=priority, client=client,
    )


def _wait_state(queue: JobQueue, job_id: str, state: str,
                timeout: float = 5.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = queue.get(job_id)
        if view["state"] == state:
            return view
        time.sleep(0.01)
    raise AssertionError(
        f"job {job_id} never reached {state!r}: {queue.get(job_id)}"
    )


def test_queue_rejects_bad_construction():
    with pytest.raises(ValueError):
        JobQueue(lambda s, c: {}, workers=0)
    with pytest.raises(ValueError):
        JobQueue(lambda s, c: {}, capacity=0)


def test_priority_orders_dispatch(make_queue):
    work = _StubWork()
    queue = make_queue(work, workers=1, capacity=16)
    blocker = queue.submit(_spec(seed=1, priority=100))
    _wait_state(queue, blocker["id"], JobState.RUNNING)
    # Queued while the only worker is busy: dispatch order is the
    # heap's, not arrival order.
    queue.submit(_spec(seed=2, priority=-5))
    queue.submit(_spec(seed=3, priority=10))
    queue.submit(_spec(seed=4, priority=0))
    work.release.set()
    assert queue.join(timeout=10.0)
    assert work.started == [1, 3, 4, 2]


def test_fairness_interleaves_clients(make_queue):
    work = _StubWork()
    queue = make_queue(work, workers=1, capacity=16)
    blocker = queue.submit(_spec(seed=1, client="warm"))
    _wait_state(queue, blocker["id"], JobState.RUNNING)
    # Client "bulk" floods three jobs; client "solo" submits one later.
    # Rank (same-client jobs already pending) interleaves: bulk's
    # first, then solo's only, then the rest of bulk's backlog.
    queue.submit(_spec(seed=10, client="bulk"))
    queue.submit(_spec(seed=11, client="bulk"))
    queue.submit(_spec(seed=12, client="bulk"))
    queue.submit(_spec(seed=20, client="solo"))
    work.release.set()
    assert queue.join(timeout=10.0)
    assert work.started == [1, 10, 20, 11, 12]


def test_backpressure_bounded_queue_raises_queue_full(make_queue):
    work = _StubWork()
    with telemetry.session() as tm:
        queue = make_queue(work, workers=1, capacity=2)
        blocker = queue.submit(_spec(seed=1))
        _wait_state(queue, blocker["id"], JobState.RUNNING)
        queue.submit(_spec(seed=2))
        queue.submit(_spec(seed=3))
        with pytest.raises(QueueFull):
            queue.submit(_spec(seed=4))
        assert tm.counter_value("serve.jobs_rejected") == 1
        work.release.set()
        assert queue.join(timeout=10.0)
        # The rejected job was never admitted; the admitted three ran.
        assert sorted(work.finished) == [1, 2, 3]
        assert tm.counter_value("serve.jobs_submitted") == 3


def test_cancel_queued_job_is_immediate(make_queue):
    work = _StubWork()
    queue = make_queue(work, workers=1, capacity=16)
    blocker = queue.submit(_spec(seed=1))
    _wait_state(queue, blocker["id"], JobState.RUNNING)
    victim = queue.submit(_spec(seed=2))
    view = queue.cancel(victim["id"])
    assert view["state"] == JobState.CANCELLED
    assert view["ended_unix"] is not None
    work.release.set()
    assert queue.join(timeout=10.0)
    # The cancelled job never started.
    assert work.started == [1]
    assert queue.get(victim["id"])["state"] == JobState.CANCELLED


def test_cancel_running_job_aborts_at_checkpoint(make_queue):
    work = _StubWork()
    queue = make_queue(work, workers=1, capacity=16)
    job = queue.submit(_spec(seed=1))
    _wait_state(queue, job["id"], JobState.RUNNING)
    view = queue.cancel(job["id"])
    assert view["cancel_requested"]
    final = _wait_state(queue, job["id"], JobState.CANCELLED)
    assert final["ended_unix"] is not None
    assert work.finished == []


def test_failed_job_reports_error(make_queue):
    work = _StubWork(fail_seeds=(7,))
    work.release.set()
    queue = make_queue(work, workers=1, capacity=16)
    job = queue.submit(_spec(seed=7))
    view = _wait_state(queue, job["id"], JobState.FAILED)
    assert "RuntimeError: boom seed=7" in view["error"]


def test_every_submitted_job_reaches_exactly_one_terminal_state(make_queue):
    """The zero-lost-jobs invariant, stubbed: submit a mixed batch
    (successes, failures, cancellations), drain, and account for every
    job exactly once."""
    work = _StubWork(fail_seeds=(3, 6))
    with telemetry.session() as tm:
        queue = make_queue(work, workers=2, capacity=32)
        blocker = queue.submit(_spec(seed=0, priority=100))
        _wait_state(queue, blocker["id"], JobState.RUNNING)
        submitted = [blocker]
        for seed in range(1, 10):
            submitted.append(
                queue.submit(_spec(seed=seed, client=f"c{seed % 3}"))
            )
        cancelled_ids = {submitted[4]["id"], submitted[8]["id"]}
        for job_id in cancelled_ids:
            queue.cancel(job_id)
        work.release.set()
        assert queue.join(timeout=15.0)
        views = queue.list()
        assert len(views) == len(submitted) == 10
        states = [v["state"] for v in views]
        assert all(state in JobState.TERMINAL for state in states)
        counts = queue.counts()
        assert counts["queued"] == 0 and counts["running"] == 0
        assert (
            counts["done"] + counts["failed"] + counts["cancelled"] == 10
        )
        assert counts["failed"] == 2
        assert counts["cancelled"] >= len(cancelled_ids)
        assert tm.counter_value("serve.jobs_submitted") == 10
        assert (
            tm.counter_value("serve.jobs_completed")
            + tm.counter_value("serve.jobs_failed")
            + tm.counter_value("serve.jobs_cancelled")
        ) == 10


def test_kept_counts_match_a_full_recount_at_every_step(make_queue,
                                                       monkeypatch):
    """Per-state and per-client counts are kept at each transition, not
    recounted; drive a few thousand instant jobs through submit, cancel,
    fail and done and recount every job after each step."""
    gate = threading.Event()

    def instant(spec: JobSpec, cancel: threading.Event) -> dict:
        gate.wait(timeout=10.0)
        if cancel.is_set():
            raise JobCancelled()
        if spec.seed % 7 == 3:
            raise RuntimeError("instant failure")
        return {}

    queue = make_queue(instant, workers=2, capacity=10_000)
    mismatches: list[str] = []
    checks = collections.Counter()
    state_and_client = operator.attrgetter("state", "spec.client")

    def recount(step: str) -> None:
        """Under the queue lock: compare the kept counts with the jobs."""
        checks[step] += 1
        pairs = collections.Counter(
            map(state_and_client, queue._jobs.values())
        )
        states = {state: 0 for state in JobState.ALL}
        in_flight = collections.Counter()
        for (state, client), n in pairs.items():
            states[state] += n
            if state not in JobState.TERMINAL:
                in_flight[client] += n
        if queue._state_counts != states:
            mismatches.append(f"{step}: {queue._state_counts} != {states}")
        if queue._in_flight != dict(in_flight):
            mismatches.append(f"{step}: {queue._in_flight} != {in_flight}")

    move = queue._move

    def checked_move(job, state):
        move(job, state)
        recount(state)

    def check_under_lock(step: str) -> None:
        with queue._cond:
            recount(step)

    monkeypatch.setattr(queue, "_move", checked_move)
    rounds, per_round = 20, 100
    for first in range(0, rounds * per_round, per_round):
        gate.clear()
        views = []
        for seed in range(first, first + per_round):
            views.append(
                queue.submit(_spec(seed=seed, client=f"c{seed % 5}"))
            )
            check_under_lock("submit")
        # Every fourth job: queued ones cancel at once, the running
        # ones (blocked on the gate) at their checkpoint.
        for view in views[::4]:
            queue.cancel(view["id"])
            check_under_lock("cancel")
        gate.set()
        assert queue.join(timeout=10.0)
    seeds = range(rounds * per_round)
    cancelled = sum(1 for seed in seeds if seed % 4 == 0)
    failed = sum(1 for seed in seeds if seed % 4 and seed % 7 == 3)
    assert not mismatches, mismatches[:5]
    assert queue.counts() == {
        "queued": 0, "running": 0, "done": len(seeds) - cancelled - failed,
        "failed": failed, "cancelled": cancelled,
        "workers": 2, "capacity": 10_000,
    }
    assert queue._in_flight == {}
    assert checks["submit"] == len(seeds) and checks["cancel"] == cancelled
    assert checks[JobState.RUNNING] > 0
    assert checks[JobState.DONE] + checks[JobState.FAILED] > 0


def test_stop_cancels_queued_work_and_rejects_new(make_queue):
    work = _StubWork()
    queue = make_queue(work, workers=1, capacity=16)
    blocker = queue.submit(_spec(seed=1))
    _wait_state(queue, blocker["id"], JobState.RUNNING)
    queued = queue.submit(_spec(seed=2))
    work.release.set()
    queue.stop(timeout=5.0)
    with pytest.raises(RuntimeError):
        queue.submit(_spec(seed=3))
    # stop() left no job in a non-terminal state (restart to inspect
    # is impossible; the views were finalized before the loop closed).
    assert queued is not None


def test_stress_every_accepted_job_ends_once(make_queue):
    """Six client threads submit with mixed priorities and clients,
    cancel a fifth of their jobs and poll ``get``/``counts`` while a
    seventh loops on ``join``; more workers than cores and a tiny
    switch interval shake out lock-order and wake-up races.  Every
    accepted job ends in exactly one terminal state, ``on_terminal``
    fires once per job and never overlaps itself, the kept counts equal
    a recount, and no worker thread outlives ``stop()``."""
    before = set(threading.enumerate())
    ended = collections.Counter()
    overlaps = []
    in_hook = threading.Event()

    def on_terminal(view: dict) -> None:
        if in_hook.is_set():
            overlaps.append(view["id"])
        in_hook.set()
        ended[view["id"]] += 1
        time.sleep(0)  # let a second caller in, were calls not serialized
        in_hook.clear()

    def work(spec: JobSpec, cancel: threading.Event) -> dict:
        for _ in range(spec.seed % 4):
            if cancel.is_set():
                raise JobCancelled()
            time.sleep(0.0005)
        if spec.seed % 11 == 5:
            raise RuntimeError("stress failure")
        return {"seed": spec.seed}

    workers = min((os.cpu_count() or 1) + 2, 32)
    accepted: list[str] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    done = threading.Event()

    def client(n: int) -> None:
        try:
            for i in range(120):
                seed = 1000 * n + i
                spec = _spec(seed=seed, priority=(-5, 0, 10)[i % 3],
                             client=f"c{(n + i) % 4}")
                try:
                    view = queue.submit(spec)
                except QueueFull:
                    time.sleep(0.001)
                    continue
                with lock:
                    accepted.append(view["id"])
                if i % 5 == 0:
                    queue.cancel(view["id"])
                assert queue.get(view["id"])["id"] == view["id"]
                queue.counts()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    def joiner() -> None:
        while not done.is_set():
            queue.join(timeout=0.005)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with telemetry.session() as tm:
            queue = make_queue(work, workers=workers, capacity=16,
                               on_terminal=on_terminal)
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(6)]
            threads.append(threading.Thread(target=joiner))
            for thread in threads:
                thread.start()
            for thread in threads[:-1]:
                thread.join(timeout=60.0)
            assert queue.join(timeout=30.0)
            done.set()
            threads[-1].join(timeout=5.0)
            assert not errors, errors[:3]
            views = queue.list()
            assert [v["id"] for v in views] == sorted(accepted)
            assert all(v["state"] in JobState.TERMINAL for v in views)
            assert ended == collections.Counter(accepted) and not overlaps
            by_state = collections.Counter(v["state"] for v in views)
            counts = queue.counts()
            assert {s: counts[s] for s in JobState.ALL} == {
                s: by_state[s] for s in JobState.ALL
            }
            assert queue._in_flight == {}
            assert tm.counter_value("serve.jobs_submitted") == len(accepted)
            assert sum(
                tm.counter_value(f"serve.jobs_{word}")
                for word in ("completed", "failed", "cancelled")
            ) == len(accepted)
            assert by_state[JobState.CANCELLED] >= 1
            queue.stop(timeout=5.0)
    finally:
        sys.setswitchinterval(old_interval)
        done.set()
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        left = [t for t in threading.enumerate()
                if t not in before and t.name.startswith("repro-serve")]
        if not left:
            break
        time.sleep(0.01)
    assert not left, left


def _stubborn_queue(make_queue, ended: list):
    """A one-worker queue running a job that ignores its cancel token
    until ``release`` is set, with a second job queued behind it."""
    release, started = threading.Event(), threading.Event()

    def stubborn(spec: JobSpec, cancel: threading.Event) -> dict:
        started.set()
        release.wait(timeout=10.0)
        return {"seed": spec.seed}

    queue = make_queue(stubborn, workers=1, capacity=4,
                       on_terminal=ended.append)
    running = queue.submit(_spec(seed=1))
    queued = queue.submit(_spec(seed=2))
    assert started.wait(timeout=5.0)
    return queue, release, running["id"], queued["id"]


def test_a_job_that_outlives_stop_ends_once_when_it_returns(make_queue):
    """``stop()`` waits a bounded time; a job still running past it
    reaches one terminal state, with one ``on_terminal`` call, when it
    finally returns."""
    ended: list[dict] = []
    queue, release, running, queued = _stubborn_queue(make_queue, ended)
    try:
        started = time.monotonic()
        queue.stop(timeout=0.2)
        assert time.monotonic() - started < 5.0
        assert [(v["id"], v["state"]) for v in ended] == [
            (queued, JobState.CANCELLED)
        ]
    finally:
        release.set()
    deadline = time.monotonic() + 5.0
    while len(ended) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)  # a second call for the same job would land here
    assert [(v["id"], v["state"]) for v in ended] == [
        (queued, JobState.CANCELLED), (running, JobState.DONE)
    ]
    assert ended[1]["result"] == {"seed": 1}


def test_views_stay_readable_after_stop(make_queue):
    ended: list[dict] = []
    queue, release, running, queued = _stubborn_queue(make_queue, ended)
    try:
        queue.stop(timeout=0.2)
        view = queue.get(running)
        assert view["state"] == JobState.RUNNING and view["cancel_requested"]
        assert [(v["id"], v["state"]) for v in queue.list()] == [
            (running, JobState.RUNNING), (queued, JobState.CANCELLED)
        ]
    finally:
        release.set()
    assert queue.join(timeout=5.0)
    assert queue.get(running)["state"] == JobState.DONE


# -- HTTP endpoint (stubbed work) --------------------------------------------


def _fake_execute(spec, cancel=None, cache=None, sim_engine="batched"):
    if spec.seed == 666:
        raise RuntimeError("engine exploded")
    if spec.seed == 99 and cancel is not None:
        cancel.wait(timeout=10.0)
        raise JobCancelled()
    return {"app": spec.app, "kind": spec.kind, "seed": spec.seed,
            "engine": sim_engine}


@pytest.fixture
def daemon(monkeypatch):
    import repro.serve.server as server_mod

    monkeypatch.setattr(server_mod, "execute_job", _fake_execute)
    active = ServeDaemon(port=0, workers=2, capacity=4)
    active.start()
    yield active
    active.stop()


def test_http_submit_returns_202_and_result_on_completion(daemon):
    client = ServeClient(daemon.port)
    request = urllib.request.Request(
        f"http://127.0.0.1:{daemon.port}/v1/jobs",
        data=json.dumps({"kind": "profile", "app": APP, "seed": 5}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        assert response.status == 202
        view = json.loads(response.read().decode())
    assert view["state"] in (JobState.QUEUED, JobState.RUNNING)
    done = client.wait(view["id"], timeout=10.0)
    assert done["state"] == JobState.DONE
    assert done["result"]["seed"] == 5
    listing = client.jobs()
    assert view["id"] in [j["id"] for j in listing["jobs"]]
    assert listing["counts"]["done"] >= 1


def test_http_malformed_specs_are_400(daemon):
    client = ServeClient(daemon.port)
    for bad in (
        {"kind": "nope", "app": APP},
        {"kind": "profile", "app": APP, "bogus": 1},
        {"app": APP},
    ):
        with pytest.raises(ServeError) as err:
            client._request("POST", "/v1/jobs", bad)
        assert err.value.status == 400
    # Empty and non-JSON bodies too.
    for raw in (b"", b"{nope"):
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.port}/v1/jobs",
            data=raw, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as http_err:
            urllib.request.urlopen(request, timeout=5)
        assert http_err.value.code == 400


def _raw_post(
    port: int, body: bytes, length: str | None = None
) -> tuple[int, dict[str, str]]:
    """One hand-written ``POST /v1/jobs``; returns (status, headers).

    The socket stays open while waiting for the reply, so a handler
    that waits for the client to hang up times the test out.
    """
    length = str(len(body)) if length is None else length
    request = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
        "\r\n"
    ).encode() + body
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as reply:
            status = int(reply.readline().split()[1])
            headers = {}
            while (line := reply.readline().strip()):
                name, _, value = line.decode().partition(":")
                headers[name.strip()] = value.strip()
    return status, headers


@pytest.mark.parametrize(
    "length, body",
    [
        ("abc", b'{"kind": "profile"}'),
        ("-1", b'{"kind": "profile"}'),
        (None, b'{"kind": "profile", "app": "%s", "seed": 1e400}'),
        (None, b'{"kind": "profile", "app": "%s", "priority": -Infinity}'),
        (None, b'{"kind": "profile", "app": "%s", "jobs": Infinity}'),
    ],
    ids=["length-abc", "length-negative", "seed-1e400",
         "priority-minus-infinity", "jobs-infinity"],
)
def test_http_malformed_posts_are_400_on_a_raw_socket(daemon, length, body):
    body = body.replace(b"%s", APP.encode())
    status, _ = _raw_post(daemon.port, body, length)
    assert status == 400
    # The handler is free again: a good spec still goes through.
    good = json.dumps({"kind": "profile", "app": APP}).encode()
    assert _raw_post(daemon.port, good)[0] == 202


def test_http_unknown_job_and_path_are_404(daemon):
    client = ServeClient(daemon.port)
    for call in (
        lambda: client.job("j999999"),
        lambda: client.cancel("j999999"),
        lambda: client.job_events("j999999"),
        lambda: client._request("GET", "/v1/nope"),
        lambda: client._request("POST", "/v1/nope"),
        lambda: client._request("DELETE", "/v1/nope"),
    ):
        with pytest.raises(ServeError) as err:
            call()
        assert err.value.status == 404


def test_http_failed_job_carries_error(daemon):
    client = ServeClient(daemon.port)
    view = client.run("profile", APP, seed=666, timeout=10.0)
    assert view["state"] == JobState.FAILED
    assert "engine exploded" in view["error"]


def test_http_cancel_running_job_via_delete(daemon):
    client = ServeClient(daemon.port)
    view = client.submit("profile", APP, seed=99)
    deadline = time.monotonic() + 5.0
    while client.job(view["id"])["state"] != JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    client._request("DELETE", f"/v1/jobs/{view['id']}")
    final = client.wait(view["id"], timeout=10.0)
    assert final["state"] == JobState.CANCELLED


def test_http_backpressure_429_with_retry_after(monkeypatch):
    import repro.serve.server as server_mod

    gate = threading.Event()

    def blocking_execute(spec, cancel=None, cache=None,
                         sim_engine="batched"):
        gate.wait(timeout=10.0)
        return {"seed": spec.seed}

    monkeypatch.setattr(server_mod, "execute_job", blocking_execute)
    active = ServeDaemon(port=0, workers=1, capacity=1)
    active.start()
    try:
        client = ServeClient(active.port)
        first = client.submit("profile", APP, seed=1)
        deadline = time.monotonic() + 5.0
        while client.job(first["id"])["state"] != JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.submit("profile", APP, seed=2)  # fills the queue
        with pytest.raises(QueueFullError):
            client.submit("profile", APP, seed=3)
        # The raw response advertises Retry-After.
        request = urllib.request.Request(
            f"http://127.0.0.1:{active.port}/v1/jobs",
            data=json.dumps({"kind": "profile", "app": APP}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 429
        assert err.value.headers["Retry-After"] is not None
        # A polite client rides the backpressure out.
        gate.set()
        view = client.submit_with_retry("profile", APP, seed=4,
                                        backoff_seconds=0.02)
        assert client.wait(view["id"], timeout=10.0)["state"] == JobState.DONE
    finally:
        gate.set()
        active.stop()


def test_submit_with_retry_sleeps_the_advertised_retry_after(monkeypatch):
    """Against a stubbed server, the 429 Retry-After hint must take
    precedence over the client's own backoff schedule."""
    import http.server

    import repro.serve.client as client_mod

    class _Stub(http.server.BaseHTTPRequestHandler):
        attempts = 0

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            _Stub.attempts += 1
            if _Stub.attempts <= 2:
                body = json.dumps({"error": "queue full"}).encode()
                self.send_response(429)
                self.send_header("Retry-After", "7")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            body = json.dumps({"id": "j-1", "state": "queued"}).encode()
            self.send_response(202)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    slept = []
    monkeypatch.setattr(client_mod.time, "sleep", slept.append)
    try:
        client = ServeClient(server.server_address[1])
        view = client.submit_with_retry(
            "profile", APP, backoff_seconds=0.25
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert view["id"] == "j-1"
    # Both 429s carried Retry-After: 7 -- never the 0.25s backoff.
    assert slept == [7.0, 7.0]


def test_http_429_retry_after_is_integer_seconds(monkeypatch):
    """RFC 9110 delay-seconds are digits only; ``1.0`` is rejected by
    strict clients."""
    import repro.serve.server as server_mod

    gate = threading.Event()

    def blocking_execute(spec, cancel=None, cache=None,
                         sim_engine="batched"):
        gate.wait(timeout=10.0)
        return {"seed": spec.seed}

    monkeypatch.setattr(server_mod, "execute_job", blocking_execute)
    active = ServeDaemon(port=0, workers=1, capacity=1)
    active.start()
    try:
        client = ServeClient(active.port)
        first = client.submit("profile", APP, seed=1)
        deadline = time.monotonic() + 5.0
        while client.job(first["id"])["state"] != JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.submit("profile", APP, seed=2)  # fills the queue
        body = json.dumps({"kind": "profile", "app": APP}).encode()
        status, headers = _raw_post(active.port, body)
        assert status == 429
        assert re.fullmatch(r"\d+", headers["Retry-After"])
    finally:
        gate.set()
        active.stop()


@pytest.mark.parametrize("hint", ["inf", "1e400"])
def test_submit_with_retry_ignores_a_non_finite_retry_after(monkeypatch,
                                                            hint):
    """A hint ``time.sleep`` cannot take is treated as absent: the
    client's own backoff applies."""
    import http.server

    import repro.serve.client as client_mod

    class _Stub(http.server.BaseHTTPRequestHandler):
        attempts = 0

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            _Stub.attempts += 1
            status, payload = (
                (429, {"error": "queue full"}) if _Stub.attempts <= 2
                else (202, {"id": "j-1", "state": "queued"})
            )
            body = json.dumps(payload).encode()
            self.send_response(status)
            if status == 429:
                self.send_header("Retry-After", hint)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    slept = []
    monkeypatch.setattr(client_mod.time, "sleep", slept.append)
    try:
        client = ServeClient(server.server_address[1])
        view = client.submit_with_retry(
            "profile", APP, backoff_seconds=0.25
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert view["id"] == "j-1"
    assert slept == [0.25, 0.375]


def test_submit_with_retry_backs_off_without_a_hint(monkeypatch):
    import repro.serve.client as client_mod

    calls = {"n": 0}

    def flaky_submit(kind, app, **spec):
        calls["n"] += 1
        if calls["n"] == 1:
            raise QueueFullError(429, "full", retry_after=None)
        return {"id": "j-2", "state": "queued"}

    slept = []
    monkeypatch.setattr(client_mod.time, "sleep", slept.append)
    client = ServeClient(1)
    monkeypatch.setattr(client, "submit", flaky_submit)
    view = client.submit_with_retry("profile", APP, backoff_seconds=0.5)
    assert view["id"] == "j-2"
    assert slept == [0.5]


def test_http_job_events_stream(monkeypatch):
    import repro.serve.server as server_mod

    monkeypatch.setattr(server_mod, "execute_job", _fake_execute)
    with obs_events.session():
        active = ServeDaemon(port=0, workers=1, capacity=4)
        active.start()
        try:
            client = ServeClient(active.port)
            view = client.run("select", APP, seed=2, timeout=10.0)
            names = [e["name"] for e in client.job_events(view["id"])]
        finally:
            active.stop()
    assert names[0] == "serve.job.queued"
    assert "serve.job.started" in names
    assert names[-1] == "serve.job.completed"


def _scanned_job_events(log, job_id):
    """``GET /v1/jobs/<id>/events`` by a scan of every retained record."""
    return [
        record.to_json()
        for record in log.records()
        if record.name.startswith("serve.") and ("job", job_id) in record.fields
    ]


def test_job_events_index_equals_a_full_scan():
    """Eviction, reserve parking and reserve drops, absorbed records
    with older timestamps: after every step, each job's events equal a
    scan of the whole ring."""
    rng = random.Random(7)
    jobs = ["j000001", "j000002", "j000003"]
    names = ["serve.job.queued", "serve.job.started", "cache.store"]
    with obs_events.session(capacity=6) as log:
        daemon = ServeDaemon(port=0, workers=1)
        try:
            for step in range(300):
                if rng.random() < 0.15:
                    now = time.time()
                    log.absorb([
                        obs_events.EventRecord(
                            now - rng.random(), rng.choice(obs_events.LEVELS),
                            rng.choice(names), None,
                            (("job", rng.choice(jobs)), ("step", step)),
                        )
                        for _ in range(rng.randint(1, 3))
                    ])
                else:
                    job = rng.choice([*jobs, 7])
                    log.emit(
                        rng.choice(obs_events.LEVELS), rng.choice(names),
                        job=job, step=step,
                    )
                for job_id in [*jobs, "j999999"]:
                    assert daemon.job_events(job_id) == _scanned_job_events(
                        log, job_id
                    )
        finally:
            daemon._server.server_close()
        assert log.dropped > 0 and len(log) > log.capacity


def test_job_events_cost_does_not_grow_with_the_ring():
    def best_request_seconds(daemon, job_id):
        best = float("inf")
        for _ in range(50):
            start = time.perf_counter()
            daemon.job_events(job_id)
            best = min(best, time.perf_counter() - start)
        return best

    with obs_events.session() as log:
        daemon = ServeDaemon(port=0, workers=1)
        try:
            for name in ("serve.job.queued", "serve.job.started"):
                log.info(name, job="j000001")
            empty = best_request_seconds(daemon, "j000001")
            for i in range(log.capacity):
                log.info("serve.job.queued", job=f"j{i + 2:06d}")
            log.info("serve.job.completed", job="j000001")
            full = best_request_seconds(daemon, "j000001")
        finally:
            daemon._server.server_close()
    assert len(log) == log.capacity
    # A scan of the full ring took about 17 ms per request (2-vCPU KVM
    # guest).
    assert full < max(20 * empty, 0.001)


# -- LiveHub integration: /health, /metrics, gtpin top -----------------------


def test_serve_section_flows_to_health_metrics_and_top(monkeypatch, tmp_path):
    import repro.serve.server as server_mod
    from repro.parallel.cache import ProfileCache

    monkeypatch.setattr(server_mod, "execute_job", _fake_execute)
    with telemetry.session():
        hub = live.enable()
        try:
            hub.set_command("gtpin serve")
            active = ServeDaemon(
                port=0, workers=2, capacity=8,
                cache=ProfileCache(tmp_path / "profiles"),
            )
            active.start()
            try:
                client = ServeClient(active.port)
                client.run("profile", APP, timeout=10.0)

                health = client.health()
                serve = health["serve"]
                assert serve["workers"] == 2
                assert serve["capacity"] == 8
                assert serve["jobs"]["done"] == 1
                assert serve["cache"]["entries"] == 0
                assert 0.0 <= serve["cache"]["hit_rate"] <= 1.0

                parsed = parse_exposition(client.metrics_text())
                assert parsed[metric_name("serve.workers")] == 2.0
                assert parsed[metric_name("serve.queue_capacity")] == 8.0
                assert parsed[metric_name("serve.queue_depth")] == 0.0
                assert (
                    metric_name("serve.profile_cache_hit_rate") in parsed
                )

                frame = render_top(health)
                assert "serve" in frame
                assert "running 0/2" in frame
                assert "done 1" in frame
                assert "cap 8" in frame
            finally:
                active.stop()
        finally:
            live.disable()


def test_hub_section_errors_never_break_health(monkeypatch):
    hub = live.enable()
    try:
        hub.add_section(
            "broken",
            health=lambda: 1 / 0,
            metrics=lambda: 1 / 0,
        )
        doc = hub.health_doc()
        assert "error" in doc["broken"]
        assert "repro_" in hub.metrics_text()  # metrics still render
    finally:
        live.disable()


# -- CLI surface -------------------------------------------------------------


def test_cli_rejects_negative_jobs(capsys):
    assert main(["select", APP, "--jobs", "-3"]) == 2
    err = capsys.readouterr().err
    assert "jobs must be >= 0" in err
    assert "Traceback" not in err


def test_cli_rejects_garbage_jobs_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert main(["suite"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS" in err
    assert "Traceback" not in err


def _occupied_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    return sock, sock.getsockname()[1]


def test_cli_serve_port_in_use_is_one_line_error(capsys):
    sock, port = _occupied_port()
    try:
        assert main(["serve", "--port", str(port), "--duration", "0"]) == 2
    finally:
        sock.close()
    err = capsys.readouterr().err
    assert "address already in use" in err
    assert "Traceback" not in err


def test_cli_live_port_in_use_is_one_line_error(capsys):
    sock, port = _occupied_port()
    try:
        assert main(
            ["select", APP, "--scale", "0.1", "--live-port", str(port)]
        ) == 2
    finally:
        sock.close()
    err = capsys.readouterr().err
    assert "--live-port" in err
    assert "address already in use" in err
    assert "Traceback" not in err


def test_cli_serve_smoke_with_duration(capsys):
    assert main(["serve", "--port", "0", "--duration", "0"]) == 0
    out = capsys.readouterr().out
    assert "listening on http://127.0.0.1:" in out
    assert "gtpin top --port" in out
    assert "done (0 done, 0 failed, 0 cancelled)" in out


# -- acceptance: concurrent clients, faults, zero lost jobs ------------------

FAULT_SPEC = "seed=7;event.lost=0.3;trace.truncate=0.3"


def _client_workload(port: int, name: str, specs) -> list[dict]:
    client = ServeClient(port)
    views = []
    for kind, app in specs:
        view = client.submit_with_retry(
            kind, app, scale=0.05, client=name, backoff_seconds=0.05
        )
        views.append(view)
    return [client.wait(v["id"], timeout=180.0) for v in views]


@pytest.mark.slow
def test_four_concurrent_clients_zero_lost_jobs_under_faults(tmp_path):
    """The issue's acceptance workload: four concurrent clients push a
    mixed profile/select mini-suite through one daemon while a fault
    plan is active; every job must land in a terminal state (zero lost
    jobs) and the cache hit-rate series must be on /metrics."""
    from repro import faults
    from repro.faults import FaultPlan
    from repro.parallel.cache import ProfileCache

    workloads = {
        "alice": [("profile", "cb-gaussian-buffer"),
                  ("select", "cb-gaussian-buffer")],
        "bob": [("profile", "cb-gaussian-image"),
                ("select", "cb-gaussian-image")],
        "carol": [("select", "cb-gaussian-buffer"),
                  ("profile", "cb-gaussian-image")],
        "dave": [("profile", "cb-gaussian-buffer"),
                 ("profile", "cb-gaussian-image")],
    }
    with telemetry.session(), obs_events.session():
        hub = live.enable()
        try:
            daemon = ServeDaemon(
                port=0, workers=2, capacity=4,
                cache=ProfileCache(tmp_path / "profiles"),
            )
            daemon.start()
            results: dict[str, list] = {}
            errors: list[BaseException] = []

            def drive(name: str) -> None:
                try:
                    results[name] = _client_workload(
                        daemon.port, name, workloads[name]
                    )
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            try:
                with faults.session(FaultPlan.parse(FAULT_SPEC)):
                    threads = [
                        threading.Thread(target=drive, args=(name,))
                        for name in workloads
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=300.0)
                assert not errors, errors
                assert set(results) == set(workloads)

                # Zero lost jobs: every submission is terminal, none
                # stuck, and the daemon agrees with the clients.
                all_views = [v for views in results.values() for v in views]
                assert len(all_views) == 8
                for view in all_views:
                    assert view["state"] in JobState.TERMINAL, view
                assert all(
                    view["state"] == JobState.DONE for view in all_views
                ), [v.get("error") for v in all_views]
                counts = daemon.queue.counts()
                assert counts["queued"] == 0 and counts["running"] == 0
                assert counts["done"] == 8

                # The serve + cache series made it onto /metrics.
                client = ServeClient(daemon.port)
                parsed = parse_exposition(client.metrics_text())
                assert (
                    metric_name("serve.profile_cache_hit_rate") in parsed
                )
                stats = client.cache_stats()
                assert stats["hit_rate"] >= 0.0
                health = client.health()
                assert health["serve"]["jobs"]["done"] == 8
            finally:
                daemon.stop()
        finally:
            live.disable()
