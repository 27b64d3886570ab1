"""``serve``: a ``gtpin serve`` daemon driven by two closed-loop clients.

The daemon runs as its own process with the CLI defaults (two worker
threads, telemetry on as shipped) and an empty ``--profile-cache``
directory.  Two client threads each submit a job, wait for it to end and
submit the next, like callers of ``ServeClient.run``.  The job sequence
is made of blocks of 100 jobs; each block is a seeded permutation of
every warm spec twice (``profile``, ``select`` with mixed schemes and
``simulate`` over the apps warmed in set-up) plus ten cold ``profile``
jobs, each with a trial seed no earlier job used.  A run is a fixed
number of blocks, so every run does the same work.

The apps and ``select``/``simulate`` configs were picked from measured
per-spec clustering times, and most warm jobs are ``profile`` jobs, so
``load_app``, the ``ProfileCache`` read and the HTTP and queue path make
up most of the job-seconds.  Latency is
``ended_unix - submitted_unix`` from the daemon's job views, never the
client's poll loop; the poll period is fixed because polling loads the
daemon.  Every 25 jobs both clients pause while the host speed is
calibrated, and the segment's times are reported in reference seconds
(see ``hostspeed``).  Rate and latency percentiles are taken over all
the run's jobs, so the p90 of a three-block run has thirty jobs beyond it.
"""

from __future__ import annotations

import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

import benchcore as bc
import hostspeed
from repro.serve.client import QueueFullError, ServeClient
from repro.serve.protocol import JobState

WARM_APPS = ("sandra-proc-gpu", "cb-throughput-bitcoin", "sonyvegas-proj-r5")
#: Apps and configs with the cheapest clustering next to ``load_app`` plus
#: the cache read (20-30 ms against 80-100 ms, one thread, 2-vCPU host).
#: Every scheme is used.  Some other configs degenerate on these apps and
#: cluster for 0.1-0.7 s (``single`` with ``BB``, ``KN`` or ``KN-GWS``
#: features; ``100m`` with those features on ``sandra-proc-gpu``).
SELECT_CONFIGS = (("sync", "KN-ARGS"), ("100m", "KN-ARGS"),
                  ("single", "KN-ARGS"), ("sync", "KN"))
SIMULATE_CONFIGS = (("single", "KN-ARGS"), ("100m", "KN-ARGS"))
#: Most jobs ask for an app's profile: the cache read the daemon exists
#: for.
WARM_PROFILES_PER_APP = 9
WARM_REPEATS = 2
COLD_PER_BLOCK = 10
COLD_SEED_BASE = 1000
POLL_SECONDS = 0.02
#: A run is a fixed number of whole blocks sized from ``--seconds``, not
#: whatever fits in them: the daemon's memory grows with the jobs it has
#: run, so a time-bounded run would make ``peak_rss_mb`` (and every
#: per-run total) depend on host speed.
NOMINAL_BLOCK_SECONDS = 10.0
MIN_BLOCKS = 2
#: Blocks with stored cold results.
MAX_BLOCKS = 12
#: Jobs between two host-speed calibrations (a pause for both clients).
SEGMENT_JOBS = 25
SUBMIT_RETRIES = 20
DAEMON_START_TIMEOUT = 60.0


def warm_specs() -> list[dict[str, Any]]:
    specs = []
    for app in WARM_APPS:
        specs += [{"kind": "profile", "app": app}] * WARM_PROFILES_PER_APP
        for scheme, feature in SELECT_CONFIGS:
            specs.append({"kind": "select", "app": app,
                          "scheme": scheme, "feature": feature})
        for scheme, feature in SIMULATE_CONFIGS:
            specs.append({"kind": "simulate", "app": app,
                          "scheme": scheme, "feature": feature})
    return specs


#: Jobs per block: 2 x 45 warm + 10 cold.  Each block's share of the
#: run's p90 is ten jobs beyond it.
BLOCK_JOBS = WARM_REPEATS * len(warm_specs()) + COLD_PER_BLOCK
COLD_POOL = MAX_BLOCKS * COLD_PER_BLOCK
assert BLOCK_JOBS >= 100 and BLOCK_JOBS % SEGMENT_JOBS == 0


def cold_spec(index: int) -> dict[str, Any]:
    return {"kind": "profile", "app": WARM_APPS[index % len(WARM_APPS)],
            "seed": COLD_SEED_BASE + index, "cold": True}


def spec_key(spec: dict[str, Any]) -> str:
    return "{kind}:{app}:{scheme}:{feature}:{seed}".format(
        scheme=spec.get("scheme", "sync"), feature=spec.get("feature", "BB"),
        seed=spec.get("seed", 0), kind=spec["kind"], app=spec["app"],
    )


def block_count(seconds: float) -> int:
    return min(MAX_BLOCKS,
               max(MIN_BLOCKS, round(seconds / NOMINAL_BLOCK_SECONDS)))


def job_sequence(seed: int, blocks: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    warm = warm_specs() * WARM_REPEATS
    sequence = []
    for block in range(blocks):
        specs = warm + [
            cold_spec(block * COLD_PER_BLOCK + i)
            for i in range(COLD_PER_BLOCK)
        ]
        rng.shuffle(specs)
        sequence.extend(specs)
    return sequence


def job_kind(spec: dict[str, Any]) -> str:
    if spec["kind"] == "profile":
        return "profile-cold" if spec.get("cold") else "profile-warm"
    return spec["kind"]


def checked_fields(result: dict[str, Any]) -> dict[str, Any]:
    """A job result minus its host-time field."""
    return {k: v for k, v in result.items() if k != "simulation_wall_seconds"}


# -- daemon process ------------------------------------------------------------


class Daemon:
    """A ``gtpin serve`` child process with its own empty profile cache."""

    def __init__(self, run_dir: os.PathLike, traced_spans: str = "") -> None:
        self.cache_dir = os.path.join(run_dir, "profile-cache")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        args = ["serve", "--port", "0", "--profile-cache", self.cache_dir]
        if traced_spans:
            command = [sys.executable, str(bc.BENCH_DIR / "traced_serve.py"),
                       traced_spans, *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(bc.SRC_DIR), str(bc.BENCH_DIR)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(os.path.join(run_dir, "daemon.log"), "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env,
            cwd=run_dir,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._read, args=(lines,), daemon=True
        )
        self._reader.start()
        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        self.port = 0
        while not self.port:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("gtpin serve did not start in time")
            if line is None:
                self.stop()
                raise RuntimeError("gtpin serve exited during start-up")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
        self.client = ServeClient(self.port)

    def _read(self, lines: queue.Queue) -> None:
        for raw in self.process.stdout:
            lines.put(raw.decode(errors="replace"))
        lines.put(None)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGINT (the daemon drains and exits), then wait; kill if stuck.
        Idempotent."""
        if self.log.closed:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5)
        self.process.stdout.close()
        self.log.close()


def run_job(
    client: ServeClient, spec: dict[str, Any], tracer: bc.Tracer
) -> dict[str, Any]:
    """Submit (retrying through 429s) and poll until the job ends."""
    payload = {k: v for k, v in spec.items() if k not in ("kind", "app", "cold")}
    rejected = 0
    while True:
        t0 = time.perf_counter()
        try:
            with tracer.span("serve.submit", kind=job_kind(spec)) as span:
                view = client.submit(
                    spec["kind"], spec["app"], scale=bc.SCALE, **payload
                )
                if span is not None:
                    span["trace_id"] = view.get("trace_id", "")
            break
        except QueueFullError as exc:
            rejected += 1
            if rejected > SUBMIT_RETRIES:
                return {"state": "rejected", "rejected": rejected}
            time.sleep(exc.retry_after or 0.1)
    submit_s = time.perf_counter() - t0
    while view["state"] not in JobState.TERMINAL:
        time.sleep(POLL_SECONDS)
        view = client.job(view["id"])
    view["rejected"] = rejected
    view["submit_s"] = submit_s
    return view


def closed_loop(
    daemon: Daemon, sequence: list[dict[str, Any]], tracer: bc.Tracer,
    calibrator: hostspeed.Calibrator | None = None,
) -> dict[str, Any]:
    """Two clients through the whole sequence, one segment of
    ``SEGMENT_JOBS`` at a time.  Records are ``(index, spec, view)``.

    Both clients finish a segment before the next starts; with a
    ``calibrator`` the host speed is calibrated there, while the daemon
    is idle, and each segment carries its factors to reference seconds.
    """
    records: list[tuple[int, dict[str, Any], dict[str, Any]]] = []
    errors: list[str] = []
    segments: list[dict[str, Any]] = []
    submitted = 0
    speed = calibrator.calibrate() if calibrator else None
    start = time.perf_counter()
    for first in range(0, len(sequence), SEGMENT_JOBS):
        cpu0 = bc.proc_cpu_seconds(daemon.pid)
        submitted += _run_segment(
            daemon, sequence, first, min(len(sequence), first + SEGMENT_JOBS),
            tracer, records, errors,
        )
        segment = {"cpu_s": bc.proc_cpu_seconds(daemon.pid) - cpu0,
                   "scale": hostspeed.UNSCALED}
        if calibrator:
            after = calibrator.calibrate()
            segment["scale"] = hostspeed.scale(speed, after)
            speed = after
        segments.append(segment)
    return {
        "records": records,
        "errors": errors,
        "segments": segments,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": bc.proc_peak_rss_mb(daemon.pid),
        "submitted": submitted,
    }


def _run_segment(
    daemon: Daemon, sequence: list[dict[str, Any]], first: int, end: int,
    tracer: bc.Tracer, records: list, errors: list[str],
) -> int:
    """Jobs ``first`` to ``end`` through two closed-loop clients;
    returns how many were submitted."""
    lock = threading.Lock()
    state = {"next": first}

    def take() -> int | None:
        with lock:
            index = state["next"]
            if index >= end:
                return None
            state["next"] = index + 1
            return index

    def client_thread() -> None:
        client = ServeClient(daemon.port)
        try:
            while (index := take()) is not None:
                view = run_job(client, sequence[index], tracer)
                with lock:
                    records.append((index, sequence[index], view))
        except Exception as exc:  # reported, and the run fails
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client_thread) for _ in range(bc.JOBS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return state["next"] - first


def setup_daemon(run_dir: os.PathLike, tracer: bc.Tracer,
                 traced_spans: str = "") -> Daemon:
    """Start a daemon and warm its cache with one profile per warm app."""
    daemon = Daemon(run_dir, traced_spans)
    try:
        for app in WARM_APPS:
            view = run_job(daemon.client, {"kind": "profile", "app": app},
                           tracer)
            if view.get("state") != JobState.DONE:
                raise RuntimeError(f"warm-up of {app} ended {view.get('state')}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def check_records(
    checker: bc.Checker, expected: dict[str, Any], loop: dict[str, Any]
) -> int:
    """Compare every job result with its spec's stored result; returns
    the number of ok jobs."""
    ok = 0
    for message in loop["errors"]:
        checker.mismatches.append(f"serve client: {message}")
    for _, spec, view in loop["records"]:
        key = spec_key(spec)
        if view.get("state") != JobState.DONE:
            checker.mismatches.append(
                f"serve/{key}: state {view.get('state')} "
                f"{view.get('error', '')}"
            )
            continue
        if checker.equal(f"serve/{key}", checked_fields(view["result"]),
                         expected[key]):
            ok += 1
    return ok


def done_views(loop: dict[str, Any]) -> list[tuple[dict, dict]]:
    return [(spec, view) for _, spec, view in loop["records"]
            if view.get("state") == JobState.DONE]


def job_times(
    loop: dict[str, Any], scaled: bool
) -> tuple[float, list[float]]:
    """The timed region's length and every done job's latency.

    The region is the sum of the segments' times, each from the daemon's
    first submission to its last end in the segment, so the pauses
    between segments are left out.  With ``scaled`` every segment's
    times are in reference seconds.
    """
    by_segment: dict[int, list[dict[str, Any]]] = {}
    for index, _, view in loop["records"]:
        if view.get("state") == JobState.DONE:
            by_segment.setdefault(index // SEGMENT_JOBS, []).append(view)
    seconds = 0.0
    latency: list[float] = []
    for segment, views in by_segment.items():
        factor = loop["segments"][segment]["scale"].wall if scaled else 1.0
        seconds += factor * (
            max(v["ended_unix"] for v in views)
            - min(v["submitted_unix"] for v in views)
        )
        latency += [
            factor * (v["ended_unix"] - v["submitted_unix"]) for v in views
        ]
    return seconds, latency


def end_to_end(
    loop: dict[str, Any], ok: int, setup_s: float, scaled: bool = True
) -> tuple[dict, int, int]:
    """The end-to-end metrics; host times in reference seconds, or as
    measured with ``scaled=False``."""
    attempted = loop["submitted"]
    done = done_views(loop)
    seconds, latency = job_times(loop, scaled)
    by_spec: dict[str, dict[str, Any]] = {}
    for spec, view in done:
        if spec["kind"] != "profile":
            by_spec.setdefault(spec_key(spec), view["result"])
    errors = [r["error_percent"] for r in by_spec.values()]
    sims = [r for r in by_spec.values() if r["kind"] == "simulate"]
    cpu_s = sum(
        s["cpu_s"] * (s["scale"].cpu if scaled else 1.0)
        for s in loop["segments"]
    )
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(latency) / seconds,
        "job_p50_s": statistics.median(latency),
        "job_p90_s": bc.percentile(latency, 90),
        "ok_frac": ok / attempted,
        "cpu_s_per_job": cpu_s / max(1, len(done)),
        "peak_rss_mb": loop["peak_rss_mb"],
        "error_pct": sum(errors) / len(errors),
        "sim_speedup_x": sum(r["instruction_speedup"] for r in sims) / len(sims),
    }
    if scaled:
        beyond = sum(1 for t in latency if t > metrics["job_p90_s"])
        print(f"serve: {len(done)} jobs done, {beyond} beyond the p90")
    return metrics, attempted, attempted - ok
