"""``explore``: the Section V flow, cold, on four differently shaped apps.

Each application pass runs a cold ``profile_workload`` (no cache), scores
all 30 configurations with ``explore_application(jobs=2)``, picks the
min-error and co-optimized selections, validates the min-error selection
on held-out trials 2-4 (Figure 8 top) and simulates it.  SimPoint
clustering and the process pool do most of the work here; the pool runs
in no other workload.

A job is one scored configuration.  The 30 configurations of a pass are
answered together when ``explore_application`` returns, so each one's
latency is its pass's time from the cold profile to that return.  Per
app that is the median over the run's rounds; ``job_p50_s`` is the
middle of the four apps' values and ``job_p90_s`` the slowest app's.
Each pass is timed between two host-speed calibrations and its times
are reported in reference seconds (see ``hostspeed``).
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any

import benchcore as bc
import decompose
import hostspeed
from repro.gpu.device import HD4000
from repro.sampling import (
    ALL_CONFIGS,
    cross_trial_errors,
    explore_application,
    profile_workload,
)
from repro.simulation.sampled import simulate_selection
from repro.workloads import load_app

APPS = (
    "cb-gaussian-buffer",
    "cb-vision-facedetect",
    "sandra-crypt-aes128",
    "sonyvegas-proj-r1",
)
#: A run is a fixed number of whole rounds sized from ``--seconds``, so
#: every run does the same work whatever the host speed.
NOMINAL_ROUND_SECONDS = 15.0
MIN_ROUNDS = 2
HELD_OUT_TRIALS = (2, 3, 4)
#: Section V-D error threshold for the co-optimized selection.
CO_OPT_THRESHOLD_PCT = 3.0


def setup(tracer: bc.Tracer) -> dict[str, Any]:
    apps = {}
    for name in APPS:
        with tracer.span("workloads.load_app", app=name):
            apps[name] = load_app(name, scale=bc.SCALE)
    return apps


def run_pass(
    tracer: bc.Tracer, app: Any, traced: bool
) -> dict[str, Any]:
    """One application through the whole flow; returns its outputs."""
    start = time.perf_counter()
    if traced:
        workload = decompose.profile(tracer, app, HD4000)
    else:
        workload = profile_workload(app)
    with tracer.span("parallel.fanout"):
        exploration = explore_application(workload, jobs=bc.JOBS)
    answered = time.perf_counter() - start
    with tracer.span("sampling.policy"):
        best = exploration.minimize_error()
        co_opt = exploration.co_optimize(CO_OPT_THRESHOLD_PCT)
    with tracer.span("sampling.validate"):
        held_out = cross_trial_errors(
            workload.recording, best.selection, workload.device,
            HELD_OUT_TRIALS,
        )
    with tracer.span("simulation.sampled") as span:
        sim = simulate_selection(
            app.name, workload.recording.sources, workload.log,
            best.selection, workload.device,
        )
        if span is not None:
            span["attrs"] = {"instr": sim.simulated_instructions, "points": 1}
    return {
        "workload": workload,
        "exploration": exploration,
        "answered_s": answered,
        "pass_s": time.perf_counter() - start,
        "outputs": {
            "min_error_config": best.config.label,
            "min_error_k": best.selection.k,
            "select_error_pct": best.error_percent,
            "co_opt_config": co_opt.config.label,
            "co_opt_k": co_opt.selection.k,
            "holdout_error_pct": held_out.mean_error_percent,
            "simulated_instructions": sim.simulated_instructions,
            "fast_forwarded_instructions": sim.fast_forwarded_instructions,
            "instruction_speedup": sim.instruction_speedup,
            "projected_spi": sim.projected_spi,
            "configs_scored": len(exploration.results),
            "configs_failed": len(exploration.errors),
        },
    }


def replay_configs(
    tracer: bc.Tracer, outcome: dict[str, Any], checker: bc.Checker
) -> None:
    """Serially re-run every config through the decomposed calls and
    require the exact ``ConfigResult`` the real fan-out returned."""
    workload = outcome["workload"]
    exploration = outcome["exploration"]
    for config in ALL_CONFIGS:
        with tracer.span("sampling.config", config=config.label):
            result = decompose.evaluate_config(tracer, config, workload)
        checker.equal(
            f"explore/{workload.application_name}/{config.label} replay",
            result, exploration.results.get(config),
        )


def check_pass(
    checker: bc.Checker, expected: dict[str, Any], name: str,
    outputs: dict[str, Any],
) -> bool:
    ok = True
    for key, want in expected[name].items():
        ok &= checker.equal(f"explore/{name}/{key}", outputs[key], want)
    return ok


def round_count(seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_SECONDS))


def timed_loop(
    tracer: bc.Tracer, apps: dict[str, Any], rng: random.Random,
    rounds: int, traced: bool, checker: bc.Checker,
    expected: dict[str, Any],
    calibrator: hostspeed.Calibrator | None = None,
) -> dict[str, Any]:
    """``rounds`` whole rounds: every app once per round, seeded order.

    With a ``calibrator`` each pass is bracketed by host-speed
    calibrations and carries the factors to reference seconds; otherwise
    they are 1.
    """
    passes = []
    replay_s = 0.0
    speed = calibrator.calibrate() if calibrator else None
    start = time.perf_counter()
    for _ in range(rounds):
        order = list(APPS)
        rng.shuffle(order)
        for name in order:
            cpu0 = bc.cpu_seconds(children=True)
            outcome = run_pass(tracer, apps[name], traced)
            outcome["cpu_s"] = bc.cpu_seconds(children=True) - cpu0
            if not traced:
                # Nothing replays the pass: keep one app's results alive
                # at a time, so peak memory does not depend on app order.
                del outcome["workload"], outcome["exploration"]
            outcome["scale"] = hostspeed.UNSCALED
            if calibrator:
                after = calibrator.calibrate()
                outcome["scale"] = hostspeed.scale(speed, after)
                speed = after
            outcome["name"] = name
            outcome["ok"] = check_pass(
                checker, expected, name, outcome["outputs"]
            )
            passes.append(outcome)
        if traced:
            # After the round, so the parent's serial work never competes
            # with a fan-out for the two cores.
            replay_start = time.perf_counter()
            with tracer.span("bench.replay"):
                for outcome in passes[-len(order):]:
                    replay_configs(tracer, outcome, checker)
            replay_s += time.perf_counter() - replay_start
            for outcome in passes[-len(order):]:
                del outcome["workload"], outcome["exploration"]
    return {
        "passes": passes,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "replay_s": replay_s,
    }


def end_to_end(
    loop: dict[str, Any], setup_s: float, scaled: bool = True
) -> tuple[dict, int, int]:
    """The end-to-end metrics; host times in reference seconds, or as
    measured with ``scaled=False``."""
    passes = loop["passes"]
    per_pass = len(ALL_CONFIGS)
    attempted = per_pass * len(passes)
    ok = sum(
        p["outputs"]["configs_scored"] if p["ok"] else 0 for p in passes
    )
    by_app: dict[str, list[dict[str, Any]]] = {}
    for p in passes:
        by_app.setdefault(p["name"], []).append(p)

    def host(p: dict[str, Any], key: str) -> float:
        if not scaled:
            return p[key]
        return p[key] * (p["scale"].cpu if key == "cpu_s" else p["scale"].wall)

    # The 30 configs of a pass are answered together, so a config's
    # latency is its pass's; per app, the median over the run's rounds.
    # p50 and p90 are the middle and the slowest of the four apps' values,
    # not a tail over independent jobs.
    app_latency = [
        statistics.median(host(p, "answered_s") for p in runs)
        for runs in by_app.values()
    ]
    outputs = [runs[0]["outputs"] for runs in by_app.values()]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": bc.robust_rate({
            app: [(per_pass, host(p, "pass_s")) for p in runs]
            for app, runs in by_app.items()
        }),
        "job_p50_s": statistics.median(app_latency),
        "job_p90_s": max(app_latency),
        "ok_frac": ok / attempted,
        "cpu_s_per_job": sum(host(p, "cpu_s") for p in passes) / attempted,
        "peak_rss_mb": bc.peak_rss_mb(children=True),
        "error_pct": _mean(o["holdout_error_pct"] for o in outputs),
        "sim_speedup_x": _mean(o["instruction_speedup"] for o in outputs),
    }
    return metrics, attempted, attempted - ok


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)
