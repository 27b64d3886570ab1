"""perfbench: end-to-end and per-layer benchmark of the GT-Pin reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs untraced and traced repetitions of the same work and
reports the per-layer metrics, the layer self-time table and the tracing
overhead.  Every run checks the program's outputs against
``expected.json``; the last stdout line is the JSON result.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import signal
import statistics
import sys
import tempfile
import time

import benchcore as bc
import hostspeed

WORKLOADS = ("explore", "serve")
SETUP_REPEATS = 3
#: Apps whose mean dispatch-graph epoch width is reported.
EPOCH_WIDTH_APPS = (
    "cb-gaussian-buffer",
    "cb-vision-facedetect",
    "sandra-crypt-aes128",
    "sonyvegas-proj-r1",
    "cb-histogram-buffer",
)
#: Layer-table row -> per-layer time metric.
ROW_METRICS = {
    "workloads.load_app": "workloads.load_app_s",
    "cofluent.record": "cofluent.record_s",
    "gtpin.profile": "gtpin.profile_s",
    "sampling.divide": "sampling.divide_s",
    "sampling.featurize": "sampling.featurize_s",
    "sampling.cluster": "sampling.cluster_s",
    "sampling.score": "sampling.score_s",
    "sampling.validate": "sampling.validate_s",
    "parallel.fanout": "parallel.fanout_s",
    "simulation.sampled": "simulation.sampled_s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def epoch_widths() -> dict[str, float]:
    from repro.sampling import profile_workload
    from repro.simulation import dispatch_graph
    from repro.workloads import load_app

    widths = {}
    for name in EPOCH_WIDTH_APPS:
        log = profile_workload(load_app(name, scale=bc.SCALE)).log
        n = len(log.invocations)
        epochs = dispatch_graph.partition_epochs(
            dispatch_graph.nodes_from_log(log, list(range(n)))
        )
        widths[name] = n / len(epochs)
    return widths


def layer_values(
    rows: dict[str, float], wall: float, spans: list[dict], overhead_s: float,
) -> dict[str, float]:
    """Every per-layer metric from a layer table and its spans; a layer
    the workload never calls reads 0."""
    values: dict[str, float] = {}
    for row, metric_name in ROW_METRICS.items():
        values[metric_name] = rows.get(row, 0.0)
    values["parallel.cache_s"] = rows.get("parallel.cache_load", 0.0) + rows.get(
        "parallel.cache_store", 0.0
    )
    values["gtpin.invocations"] = bc.attr_sum(
        spans, "gtpin.profile", "invocations"
    )
    values["sampling.intervals"] = bc.attr_sum(
        spans, "sampling.divide", "intervals"
    )
    values["simulation.sampled_instr"] = bc.attr_sum(
        spans, "simulation.sampled", "instr"
    )
    values["simulation.points"] = bc.attr_sum(
        spans, "simulation.sampled", "points"
    )
    fanout = values["parallel.fanout_s"]
    # Serial per-config times of the replay; only meaningful beside a
    # real fan-out of the same configs.
    values["parallel.busy_s"] = (
        bc.total(spans, "sampling.config") if fanout else 0.0
    )
    values["parallel.efficiency"] = (
        values["parallel.busy_s"] / (bc.JOBS * fanout) if fanout else 0.0
    )
    values["parallel.cache_hit_frac"] = 0.0
    for name in ("serve.submit_s.p50", "serve.submit_s.p90",
                 "serve.queue_wait_s.p50", "serve.queue_wait_s.p90",
                 "serve.run_s.profile-cold.p50",
                 "serve.run_s.profile-warm.p50", "serve.run_s.select.p50",
                 "serve.run_s.simulate.p50", "serve.rejected"):
        values[name] = 0.0
    values["trace.wall_s"] = wall
    values["trace.residual_s"] = rows.get(bc.RESIDUAL, 0.0)
    values["trace.overhead_s"] = overhead_s
    for app, width in epoch_widths().items():
        values[f"simulation.epoch_width_mean.{app}"] = width
    return values


def median_setup(
    setup, calibrator: hostspeed.Calibrator
) -> tuple[float, float, object]:
    """Imports (in a fresh interpreter) plus ``setup``, several times,
    each between host-speed calibrations.  The median time in reference
    seconds, the median as measured, and the last result."""
    scaled, measured = [], []
    result = None
    speed = calibrator.calibrate()
    for _ in range(SETUP_REPEATS):
        imports = bc.import_seconds()
        start = time.perf_counter()
        result = setup()
        seconds = imports + time.perf_counter() - start
        after = calibrator.calibrate()
        measured.append(seconds)
        scaled.append(seconds * hostspeed.scale(speed, after).wall)
        speed = after
    return statistics.median(scaled), statistics.median(measured), result


# -- workloads -------------------------------------------------------------------


def run_explore(args, checker, expected, calibrator):
    import explore_wl as wl

    rng = random.Random(args.seed)
    if not args.trace:
        off = bc.Tracer("explore", enabled=False)
        setup_s, raw_setup_s, apps = median_setup(lambda: wl.setup(off),
                                                  calibrator)
        loop = wl.timed_loop(off, apps, rng, wl.round_count(args.seconds),
                             False, checker, expected, calibrator)
        metrics, attempted, failed = wl.end_to_end(loop, setup_s)
        extra = {
            "measured_metrics":
                wl.end_to_end(loop, raw_setup_s, scaled=False)[0],
            "passes": [
                {"app": p["name"], "pass_s": p["pass_s"],
                 "answered_s": p["answered_s"], "cpu_s": p["cpu_s"],
                 "scale": p["scale"]._asdict()}
                for p in loop["passes"]
            ],
        }
        print(f"explore: {len(loop['passes'])} passes in {loop['rounds']} "
              "rounds; per app the median over rounds")
        return metrics, attempted, failed, None, extra
    tracer = bc.Tracer("explore", enabled=True)
    with tracer.span("bench.setup"):
        apps = wl.setup(tracer)
    off = bc.Tracer("explore", enabled=False)
    loops = []
    for traced in (False, True, False):
        with tracer.span("bench.timed") if traced else contextlib.nullcontext():
            loops.append(wl.timed_loop(
                tracer if traced else off, apps, random.Random(args.seed),
                1, traced, checker, expected,
            ))
    rows, wall = bc.layer_table(tracer.spans, ("bench.setup", "bench.timed",
                                               "bench.replay"))
    overhead = (loops[1]["wall_s"] - loops[1]["replay_s"]
                - (loops[0]["wall_s"] + loops[2]["wall_s"]) / 2)
    bc.print_layer_table("explore", rows, wall, overhead)
    passes = [p for loop in loops for p in loop["passes"]]
    attempted = len(wl.ALL_CONFIGS) * len(passes)
    failed = attempted - sum(p["outputs"]["configs_scored"] for p in passes)
    return (layer_values(rows, wall, tracer.spans, overhead), attempted,
            failed, tracer.spans, None)


def run_serve(args, checker, expected, calibrator):
    import serve_wl as wl

    # A traced run drives the sequence twice (untraced, then traced), so
    # it takes the fewest blocks to stay well within a run's time limit.
    blocks = wl.MIN_BLOCKS if args.trace else wl.block_count(args.seconds)
    sequence = wl.job_sequence(args.seed, blocks)
    off = bc.Tracer("serve", enabled=False)
    bc.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bc.OUT_DIR) as run_dir:
        if not args.trace:
            daemons = []
            scaled, measured = [], []
            try:
                for _ in range(SETUP_REPEATS):
                    _stop_all(daemons)
                    before = calibrator.calibrate()
                    start = time.perf_counter()
                    daemons.append(wl.setup_daemon(run_dir, off))
                    seconds = time.perf_counter() - start
                    after = calibrator.calibrate()
                    measured.append(seconds)
                    scaled.append(
                        seconds * hostspeed.scale(before, after).wall
                    )
                loop = wl.closed_loop(daemons[-1], sequence, off, calibrator)
            finally:
                _stop_all(daemons)
            ok = wl.check_records(checker, expected, loop)
            metrics, attempted, failed = wl.end_to_end(
                loop, ok, statistics.median(scaled)
            )
            extra = {"measured_metrics": wl.end_to_end(
                loop, ok, statistics.median(measured), scaled=False
            )[0]}
            return metrics, attempted, failed, None, extra
        daemon = wl.setup_daemon(run_dir, off)
        try:
            plain = wl.closed_loop(daemon, sequence, off)
        finally:
            daemon.stop()
        tracer = bc.Tracer("serve", enabled=True)
        spans_path = os.path.join(run_dir, "daemon-spans.json")
        daemon = wl.setup_daemon(run_dir, off, traced_spans=spans_path)
        try:
            traced = wl.closed_loop(daemon, sequence, tracer)
            cache = daemon.client.cache_stats()
        finally:
            daemon.stop()
        with open(spans_path) as f:
            daemon_spans = json.load(f)
    ok = wl.check_records(checker, expected, plain)
    ok += wl.check_records(checker, expected, traced)
    attempted = plain["submitted"] + traced["submitted"]
    views = wl.done_views(traced)
    rows, wall, spans = serve_table(views, daemon_spans, tracer.spans)
    overhead = traced["wall_s"] - plain["wall_s"]
    bc.print_layer_table("serve (job-seconds)", rows, wall, overhead)
    values = layer_values(rows, wall, spans, overhead)
    submit = [v["submit_s"] for _, v in views]
    queue_wait = [v["queue_seconds"] for _, v in views]
    values["serve.submit_s.p50"] = statistics.median(submit)
    values["serve.submit_s.p90"] = bc.percentile(submit, 90)
    values["serve.queue_wait_s.p50"] = statistics.median(queue_wait)
    values["serve.queue_wait_s.p90"] = bc.percentile(queue_wait, 90)
    for kind in ("profile-cold", "profile-warm", "select", "simulate"):
        runs = [v["run_seconds"] for s, v in views if wl.job_kind(s) == kind]
        values[f"serve.run_s.{kind}.p50"] = statistics.median(runs)
    values["serve.rejected"] = float(
        sum(v.get("rejected", 0) for _, _, v in traced["records"])
    )
    values["parallel.cache_hit_frac"] = cache["hit_rate"]
    return values, attempted, attempted - ok, spans, None


def serve_table(done_views, daemon_spans, client_spans):
    """Job-seconds of the traced jobs split into queue wait, daemon layer
    self times (joined by trace id) and a residual."""
    views = {v.get("trace_id"): v for _, v in done_views}
    job_spans = [s for s in daemon_spans if s["trace_id"] in views]
    own = bc.self_times(job_spans)
    rows: dict[str, float] = {
        "serve.queue_wait": sum(v["queue_seconds"] for v in views.values())
    }
    for s in job_spans:
        rows[s["name"]] = rows.get(s["name"], 0.0) + own[s["id"]]
    wall = sum(v["ended_unix"] - v["submitted_unix"] for v in views.values())
    rows[bc.RESIDUAL] = wall - sum(rows.values())
    return rows, wall, job_spans + client_spans


def _stop_all(daemons) -> None:
    for daemon in daemons:
        daemon.stop()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # A terminated run still stops the daemons it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Daemons stop on SIGINT.  A shell starting this in the background
    # leaves SIGINT ignored, and children would inherit that; a handled
    # signal is reset to the default in them instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (bc.SRC_DIR / "repro").is_dir():
        bc.fail(f"no program sources at {bc.SRC_DIR / 'repro'}")
    steal0 = bc.steal_ticks()
    for name in ("REPRO_JOBS", "REPRO_FAULTS", "REPRO_PROFILE_CACHE",
                 "REPRO_LEDGER", "REPRO_LIVE_PORT"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(bc.SRC_DIR))
    expected = bc.load_expected()
    checker = bc.Checker()
    runner = {"explore": run_explore, "serve": run_serve}[args.workload]
    # Only the end-to-end runs calibrate: traced runs report per-layer
    # times as measured.
    calibrator = hostspeed.Calibrator()
    values, attempted, failed, spans, extra = runner(
        args, checker, expected[args.workload], calibrator
    )
    declared = bc.declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        bc.fail(f"metrics {sorted(set(values) ^ set(declared))} are not "
                "both measured and declared in BENCHMARK.json")
    metrics = {name: bc.metric(values[name], unit)
               for name, unit in declared.items()}
    context = bc.run_context(args.seed)
    context["steal_ticks"] = bc.steal_ticks() - steal0
    if calibrator.history:
        context.update(calibrator.medians())
    bc.emit(args.workload, args.seed, bool(args.trace), context, checker,
            attempted, failed, metrics, spans, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
