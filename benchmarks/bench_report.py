"""Continuous-benchmark runner: measure, baseline, and gate.

Runs quick versions of the headline benches -- detailed-simulation
throughput (``bench_detailed_throughput``), the sweep wall time
(``bench_parallel_scaling``), and the ``gtpin serve`` client/daemon
loop (``bench_serve_load``) -- then writes a schema'd baseline file
``BENCH_<date>.json`` at the repo root and compares it against the
newest *prior* baseline with the noise-tolerant regression gate
(:mod:`repro.obs.bench`).

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py
    PYTHONPATH=src python benchmarks/bench_report.py --check-only
    PYTHONPATH=src python benchmarks/bench_report.py --threshold 0.3

Exit status 1 means an enforceable regression (>20% by default) against
a same-host, same-scale baseline; a missing baseline or a cross-host
comparison only warns.  Timing is min-of-rounds: on a noisy machine the
minimum is the best estimate of the code's actual cost.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.gpu.cache import CacheConfig
from repro.gpu.device import HD4000
from repro.gpu.providers import resolve_device
from repro.obs import bench as obs_bench
from repro.sampling.pipeline import explore_application, profile_workload
from repro.sampling.simpoint import SimPointOptions
from repro.simulation.detailed import DetailedGPUSimulator
from repro.simulation.sampled import _simulate_invocations
from repro.workloads import load_app

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Representative small app: quick to profile, non-trivial to simulate.
GATE_APP = "cb-gaussian-buffer"
GATE_CACHE = CacheConfig(size_bytes=256 * 1024)
GATE_SIMPOINT = SimPointOptions(max_k=10, restarts=2, max_iterations=60)
ROUNDS = 3


def gate_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def measure(scale: float) -> list[obs_bench.BenchMetric]:
    """The headline metrics, min-of-``ROUNDS`` each."""
    app = load_app(GATE_APP, scale=scale)
    workload = profile_workload(app, HD4000, 0)
    indices = list(range(len(workload.log.invocations)))

    batched_walls = []
    instructions = 0
    for _ in range(ROUNDS):
        simulator = DetailedGPUSimulator(HD4000, GATE_CACHE, engine="batched")
        start = time.perf_counter()
        _simulate_invocations(
            simulator, app.sources, workload.log, indices, seed=0
        )
        batched_walls.append(time.perf_counter() - start)
        instructions = simulator.total_simulated_instructions

    # The wave64 provider's default device: same app, 64-wide wavefront
    # threading (fewer, wider hardware threads) and 128-byte cache
    # lines, so this tracks simulation throughput under the non-GEN
    # threading model.  Needs its own profile: thread counts differ.
    # Runs the default engine, ``batched``; baselines written before
    # the per-dispatch engine was retired measured that engine here.
    w64_device = resolve_device("wave64:w64-cu28")
    w64_workload = profile_workload(app, w64_device, 0)
    w64_indices = list(range(len(w64_workload.log.invocations)))
    w64_walls = []
    w64_instructions = 0
    for _ in range(ROUNDS):
        simulator = DetailedGPUSimulator(w64_device, GATE_CACHE)
        start = time.perf_counter()
        _simulate_invocations(
            simulator, app.sources, w64_workload.log, w64_indices, seed=0
        )
        w64_walls.append(time.perf_counter() - start)
        w64_instructions = simulator.total_simulated_instructions

    sweep_walls = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        explore_application(workload, options=GATE_SIMPOINT, jobs=1)
        sweep_walls.append(time.perf_counter() - start)

    from bench_serve_load import measure_serve_load

    return [
        obs_bench.BenchMetric(
            name="detailed_sim.batched_instr_per_second",
            value=instructions / min(batched_walls),
            unit="instr/s",
            direction="higher",
        ),
        obs_bench.BenchMetric(
            name="detailed_sim.wave64_instr_per_second",
            value=w64_instructions / min(w64_walls),
            unit="instr/s",
            direction="higher",
        ),
        obs_bench.BenchMetric(
            name="parallel_sweep.wall_seconds",
            value=min(sweep_walls),
            unit="s",
            direction="lower",
        ),
        # The serve loop runs at its own small fixed scale (the metric
        # times queue + HTTP + cache round-trips, not profiling depth).
        measure_serve_load(),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=REPO_ROOT,
        help="where baseline files live (default: repo root)",
    )
    parser.add_argument(
        "--threshold", type=float, default=obs_bench.DEFAULT_THRESHOLD,
        help="fractional regression tolerance (default: 0.20)",
    )
    parser.add_argument(
        "--date", default=None, metavar="YYYY-MM-DD",
        help="override the baseline filename date (default: today)",
    )
    parser.add_argument(
        "--check-only", action="store_true",
        help="measure and gate, but do not write a baseline file",
    )
    args = parser.parse_args(argv)

    scale = gate_scale()
    print(f"measuring ({GATE_APP}, scale={scale}, min of {ROUNDS} rounds)...")
    metrics = measure(scale)
    payload = obs_bench.make_baseline(metrics, scale=scale)
    for metric in metrics:
        print(f"  {metric.name}: {metric.value:g} {metric.unit}")

    written = None
    if not args.check_only:
        written = obs_bench.write_baseline(payload, args.root, date=args.date)
        print(f"baseline written to {written}")

    result = obs_bench.gate_against_newest(
        payload, args.root, exclude=written, threshold=args.threshold
    )
    print()
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
