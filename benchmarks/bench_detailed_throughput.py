"""Detailed-simulation throughput: batched vs reference.

Measures stepped dynamic-instructions-per-second for both engines over
a representative app subset, plus the batched engine's epoch-memo hit
rates and epoch/batch-width statistics.  Timing is min-of-rounds (the
machine is noisy; the minimum is the best estimate of the code's actual
cost), and results are written both as a rendered table and as
machine-readable JSON under ``benchmarks/results/``.

The engines are bit-identical (tests/test_engine_identity.py); this
benchmark quantifies what that identity buys.  The target is a >= 10x
aggregate speedup for the batched engine, which must also clear the
``SPEEDUP_FLOOR`` on every app individually.  Whatever is measured is
reported honestly -- the ratios grow with ``REPRO_BENCH_SCALE`` because
larger invocation counts amortize per-dispatch setup and raise memo hit
rates.
"""

import time

from conftest import bench_scale, save_result

from repro.analysis.render import render_table
from repro.gpu.cache import CacheConfig
from repro.gpu.device import HD4000
from repro.simulation.detailed import DetailedGPUSimulator
from repro.simulation.sampled import _simulate_invocations

#: Small-to-medium apps across workload families; the giants would make
#: the reference engine's side of this benchmark take tens of minutes.
THROUGHPUT_APPS = (
    "cb-gaussian-buffer",
    "cb-gaussian-image",
    "cb-histogram-buffer",
    "cb-throughput-juliaset",
    "sandra-crypt-aes128",
    "sonyvegas-proj-r1",
)
ENGINES = ("reference", "batched")
CACHE = CacheConfig(size_bytes=256 * 1024)
ROUNDS = 3
SPEEDUP_TARGET = 10.0
#: Hard floor for regression detection; deliberately below the target so
#: scheduler noise and small scales do not flake the harness.  The
#: batched engine must clear it on every app individually -- the
#: "workloads run >= 3x faster than reference" guarantee.
SPEEDUP_FLOOR = 3.0


def _run_engine(app, log, engine):
    """One full-program simulation; returns (wall, covered, simulator)."""
    simulator = DetailedGPUSimulator(HD4000, CACHE, engine=engine)
    indices = list(range(len(log.invocations)))
    start = time.perf_counter()
    _simulate_invocations(simulator, app.sources, log, indices, seed=0)
    wall = time.perf_counter() - start
    return wall, simulator.total_simulated_instructions, simulator


def test_detailed_throughput(benchmark, suite_apps, suite_workloads):
    apps = {a.name: a for a in suite_apps}

    def run_all():
        measurements = []
        for name in THROUGHPUT_APPS:
            app, log = apps[name], suite_workloads[name].log
            walls = {engine: [] for engine in ENGINES}
            covered = {}
            sims = {}
            for _ in range(ROUNDS):
                for engine in ENGINES:
                    wall, covered[engine], sims[engine] = _run_engine(
                        app, log, engine
                    )
                    walls[engine].append(wall)
            batch = sims["batched"].batch_stats()
            lookups = batch["epoch_memo_hits"] + batch["epoch_memo_misses"]
            assert covered["reference"] == covered["batched"]
            measurements.append(
                {
                    "app": name,
                    "engines": list(ENGINES),
                    "instructions": covered["batched"],
                    "reference_seconds": min(walls["reference"]),
                    "batched_seconds": min(walls["batched"]),
                    "memo_hit_rate": (
                        batch["epoch_memo_hits"] / lookups if lookups else 0.0
                    ),
                    "batch": batch,
                }
            )
        return measurements

    measurements = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    total_ref = total_bat = total_instr = 0.0
    for m in measurements:
        ref_ips = m["instructions"] / m["reference_seconds"]
        bat_ips = m["instructions"] / m["batched_seconds"]
        speedup = m["reference_seconds"] / m["batched_seconds"]
        m["reference_ips"] = ref_ips
        m["batched_ips"] = bat_ips
        m["speedup"] = speedup
        total_ref += m["reference_seconds"]
        total_bat += m["batched_seconds"]
        total_instr += m["instructions"]
        rows.append(
            (
                m["app"],
                f"{ref_ips / 1e6:.1f}M",
                f"{bat_ips / 1e6:.1f}M",
                f"{speedup:.1f}x",
                f"{m['batch']['mean_width']:.1f}",
                f"{m['memo_hit_rate'] * 100.0:.0f}%",
            )
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"{m['app']}: batched engine speedup {speedup:.1f}x "
            f"fell below the {SPEEDUP_FLOOR:.0f}x floor"
        )

    aggregate = total_ref / total_bat
    rows.append(
        (
            "aggregate",
            f"{total_instr / total_ref / 1e6:.1f}M",
            f"{total_instr / total_bat / 1e6:.1f}M",
            f"{aggregate:.1f}x",
            "",
            "",
        )
    )

    payload = {
        "scale": bench_scale(),
        "rounds": ROUNDS,
        "timing": "min-of-rounds",
        "engines": list(ENGINES),
        "apps": measurements,
        "aggregate_speedup": aggregate,
        "speedup_target": SPEEDUP_TARGET,
        "target_met": aggregate >= SPEEDUP_TARGET,
    }
    verdict = "met" if aggregate >= SPEEDUP_TARGET else "not met at this scale"
    save_result(
        "detailed_throughput",
        render_table(
            "Detailed-simulation throughput: reference vs batched "
            f"(min of {ROUNDS} rounds; {SPEEDUP_TARGET:.0f}x target "
            f"{verdict}: {aggregate:.1f}x aggregate)",
            ["Application", "Ref instr/s", "Bat instr/s", "Speedup",
             "Epoch width", "Epoch memo hits"],
            rows,
        ),
        data=payload,
    )
    assert aggregate >= SPEEDUP_FLOOR, (
        f"aggregate speedup {aggregate:.1f}x fell below the "
        f"{SPEEDUP_FLOOR:.0f}x regression floor"
    )
