"""Engine identity: batched and reference simulation are bit-identical.

The batched engine (block-batched stepping, numpy cache streams,
steady-state fast-forwarding, merged cross-dispatch epochs, epoch
memoization) must reproduce the scalar reference engine exactly -- same
cycles, seconds, instruction counts, and cache
hit/miss/eviction/writeback counts -- not merely approximately.  These
tests drive both engines over the same invocation sequences with
identically seeded RNGs and compare every field.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpu.cache import CacheConfig
from repro.gpu.device import HD4000
from repro.isa.builder import KernelBuilder
from repro.isa.instruction import AccessPattern
from repro.isa.program import TripCount
from repro.sampling.pipeline import profile_workload
from repro.simulation import dispatch_graph
from repro.simulation.detailed import DetailedGPUSimulator
from repro.simulation.sampled import simulate_full

from conftest import build_tiny_kernel

CACHE = CacheConfig(size_bytes=32 * 1024, line_bytes=64, ways=4)


def build_random_kernel(name="rand", bytes_a=4, bytes_b=4, jitter=0):
    """A kernel whose loop body mixes RANDOM, STRIDED, and BROADCAST sends."""
    kb = KernelBuilder(name, simd_width=16, arg_names=("iters", "n"))
    with kb.block("prologue") as b:
        b.mov(exec_size=1)
        b.load(bytes_per_channel=4, pattern=AccessPattern.BROADCAST)
    with kb.loop(TripCount(base=1, arg="iters", scale=1.0, jitter=jitter)):
        with kb.block("body") as b:
            b.load(bytes_per_channel=bytes_a, pattern=AccessPattern.RANDOM)
            b.alu("mad")
            b.load(bytes_per_channel=4, pattern=AccessPattern.STRIDED, stride=3)
            b.store(bytes_per_channel=bytes_b, pattern=AccessPattern.RANDOM)
    with kb.block("epilogue") as b:
        b.store(bytes_per_channel=4)
        b.control("ret")
    return kb.build()


def run_sequence(invocations, engine, memoize=True, seed=7):
    """Simulate a list of (kernel, args, gws) with one simulator."""
    simulator = DetailedGPUSimulator(
        HD4000, CACHE, engine=engine, memoize=memoize
    )
    rng = np.random.default_rng(seed)
    results = [
        simulator.simulate(kernel, args, gws, rng)
        for kernel, args, gws in invocations
    ]
    return results, simulator


def assert_identical(got, want):
    """Every SimulatedDispatch field, bit-for-bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.kernel_name == w.kernel_name
        assert g.instruction_count == w.instruction_count
        assert g.simulated_instructions == w.simulated_instructions
        assert g.cycles == w.cycles  # exact, not approx
        assert g.seconds == w.seconds
        assert dataclasses.asdict(g.cache) == dataclasses.asdict(w.cache)


SEQUENCES = {
    "deterministic": [
        (build_tiny_kernel(), {"iters": float(i % 5 + 1), "n": 64.0}, 64)
        for i in range(8)
    ],
    "random-uniform": [
        (build_random_kernel(), {"iters": float(3 + i % 3), "n": 128.0}, 128)
        for i in range(6)
    ],
    "random-mixed-bytes": [
        (build_random_kernel(bytes_b=16), {"iters": 4.0, "n": 64.0}, 64)
        for _ in range(4)
    ],
    "jittered": [
        (build_random_kernel(jitter=2), {"iters": 6.0, "n": 256.0}, 256)
        for _ in range(4)
    ],
    "interleaved": [
        (build_tiny_kernel(), {"iters": 40.0, "n": 512.0}, 512),
        (build_random_kernel(), {"iters": 5.0, "n": 128.0}, 128),
        (build_tiny_kernel(), {"iters": 40.0, "n": 512.0}, 512),
        (build_random_kernel(bytes_a=8), {"iters": 2.0, "n": 64.0}, 64),
        (build_tiny_kernel("other", loop_trips=9), {"iters": 9.0, "n": 64.0}, 64),
        (build_tiny_kernel(), {"iters": 40.0, "n": 512.0}, 512),
    ],
}


def test_memoization_hits_repeated_invocations():
    kernel = build_tiny_kernel()
    invocations = [(kernel, {"iters": 4.0, "n": 64.0}, 64)] * 6
    results, simulator = run_sequence(invocations, "batched")
    assert simulator.epoch_memo_hits > 0
    assert simulator.memo_stepped_avoided > 0
    # The first invocation runs on a cold cache; the second reaches the
    # warmed steady state, which every later replay reproduces exactly.
    assert_identical(results[2:], results[1:-1])


def test_unknown_engine_rejected():
    for engine in ("warp-speed", "vectorized"):
        with pytest.raises(
            ValueError, match=r"engine must be one of \('batched', 'reference'\)"
        ):
            DetailedGPUSimulator(HD4000, CACHE, engine=engine)


@pytest.mark.parametrize("label", sorted(SEQUENCES))
def test_batched_engine_bit_identical(label):
    invocations = SEQUENCES[label]
    ref, ref_sim = run_sequence(invocations, "reference")
    bat, bat_sim = run_sequence(invocations, "batched")
    assert_identical(bat, ref)
    assert dataclasses.asdict(bat_sim.cache.stats) == dataclasses.asdict(
        ref_sim.cache.stats
    )
    assert (
        bat_sim.total_simulated_instructions
        == ref_sim.total_simulated_instructions
    )


@pytest.mark.parametrize("label", sorted(SEQUENCES))
def test_batched_memoization_transparent(label):
    """The counts-keyed epoch memo on vs off never changes any result."""
    invocations = SEQUENCES[label]
    plain, plain_sim = run_sequence(invocations, "batched", memoize=False)
    memo, memo_sim = run_sequence(invocations, "batched", memoize=True)
    assert_identical(memo, plain)
    assert dataclasses.asdict(memo_sim.cache.stats) == dataclasses.asdict(
        plain_sim.cache.stats
    )


def test_batched_rng_state_advances_identically():
    invocations = SEQUENCES["jittered"] + SEQUENCES["random-uniform"]
    ref_rng = np.random.default_rng(11)
    bat_rng = np.random.default_rng(11)
    ref_sim = DetailedGPUSimulator(HD4000, CACHE, engine="reference")
    bat_sim = DetailedGPUSimulator(HD4000, CACHE, engine="batched")
    for kernel, args, gws in invocations:
        ref_sim.simulate(kernel, args, gws, ref_rng)
        bat_sim.simulate(kernel, args, gws, bat_rng)
    assert repr(ref_rng.bit_generator.state) == repr(bat_rng.bit_generator.state)


def test_simulate_epoch_matches_sequential_simulate():
    """One merged-stream epoch call == the same dispatches one at a time."""
    items = [
        (build_tiny_kernel(), {"iters": 4.0, "n": 64.0}, 64),
        (build_random_kernel(), {"iters": 3.0, "n": 128.0}, 128),
        (build_tiny_kernel("other", loop_trips=9), {"iters": 9.0, "n": 64.0}, 64),
        (build_tiny_kernel(), {"iters": 6.0, "n": 64.0}, 64),
    ]
    ref_sim = DetailedGPUSimulator(HD4000, CACHE, engine="reference")
    ref_rng = np.random.default_rng(5)
    ref = [ref_sim.simulate(k, a, g, ref_rng) for k, a, g in items]

    bat_sim = DetailedGPUSimulator(HD4000, CACHE, engine="batched")
    bat_rng = np.random.default_rng(5)
    bat = bat_sim.simulate_epoch(items, bat_rng)

    assert_identical(bat, ref)
    # Per-dispatch cache deltas serialize with the same key order too.
    for g, w in zip(bat, ref):
        assert list(dataclasses.asdict(g.cache)) == list(
            dataclasses.asdict(w.cache)
        )
    assert dataclasses.asdict(bat_sim.cache.stats) == dataclasses.asdict(
        ref_sim.cache.stats
    )
    assert bat_sim.batch_stats()["max_width"] == len(items)


def test_epoch_memo_hits_and_replays_exactly():
    """Repeating an epoch reaches a cache fixed point, then memo-replays."""
    items = [
        (build_tiny_kernel(), {"iters": float(i % 3 + 2), "n": 64.0}, 64)
        for i in range(4)
    ]
    memo_sim = DetailedGPUSimulator(HD4000, CACHE, engine="batched")
    plain_sim = DetailedGPUSimulator(
        HD4000, CACHE, engine="batched", memoize=False
    )
    memo_rng = np.random.default_rng(3)
    plain_rng = np.random.default_rng(3)
    for _ in range(6):
        got = memo_sim.simulate_epoch(items, memo_rng)
        want = plain_sim.simulate_epoch(items, plain_rng)
        assert_identical(got, want)
    assert memo_sim.epoch_memo_hits >= 3
    assert memo_sim.memo_stepped_avoided > 0


def test_simulate_full_batched_identity(small_workload, small_app):
    ref = simulate_full(
        small_app.name, small_app.sources, small_workload.log, HD4000,
        CACHE, engine="reference",
    )
    bat = simulate_full(
        small_app.name, small_app.sources, small_workload.log, HD4000,
        CACHE, engine="batched",
    )
    assert bat.measured_spi == ref.measured_spi
    assert bat.simulated_instructions == ref.simulated_instructions


@pytest.fixture(scope="module")
def mini_workloads(mini_suite):
    return [(app, profile_workload(app, trial_seed=3)) for app in mini_suite]


def test_mini_suite_batched_identity_per_dispatch(mini_workloads):
    """Full mini-suite: every dispatch's result and cache delta, exactly."""
    for app, workload in mini_workloads:
        log = workload.log
        indices = list(range(len(log.invocations)))

        ref_sim = DetailedGPUSimulator(HD4000, CACHE, engine="reference")
        ref_rng = np.random.default_rng(0)
        ref = []
        for i in indices:
            profile = log.invocations[i]
            binary = app.sources[profile.kernel_name].body
            env = {**dict(profile.data_items), **dict(profile.arg_items)}
            ref.append(
                ref_sim.simulate(
                    binary, env, profile.global_work_size, ref_rng
                )
            )

        bat_sim = DetailedGPUSimulator(HD4000, CACHE, engine="batched")
        bat_rng = np.random.default_rng(0)
        epochs = dispatch_graph.partition_epochs(
            dispatch_graph.nodes_from_log(log, indices)
        )
        bat = []
        for epoch in epochs:
            items = []
            for node in epoch.nodes:
                profile = log.invocations[node.index]
                binary = app.sources[profile.kernel_name].body
                env = {**dict(profile.data_items), **dict(profile.arg_items)}
                items.append((binary, env, profile.global_work_size))
            bat.extend(bat_sim.simulate_epoch(items, bat_rng))

        assert_identical(bat, ref)
        assert dataclasses.asdict(bat_sim.cache.stats) == dataclasses.asdict(
            ref_sim.cache.stats
        )
        # The suite genuinely exercises cross-dispatch batching.
        assert bat_sim.batch_stats()["max_width"] > 1, app.name


def test_batched_identity_under_faults_and_jobs(monkeypatch, small_app):
    """An active fault plan + worker fan-out never change simulation."""
    from repro import faults

    monkeypatch.setenv("REPRO_JOBS", "2")
    with faults.session(faults.FaultPlan.uniform(0.10, seed=7)):
        workload = profile_workload(small_app, trial_seed=3)
        ref = simulate_full(
            small_app.name, small_app.sources, workload.log, HD4000,
            CACHE, engine="reference",
        )
        # jobs=None opts into REPRO_JOBS=2: counts precompute fans out to
        # a worker pool, which must be invisible in the results.
        bat = simulate_full(
            small_app.name, small_app.sources, workload.log, HD4000,
            CACHE, engine="batched", jobs=None,
        )
    assert bat.measured_spi == ref.measured_spi
    assert bat.simulated_instructions == ref.simulated_instructions
