"""Detailed and sampled simulation."""

import numpy as np
import pytest

from repro.gpu.cache import CacheConfig
from repro.gpu.device import HD4000, HD4600
from repro.sampling.pipeline import select_simpoints
from repro.sampling.simpoint import SimPointOptions
from repro.simulation.detailed import DetailedGPUSimulator
from repro.simulation.sampled import (
    sampled_vs_full_error_percent,
    simulate_full,
    simulate_selection,
)

from conftest import build_tiny_kernel

FAST_OPTIONS = SimPointOptions(max_k=6, restarts=1, max_iterations=40)


def _simulate(kernel, gws=64, iters=3.0, device=HD4000, seed=0):
    simulator = DetailedGPUSimulator(device, CacheConfig(size_bytes=64 * 1024))
    return simulator.simulate(
        kernel, {"iters": iters, "n": float(gws)}, gws,
        np.random.default_rng(seed),
    ), simulator


def test_detailed_steps_every_instruction():
    kernel = build_tiny_kernel()
    result, simulator = _simulate(kernel)
    # One representative thread is stepped instruction-by-instruction.
    per_thread = result.instruction_count // result.simulated_instructions
    assert result.simulated_instructions > 0
    assert per_thread >= 1
    assert simulator.total_simulated_instructions == result.simulated_instructions


def test_detailed_cycles_and_seconds_positive():
    result, _ = _simulate(build_tiny_kernel())
    assert result.cycles > 0
    assert result.seconds > 0
    assert result.spi > 0


def test_detailed_cache_observes_accesses():
    result, simulator = _simulate(build_tiny_kernel(), iters=20.0)
    assert simulator.cache.stats.accesses > 0


def test_detailed_more_iters_more_cycles():
    few, _ = _simulate(build_tiny_kernel(), iters=2.0)
    many, _ = _simulate(build_tiny_kernel(), iters=20.0)
    assert many.cycles > few.cycles


def test_detailed_faster_on_more_eus():
    ivy, _ = _simulate(build_tiny_kernel(), gws=4096, device=HD4000)
    haswell, _ = _simulate(build_tiny_kernel(), gws=4096, device=HD4600)
    assert haswell.seconds < ivy.seconds


def test_sampled_simulation_speedup_and_accuracy(small_workload, small_app):
    result = select_simpoints(small_workload, options=FAST_OPTIONS)
    selection = result.selection
    cache = CacheConfig(size_bytes=64 * 1024)
    sampled = simulate_selection(
        small_app.name,
        small_app.sources,
        small_workload.log,
        selection,
        HD4000,
        cache,
    )
    full = simulate_full(
        small_app.name, small_app.sources, small_workload.log, HD4000, cache
    )
    # The sampled run skips most instructions...
    assert sampled.simulated_instructions < full.simulated_instructions
    assert sampled.instruction_speedup > 1.5
    # The simulator re-resolves data-dependent trip counts with its own
    # RNG, so counts differ slightly from the profile's.
    assert sampled.instruction_speedup == pytest.approx(
        selection.simulation_speedup, rel=0.2
    )
    # ...and still predicts the simulator's own whole-program SPI well.
    error = sampled_vs_full_error_percent(sampled, full)
    assert error < 20.0


def test_dispatch_cache_stats_are_per_dispatch_deltas():
    """Regression: ``SimulatedDispatch.cache`` must cover only that
    dispatch, not the simulator's lifetime-cumulative stats."""
    kernel = build_tiny_kernel()
    simulator = DetailedGPUSimulator(
        HD4000, CacheConfig(size_bytes=64 * 1024)
    )
    rng = np.random.default_rng(0)
    first = simulator.simulate(kernel, {"iters": 10.0, "n": 64.0}, 64, rng)
    second = simulator.simulate(kernel, {"iters": 10.0, "n": 64.0}, 64, rng)
    # Each dispatch issues the same number of accesses; a cumulative
    # second result would report twice as many.
    assert second.cache.accesses == first.cache.accesses
    # The deltas sum to the lifetime totals.
    lifetime = simulator.cache.stats
    assert first.cache.accesses + second.cache.accesses == lifetime.accesses
    assert first.cache.hits + second.cache.hits == lifetime.hits
    assert first.cache.misses + second.cache.misses == lifetime.misses


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_dispatch_cache_delta_both_engines(engine):
    kernel = build_tiny_kernel()
    simulator = DetailedGPUSimulator(
        HD4000, CacheConfig(size_bytes=64 * 1024), engine=engine
    )
    rng = np.random.default_rng(0)
    results = [
        simulator.simulate(kernel, {"iters": 8.0, "n": 64.0}, 64, rng)
        for _ in range(3)
    ]
    assert sum(r.cache.accesses for r in results) == simulator.cache.stats.accesses
    assert sum(r.cache.misses for r in results) == simulator.cache.stats.misses


def test_simulate_selection_engine_parameter(small_workload, small_app):
    """`engine=` threads through the sampled entry points unchanged."""
    result = select_simpoints(small_workload, options=FAST_OPTIONS)
    cache = CacheConfig(size_bytes=64 * 1024)
    by_engine = {
        engine: simulate_selection(
            small_app.name, small_app.sources, small_workload.log,
            result.selection, HD4000, cache, engine=engine,
        )
        for engine in ("reference", "batched")
    }
    ref, bat = by_engine["reference"], by_engine["batched"]
    assert bat.projected_spi == ref.projected_spi
    assert bat.simulated_instructions == ref.simulated_instructions
    assert bat.fast_forwarded_instructions == ref.fast_forwarded_instructions


def test_microkernels_engine_parameter(small_workload, small_app):
    from repro.simulation.microkernels import simulate_selection_microkernels

    result = select_simpoints(small_workload, options=FAST_OPTIONS)
    outcomes = {
        engine: simulate_selection_microkernels(
            small_app.name, small_app.sources, small_workload.log,
            result.selection, HD4000, loop_reduction=2.0, engine=engine,
        )
        for engine in ("reference", "batched")
    }
    assert (
        outcomes["batched"].projected_spi
        == outcomes["reference"].projected_spi
    )
    assert (
        outcomes["batched"].stepped_instructions
        == outcomes["reference"].stepped_instructions
    )


def test_sampled_fast_forward_accounting(small_workload, small_app):
    result = select_simpoints(small_workload, options=FAST_OPTIONS)
    sampled = simulate_selection(
        small_app.name,
        small_app.sources,
        small_workload.log,
        result.selection,
        HD4000,
    )
    total = (
        sampled.simulated_instructions + sampled.fast_forwarded_instructions
    )
    assert total == pytest.approx(small_workload.log.total_instructions, rel=0.02)
