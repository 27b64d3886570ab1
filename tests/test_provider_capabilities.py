"""Provider conformance suite: every backend passes the same contract.

Each registered device provider (:mod:`repro.gpu.providers`) is driven
through four groups of checks:

1. **capability invariants** -- the flags are internally consistent and
   every advertised device resolves through the registry;
2. **engine identity** -- reference and batched simulation are
   bit-identical on the deterministic mini-suite, per dispatch;
3. **dispatch/timing sanity** -- hypothesis properties over the roofline
   model and the work-item -> hardware-thread mapping; and
4. **per-provider goldens** -- Table I-style profiling statistics pinned
   to JSON files (regenerate with ``REPRO_REGEN_GOLDENS=1``).

Adding a third backend is "implement the interface, pass this suite":
register the provider and every test here picks it up automatically.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cache import CacheConfig
from repro.gpu.execution import GPUDevice
from repro.gpu.providers import (
    get_provider,
    known_device_tokens,
    list_providers,
    provider_of,
    resolve_device,
)
from repro.gpu.timing import TimingModel
from repro.sampling.pipeline import profile_workload
from repro.simulation import dispatch_graph
from repro.simulation.detailed import DetailedGPUSimulator

from conftest import MINI_SUITE, build_tiny_kernel
from test_goldens import _check_golden

PROVIDERS = list_providers()
PROVIDER_IDS = [f"provider_{name}" for name in PROVIDERS]

provider_param = pytest.mark.parametrize(
    "provider_name", PROVIDERS, ids=PROVIDER_IDS
)


def test_at_least_two_providers_registered():
    """The cross-vendor story needs gen plus at least one non-GEN."""
    assert "gen" in PROVIDERS
    assert "wave64" in PROVIDERS
    assert len(PROVIDERS) >= 2


# -- 1. capability invariants -------------------------------------------------


@provider_param
def test_capability_flags_consistent(provider_name):
    caps = get_provider(provider_name).capabilities
    assert caps.vendor
    assert caps.compute_unit_name in ("EU", "CU")
    assert caps.thread_name
    # Compile widths are part of the exec-size set (checked again here
    # in case a provider bypasses ProviderCapabilities.__post_init__).
    assert set(caps.simd_compile_widths) <= caps.exec_sizes
    for size in caps.exec_sizes:
        assert size > 0 and size & (size - 1) == 0
    if caps.wavefront_width:
        assert caps.wavefront_width in caps.exec_sizes
    # The timing quirks validate themselves; pin the useful ranges.
    assert 0 < caps.timing.bandwidth_efficiency <= 1
    assert 0 < caps.timing.issue_efficiency <= 1
    assert caps.timing.noise_sigma >= 0


@provider_param
def test_devices_advertise_their_provider(provider_name):
    provider = get_provider(provider_name)
    devices = provider.devices()
    assert devices, f"provider {provider_name} ships no devices"
    for token, spec in devices.items():
        assert spec.provider == provider_name
        assert spec.wavefront_width == provider.capabilities.wavefront_width
        assert spec.compute_unit_name == (
            provider.capabilities.compute_unit_name
        )
        # Every advertised token resolves, bare and qualified.
        assert resolve_device(f"{provider_name}:{token}") is spec
        assert provider.device(token) is spec
        assert provider.device(spec.name) is spec
        assert provider_of(spec) is provider
    assert provider.default_device is next(iter(devices.values()))


@provider_param
def test_cache_geometry_constructs(provider_name):
    provider = get_provider(provider_name)
    for spec in provider.devices().values():
        config = provider.cache_config(spec)
        assert config.size_bytes == spec.llc_kb * 1024
        assert config.line_bytes == provider.capabilities.cache_line_bytes
        assert config.ways == provider.capabilities.cache_ways
        assert config.n_sets > 0
        assert CacheConfig.for_device(spec) == config


@provider_param
def test_reclocked_devices_resolve_through_registry(provider_name):
    """Figure-8 ladder rungs stay inside the provider's namespace."""
    provider = get_provider(provider_name)
    for token, spec in provider.devices().items():
        rung = resolve_device(f"{provider_name}:{token}@700MHz")
        assert rung.frequency_mhz == 700.0
        assert rung.provider == provider_name
        assert rung.base_name == spec.name
        # Re-clocking never changes the threading model.
        assert rung.items_per_thread(16) == spec.items_per_thread(16)


@provider_param
def test_binary_validation_accepts_suite_kernels(provider_name):
    provider = get_provider(provider_name)
    provider.validate_binary(build_tiny_kernel())
    # A capability set that lacks the kernel's widths must reject it.
    from repro.isa.kernel import validate_exec_sizes

    with pytest.raises(ValueError, match="execution sizes"):
        validate_exec_sizes(
            build_tiny_kernel(), frozenset({1, 2}), provider=provider_name
        )


def test_known_device_tokens_cover_all_providers():
    tokens = known_device_tokens()
    for name in PROVIDERS:
        for token in get_provider(name).devices():
            assert f"{name}:{token}" in tokens


# -- 2. engine identity on the mini suite -------------------------------------


def _identity_cache(provider) -> CacheConfig:
    """A small cache in the provider's own geometry: real pressure, so
    hits/misses/evictions all occur, but vendor line size / ways."""
    return CacheConfig(
        size_bytes=32 * 1024,
        line_bytes=provider.capabilities.cache_line_bytes,
        ways=4,
    )


@pytest.fixture(scope="module", params=PROVIDERS, ids=PROVIDER_IDS)
def provider_workloads(request, mini_suite):
    """The mini-suite profiled on one provider's default device."""
    provider = get_provider(request.param)
    device = provider.default_device
    return provider, [
        (app, profile_workload(app, device, trial_seed=3))
        for app in mini_suite
    ]


def _run_engine(provider, app, workload, engine):
    """Per-dispatch results of one engine over one profiled app."""
    simulator = DetailedGPUSimulator(
        provider.default_device, _identity_cache(provider), engine=engine
    )
    rng = np.random.default_rng(0)
    log = workload.log
    results = []
    if engine == "batched":
        epochs = dispatch_graph.partition_epochs(
            dispatch_graph.nodes_from_log(
                log, list(range(len(log.invocations)))
            )
        )
        for epoch in epochs:
            items = []
            for node in epoch.nodes:
                profile = log.invocations[node.index]
                binary = app.sources[profile.kernel_name].body
                env = {**dict(profile.data_items), **dict(profile.arg_items)}
                items.append((binary, env, profile.global_work_size))
            results.extend(simulator.simulate_epoch(items, rng))
    else:
        for profile in log.invocations:
            binary = app.sources[profile.kernel_name].body
            env = {**dict(profile.data_items), **dict(profile.arg_items)}
            results.append(
                simulator.simulate(
                    binary, env, profile.global_work_size, rng
                )
            )
    return results, simulator


def _assert_dispatches_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.kernel_name == w.kernel_name
        assert g.instruction_count == w.instruction_count
        assert g.simulated_instructions == w.simulated_instructions
        assert g.cycles == w.cycles  # exact, not approx
        assert g.seconds == w.seconds
        assert dataclasses.asdict(g.cache) == dataclasses.asdict(w.cache)


def test_engine_identity_on_mini_suite(provider_workloads):
    """reference == batched, per dispatch, per provider."""
    provider, workloads = provider_workloads
    for app, workload in workloads:
        ref, ref_sim = _run_engine(provider, app, workload, "reference")
        got, got_sim = _run_engine(provider, app, workload, "batched")
        _assert_dispatches_identical(got, ref)
        assert dataclasses.asdict(got_sim.cache.stats) == (
            dataclasses.asdict(ref_sim.cache.stats)
        ), (provider.name, app.name, "batched")
        assert (
            got_sim.total_simulated_instructions
            == ref_sim.total_simulated_instructions
        )


# -- 3. dispatch/timing sanity properties -------------------------------------


@provider_param
@settings(max_examples=40, deadline=None)
@given(
    cycles=st.floats(0.0, 1e12, allow_nan=False),
    n_bytes=st.floats(0.0, 1e12, allow_nan=False),
    threads=st.integers(1, 1 << 16),
)
def test_timing_cost_sanity(provider_name, cycles, n_bytes, threads):
    """Roofline decomposition: non-negative terms, exact total."""
    device = get_provider(provider_name).default_device
    cost = TimingModel(device).cost(cycles, n_bytes, threads)
    assert cost.compute_seconds >= 0
    assert cost.memory_seconds >= 0
    assert cost.launch_seconds == device.kernel_launch_overhead_s
    assert cost.total_seconds == (
        max(cost.compute_seconds, cost.memory_seconds) + cost.launch_seconds
    )
    assert cost.memory_bound == (cost.memory_seconds > cost.compute_seconds)


@provider_param
@settings(max_examples=40, deadline=None)
@given(
    cycles=st.floats(1.0, 1e12, allow_nan=False),
    n_bytes=st.floats(1.0, 1e12, allow_nan=False),
)
def test_frequency_scales_compute_only(provider_name, cycles, n_bytes):
    """Re-clocking reshapes the roofline the Figure-8 way: compute time
    scales with 1/frequency, memory time is off the GPU clock domain."""
    device = get_provider(provider_name).default_device
    threads = device.hardware_threads
    full = TimingModel(device).cost(cycles, n_bytes, threads)
    half = TimingModel(device.at_frequency(device.frequency_mhz / 2)).cost(
        cycles, n_bytes, threads
    )
    assert half.compute_seconds == pytest.approx(
        2 * full.compute_seconds, rel=1e-12
    )
    assert half.memory_seconds == full.memory_seconds


@provider_param
@settings(max_examples=30, deadline=None)
@given(
    gws=st.integers(1, 1 << 20),
    width_index=st.integers(0, 7),
    iters=st.integers(1, 12),
)
def test_dispatch_thread_mapping(provider_name, gws, width_index, iters):
    """Hardware-thread derivation honours the provider threading model,
    and dynamic totals scale exactly with the thread count."""
    provider = get_provider(provider_name)
    spec = provider.default_device
    widths = provider.capabilities.simd_compile_widths
    simd = widths[width_index % len(widths)]
    kernel = build_tiny_kernel(simd_width=simd)

    device = GPUDevice(spec)
    dispatch = device.execute(
        kernel, {"iters": float(iters), "n": float(gws)}, gws,
        np.random.default_rng(0),
    )
    items = spec.items_per_thread(simd)
    expected_threads = max(1, -(-gws // items))
    if spec.wavefront_width:
        assert items == spec.wavefront_width
    else:
        assert items == simd
    assert dispatch.n_hw_threads == expected_threads
    assert dispatch.instruction_count % expected_threads == 0
    assert dispatch.total_bytes == dispatch.bytes_read + dispatch.bytes_written
    assert dispatch.time_seconds > 0
    assert dispatch.spi > 0


# -- 4. per-provider goldens --------------------------------------------------


def _provider_snapshot(provider, workloads) -> dict:
    """Table I-style per-app statistics plus a detailed-sim prefix.

    Integer statistics (instructions, bytes, thread counts, cache
    counters) must match exactly; seconds match to 1e-6 relative.
    """
    apps = {}
    for app, workload in workloads:
        log = workload.log
        hw_threads = []
        for profile in log.invocations:
            binary = log.binaries[profile.kernel_name]
            items = provider.default_device.items_per_thread(
                binary.simd_width
            )
            hw_threads.append(max(1, -(-profile.global_work_size // items)))
        apps[app.name] = {
            "invocations": len(log.invocations),
            "total_instructions": int(log.total_instructions),
            "total_bytes": int(
                sum(p.total_bytes for p in log.invocations)
            ),
            "hw_threads_first": hw_threads[0],
            "hw_threads_max": max(hw_threads),
            "hw_threads_total": sum(hw_threads),
            "native_seconds": workload.timings.total_seconds,
        }

    # Detailed simulation of the first app's first invocations, on the
    # provider's own default cache geometry.
    first_app, first_workload = workloads[0]
    simulator = DetailedGPUSimulator(provider.default_device)
    rng = np.random.default_rng(0)
    sim_rows = []
    for profile in first_workload.log.invocations[:6]:
        binary = first_app.sources[profile.kernel_name].body
        env = {**dict(profile.data_items), **dict(profile.arg_items)}
        result = simulator.simulate(
            binary, env, profile.global_work_size, rng
        )
        sim_rows.append({
            "kernel": result.kernel_name,
            "instructions": result.instruction_count,
            "stepped": result.simulated_instructions,
            "cycles": result.cycles,
            "cache_accesses": result.cache.accesses,
            "cache_hits": result.cache.hits,
            "cache_misses": result.cache.misses,
        })
    return {
        "provider": provider.name,
        "device": provider.default_device.name,
        "wavefront_width": provider.default_device.wavefront_width,
        "cache_config": dataclasses.asdict(
            provider.cache_config(provider.default_device)
        ),
        "apps": apps,
        "detailed_sim_prefix": sim_rows,
    }


def test_provider_stats_match_golden(provider_workloads):
    provider, workloads = provider_workloads
    assert tuple(app.name for app, _ in workloads) == MINI_SUITE
    _check_golden(
        f"provider_{provider.name}",
        _provider_snapshot(provider, workloads),
    )
