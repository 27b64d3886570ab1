"""Roofline timing model: compute/memory balance, frequency, EUs, noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import FIGURE_8_FREQUENCIES_MHZ, HD4000, HD4600
from repro.gpu.providers import known_device_tokens, resolve_device
from repro.gpu.timing import KernelCost, TimingModel, TimingParameters


def _model(device=HD4000, **kwargs):
    return TimingModel(device, TimingParameters(**kwargs))


def test_compute_bound_kernel():
    cost = _model().cost(total_issue_cycles=1e9, total_bytes=1e3,
                         n_hw_threads=256)
    assert not cost.memory_bound
    assert cost.total_seconds > cost.memory_seconds


def test_memory_bound_kernel():
    cost = _model().cost(total_issue_cycles=1e3, total_bytes=1e9,
                         n_hw_threads=256)
    assert cost.memory_bound


def test_launch_overhead_included():
    cost = _model().cost(0.0, 0.0, 128)
    assert cost.total_seconds == pytest.approx(
        HD4000.kernel_launch_overhead_s
    )


def test_compute_time_scales_inverse_frequency():
    fast = _model().cost(1e9, 0.0, 256).compute_seconds
    slow = _model(HD4000.at_frequency(575.0)).cost(1e9, 0.0, 256).compute_seconds
    assert slow == pytest.approx(2.0 * fast)


def test_memory_time_frequency_independent():
    fast = _model().cost(0.0, 1e9, 256).memory_seconds
    slow = _model(HD4000.at_frequency(350.0)).cost(0.0, 1e9, 256).memory_seconds
    assert slow == pytest.approx(fast)


def test_more_eus_shrink_compute_time():
    ivy = _model(HD4000).cost(1e9, 0.0, 512).compute_seconds
    haswell = _model(HD4600).cost(1e9, 0.0, 512).compute_seconds
    assert haswell < ivy


def test_low_occupancy_penalty():
    full = _model().cost(1e8, 0.0, 128).compute_seconds
    starved = _model().cost(1e8, 0.0, 8).compute_seconds
    assert starved > full


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        _model().cost(-1.0, 0.0, 128)


def test_noise_is_lognormal_and_seeded():
    model = _model(noise_sigma=0.05)
    cost = model.cost(1e8, 1e6, 128)
    rng_a = np.random.default_rng(1)
    rng_b = np.random.default_rng(1)
    assert model.sample_seconds(cost, rng_a) == pytest.approx(
        model.sample_seconds(cost, rng_b)
    )
    samples = [
        model.sample_seconds(cost, np.random.default_rng(s)) for s in range(50)
    ]
    assert np.std(samples) > 0
    # Noise is multiplicative around the deterministic cost.
    assert np.mean(samples) == pytest.approx(cost.total_seconds, rel=0.05)


def test_zero_noise_is_deterministic():
    model = _model(noise_sigma=0.0)
    cost = model.cost(1e8, 1e6, 128)
    assert model.sample_seconds(cost, np.random.default_rng(0)) == pytest.approx(
        cost.total_seconds
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        TimingParameters(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        TimingParameters(bandwidth_efficiency=0.0)
    with pytest.raises(ValueError):
        TimingParameters(issue_efficiency=1.5)


def test_with_device_keeps_params():
    params = TimingParameters(noise_sigma=0.07)
    model = TimingModel(HD4000, params).with_device(HD4600)
    assert model.device is HD4600
    assert model.params.noise_sigma == 0.07


def _formula_cost(model, total_issue_cycles, total_bytes, n_hw_threads):
    """The roofline written out in full on every call (the reference)."""
    device, params = model.device, model.params
    effective_eus = device.eu_count * params.issue_efficiency
    occupancy = 1.0
    if 0 < n_hw_threads < params.min_occupancy_threads:
        occupancy = n_hw_threads / params.min_occupancy_threads
    compute = total_issue_cycles / (
        effective_eus * device.frequency_hz * max(occupancy, 1e-9)
    )
    memory = total_bytes / (
        device.memory_bandwidth_bytes_per_s * params.bandwidth_efficiency
    )
    return KernelCost(compute, memory, device.kernel_launch_overhead_s)


#: Every provider's devices, each at its own clock and at every Figure 8
#: frequency.
_DEVICES = [
    device
    for device in {
        resolve_device(token).name: resolve_device(token)
        for token in known_device_tokens()
    }.values()
    for device in (device, *map(device.at_frequency, FIGURE_8_FREQUENCIES_MHZ))
]


@given(
    st.sampled_from(_DEVICES),
    st.floats(0.0, 1e13, allow_subnormal=False),
    st.floats(0.0, 1e12, allow_subnormal=False),
    st.integers(0, 4096),
)
@settings(max_examples=300, deadline=None)
def test_cost_keeps_the_bits_of_the_full_formula(device, cycles, n_bytes, threads):
    model = TimingModel(device)
    # A float's repr round-trips, so equal reprs are equal bits.
    assert repr(model.cost(cycles, n_bytes, threads)) == repr(
        _formula_cost(model, cycles, n_bytes, threads)
    )
