"""Analytic kernel timing model.

The paper never simulates its machine -- it *measures* per-kernel wall
times with CoFluent and uses them as the ground truth in Eq. (1).  Our
substitute for the physical GPU is this roofline-style model: a kernel
invocation's time is the maximum of its compute time (EU issue cycles over
all hardware threads, spread across the EUs at the device frequency) and
its memory time (bytes moved over the memory bandwidth), plus a fixed
launch overhead, times a small per-invocation lognormal noise factor that
models run-to-run non-determinism (the reason Section V-E needs CoFluent
record/replay).

The model deliberately makes SPI (seconds per instruction):

* vary *across kernels* -- different mixes, widths and memory intensities
  land at different points of the roofline, so clustering has structure to
  find;
* vary *across frequencies* non-uniformly -- compute time scales with
  1/frequency while memory time does not, reshaping the compute/memory
  balance exactly the way a frequency ladder reshapes a real GPU
  (Figure 8, middle); and
* vary *across generations* -- more EUs shrink compute time only
  (Figure 8, bottom).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gpu.device import DeviceSpec


@dataclasses.dataclass(frozen=True)
class TimingParameters:
    """Tunable constants of the timing model."""

    #: Lognormal sigma of per-invocation noise (run-to-run jitter).
    noise_sigma: float = 0.015
    #: Fraction of peak memory bandwidth sustainable by kernels.
    bandwidth_efficiency: float = 0.75
    #: EU issue efficiency: fraction of peak issue slots kernels sustain
    #: (models stalls the analytic roofline cannot see).
    issue_efficiency: float = 0.85
    #: Threshold occupancy below which compute time degrades linearly
    #: (kernels with too few hardware threads cannot fill the machine).
    min_occupancy_threads: int = 64

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 < self.bandwidth_efficiency <= 1:
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        if not 0 < self.issue_efficiency <= 1:
            raise ValueError("issue_efficiency must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class KernelCost:
    """Deterministic cost decomposition of one kernel invocation."""

    compute_seconds: float
    memory_seconds: float
    launch_seconds: float

    @property
    def total_seconds(self) -> float:
        return max(self.compute_seconds, self.memory_seconds) + self.launch_seconds

    @property
    def memory_bound(self) -> bool:
        return self.memory_seconds > self.compute_seconds


class TimingModel:
    """Maps dynamic kernel footprints to wall-clock seconds on a device."""

    def __init__(
        self,
        device: DeviceSpec,
        params: TimingParameters | None = None,
    ) -> None:
        self.device = device
        if params is None:
            # Each backend carries its own timing quirks; the registry
            # falls back to the generic defaults for hand-built specs.
            from repro.gpu.providers import default_timing_params

            params = default_timing_params(device)
        self.params = params
        # Per-dispatch denominators, associated as the roofline reads
        # them, so each cost keeps the bits of the formula in full.
        self._issue_rate = (
            device.eu_count * params.issue_efficiency * device.frequency_hz
        )
        self._bandwidth = (
            device.memory_bandwidth_bytes_per_s * params.bandwidth_efficiency
        )

    def cost(
        self,
        total_issue_cycles: float,
        total_bytes: float,
        n_hw_threads: int,
    ) -> KernelCost:
        """Deterministic cost of one invocation (no noise applied).

        ``total_issue_cycles`` is the sum of EU-pipe occupancy over all
        hardware threads; ``total_bytes`` is bytes read plus written;
        ``n_hw_threads`` is the invocation's thread count (occupancy).
        """
        if total_issue_cycles < 0 or total_bytes < 0:
            raise ValueError("cycle and byte totals must be non-negative")
        rate = self._issue_rate
        min_threads = self.params.min_occupancy_threads
        if 0 < n_hw_threads < min_threads:
            # Full occupancy multiplies by 1.0, which changes no bits.
            rate = rate * max(n_hw_threads / min_threads, 1e-9)
        return KernelCost(
            compute_seconds=total_issue_cycles / rate,
            memory_seconds=total_bytes / self._bandwidth,
            launch_seconds=self.device.kernel_launch_overhead_s,
        )

    def sample_seconds(
        self,
        cost: KernelCost,
        rng: np.random.Generator,
    ) -> float:
        """One noisy observation of an invocation's wall time."""
        noise = 1.0
        if self.params.noise_sigma > 0:
            noise = float(
                rng.lognormal(mean=0.0, sigma=self.params.noise_sigma)
            )
        return cost.total_seconds * noise

    def with_device(self, device: DeviceSpec) -> "TimingModel":
        """The same model parameters on a different device."""
        return TimingModel(device, self.params)
