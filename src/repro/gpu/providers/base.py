"""The device-provider interface: capability flags plus a device table.

A *provider* is one GPU backend -- a vendor/architecture family whose
devices share an execution style (how work-items map onto hardware
threads), an ISA exec-size set, cache geometry conventions, and timing
quirks.  The paper's GEN parts are one provider (``gen``); the AMD-like
64-wide wavefront backend of Kerncap is another (``wave64``).  Every
provider is held to the same contract by the conformance suite
(``tests/test_provider_capabilities.py``): capability invariants,
three-engine bit-identity, dispatch/timing sanity properties, and a
per-provider golden -- adding a backend means implementing this
interface and passing that suite.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.gpu.cache import CacheConfig
from repro.gpu.device import DeviceSpec
from repro.gpu.timing import TimingParameters


def normalize_device_token(token: str) -> str:
    """Canonical lookup form of a device name.

    Case, whitespace, dashes, and underscores are all insignificant:
    ``"Intel HD 4000"``, ``"intelhd4000"``, and ``"HD-4000"`` normalize
    to the same key.
    """
    return (
        token.strip().lower()
        .replace(" ", "").replace("-", "").replace("_", "")
    )


@dataclasses.dataclass(frozen=True)
class ProviderCapabilities:
    """Per-provider capability flags the rest of the stack consumes."""

    #: Vendor/family label, e.g. ``"intel-gen"``.
    vendor: str
    #: Nomenclature for the compute-unit axis: ``"EU"`` or ``"CU"``.
    compute_unit_name: str
    #: Nomenclature for one resident hardware thread, e.g. ``"thread"``
    #: (GEN) or ``"wavefront"`` (wave64).
    thread_name: str
    #: Fixed hardware-thread width in work-items; 0 = the kernel's
    #: compile width (see :meth:`DeviceSpec.items_per_thread`).
    wavefront_width: int
    #: SIMD widths the backend's JIT compiles kernels at.
    simd_compile_widths: tuple[int, ...]
    #: ISA execution sizes the backend's pipelines accept; every
    #: instruction of a binary dispatched to this provider's devices
    #: must use one of these (checked once per binary on first execute).
    exec_sizes: frozenset[int]
    #: Cache-line size of the modelled last-level cache, bytes.
    cache_line_bytes: int
    #: Associativity of the modelled last-level cache.
    cache_ways: int
    #: The provider's timing quirks (roofline efficiencies, noise).
    timing: TimingParameters = dataclasses.field(
        default_factory=TimingParameters
    )

    def __post_init__(self) -> None:
        if not self.vendor:
            raise ValueError("vendor must be non-empty")
        if self.wavefront_width < 0:
            raise ValueError(
                f"wavefront_width must be >= 0, got {self.wavefront_width}"
            )
        if self.wavefront_width and (
            self.wavefront_width & (self.wavefront_width - 1)
        ):
            raise ValueError(
                "wavefront_width must be a power of two, got "
                f"{self.wavefront_width}"
            )
        if not self.simd_compile_widths:
            raise ValueError("simd_compile_widths must be non-empty")
        bad = [w for w in self.simd_compile_widths if w not in self.exec_sizes]
        if bad:
            raise ValueError(
                f"simd_compile_widths {bad} not in exec_sizes "
                f"{sorted(self.exec_sizes)}"
            )
        for size in self.exec_sizes:
            if size <= 0 or size & (size - 1):
                raise ValueError(
                    f"exec_sizes must be positive powers of two, got {size}"
                )
        if self.cache_line_bytes <= 0 or (
            self.cache_line_bytes & (self.cache_line_bytes - 1)
        ):
            raise ValueError(
                "cache_line_bytes must be a positive power of two, got "
                f"{self.cache_line_bytes}"
            )
        if self.cache_ways <= 0:
            raise ValueError(
                f"cache_ways must be positive, got {self.cache_ways}"
            )


class DeviceProvider:
    """One GPU backend: a device table plus shared capability flags.

    Subclasses set :attr:`name` and :attr:`capabilities` and implement
    :meth:`devices`; everything else (lookup, cache geometry, binary
    validation) is shared behaviour defined here.
    """

    #: Registry key, e.g. ``"gen"``; also ``DeviceSpec.provider``.
    name: str = ""
    capabilities: ProviderCapabilities

    def devices(self) -> Mapping[str, DeviceSpec]:
        """Canonical short token -> spec, in preference order.

        The first entry is the provider's default device.
        """
        raise NotImplementedError

    @property
    def default_device(self) -> DeviceSpec:
        return next(iter(self.devices().values()))

    def device(self, token: str) -> DeviceSpec:
        """Resolve one of this provider's devices by short or full name."""
        table: dict[str, DeviceSpec] = {}
        for key, spec in self.devices().items():
            table.setdefault(normalize_device_token(key), spec)
            table.setdefault(normalize_device_token(spec.name), spec)
        try:
            return table[normalize_device_token(token)]
        except KeyError:
            known = ", ".join(sorted(self.devices()))
            raise KeyError(
                f"unknown device {token!r} for provider {self.name!r}; "
                f"known devices: {known}"
            ) from None

    def timing_params(self) -> TimingParameters:
        """The provider's default timing-model parameters."""
        return self.capabilities.timing

    def cache_config(self, spec: DeviceSpec) -> CacheConfig:
        """The modelled LLC geometry of one of this provider's devices."""
        return CacheConfig(
            size_bytes=spec.llc_kb * 1024,
            line_bytes=self.capabilities.cache_line_bytes,
            ways=self.capabilities.cache_ways,
        )

    def validate_binary(self, binary) -> None:
        """Reject a kernel binary this backend cannot execute.

        Checks the compile width and every instruction execution size
        against the provider's exec-size set; raises ``ValueError`` on a
        violation.  See :func:`repro.isa.kernel.validate_exec_sizes`.
        """
        from repro.isa.kernel import validate_exec_sizes

        validate_exec_sizes(
            binary, self.capabilities.exec_sizes, provider=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name!r}: "
            f"{len(self.devices())} devices>"
        )
