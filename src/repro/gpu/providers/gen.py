"""The ``gen`` provider: the paper's Intel GEN parts.

Wraps the existing HD 4000 / HD 4600 specs (Sections IV-A and V-E)
behind the provider interface.  GEN's distinguishing execution style is
*compile-width threading*: a SIMD16 kernel packs 16 work-items per
hardware thread, a SIMD8 kernel packs 8 (``wavefront_width = 0``).
Timing uses the stock roofline parameters the whole reproduction was
calibrated with, and the modelled LLC keeps the Ivy Bridge ring-slice
geometry (64-byte lines, 8-way).
"""

from __future__ import annotations

from typing import Mapping

from repro.gpu.device import HD4000, HD4600, DeviceSpec
from repro.gpu.providers.base import DeviceProvider, ProviderCapabilities
from repro.gpu.timing import TimingParameters
from repro.isa.instruction import EXEC_SIZES


class GenProvider(DeviceProvider):
    """Intel GEN: the HD 4000 (default) and HD 4600."""

    name = "gen"
    capabilities = ProviderCapabilities(
        vendor="intel-gen",
        compute_unit_name="EU",
        thread_name="thread",
        wavefront_width=0,
        simd_compile_widths=(8, 16),
        exec_sizes=frozenset(EXEC_SIZES),
        cache_line_bytes=64,
        cache_ways=8,
        timing=TimingParameters(),
    )

    def devices(self) -> Mapping[str, DeviceSpec]:
        return {"hd4000": HD4000, "hd4600": HD4600}
