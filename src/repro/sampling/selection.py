"""Simulation-subset selections.

A :class:`Selection` is the end product of the methodology: a handful of
intervals to simulate in detail, each with a representation ratio, plus
the bookkeeping to compute selection size and simulation speedup.

Speedup is computed the way the paper computes it: the full program's
dynamic instructions divided by the selected intervals' dynamic
instructions (the simulator fast-forwards or checkpoints everything else).
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Sequence

from repro.sampling.features import FeatureKind
from repro.sampling.intervals import Interval, IntervalScheme
from repro.sampling.simpoint import SimPointResult

#: Display prefixes matching Figure 6's legend (Sync-/100M-/Single-).
_SCHEME_PREFIX = {
    IntervalScheme.SYNC: "Sync",
    IntervalScheme.APPROX_100M: "100M",
    IntervalScheme.SINGLE_KERNEL: "Single",
}


@dataclasses.dataclass(frozen=True)
class SelectionConfig:
    """One of the 30 interval-scheme x feature-kind combinations."""

    scheme: IntervalScheme
    feature: FeatureKind

    @property
    def label(self) -> str:
        """Figure-6-style label, e.g. ``Sync-BB`` or ``100M-KN-ARGS``."""
        return f"{_SCHEME_PREFIX[self.scheme]}-{self.feature.value}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


@dataclasses.dataclass(frozen=True)
class SelectedInterval:
    """One chosen simulation point with its cluster's weight."""

    interval: Interval
    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")


@dataclasses.dataclass(frozen=True)
class Selection:
    """The selected simulation subset for one application + config."""

    config: SelectionConfig
    selected: tuple[SelectedInterval, ...]
    total_instructions: int
    n_intervals: int
    #: Invocation count of the profiled program (replays must match it).
    total_invocations: int

    def __post_init__(self) -> None:
        if not self.selected:
            raise ValueError("a selection needs at least one interval")
        if self.total_instructions <= 0:
            raise ValueError("total_instructions must be positive")

    @property
    def k(self) -> int:
        return len(self.selected)

    @property
    def selected_instructions(self) -> int:
        return sum(s.interval.instruction_count for s in self.selected)

    @property
    def selection_fraction(self) -> float:
        """Selected share of the program's dynamic instructions."""
        return self.selected_instructions / self.total_instructions

    @property
    def simulation_speedup(self) -> float:
        """Full-program instructions over selected instructions."""
        selected = self.selected_instructions
        if selected == 0:
            return float("inf")
        return self.total_instructions / selected

    def invocation_indices(self) -> list[int]:
        """All invocation indices covered by the selected intervals."""
        indices: list[int] = []
        for s in self.selected:
            indices.extend(s.interval.invocation_indices())
        return indices


class Clustering(NamedTuple):
    """What a selection reads of a :class:`SimPointResult`."""

    representatives: tuple[int, ...]
    representation_ratios: tuple[float, ...]


def selection_from_simpoint(
    config: SelectionConfig,
    intervals: Sequence[Interval],
    result: SimPointResult | Clustering,
    total_instructions: int,
) -> Selection:
    """Map SimPoint's representative vectors back to their intervals."""
    selected = tuple(
        SelectedInterval(interval=intervals[idx], ratio=ratio)
        for idx, ratio in zip(
            result.representatives, result.representation_ratios
        )
    )
    return Selection(
        config=config,
        selected=selected,
        total_instructions=total_instructions,
        n_intervals=len(intervals),
        total_invocations=max(iv.stop for iv in intervals),
    )
