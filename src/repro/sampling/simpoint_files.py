"""SimPoint 3.0 file-format interoperability.

The paper drives the stock SimPoint 3.0 binary.  For drop-in
compatibility with that toolchain (and with the wider SimPoint
ecosystem), this module reads and writes the three classic file formats:

* **frequency-vector files** (``-loadFVFile``): one line per interval,
  ``T:dim:count :dim:count ...`` with 1-based dimension ids;
* **simpoints files** (``-saveSimpoints``): ``<interval> <cluster>`` per
  selected simulation point;
* **weights files** (``-saveSimpointWeights``): ``<weight> <cluster>``.

A round trip through these files reproduces our selections exactly, so a
user can hand our BBVs to real SimPoint or feed real SimPoint's output
back into this library's error/validation machinery.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Hashable, Sequence, TextIO, TypeVar

from repro.sampling.features import FeatureMatrix, FeatureVector
from repro.sampling.intervals import Interval
from repro.sampling.selection import (
    SelectedInterval,
    Selection,
    SelectionConfig,
)
from repro.sampling.simpoint import SimPointResult

T = TypeVar("T", int, float)


@dataclasses.dataclass(frozen=True)
class DimensionMap:
    """Stable mapping between feature keys and 1-based BBV dimensions."""

    key_to_dim: dict[Hashable, int]

    @staticmethod
    def build(vectors: Sequence[FeatureVector]) -> "DimensionMap":
        keys = FeatureMatrix.from_vectors(vectors).keys
        # SimPoint dims are 1-based.
        return DimensionMap({key: dim for dim, key in enumerate(keys, 1)})

    @property
    def n_dimensions(self) -> int:
        return len(self.key_to_dim)


def write_frequency_vectors(
    vectors: Sequence[FeatureVector],
    out: TextIO,
    dimension_map: DimensionMap | None = None,
) -> DimensionMap:
    """Emit intervals in SimPoint's ``T:dim:count`` BBV format."""
    dimension_map = dimension_map or DimensionMap.build(vectors)
    for vector in vectors:
        parts = ["T"]
        for key in sorted(vector, key=lambda k: dimension_map.key_to_dim[k]):
            dim = dimension_map.key_to_dim[key]
            value = vector[key]
            rendered = (
                str(int(value)) if float(value).is_integer() else f"{value!r}"
            )
            parts.append(f":{dim}:{rendered}")
        out.write(" ".join(parts) + "\n")
    return dimension_map


def read_frequency_vectors(source: TextIO) -> list[dict[int, float]]:
    """Parse a SimPoint BBV file into dimension->count dicts."""
    vectors: list[dict[int, float]] = []
    for line_no, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("T"):
            raise ValueError(
                f"line {line_no}: frequency-vector lines must start with "
                f"'T', got {line[:20]!r}"
            )
        vector: dict[int, float] = {}
        for token in line[1:].split():
            if not token.startswith(":"):
                raise ValueError(
                    f"line {line_no}: malformed token {token!r}"
                )
            try:
                _, dim_text, count_text = token.split(":", 2)
                dim = int(dim_text)
                count = float(count_text)
            except ValueError as exc:
                raise ValueError(
                    f"line {line_no}: malformed token {token!r}"
                ) from exc
            if dim < 1:
                raise ValueError(
                    f"line {line_no}: dimensions are 1-based, got {dim}"
                )
            total = vector.get(dim, 0.0) + count
            if count < 0 or not math.isfinite(total):
                raise ValueError(
                    f"line {line_no}: counts must be finite and "
                    f"non-negative, got {count_text!r}"
                )
            vector[dim] = total
        vectors.append(vector)
    return vectors


def write_simpoints(
    result: SimPointResult, simpoints_out: TextIO, weights_out: TextIO
) -> None:
    """Emit SimPoint's ``.simpoints`` and ``.weights`` files."""
    for cluster, (interval_idx, ratio) in enumerate(
        zip(result.representatives, result.representation_ratios)
    ):
        simpoints_out.write(f"{interval_idx} {cluster}\n")
        weights_out.write(f"{ratio:.6f} {cluster}\n")


def _read_by_cluster(
    source: TextIO, name: str, parse: Callable[[str], T]
) -> dict[int, T]:
    """``<value> <cluster>`` lines as ``{cluster: value}``.  A malformed
    line, or a value that is negative or not finite, raises
    ``ValueError`` naming the file and the line number."""
    by_cluster: dict[int, T] = {}
    for line_no, raw in enumerate(source, 1):
        fields = raw.split()
        if not fields:
            continue
        try:
            value_text, cluster_text = fields
            cluster, value = int(cluster_text), parse(value_text)
        except ValueError as exc:
            raise ValueError(f"{name} line {line_no}: {exc}") from exc
        if not 0 <= value < math.inf:
            raise ValueError(
                f"{name} line {line_no}: values must be finite and "
                f"non-negative, got {value_text!r}"
            )
        by_cluster[cluster] = value
    return by_cluster


def read_simpoints(
    simpoints_in: TextIO, weights_in: TextIO
) -> list[tuple[int, float]]:
    """Parse paired simpoints/weights files into (interval, weight) pairs.

    Lines are matched by cluster label (SimPoint does not guarantee
    ordering), and the weights are validated to sum to ~1.
    """
    points = _read_by_cluster(simpoints_in, "simpoints", int)
    weights = _read_by_cluster(weights_in, "weights", float)
    if set(points) != set(weights):
        raise ValueError(
            f"simpoints clusters {sorted(points)} do not match weights "
            f"clusters {sorted(weights)}"
        )
    total = sum(weights.values())
    if not 0.99 <= total <= 1.01:
        raise ValueError(f"weights sum to {total}, expected ~1")
    return [
        (points[cluster], weights[cluster]) for cluster in sorted(points)
    ]


def selection_from_simpoint_files(
    config: SelectionConfig,
    intervals: Sequence[Interval],
    simpoints_in: TextIO,
    weights_in: TextIO,
    total_instructions: int,
) -> Selection:
    """Rebuild a :class:`Selection` from external SimPoint output files."""
    pairs = read_simpoints(simpoints_in, weights_in)
    selected = []
    for interval_idx, weight in pairs:
        if not 0 <= interval_idx < len(intervals):
            raise ValueError(
                f"simpoints file references interval {interval_idx}, but "
                f"the division has {len(intervals)} intervals"
            )
        selected.append(
            SelectedInterval(interval=intervals[interval_idx], ratio=weight)
        )
    return Selection(
        config=config,
        selected=tuple(selected),
        total_instructions=total_instructions,
        n_intervals=len(intervals),
        total_invocations=max(iv.stop for iv in intervals),
    )
