"""Log-bucketed histograms: distributions the counters cannot capture.

:class:`Histogram` buckets observations on a logarithmic grid (each
bucket is ``GROWTH``x wider than the previous, so relative resolution
is constant across nine orders of magnitude) and estimates quantiles by
walking the bucket counts.  Three properties are load-bearing for the
run-report layer:

* **Exact conservation** -- ``count`` and ``total`` are plain sums, so
  they are exact for any observation stream and survive any sequence of
  :meth:`merge` calls bit-for-bit (merging is bucket-wise integer
  addition).  The cross-process snapshot tests pin this.
* **Bounded memory** -- the bucket dict holds at most one entry per
  occupied bucket (~150 span the range from nanoseconds to hours), so a
  histogram's footprint is independent of how many values it absorbed.
* **Cheap observation** -- ``observe`` is one ``math.log`` plus a dict
  increment; :meth:`observe_array` amortizes whole numpy batches through
  one vectorized bucketing pass (bit-identical bucket indices).

Quantiles are estimates: a quantile lands in the bucket whose
cumulative count crosses it and is reported as that bucket's geometric
midpoint, clamped to the observed ``[minimum, maximum]``.  The relative
error is bounded by the bucket width (~19% with the default growth),
which is exactly the precision profile tails need.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Mapping

#: Per-bucket growth factor: 2**(1/4) = four buckets per octave, ~19%
#: relative bucket width.
GROWTH = 2.0 ** 0.25

_LOG_GROWTH = math.log(GROWTH)

#: Quantiles every summary/report renders, in render order.
REPORT_QUANTILES = (0.50, 0.90, 0.99)


def bucket_index(value: float) -> int:
    """The log-grid bucket of a positive value.

    Bucket ``i`` covers ``[GROWTH**i, GROWTH**(i+1))``.  Non-positive
    values are the caller's problem (they go to ``zero_count``).
    """
    return math.floor(math.log(value) / _LOG_GROWTH)


def bucket_midpoint(index: int) -> float:
    """Geometric midpoint of bucket ``index`` (the quantile estimate)."""
    return GROWTH ** (index + 0.5)


#: At most this many tail buckets keep an exemplar per histogram; the
#: lowest bucket's exemplar is evicted first, so memory stays bounded
#: while the p99/max region is always covered.
MAX_EXEMPLARS = 8


@dataclasses.dataclass(frozen=True)
class Exemplar:
    """A sample observation a tail bucket remembers: the value plus the
    span/trace that produced it, so a report's p99 cell can deep-link to
    the trace drill-down (``gtpin trace show <trace_id>``)."""

    value: float
    span_id: int
    trace_id: str = ""


class Histogram:
    """A log-bucketed distribution of non-negative observations.

    ``unit`` is a display label ("s", "B", "count"); it rides along so
    summaries and HTML reports never have to guess.
    """

    __slots__ = (
        "name", "unit", "count", "total", "minimum", "maximum",
        "zero_count", "buckets", "exemplars",
    )

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: Observations <= 0 (a run length cannot be, a duration can
        #: round to, zero); they occupy a dedicated slot below every
        #: log bucket.
        self.zero_count = 0
        self.buckets: dict[int, int] = {}
        #: bucket index -> tail exemplar (see :meth:`capture_exemplar`).
        self.exemplars: dict[int, Exemplar] = {}

    # -- observation ---------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def capture_exemplar(
        self, value: float, span_id: int, trace_id: str = ""
    ) -> None:
        """Remember ``value``'s provenance in its bucket (tail linking).

        The caller decides *when* to capture (the registry only calls
        this for tail observations with an open span); this method only
        stores and bounds.  The newest exemplar per bucket wins, and
        only the highest :data:`MAX_EXEMPLARS` buckets keep one.
        """
        if value <= 0.0:
            return
        self.exemplars[bucket_index(value)] = Exemplar(
            value, span_id, trace_id
        )
        while len(self.exemplars) > MAX_EXEMPLARS:
            del self.exemplars[min(self.exemplars)]

    def observe_array(self, values) -> None:
        """Record a whole numpy batch in one vectorized pass.

        Bucket indices match :meth:`observe` bit-for-bit: both compute
        ``floor(log(v) / log(GROWTH))`` in float64.
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        n = int(values.size)
        if n == 0:
            return
        self.count += n
        self.total += float(values.sum())
        low = float(values.min())
        high = float(values.max())
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high
        positive = values[values > 0.0]
        self.zero_count += n - int(positive.size)
        if not positive.size:
            return
        indices = np.floor(np.log(positive) / _LOG_GROWTH).astype(np.int64)
        uniq, counts = np.unique(indices, return_counts=True)
        buckets = self.buckets
        for index, bucket_count in zip(uniq.tolist(), counts.tolist()):
            buckets[index] = buckets.get(index, 0) + bucket_count

    # -- statistics ----------------------------------------------------------

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observations.

        The extremes are exact: ``quantile(0.0)`` is the observed
        minimum and ``quantile(1.0)`` the observed maximum -- both are
        tracked directly, so neither is subject to bucket-midpoint
        estimation error.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        # Rank of the quantile observation, 1-based, ceiling -- the same
        # "smallest value with cumulative count >= q*n" convention the
        # merge tests replay by hand.
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return min(self.minimum, 0.0)
        remaining = rank - self.zero_count
        for index in sorted(self.buckets):
            remaining -= self.buckets[index]
            if remaining <= 0:
                estimate = bucket_midpoint(index)
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - conservation makes
        # the loop always terminate inside a bucket

    def percentile(self, p: float) -> float:
        """:meth:`quantile` on the 0-100 percentile scale.

        ``percentile(0)`` / ``percentile(100)`` return the exact
        observed minimum / maximum, never a bucket edge or midpoint.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return self.quantile(p / 100.0)

    def percentiles(self) -> dict[str, float]:
        """The report quantiles plus max, keyed ``p50``/``p90``/``p99``."""
        out = {
            f"p{int(q * 100)}": self.quantile(q) for q in REPORT_QUANTILES
        }
        out["max"] = self.maximum if self.count else 0.0
        return out

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "Histogram | HistogramSnapshot") -> None:
        """Fold another histogram (or its snapshot) into this one.

        Bucket-wise integer addition: ``count`` and ``total`` stay exact,
        quantile estimates behave as if every observation had landed
        here directly.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.zero_count += other.zero_count
        buckets = self.buckets
        other_buckets: Iterable[tuple[int, int]]
        if isinstance(other.buckets, Mapping):
            other_buckets = other.buckets.items()
        else:
            other_buckets = other.buckets
        for index, bucket_count in other_buckets:
            buckets[index] = buckets.get(index, 0) + bucket_count
        other_exemplars = getattr(other, "exemplars", None) or {}
        items = (
            other_exemplars.items()
            if isinstance(other_exemplars, Mapping)
            else other_exemplars
        )
        for index, exemplar in items:
            held = self.exemplars.get(index)
            # Larger observed value wins within a bucket: the merged
            # tail keeps pointing at the worst case either side saw.
            if held is None or exemplar.value > held.value:
                self.exemplars[index] = exemplar
        while len(self.exemplars) > MAX_EXEMPLARS:
            del self.exemplars[min(self.exemplars)]
        if not self.unit and other.unit:
            self.unit = other.unit

    def tail_exemplars(self) -> list[Exemplar]:
        """Captured exemplars, highest bucket first."""
        return [
            self.exemplars[index]
            for index in sorted(self.exemplars, reverse=True)
        ]

    def snapshot(self) -> "HistogramSnapshot":
        """A picklable reduction for cross-process shipping."""
        return HistogramSnapshot(
            name=self.name,
            unit=self.unit,
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
            zero_count=self.zero_count,
            buckets=tuple(sorted(self.buckets.items())),
            exemplars=tuple(sorted(self.exemplars.items())),
        )


@dataclasses.dataclass(frozen=True)
class HistogramSnapshot:
    """One worker-side histogram, reduced to picklable parts."""

    name: str
    unit: str
    count: int
    total: float
    minimum: float
    maximum: float
    zero_count: int
    buckets: tuple[tuple[int, int], ...]
    exemplars: tuple[tuple[int, Exemplar], ...] = ()
