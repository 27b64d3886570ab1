"""Named monotonic counters.

Counters accumulate (``inc``): API calls dispatched, trace-buffer
records written, instructions stepped.  Each keeps a bounded
timestamped sample trail so the exporter can emit Chrome ``"C"``
(counter) events that plot as area charts on the trace timeline; when
the trail fills up it is thinned (every other sample dropped) rather
than grown, so a long run's memory stays flat while the counter
*values* stay exact.  Distributions go to
:class:`~repro.telemetry.histograms.Histogram`.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.telemetry.histograms import Histogram

#: Per-series sample cap before thinning kicks in.
MAX_SAMPLES = 8192


@dataclasses.dataclass(frozen=True)
class Sample:
    """One timestamped counter reading."""

    ts_ns: int
    value: float


class Counter:
    """A monotonically-increasing named total.

    ``ops`` tallies how many times ``inc`` ran (the *value* can grow by
    arbitrary amounts per call); the self-overhead attribution layer
    multiplies it by a calibrated per-call cost (Section III-C applied
    to our own instrumentation).
    """

    __slots__ = ("name", "samples", "_stride", "_skipped", "value", "ops")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[Sample] = []
        self._stride = 1
        self._skipped = 0
        self.value = 0.0
        self.ops = 0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.ops += 1
        self._skipped += 1
        if self._skipped < self._stride:
            return
        self._skipped = 0
        if len(self.samples) >= MAX_SAMPLES:
            del self.samples[::2]
            self._stride *= 2
        self.samples.append(Sample(time.perf_counter_ns(), self.value))


class CounterSet:
    """All counters and histograms of one telemetry registry;
    thread-safe creation (inc/observe on an existing series is
    GIL-atomic enough for profiling purposes -- these are diagnostics,
    not ledgers)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            with self._lock:
                return self.counters.setdefault(name, Counter(name))

    def histogram(self, name: str, unit: str = "") -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            with self._lock:
                return self.histograms.setdefault(
                    name, Histogram(name, unit)
                )

    def value(self, name: str) -> float:
        """Current value of a counter (0.0 if it never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0.0

    def __len__(self) -> int:
        return len(self.counters) + len(self.histograms)
