"""repro.telemetry.histograms: log-bucketed histograms and their merge."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import GROWTH, Histogram, bucket_index, bucket_midpoint
from repro.telemetry.snapshot import DeltaTracker, merge_delta


@pytest.fixture
def tm():
    registry = telemetry.enable()
    yield registry
    telemetry.disable()


# -- bucketing ---------------------------------------------------------------


def test_bucket_index_is_monotone_and_log_spaced():
    values = [1e-9, 1e-6, 0.001, 0.5, 1.0, 2.0, 1e3, 1e9]
    indices = [bucket_index(v) for v in values]
    assert indices == sorted(indices)
    # One growth step moves exactly one bucket.
    for v in (0.001, 1.0, 123.456):
        assert bucket_index(v * GROWTH * GROWTH) >= bucket_index(v) + 1


def test_bucket_midpoint_lies_inside_its_bucket():
    for v in (1e-6, 0.37, 1.0, 42.0, 9.9e7):
        idx = bucket_index(v)
        mid = bucket_midpoint(idx)
        assert GROWTH ** idx <= mid <= GROWTH ** (idx + 1) * (1 + 1e-12)


# -- observation and quantiles ----------------------------------------------


def test_count_and_sum_are_exact():
    h = Histogram("t", "s")
    values = [0.001, 0.002, 0.004, 1.5, 300.0, 0.0, -2.0]
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.total == pytest.approx(sum(values))
    assert h.minimum == -2.0
    assert h.maximum == 300.0
    assert h.zero_count == 2  # 0.0 and -2.0


def test_quantiles_are_bucket_accurate():
    h = Histogram("t", "s")
    values = list(np.linspace(0.01, 1.0, 1000))
    for v in values:
        h.observe(v)
    # Log buckets are ~19% wide, so quantile estimates land within one
    # growth step of the exact answer.
    for q in (0.50, 0.90, 0.99):
        exact = float(np.quantile(values, q))
        assert h.quantile(q) == pytest.approx(exact, rel=GROWTH - 1.0)
    pcts = h.percentiles()
    assert set(pcts) == {"p50", "p90", "p99", "max"}
    assert pcts["max"] == 1.0
    assert pcts["p50"] <= pcts["p90"] <= pcts["p99"] <= pcts["max"]


def test_quantile_clamps_to_observed_extremes():
    h = Histogram("t", "s")
    h.observe(5.0)
    assert h.quantile(0.5) == 5.0
    assert h.quantile(0.99) == 5.0


def test_zero_and_negative_values_land_in_the_zero_bucket():
    h = Histogram("t", "s")
    h.observe(-1.0)
    h.observe(0.0)
    h.observe(10.0)
    assert h.zero_count == 2
    assert h.quantile(0.5) == -1.0  # zero bucket reports the true minimum
    assert h.count == 3


def test_empty_histogram_is_well_defined():
    h = Histogram("t", "s")
    assert h.count == 0
    assert h.mean == 0.0
    assert h.quantile(0.5) == 0.0
    assert h.percentiles()["max"] == 0.0


def test_observe_array_matches_scalar_observe():
    values = np.concatenate(
        [np.zeros(3), -np.ones(2), np.geomspace(1e-6, 1e6, 500)]
    )
    scalar, vector = Histogram("s", ""), Histogram("v", "")
    for v in values:
        scalar.observe(float(v))
    vector.observe_array(values)
    assert vector.count == scalar.count
    assert vector.total == pytest.approx(scalar.total)
    assert vector.zero_count == scalar.zero_count
    assert vector.minimum == scalar.minimum
    assert vector.maximum == scalar.maximum
    assert dict(vector.buckets) == dict(scalar.buckets)


# -- merge and snapshots -----------------------------------------------------


def test_merge_conserves_count_and_sum():
    rng = np.random.default_rng(0)
    parts = []
    for _ in range(5):
        h = Histogram("t", "s")
        h.observe_array(rng.lognormal(size=200))
        parts.append(h)
    merged = Histogram("t", "s")
    for part in parts:
        merged.merge(part.snapshot())
    assert merged.count == sum(p.count for p in parts)
    assert merged.total == pytest.approx(sum(p.total for p in parts))
    assert merged.minimum == min(p.minimum for p in parts)
    assert merged.maximum == max(p.maximum for p in parts)
    # Quantiles of the merge sit inside the overall value range.
    assert merged.minimum <= merged.quantile(0.5) <= merged.maximum


def test_merge_is_order_independent():
    a, b = Histogram("t", ""), Histogram("t", "")
    a.observe_array(np.geomspace(0.001, 10.0, 100))
    b.observe_array(np.geomspace(5.0, 5000.0, 77))
    ab, ba = Histogram("t", ""), Histogram("t", "")
    ab.merge(a.snapshot())
    ab.merge(b.snapshot())
    ba.merge(b.snapshot())
    ba.merge(a.snapshot())
    assert ab.count == ba.count
    assert ab.total == pytest.approx(ba.total)
    assert dict(ab.buckets) == dict(ba.buckets)
    assert ab.percentiles() == ba.percentiles()


def test_snapshot_roundtrip_through_registry_merge(tm):
    tm.observe_hist("demo.latency_seconds", 0.004, "s")
    tm.observe_hist("demo.latency_seconds", 0.016, "s")
    snap = DeltaTracker("w").capture(tm, final=True)
    assert [h.name for h in snap.histograms] == ["demo.latency_seconds"]

    target = telemetry.Telemetry()
    merge_delta(target, snap)
    merge_delta(target, snap)
    merged = target.histogram("demo.latency_seconds")
    assert merged.count == 4
    assert merged.total == pytest.approx(2 * (0.004 + 0.016))
    assert merged.unit == "s"


def test_registry_histogram_identity_and_unit(tm):
    first = tm.histogram("h.bytes", "B")
    second = tm.histogram("h.bytes")
    assert first is second
    tm.observe_hist("h.bytes", 64.0)
    assert first.count == 1
    assert first.unit == "B"


# -- exemplars ---------------------------------------------------------------


def test_capture_exemplar_bounds_buckets_and_newest_wins():
    from repro.telemetry.histograms import MAX_EXEMPLARS

    h = Histogram("t.seconds", "s")
    h.capture_exemplar(1.0, span_id=1, trace_id="aa")
    h.capture_exemplar(1.0, span_id=2, trace_id="bb")  # same bucket
    (top,) = h.tail_exemplars()
    assert (top.span_id, top.trace_id) == (2, "bb")
    # Flood well-separated buckets: only the highest MAX_EXEMPLARS stay.
    for k in range(MAX_EXEMPLARS + 4):
        h.capture_exemplar(4.0 ** k, span_id=100 + k)
    kept = h.tail_exemplars()
    assert len(kept) == MAX_EXEMPLARS
    assert kept[0].value == 4.0 ** (MAX_EXEMPLARS + 3)  # highest first
    assert all(a.value > b.value for a, b in zip(kept, kept[1:]))
    h.capture_exemplar(0.0, span_id=9)  # non-positive: ignored
    assert len(h.tail_exemplars()) == MAX_EXEMPLARS


def test_registry_captures_exemplars_for_tail_observations(tm):
    with tm.span("slow.step") as span:
        tm.observe_hist("op.seconds", 10.0, "s")
        trace_id = span.trace_id
        span_id = span.span_id
    # A mid-distribution value (far under max/4) captures nothing...
    with tm.span("fast.step"):
        tm.observe_hist("op.seconds", 0.001, "s")
    # ...and without an open span, even a new maximum captures nothing.
    tm.observe_hist("op.seconds", 20.0, "s")
    exemplars = tm.histogram("op.seconds").tail_exemplars()
    assert [e.value for e in exemplars] == [10.0]
    assert exemplars[0].span_id == span_id
    assert exemplars[0].trace_id == trace_id


def test_exemplars_survive_snapshot_merge(tm):
    worker = telemetry.Telemetry()
    with worker.span("worker.step"):
        worker.observe_hist("op.seconds", 8.0, "s")
    with tm.span("parent.step"):
        tm.observe_hist("op.seconds", 2.0, "s")
    merge_delta(tm, DeltaTracker("w").capture(worker, final=True))
    values = [e.value for e in tm.histogram("op.seconds").tail_exemplars()]
    assert 8.0 in values and 2.0 in values


# -- disabled fast path ------------------------------------------------------


def test_disabled_histogram_and_counter_ops_allocate_nothing():
    """The hot-loop contract: with telemetry off, guarded instrument
    sites retain zero memory (``tm.enabled`` is the only work done)."""
    telemetry.disable()
    tm = telemetry.get()
    assert not tm.enabled

    def loop() -> None:
        for _ in range(500):
            if tm.enabled:  # the guard every hot-path site uses
                tm.inc("never")
                tm.observe_hist("never.seconds", 1.0, "s")
                tm.histogram("never.seconds").observe(1.0)
            tm.inc("noop")  # unguarded no-op calls retain nothing either
            tm.observe_hist("noop.seconds", 1.0, "s")
            # A tail-bucket value would capture an exemplar when
            # enabled; disabled it must retain nothing either.
            tm.observe_hist("noop.seconds", 1e6, "s")

    loop()  # warm up method caches outside the measurement
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    loop()
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    # Attribute retained memory by allocation site: nothing may stick to
    # the telemetry modules.  (A plain global before/after delta would
    # pick up unrelated interpreter/test-harness allocations.)
    offenders = [
        stat
        for stat in after.compare_to(before, "filename")
        if stat.size_diff > 0
        and "telemetry" in stat.traceback[0].filename
    ]
    assert not offenders, [str(s) for s in offenders]


def test_histogram_math_survives_extreme_magnitudes():
    h = Histogram("t", "")
    for v in (1e-300, 1e300, 1.0):
        h.observe(v)
    assert h.count == 3
    assert math.isfinite(h.quantile(0.5))
    assert h.maximum == 1e300


# -- exact percentile extremes -----------------------------------------------


def test_percentile_extremes_are_exact_observed_min_max():
    """p0/p100 are the tracked extremes, never a bucket midpoint."""
    h = Histogram("t", "s")
    values = [0.0012, 0.37, 5.2, 19.0]
    for v in values:
        h.observe(v)
    assert h.quantile(0.0) == min(values)
    assert h.quantile(1.0) == max(values)
    assert h.percentile(0) == min(values)
    assert h.percentile(100) == max(values)
    # The extremes are exact even though bucket estimation is not:
    # 19.0's bucket midpoint lands elsewhere in the log bucket.
    assert bucket_midpoint(bucket_index(19.0)) != 19.0
    # Interior percentiles are delegated to quantile().
    assert h.percentile(50) == h.quantile(0.5)


def test_percentile_extremes_survive_merge():
    a = Histogram("t", "s")
    b = Histogram("t", "s")
    a.observe(3.0)
    b.observe(0.25)
    b.observe(40.0)
    a.merge(b.snapshot())
    assert a.percentile(0) == 0.25
    assert a.percentile(100) == 40.0


def test_percentile_validates_range_and_handles_empty():
    h = Histogram("t", "s")
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 0.0
    with pytest.raises(ValueError, match="percentile"):
        h.percentile(-1)
    with pytest.raises(ValueError, match="percentile"):
        h.percentile(100.5)
    with pytest.raises(ValueError, match="quantile"):
        h.quantile(1.5)
