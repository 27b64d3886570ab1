"""Property-based tests on the sampling layer over synthetic logs.

Hypothesis generates arbitrary invocation logs (random kernels, counts,
sync epochs) and checks the structural invariants the methodology relies
on: divisions partition, feature mass is conserved, selections stay
within bounds, Eq. (1) behaves.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gtpin.tools.invocations import InvocationLog, InvocationProfile
from repro.sampling.error import projected_spi, spi_error_percent
from repro.sampling.explorer import evaluate_config
from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    FeatureMatrix,
    build_feature_vectors,
    feature_vector,
)
from repro.sampling.intervals import IntervalScheme, divide
from repro.sampling.selection import SelectionConfig
from repro.sampling.simpoint import (
    SimPointOptions,
    project_features,
    run_simpoint,
)

from conftest import build_tiny_kernel
from test_sampling_simpoint import _project_reference

#: Two fixed kernels shared by all generated logs (structure is constant;
#: hypothesis varies the dynamic behaviour).
_KERNELS = {
    "pk.a": build_tiny_kernel("pk.a"),
    "pk.b": build_tiny_kernel("pk.b", simd_width=8),
}


@st.composite
def invocation_logs(draw):
    n = draw(st.integers(2, 40))
    profiles = []
    epoch = 0
    for i in range(n):
        if i and draw(st.booleans()):
            epoch += 1
        kernel = draw(st.sampled_from(sorted(_KERNELS)))
        binary = _KERNELS[kernel]
        counts = np.array(
            [draw(st.integers(1, 50)) for _ in range(binary.n_blocks)],
            dtype=np.int64,
        )
        arrays = binary.arrays
        profiles.append(
            InvocationProfile(
                index=i,
                kernel_name=kernel,
                global_work_size=draw(st.sampled_from((64, 128, 256))),
                arg_items=(
                    ("iters", float(draw(st.integers(1, 8)))),
                    ("n", 64.0),
                ),
                instruction_count=int(counts @ arrays.instruction_counts),
                bytes_read=int(counts @ arrays.bytes_read),
                bytes_written=int(counts @ arrays.bytes_written),
                block_counts=counts,
                sync_epoch=epoch,
                enqueue_call_index=i * 3,
            )
        )
    return InvocationLog(
        invocations=tuple(profiles), binaries=dict(_KERNELS)
    )


@given(invocation_logs(), st.sampled_from(list(IntervalScheme)))
@settings(max_examples=40, deadline=None)
def test_divisions_always_partition(log, scheme):
    intervals = divide(log, scheme, approx_size=5_000)
    assert intervals[0].start == 0
    assert intervals[-1].stop == len(log.invocations)
    for prev, cur in zip(intervals, intervals[1:]):
        assert cur.start == prev.stop
    assert (
        sum(iv.instruction_count for iv in intervals)
        == log.total_instructions
    )


@given(invocation_logs())
@settings(max_examples=30, deadline=None)
def test_no_division_spans_a_sync_call(log):
    for scheme in (IntervalScheme.SYNC, IntervalScheme.APPROX_100M):
        for interval in divide(log, scheme, approx_size=5_000):
            epochs = {
                log.invocations[i].sync_epoch
                for i in interval.invocation_indices()
            }
            assert len(epochs) == 1


@given(invocation_logs(), st.sampled_from(ALL_FEATURE_KINDS))
@settings(max_examples=30, deadline=None)
def test_feature_values_nonnegative(log, kind):
    intervals = divide(log, IntervalScheme.SYNC)
    for vector in build_feature_vectors(log, intervals, kind):
        assert vector
        assert all(v >= 0 for v in vector.values())


@given(invocation_logs())
@settings(max_examples=30, deadline=None)
def test_bb_feature_mass_equals_instructions(log):
    intervals = divide(log, IntervalScheme.SYNC)
    vectors = build_feature_vectors(log, intervals, FeatureKind.BB)
    for interval, vector in zip(intervals, vectors):
        assert sum(vector.values()) == pytest.approx(
            float(interval.instruction_count)
        )


@given(invocation_logs(), st.sampled_from(list(IntervalScheme)))
@settings(max_examples=15, deadline=None)
def test_selection_invariants_hold_for_any_log(log, scheme):
    seconds = np.linspace(1e-4, 2e-4, len(log.invocations))
    from repro.cofluent.timing import KernelTiming, TimingTrace

    timings = TimingTrace(
        program_name="prop",
        device_name="dev",
        trial_seed=0,
        timings=tuple(
            KernelTiming(i, p.kernel_name, float(seconds[i]), p.sync_epoch)
            for i, p in enumerate(log.invocations)
        ),
    )
    result = evaluate_config(
        SelectionConfig(scheme, FeatureKind.BB),
        log,
        timings,
        approx_size=5_000,
        options=SimPointOptions(max_k=4, restarts=1, max_iterations=20),
    )
    selection = result.selection
    assert 1 <= selection.k <= 4
    assert 0 < selection.selection_fraction <= 1
    assert selection.simulation_speedup >= 1
    assert sum(s.ratio for s in selection.selected) == pytest.approx(1.0)
    assert result.error_percent >= 0
    # A full-coverage "selection" (every interval selected with its exact
    # weight) would project the measured SPI; our k-representative
    # projection stays within a sane envelope of it.
    instructions = np.array(
        [p.instruction_count for p in log.invocations], dtype=np.float64
    )
    projected = projected_spi(selection, seconds, instructions)
    assert projected > 0
    assert result.error_percent == pytest.approx(
        spi_error_percent(selection, seconds, instructions)
    )


@st.composite
def sparse_logs(draw):
    """``invocation_logs()`` cut to its first kernel or not, with at least
    one invocation that executes no block (under the single-kernel
    scheme that is an interval with no block, so an empty vector)."""
    log = draw(invocation_logs())
    profiles = list(log.invocations)
    if draw(st.booleans()):
        profiles = [
            p for p in profiles if p.kernel_name == profiles[0].kernel_name
        ]
    for i in draw(st.sets(st.integers(0, len(profiles) - 1), min_size=1)):
        profiles[i] = dataclasses.replace(
            profiles[i],
            block_counts=0 * profiles[i].block_counts,
            instruction_count=0,
            bytes_read=0,
            bytes_written=0,
        )
    return InvocationLog(
        invocations=tuple(
            dataclasses.replace(p, index=i) for i, p in enumerate(profiles)
        ),
        binaries=log.binaries,
    )


@given(sparse_logs(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_feature_matrix_equals_scalar_vectors_and_projection(log, seed):
    """For every kind, weighting and scheme: the matrix's rows are
    ``feature_vector``'s dicts (keys, key order, value and key types),
    and projecting the matrix gives ``_project_reference``'s bytes."""
    single = divide(log, IntervalScheme.SINGLE_KERNEL)
    assert {} in build_feature_vectors(log, single, FeatureKind.BB)
    for scheme in IntervalScheme:
        intervals = divide(log, scheme, approx_size=5_000)
        for kind in ALL_FEATURE_KINDS:
            for weighted in (True, False):
                matrix = build_feature_vectors(log, intervals, kind, weighted)
                scalar = [
                    feature_vector(log, iv, kind, weighted) for iv in intervals
                ]
                assert isinstance(matrix, FeatureMatrix)
                assert len(matrix) == len(scalar)
                # ``repr`` tells 3 from np.int64(3) and 1.0 from
                # np.float64(1.0), and lists the keys in order.
                assert repr(list(matrix)) == repr(scalar)
                assert matrix == scalar
                got = project_features(matrix, 15, seed)
                want = _project_reference(scalar, 15, seed)
                assert got.tobytes() == want.tobytes()


@given(
    sparse_logs(),
    st.sampled_from(ALL_FEATURE_KINDS),
    st.sampled_from(list(IntervalScheme)),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_run_simpoint_on_matrix_equals_dicts(log, kind, scheme, weighted):
    intervals = divide(log, scheme, approx_size=5_000)
    matrix = build_feature_vectors(log, intervals, kind, weighted)
    weights = [iv.n_invocations for iv in intervals]
    options = SimPointOptions(max_k=4, restarts=2, max_iterations=20)
    a = run_simpoint(matrix, weights, options)
    b = run_simpoint(list(matrix), weights, options)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.representatives == b.representatives
    assert a.representation_ratios == b.representation_ratios
    np.testing.assert_equal(a.bic_by_k, b.bic_by_k)
    assert a.projected.tobytes() == b.projected.tobytes()
