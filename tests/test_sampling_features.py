"""Feature vectors: Table III's ten constructions."""

import pytest

from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    FeatureMatrix,
    build_feature_vectors,
    feature_vector,
)
from repro.sampling.intervals import IntervalScheme, divide


@pytest.fixture(scope="module")
def log(small_workload):
    return small_workload.log


@pytest.fixture(scope="module")
def intervals(log):
    return divide(log, IntervalScheme.SYNC)


def test_exactly_ten_feature_kinds():
    assert len(ALL_FEATURE_KINDS) == 10
    labels = {k.value for k in ALL_FEATURE_KINDS}
    assert labels == {
        "KN", "KN-ARGS", "KN-GWS", "KN-ARGS-GWS", "KN-RW",
        "BB", "BB-R", "BB-W", "BB-R-W", "BB-(R+W)",
    }


def test_kind_classification():
    assert FeatureKind.KN.is_kernel_based
    assert FeatureKind.BB_R.is_block_based
    assert FeatureKind.KN_RW.uses_memory
    assert not FeatureKind.BB.uses_memory


def test_kn_keys_are_kernel_names(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.KN)
    for key in vec:
        assert key[0] == "kn"
    kernels_in_interval = {
        log.invocations[i].kernel_name
        for i in intervals[0].invocation_indices()
    }
    assert {key[1] for key in vec} == kernels_in_interval


def test_kn_weighting_by_instructions(log, intervals):
    """KN vector values equal instructions contributed per kernel."""
    interval = intervals[0]
    vec = feature_vector(log, interval, FeatureKind.KN)
    manual: dict = {}
    for i in interval.invocation_indices():
        p = log.invocations[i]
        key = ("kn", p.kernel_name)
        manual[key] = manual.get(key, 0.0) + p.instruction_count
    assert vec == manual


def test_kn_args_distinguishes_argument_values(log, intervals):
    whole_program = divide(log, IntervalScheme.SYNC)
    kn = set()
    kn_args = set()
    for interval in whole_program:
        kn |= set(feature_vector(log, interval, FeatureKind.KN))
        kn_args |= set(feature_vector(log, interval, FeatureKind.KN_ARGS))
    assert len(kn_args) >= len(kn)


def test_kn_gws_key_includes_gws(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.KN_GWS)
    for key in vec:
        assert isinstance(key[2], int)  # the global work size


def test_kn_rw_adds_byte_dimensions(log, intervals):
    base = feature_vector(log, intervals[0], FeatureKind.KN)
    rw = feature_vector(log, intervals[0], FeatureKind.KN_RW)
    assert len(rw) > len(base)
    read_keys = [k for k in rw if k[0] == "kn_r"]
    write_keys = [k for k in rw if k[0] == "kn_w"]
    assert read_keys and write_keys


def test_bb_keys_are_kernel_block_pairs(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB)
    for key in vec:
        assert key[0] == "bb"
        assert isinstance(key[2], int)


def test_bb_weighting_by_block_size(log, intervals):
    """BB entries are execution counts times the block's instruction count."""
    interval = intervals[0]
    vec = feature_vector(log, interval, FeatureKind.BB)
    total = sum(vec.values())
    assert total == pytest.approx(float(interval.instruction_count))


def test_bb_unweighted_counts_executions(log, intervals):
    interval = intervals[0]
    vec = feature_vector(log, interval, FeatureKind.BB, weighted=False)
    manual = 0
    for i in interval.invocation_indices():
        manual += int(log.invocations[i].block_counts.sum())
    assert sum(vec.values()) == pytest.approx(float(manual))


def test_bb_r_only_adds_read_dimensions(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB_R)
    prefixes = {k[0] for k in vec}
    assert prefixes <= {"bb", "bb_r"}
    assert "bb_r" in prefixes


def test_bb_w_only_adds_write_dimensions(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB_W)
    prefixes = {k[0] for k in vec}
    assert prefixes <= {"bb", "bb_w"}


def test_bb_r_w_adds_both(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB_R_W)
    prefixes = {k[0] for k in vec}
    assert {"bb", "bb_r"} <= prefixes or {"bb", "bb_w"} <= prefixes


def test_bb_r_plus_w_combines(log, intervals):
    combined = feature_vector(log, intervals[0], FeatureKind.BB_R_PLUS_W)
    separate = feature_vector(log, intervals[0], FeatureKind.BB_R_W)
    combined_bytes = sum(v for k, v in combined.items() if k[0] == "bb_rw")
    separate_bytes = sum(
        v for k, v in separate.items() if k[0] in ("bb_r", "bb_w")
    )
    assert combined_bytes == pytest.approx(separate_bytes)


def test_build_feature_vectors_aligns_with_intervals(log, intervals):
    vectors = build_feature_vectors(log, intervals, FeatureKind.BB)
    assert len(vectors) == len(intervals)
    for vec in vectors:
        assert vec  # every interval has at least one event


def test_vectors_differ_across_phases(log):
    """Different program phases produce different feature vectors."""
    intervals = divide(log, IntervalScheme.SYNC)
    vectors = build_feature_vectors(log, intervals, FeatureKind.BB)
    assert any(
        set(a) != set(b) or a != b
        for a, b in zip(vectors, vectors[1:])
    )


def test_feature_matrix_is_a_sequence_of_dicts(log, intervals):
    matrix = build_feature_vectors(log, intervals, FeatureKind.BB_R_W)
    dicts = list(matrix)
    assert len(dicts) == len(intervals)
    assert matrix[-1] == dicts[-1]
    assert matrix[1:5:2] == dicts[1:5:2]
    with pytest.raises(IndexError):
        matrix[len(intervals)]
    assert matrix == dicts and dicts == matrix
    assert matrix != dicts[:-1]
    assert FeatureMatrix.from_vectors(matrix) is matrix
    rebuilt = FeatureMatrix.from_vectors(dicts)
    assert rebuilt.keys == matrix.keys
    for got, want in zip(
        (rebuilt.rows, rebuilt.cols, rebuilt.values),
        (matrix.rows, matrix.cols, matrix.values),
    ):
        assert got.tobytes() == want.tobytes()


class TestBatchedEquivalence:
    """The batched BB builder is bit-identical to the scalar path --
    values AND dict key order (key order feeds the random projection)."""

    @pytest.mark.parametrize(
        "kind", [k for k in ALL_FEATURE_KINDS if k.is_block_based]
    )
    @pytest.mark.parametrize("weighted", [True, False])
    def test_all_block_kinds_and_schemes(self, log, kind, weighted):
        for scheme in IntervalScheme:
            intervals = divide(log, scheme)
            batched = build_feature_vectors(log, intervals, kind, weighted)
            scalar = [
                feature_vector(log, iv, kind, weighted) for iv in intervals
            ]
            assert len(batched) == len(scalar)
            for got, want in zip(batched, scalar):
                assert list(got.keys()) == list(want.keys())
                assert got == want  # exact float equality, not approx

    def test_kernel_kinds_unchanged(self, log, intervals):
        for kind in ALL_FEATURE_KINDS:
            if kind.is_block_based:
                continue
            built = build_feature_vectors(log, intervals, kind)
            scalar = [feature_vector(log, iv, kind) for iv in intervals]
            assert built == scalar
