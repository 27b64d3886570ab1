"""SimPoint 3.0 file-format interop (.bb / .simpoints / .weights)."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.error import selection_error
from repro.sampling.features import FeatureKind, build_feature_vectors
from repro.sampling.intervals import IntervalScheme, divide
from repro.sampling.selection import SelectionConfig, selection_from_simpoint
from repro.sampling.simpoint import SimPointOptions, run_simpoint
from repro.sampling.simpoint_files import (
    DimensionMap,
    read_frequency_vectors,
    read_simpoints,
    selection_from_simpoint_files,
    write_frequency_vectors,
    write_simpoints,
)

FAST = SimPointOptions(max_k=5, restarts=1, max_iterations=30)


@pytest.fixture(scope="module")
def pipeline(small_workload):
    log = small_workload.log
    intervals = divide(log, IntervalScheme.SYNC)
    vectors = build_feature_vectors(log, intervals, FeatureKind.BB)
    result = run_simpoint(
        vectors, [iv.instruction_count for iv in intervals], FAST
    )
    return log, intervals, vectors, result


def test_dimension_map_is_one_based_and_stable(pipeline):
    _, _, vectors, _ = pipeline
    dmap = DimensionMap.build(vectors)
    dims = sorted(dmap.key_to_dim.values())
    assert dims == list(range(1, dmap.n_dimensions + 1))
    assert DimensionMap.build(vectors).key_to_dim == dmap.key_to_dim


def test_frequency_vector_round_trip(pipeline):
    _, _, vectors, _ = pipeline
    out = io.StringIO()
    dmap = write_frequency_vectors(vectors, out)
    parsed = read_frequency_vectors(io.StringIO(out.getvalue()))
    assert len(parsed) == len(vectors)
    for original, round_tripped in zip(vectors, parsed):
        expected = {
            dmap.key_to_dim[key]: value for key, value in original.items()
        }
        assert round_tripped == pytest.approx(expected)


def test_bbv_lines_have_simpoint_shape(pipeline):
    _, _, vectors, _ = pipeline
    out = io.StringIO()
    write_frequency_vectors(vectors, out)
    for line in out.getvalue().splitlines():
        assert line.startswith("T")
        for token in line[1:].split():
            assert token.startswith(":")
            assert token.count(":") == 2


def test_bbv_parser_rejects_malformed_lines():
    with pytest.raises(ValueError, match="must start with 'T'"):
        read_frequency_vectors(io.StringIO("X:1:2\n"))
    with pytest.raises(ValueError, match="malformed token"):
        read_frequency_vectors(io.StringIO("T 1:2\n"))
    with pytest.raises(ValueError, match="1-based"):
        read_frequency_vectors(io.StringIO("T :0:5\n"))


def test_bbv_parser_skips_comments_and_blanks():
    parsed = read_frequency_vectors(
        io.StringIO("# comment\n\nT :1:5 :2:3\n")
    )
    assert parsed == [{1: 5.0, 2: 3.0}]


def test_simpoints_weights_round_trip(pipeline):
    _, _, _, result = pipeline
    sp, wt = io.StringIO(), io.StringIO()
    write_simpoints(result, sp, wt)
    pairs = read_simpoints(io.StringIO(sp.getvalue()), io.StringIO(wt.getvalue()))
    assert [p[0] for p in pairs] == list(result.representatives)
    for (_, weight), ratio in zip(pairs, result.representation_ratios):
        assert weight == pytest.approx(ratio, abs=1e-5)


def test_read_simpoints_cluster_mismatch():
    with pytest.raises(ValueError, match="do not match"):
        read_simpoints(io.StringIO("5 0\n"), io.StringIO("1.0 1\n"))


def test_read_simpoints_weight_sum_checked():
    with pytest.raises(ValueError, match="sum to"):
        read_simpoints(
            io.StringIO("5 0\n6 1\n"), io.StringIO("0.2 0\n0.2 1\n")
        )


def test_selection_from_external_files_matches_internal(
    pipeline, small_workload
):
    """A full external round trip produces an identical selection."""
    log, intervals, _, result = pipeline
    config = SelectionConfig(IntervalScheme.SYNC, FeatureKind.BB)
    internal = selection_from_simpoint(
        config, intervals, result, log.total_instructions
    )
    sp, wt = io.StringIO(), io.StringIO()
    write_simpoints(result, sp, wt)
    external = selection_from_simpoint_files(
        config,
        intervals,
        io.StringIO(sp.getvalue()),
        io.StringIO(wt.getvalue()),
        log.total_instructions,
    )
    assert [s.interval.index for s in external.selected] == [
        s.interval.index for s in internal.selected
    ]
    assert external.selection_fraction == pytest.approx(
        internal.selection_fraction
    )
    # And it scores identically under Eq. (1).
    assert selection_error(
        external, log, small_workload.timings
    ) == pytest.approx(
        selection_error(internal, log, small_workload.timings), abs=1e-3
    )


def test_selection_from_files_validates_interval_range(pipeline):
    log, intervals, _, _ = pipeline
    config = SelectionConfig(IntervalScheme.SYNC, FeatureKind.BB)
    with pytest.raises(ValueError, match="references interval"):
        selection_from_simpoint_files(
            config,
            intervals,
            io.StringIO(f"{len(intervals) + 5} 0\n"),
            io.StringIO("1.0 0\n"),
            log.total_instructions,
        )


@pytest.mark.parametrize("count", ["nan", "inf", "-inf", "1e400", "-5"])
def test_bbv_parser_rejects_non_finite_and_negative_counts(count):
    with pytest.raises(ValueError, match="line 2: counts must be finite"):
        read_frequency_vectors(io.StringIO(f"T :1:2\nT :1:{count}\n"))


def test_bbv_parser_rejects_a_sum_that_overflows():
    with pytest.raises(ValueError, match="line 1: counts must be finite"):
        read_frequency_vectors(io.StringIO("T :1:1e308 :1:1e308\n"))


@pytest.mark.parametrize(
    "simpoints, weights, message",
    [
        ("5 0\n6\n", "0.5 0\n0.5 1\n", "simpoints line 2: not enough"),
        ("5 0 1\n", "1.0 0\n", "simpoints line 1: too many"),
        ("5 0\n", "1.0\n", "weights line 1: not enough"),
        ("x 0\n", "1.0 0\n", "simpoints line 1: invalid literal"),
        ("5 0\n", "1.0 y\n", "weights line 1: invalid literal"),
        ("5 0\n", "one 0\n", "weights line 1: could not convert"),
        ("5 0\n6 1\n", "1.5 0\n-0.5 1\n", "weights line 2: values must"),
        ("5 0\n", "nan 0\n", "weights line 1: values must"),
        ("5 0\n", "1e400 0\n", "weights line 1: values must"),
        ("-1 0\n", "1.0 0\n", "simpoints line 1: values must"),
    ],
)
def test_simpoints_parser_names_the_bad_line(simpoints, weights, message):
    with pytest.raises(ValueError, match=message):
        read_simpoints(io.StringIO(simpoints), io.StringIO(weights))


#: Near-valid fragments, so generated files also reach the checks past
#: tokenizing; free text covers the rest.
_FRAGMENTS = st.sampled_from(
    [
        "T", ":1:2", ":2:0.5", ":0:1", ":1:nan", ":1:inf", ":1:1e400",
        ":1:1e308", ":1:-5", ":x:1", "1:2", ":", "::", "#", "0", "1",
        "2", "-1", "0.5", "1.0", "nan", "-inf", "1e400", "x", "\t",
    ]
)
_FILES = st.one_of(
    st.text(),
    st.lists(
        st.lists(_FRAGMENTS, max_size=4).map(" ".join), max_size=5
    ).map("\n".join),
)
#: (interval, weight, cluster) per selected point, as text.
_POINTS = st.lists(
    st.tuples(
        st.sampled_from(["0", "3", "-1", "x"]),
        st.sampled_from(
            ["1", "1.0", "0.5", "-0.5", "nan", "inf", "1e400", "x"]
        ),
        st.sampled_from(["0", "1", "2", "y", "0 1", ""]),
    ),
    max_size=3,
)


@given(_FILES)
@settings(max_examples=200, deadline=None)
def test_bbv_parser_parses_or_raises_value_error(text):
    try:
        vectors = read_frequency_vectors(io.StringIO(text))
    except ValueError:
        return
    for vector in vectors:
        assert all(dim >= 1 for dim in vector)
        assert all(math.isfinite(v) and v >= 0 for v in vector.values())


@given(_POINTS, st.sampled_from(["", "simpoints", "weights"]), _FILES)
@settings(max_examples=200, deadline=None)
def test_simpoints_parser_parses_or_raises_value_error(points, noisy, noise):
    files = {
        "simpoints": "\n".join(f"{p} {c}" for p, _, c in points),
        "weights": "\n".join(f"{w} {c}" for _, w, c in points),
    }
    if noisy:
        files[noisy] += "\n" + noise
    try:
        pairs = read_simpoints(
            io.StringIO(files["simpoints"]), io.StringIO(files["weights"])
        )
    except ValueError:
        return
    assert all(p >= 0 and math.isfinite(w) and w >= 0 for p, w in pairs)
    assert 0.99 <= sum(w for _, w in pairs) <= 1.01
