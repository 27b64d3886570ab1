"""SimPoint: projection, weighted k-means, BIC model selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as obs_events
from repro.sampling.simpoint import (
    SimPointOptions,
    SimPointResult,
    _lloyd,
    bic_score,
    project_features,
    run_simpoint,
    weighted_kmeans,
)


def _two_phase_vectors(n_per_phase=30):
    """Two clearly separated behaviours plus tiny per-interval noise."""
    rng = np.random.default_rng(0)
    vectors = []
    for i in range(n_per_phase):
        vectors.append({("bb", "a", 0): 100.0 + rng.normal(0, 1),
                        ("bb", "a", 1): 10.0})
    for i in range(n_per_phase):
        vectors.append({("bb", "b", 0): 80.0 + rng.normal(0, 1),
                        ("bb", "b", 1): 40.0})
    weights = [1000] * (2 * n_per_phase)
    return vectors, weights


def test_projection_shape_and_determinism():
    vectors, _ = _two_phase_vectors()
    a = project_features(vectors, dim=15, seed=3)
    b = project_features(vectors, dim=15, seed=3)
    assert a.shape == (60, 15)
    np.testing.assert_array_equal(a, b)


def test_projection_seed_changes_embedding():
    vectors, _ = _two_phase_vectors()
    a = project_features(vectors, dim=15, seed=3)
    b = project_features(vectors, dim=15, seed=4)
    assert not np.allclose(a, b)


def test_projection_normalizes_frequencies():
    """Scaling a vector by a constant does not move its projection."""
    base = [{("x",): 1.0, ("y",): 3.0}]
    scaled = [{("x",): 10.0, ("y",): 30.0}]
    a = project_features(base, dim=8, seed=0)
    b = project_features(scaled, dim=8, seed=0)
    np.testing.assert_allclose(a, b)


def test_identical_vectors_project_identically():
    vectors = [{("k",): 5.0}, {("k",): 5.0}]
    points = project_features(vectors, dim=4, seed=0)
    np.testing.assert_array_equal(points[0], points[1])


def test_kmeans_separates_obvious_clusters():
    vectors, weights = _two_phase_vectors()
    points = project_features(vectors, dim=15, seed=0)
    labels, centroids, distortion = weighted_kmeans(
        points, np.asarray(weights, float), 2, SimPointOptions()
    )
    first = set(labels[:30].tolist())
    second = set(labels[30:].tolist())
    assert len(first) == 1 and len(second) == 1
    assert first != second
    # Distortion is weighted; normalize by total mass.
    assert distortion / float(np.sum(weights)) < 0.01


def test_kmeans_respects_weights():
    """A heavily weighted point pulls its centroid toward itself."""
    points = np.array([[0.0], [1.0], [10.0]])
    weights = np.array([1.0, 1.0, 1000.0])
    labels, centroids, _ = weighted_kmeans(
        points, weights, 2, SimPointOptions(restarts=5)
    )
    # The heavy point sits (almost) exactly on its centroid.
    heavy_centroid = centroids[labels[2]]
    assert abs(heavy_centroid[0] - 10.0) < 0.5


def test_run_simpoint_separates_two_phases():
    """SimPoint may sub-cluster within-phase noise (k >= 2, up to max),
    but no cluster may ever mix the two phases."""
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights, SimPointOptions(max_k=10))
    assert 2 <= result.k <= 10
    assert len(result.representatives) == result.k
    assert sum(result.representation_ratios) == pytest.approx(1.0)
    phase_a_labels = set(result.labels[:30].tolist())
    phase_b_labels = set(result.labels[30:].tolist())
    assert not (phase_a_labels & phase_b_labels)
    # Representatives cover both phases.
    reps = sorted(result.representatives)
    assert reps[0] < 30 and reps[-1] >= 30


def test_ratios_proportional_to_weight():
    vectors, _ = _two_phase_vectors()
    # Phase A carries 3x the instruction weight of phase B.
    weights = [3000] * 30 + [1000] * 30
    result = run_simpoint(vectors, weights)
    # Sum the ratios of clusters whose representatives sit in phase A:
    # they must carry 75% of the total weight regardless of sub-clustering.
    phase_a_ratio = sum(
        ratio
        for rep, ratio in zip(
            result.representatives, result.representation_ratios
        )
        if rep < 30
    )
    assert phase_a_ratio == pytest.approx(0.75, abs=0.01)


def test_single_interval_program():
    result = run_simpoint([{("k",): 1.0}], [100])
    assert result.k == 1
    assert result.representatives == (0,)
    assert result.representation_ratios == (1.0,)


def test_max_k_respected():
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights, SimPointOptions(max_k=1))
    assert result.k == 1


def test_may_return_fewer_than_max_k():
    """SimPoint may return fewer clusters than the max (Section V-B)."""
    vectors = [{("same",): 1.0} for _ in range(40)]
    result = run_simpoint(vectors, [10] * 40, SimPointOptions(max_k=10))
    assert result.k < 10


def test_determinism():
    vectors, weights = _two_phase_vectors()
    a = run_simpoint(vectors, weights)
    b = run_simpoint(vectors, weights)
    assert a.representatives == b.representatives
    assert a.representation_ratios == b.representation_ratios


def test_input_validation():
    with pytest.raises(ValueError, match="no intervals"):
        run_simpoint([], [])
    with pytest.raises(ValueError, match="does not match"):
        run_simpoint([{("k",): 1.0}], [1, 2])
    with pytest.raises(ValueError, match="positive"):
        run_simpoint([{("k",): 1.0}], [0])


def test_options_validation():
    with pytest.raises(ValueError):
        SimPointOptions(max_k=0)
    with pytest.raises(ValueError):
        SimPointOptions(projection_dim=0)
    with pytest.raises(ValueError):
        SimPointOptions(bic_coverage=1.5)
    with pytest.raises(ValueError):
        SimPointOptions(restarts=0)
    for max_iterations in (0, -5):
        with pytest.raises(ValueError, match="max_iterations"):
            SimPointOptions(max_iterations=max_iterations)


def test_bic_prefers_true_k():
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights)
    # BIC at k=2 beats k=1 for clearly bimodal data.
    assert result.bic_by_k[2] > result.bic_by_k[1]


def test_labels_cover_all_intervals():
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights)
    assert result.labels.shape == (60,)
    assert set(result.labels.tolist()) == set(range(result.k))


def test_empty_cluster_reseeds_on_current_distances():
    """Regression: reseeding an empty cluster used the distance matrix
    computed *before* this iteration's centroid updates.  With stale
    distances the farthest point can be one an updated centroid already
    sits on, wasting the cluster; distances must be recomputed against
    the updated centroids (excluding the vacated one)."""
    from repro.sampling.simpoint import _lloyd

    points = np.array([[0.0], [10.0], [21.0]])
    weights = np.array([1.0, 1.0, 1.0])
    # Initial centroids capture points 0+10 in cluster 0 and 21 in
    # cluster 1, leaving cluster 2 empty; after the update c0=5, c1=21.
    centroids = np.array([[9.0], [11.0], [100.0]])
    labels, centroids, _ = _lloyd(points, weights, centroids, 1)
    # Stale distances would reseed on point 21 (old min-distance 100)
    # even though the updated c1 sits exactly on it; the true farthest
    # point under the updated centroids is point 0 (distance 5 from c0).
    assert labels.tolist() == [2, 0, 1]
    assert centroids[2, 0] == 0.0
    assert centroids[0, 0] == pytest.approx(5.0)
    assert centroids[1, 0] == pytest.approx(21.0)


def test_reseeded_clusters_are_never_empty():
    """Every requested cluster ends up non-empty even when initial
    centroids collapse onto the same region."""
    rng = np.random.default_rng(0)
    points = np.concatenate(
        [rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))]
    )
    weights = np.ones(40)
    centroids = points[:3].copy()  # all three seeds in the first blob
    from repro.sampling.simpoint import _lloyd

    labels, centroids, _ = _lloyd(points, weights, centroids, 40)
    assert set(labels.tolist()) == {0, 1, 2}


def test_result_validation():
    with pytest.raises(ValueError, match="one representative"):
        SimPointResult(
            k=2,
            labels=np.zeros(3, dtype=np.int64),
            representatives=(0,),
            representation_ratios=(1.0,),
            bic_by_k={},
            projected=np.zeros((3, 2)),
        )
    with pytest.raises(ValueError, match="sum to 1"):
        SimPointResult(
            k=1,
            labels=np.zeros(3, dtype=np.int64),
            representatives=(0,),
            representation_ratios=(0.4,),
            bic_by_k={},
            projected=np.zeros((3, 2)),
        )


def _project_reference(vectors, dim, seed):
    """The original scalar projection loop, kept as the equivalence
    oracle for the vectorized ``project_features``."""
    keys = {}
    for vector in vectors:
        for key in vector:
            if key not in keys:
                keys[key] = len(keys)
    rng = np.random.default_rng(seed)
    directions = rng.uniform(-1.0, 1.0, size=(max(1, len(keys)), dim))
    projected = np.zeros((len(vectors), dim), dtype=np.float64)
    for i, vector in enumerate(vectors):
        total = sum(vector.values())
        if total <= 0:
            continue
        for key, value in vector.items():
            projected[i] += (value / total) * directions[keys[key]]
    return projected


def test_projection_matches_scalar_reference():
    """Vectorized projection is bit-identical to the scalar loop."""
    vectors, _ = _two_phase_vectors()
    # Add shared keys across phases and a many-key vector so the key
    # table and the scatter-add see interleaved first-appearances.
    rng = np.random.default_rng(5)
    vectors.append(
        {("bb", "a", j): float(rng.integers(1, 500)) for j in range(40)}
    )
    vectors.append({("bb", "b", 0): 7.0, ("bb", "a", 3): 2.0})
    for dim, seed in [(15, 493575226), (8, 0), (1, 99)]:
        got = project_features(vectors, dim, seed)
        want = _project_reference(vectors, dim, seed)
        np.testing.assert_array_equal(got, want)  # exact, not allclose


def test_projection_zero_total_vector():
    """An all-zero vector projects to the origin without dividing by 0."""
    vectors = [{("x",): 0.0}, {("x",): 5.0, ("y",): 5.0}]
    got = project_features(vectors, dim=4, seed=1)
    want = _project_reference(vectors, dim=4, seed=1)
    np.testing.assert_array_equal(got, want)
    assert (got[0] == 0.0).all()


def test_projection_empty_vectors():
    got = project_features([{}, {}], dim=3, seed=0)
    assert got.shape == (2, 3)
    assert (got == 0.0).all()


def _lloyd_reference(points, weights, centroids, max_iterations):
    """The original per-cluster Lloyd loop, kept as the equivalence
    oracle for the bincount update and cycle jump in ``_lloyd``."""
    k = centroids.shape[0]
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iterations):
        d2 = (
            (points**2).sum(axis=1, keepdims=True)
            - 2.0 * points @ centroids.T
            + (centroids**2).sum(axis=1)
        )
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            mass = weights[mask].sum()
            if mass > 0:
                centroids[j] = (
                    weights[mask, None] * points[mask]
                ).sum(axis=0) / mass
            else:
                current_d2 = (
                    (points**2).sum(axis=1, keepdims=True)
                    - 2.0 * points @ centroids.T
                    + (centroids**2).sum(axis=1)
                )
                current_d2[:, j] = np.inf
                farthest = int(current_d2.min(axis=1).argmax())
                centroids[j] = points[farthest]
                new_labels[farthest] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    d2 = (
        (points**2).sum(axis=1, keepdims=True)
        - 2.0 * points @ centroids.T
        + (centroids**2).sum(axis=1)
    )
    point_d2 = np.maximum(d2[np.arange(points.shape[0]), labels], 0.0)
    distortion = float((weights * point_d2).sum())
    return labels, centroids, distortion


@st.composite
def _lloyd_inputs(draw):
    """Points drawn from a few rows of a small grid of tenths, integer
    weights (instruction counts) and initial centroids on those rows.

    Few distinct rows give duplicate points and empty clusters; tenths
    are inexact in binary, so a cluster of copies averages to a centroid
    one rounding away from its points, which sends reseeds into exact
    cycles.  Grid values are never ``-0.0``.
    """
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(2, 16))
    k = draw(st.integers(1, 10))
    n_rows = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    rows = np.array(
        draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    ) / 10.0
    picks = st.integers(0, n_rows - 1)
    points = rows[draw(st.lists(picks, min_size=n, max_size=n))]
    weights = np.array(
        draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    centroids = rows[draw(st.lists(picks, min_size=k, max_size=k))]
    max_iterations = draw(st.integers(1, 100))
    return points, weights, centroids, max_iterations


@settings(deadline=None, max_examples=200)
@given(_lloyd_inputs())
def test_lloyd_matches_reference_exactly(inputs):
    """The bincount update and the cycle jump change no bit of the
    labels, centroids or distortion (``projection_dim >= 2``; a
    one-column array is summed pairwise by numpy, so no caller uses
    it and this property does not draw it)."""
    points, weights, centroids, max_iterations = inputs
    got = _lloyd(points, weights, centroids.copy(), max_iterations)
    want = _lloyd_reference(
        points, weights, centroids.copy(), max_iterations
    )
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


def test_lloyd_cycle_jumps_to_the_last_iteration():
    """Two copies of one point with both centroids on it: their mean
    rounds away from the point, so every iteration empties a cluster
    and the reseed alternates between the copies -- a cycle of period
    2 from iteration 1.  The loop detects the repeat at iteration 3,
    runs one more to land where iteration 100 would, and reports the
    96 skipped iterations in one event instead of their reseeds."""
    points = np.array([[0.1, 0.1], [0.1, 0.1]])
    weights = np.array([3.0, 3.0])
    centroids = np.array([[0.1, 0.1], [0.1, 0.1]])
    with obs_events.session() as log:
        got = _lloyd(points, weights, centroids.copy(), 100)
        records = log.records()
    want = _lloyd_reference(points, weights, centroids.copy(), 100)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    cycles = [r for r in records if r.name == "simpoint.cycle"]
    assert len(cycles) == 1
    assert cycles[0].level == "DEBUG"
    assert dict(cycles[0].fields) == {"k": 2, "period": 2, "skipped": 96}
    reseeds = [r for r in records if r.name == "simpoint.reseed"]
    assert len(reseeds) == 4
