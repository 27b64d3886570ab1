"""SimPoint: projection, weighted k-means, BIC model selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as obs_events
from repro.sampling.simpoint import (
    SimPointOptions,
    SimPointResult,
    _best_of_restarts,
    _choice,
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
    # Rejected before seeding: an infinite weight, a nan, and finite
    # weights whose total overflows.
    for weights in ([float("inf"), 1.0], [float("nan"), 1.0], [1e308, 1e308]):
        with pytest.raises(ValueError, match="positive and finite"):
            run_simpoint([{("k",): 1.0}, {("k",): 2.0}], weights)
    # A non-finite feature value reaches seeding as nan coordinates.
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="scores are not finite"):
            run_simpoint([{("k",): float("inf")}, {("k",): 1.0}], [1, 1])


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


# -- the batched sweep against the per-run code it replaced -------------------


def _kmeans_pp_init_per_run(points, weights, k, rng):
    """Weighted k-means++ seeding of one run through ``Generator.choice``
    (the per-run seeding the batched sweep replaced)."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = rng.choice(n, p=weights / weights.sum())
    centroids[0] = points[first]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        scores = closest_sq * weights
        total = scores.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=scores / total))
        centroids[j] = points[idx]
        dist = ((points - centroids[j]) ** 2).sum(axis=1)
        np.minimum(closest_sq, dist, out=closest_sq)
    return centroids


def _lloyd_per_run(points, weights, centroids, max_iterations):
    """One run's Lloyd loop with the bincount update and the exact cycle
    jump (the per-run ``_lloyd`` the batched sweep replaced)."""
    n, dim = points.shape
    k = centroids.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    norms = (points**2).sum(axis=1, keepdims=True)
    weighted = (weights[:, None] * points).ravel()
    columns = np.arange(dim)

    def sq_distances():
        return (
            norms - 2.0 * points @ centroids.T + (centroids**2).sum(axis=1)
        )

    seen = {}
    end = max_iterations
    iteration = 0
    while iteration < end:
        iteration += 1
        new_labels = sq_distances().argmin(axis=1)
        masses = np.bincount(new_labels, weights=weights, minlength=k)
        if (masses > 0).all():
            sums = np.bincount(
                (new_labels[:, None] * dim + columns).ravel(),
                weights=weighted,
                minlength=k * dim,
            )
            centroids[:] = sums.reshape(k, dim) / masses[:, None]
        else:
            for j in range(k):
                mask = new_labels == j
                mass = weights[mask].sum()
                if mass > 0:
                    centroids[j] = (
                        weights[mask, None] * points[mask]
                    ).sum(axis=0) / mass
                    continue
                current_d2 = sq_distances()
                current_d2[:, j] = np.inf
                farthest = int(current_d2.min(axis=1).argmax())
                centroids[j] = points[farthest]
                new_labels[farthest] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        if seen is None:
            continue
        state = labels.tobytes() + centroids.tobytes()
        first = seen.setdefault(state, iteration)
        if first < iteration:
            period = iteration - first
            end = iteration + (max_iterations - iteration) % period
            seen = None
    d2 = sq_distances()
    point_d2 = np.maximum(d2[np.arange(n), labels], 0.0)
    distortion = float((weights * point_d2).sum())
    return labels, centroids, distortion


def _best_per_run(points, weights, k, options, seed_offset):
    """Best-of-restarts k-means, one run after another (the loop the
    batched sweep replaced)."""
    best = None
    for restart in range(options.restarts):
        rng = np.random.default_rng(
            options.seed + 7919 * (seed_offset + restart)
        )
        init = _kmeans_pp_init_per_run(points, weights, k, rng)
        result = _lloyd_per_run(
            points, weights, init.copy(), options.max_iterations
        )
        if best is None or result[2] < best[2]:
            best = result
    return best


def _assert_sweep_matches_per_run(points, weights, options):
    """Every k's best (labels, centroids, distortion), compared as bytes."""
    ks = range(1, min(options.max_k, len(points)) + 1)
    got = _best_of_restarts(
        points, weights, [(k, 1000 * k) for k in ks], options
    )
    for k, result in zip(ks, got):
        want = _best_per_run(points, weights, k, options, 1000 * k)
        assert result[0].tobytes() == want[0].tobytes(), k
        assert result[1].tobytes() == want[1].tobytes(), k
        assert (
            np.float64(result[2]).tobytes()
            == np.float64(want[2]).tobytes()
        ), k


@st.composite
def _sweep_inputs(draw):
    """Grid points with duplicates (as ``_lloyd_inputs``), and SimPoint
    options small enough to reseed and cycle.  Weights are integers
    (instruction counts) or tenths, and points may have one column: in
    those two cases a reseeding iteration keeps the per-run masked
    sums, which the property checks too."""
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 16))
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
    ) / draw(st.sampled_from([1.0, 10.0]))
    options = SimPointOptions(
        max_k=draw(st.integers(1, 10)),
        restarts=draw(st.integers(1, 3)),
        max_iterations=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return points, weights, options


@settings(deadline=None, max_examples=200)
@given(_sweep_inputs())
def test_sweep_matches_per_run_kmeans_exactly(inputs):
    """Seeding every run together and iterating the live runs as one
    array program changes no bit of any k's best clustering."""
    _assert_sweep_matches_per_run(*inputs)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 80).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                min_size=n, max_size=n,
            ),
            min_size=1, max_size=4,
        )
    ),
    st.integers(0, 2**63 - 1),
)
def test_choice_replica_draws_what_generator_choice_draws(rows, seed):
    """``_choice`` picks the index ``Generator.choice(n, p=...)`` picks,
    zero-probability entries included, and consumes the same draws."""
    scores = np.array(rows)
    scores[:, -1] += scores.sum(axis=1) == 0  # every row needs a total
    probabilities = scores / scores.sum(axis=1)[:, None]
    replicas = [np.random.default_rng(seed + a) for a in range(len(rows))]
    got = _choice(probabilities, replicas)
    for a, row in enumerate(probabilities):
        numpy_rng = np.random.default_rng(seed + a)
        assert got[a] == numpy_rng.choice(len(row), p=row)
        assert replicas[a].random() == numpy_rng.random()


@pytest.mark.parametrize("k", range(1, 11))
def test_stacked_products_and_reductions_equal_per_run_ones(k):
    """The sweep stacks equal-k runs' ``points @ centroids.T`` into one
    3-D ``matmul`` and reduces stacked arrays along their last axis.
    Both must give each run's own bits; a numpy or BLAS upgrade that
    breaks either fails here.  (A product padded past k, or one flat
    product over every run's centroids, does not: numpy takes a gemv
    path for k = 1, and BLAS blocks columns differently.)"""
    rng = np.random.default_rng(k)
    for n in (1, 7, 60, 513):
        for dim in (1, 2, 15):
            points2 = 2.0 * rng.uniform(-1.0, 1.0, (n, dim))
            batch = rng.uniform(-1.0, 1.0, (3, 10, dim))[:, :k].copy()
            padded = np.zeros((3, 10, dim))
            padded[:, :k] = batch
            for stack in (batch, padded[:, :k]):
                products = np.matmul(points2, stack.transpose(0, 2, 1))
                squares = (stack**2).sum(axis=2)
                for run in range(3):
                    alone = np.ascontiguousarray(batch[run])
                    assert (
                        products[run].tobytes()
                        == (points2 @ alone.T).tobytes()
                    )
                    assert (
                        squares[run].tobytes()
                        == (alone**2).sum(axis=1).tobytes()
                    )
            values = rng.uniform(0.0, 5.0, (3, n))
            for run in range(3):
                assert values.sum(axis=1)[run] == values[run].sum()
                assert (
                    values.cumsum(axis=1)[run].tobytes()
                    == values[run].cumsum().tobytes()
                )


@pytest.mark.slow
@pytest.mark.parametrize("app", ["cb-gaussian-buffer", "sandra-proc-gpu"])
def test_sweep_replays_explore_against_per_run_kmeans(app, monkeypatch):
    """Every ``run_simpoint`` call of exploring a real app (scale 0.25,
    as perfbench runs it), replayed through the sweep and the per-run
    oracle, k by k.  ``cb-gaussian-buffer`` reseeds in most of its
    Lloyd iterations and cycles; both must occur in the replay."""
    from repro.sampling import (
        ALL_CONFIGS,
        build_feature_vectors,
        divide,
        explorer,
        explore_application,
    )
    from repro.sampling.pipeline import profile_workload
    from repro.workloads import load_app

    calls = []
    real = explorer.run_simpoint

    def spy(vectors, weights, options=None):
        calls.append((vectors, weights, options or SimPointOptions()))
        return real(vectors, weights, options)

    monkeypatch.setattr(explorer, "run_simpoint", spy)
    workload = profile_workload(load_app(app, scale=0.25))
    with obs_events.session() as log:
        explore_application(workload, jobs=1)
        names = {record.name for record in log.records()}
    # explore clusters each distinct (weights, matrix) of its 30
    # configurations once.
    problems = set()
    for config in ALL_CONFIGS:
        intervals = divide(workload.log, config.scheme)
        matrix = build_feature_vectors(workload.log, intervals, config.feature)
        problems.add((
            tuple(iv.instruction_count for iv in intervals),
            matrix.rows.tobytes(), matrix.cols.tobytes(),
            matrix.values.tobytes(),
        ))
    assert len(calls) == len(problems) < 30
    assert "simpoint.reseed" in names
    if app == "cb-gaussian-buffer":
        assert "simpoint.cycle" in names
    for vectors, weights, options in calls:
        points = project_features(
            vectors, options.projection_dim, options.seed
        )
        _assert_sweep_matches_per_run(
            points, np.asarray(weights, dtype=np.float64), options
        )
