"""SimPoint-style clustering and representative selection.

Reimplements the SimPoint 3.0 pipeline the paper uses (Hamerly et al.,
"SimPoint 3.0: Faster and more flexible program phase analysis", JILP
2005), including its support for **variable-size intervals**:

1. normalize each interval's sparse feature vector to relative
   frequencies;
2. randomly project to a low dimension (default 15, SimPoint's default);
3. run weighted k-means (weights = interval instruction counts) for a
   range of k with k-means++ seeding and multiple restarts (a Lloyd
   run caught in an exact cycle jumps straight to the state it would
   hold after ``max_iterations``: the same result, not an early stop);
4. score each k with the Bayesian Information Criterion and pick the
   smallest k whose BIC reaches a coverage fraction (default 0.9) of the
   observed BIC range;
5. per cluster, select the interval closest to the centroid as the
   *simulation point*, and report its **representation ratio** -- the
   cluster's share of total dynamic instructions.

SimPoint "allows users to specify the maximum number of clusters ... but
may return fewer than this maximum" -- both behaviours are preserved
(``max_k`` caps k; BIC may choose fewer).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.obs import events as _events
from repro.sampling.features import FeatureMatrix, FeatureVector


@dataclasses.dataclass(frozen=True)
class SimPointOptions:
    """Knobs of the SimPoint pipeline (defaults match SimPoint 3.0)."""

    max_k: int = 10
    projection_dim: int = 15
    restarts: int = 3
    max_iterations: int = 100
    bic_coverage: float = 0.9
    seed: int = 493575226  # SimPoint 3.0's documented default seed
    #: Bypass BIC model selection and force exactly this k (clamped to the
    #: interval count).  Used by the fixed-k ablation; None = BIC decides.
    fixed_k: int | None = None

    def __post_init__(self) -> None:
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        if self.projection_dim < 1:
            raise ValueError(
                f"projection_dim must be >= 1, got {self.projection_dim}"
            )
        if not 0.0 <= self.bic_coverage <= 1.0:
            raise ValueError(
                f"bic_coverage must be in [0, 1], got {self.bic_coverage}"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ValueError(f"fixed_k must be >= 1, got {self.fixed_k}")


@dataclasses.dataclass(frozen=True)
class SimPointResult:
    """Clustering outcome: the selected simulation points and weights."""

    k: int
    labels: np.ndarray  # (n_intervals,) cluster id per interval
    representatives: tuple[int, ...]  # interval index per cluster
    representation_ratios: tuple[float, ...]  # instr share per cluster
    bic_by_k: dict[int, float]
    projected: np.ndarray  # (n_intervals, dim) projected features

    def __post_init__(self) -> None:
        if len(self.representatives) != self.k:
            raise ValueError("one representative required per cluster")
        total = sum(self.representation_ratios)
        if self.representation_ratios and not 0.999 <= total <= 1.001:
            raise ValueError(
                f"representation ratios must sum to 1, got {total}"
            )


def project_features(
    vectors: Sequence[FeatureVector],
    dim: int,
    seed: int,
) -> np.ndarray:
    """Normalize sparse vectors and randomly project to ``dim`` dims.

    Every distinct key across all intervals gets a random direction in
    ``[-1, 1]^dim`` (SimPoint's projection), drawn in the matrix's
    column order -- first occurrence; an interval's projected vector is
    the frequency-weighted sum of its keys' directions.  Dicts are
    converted once by :meth:`FeatureMatrix.from_vectors`.
    """
    matrix = FeatureMatrix.from_vectors(vectors)
    rng = np.random.default_rng(seed)
    directions = rng.uniform(-1.0, 1.0, size=(max(1, len(matrix.keys)), dim))
    n = matrix.n_rows
    rows, cols, values = matrix.rows, matrix.cols, matrix.values
    # ``bincount`` adds each bin's weights in element order, from 0.0 --
    # the order the scalar loop visits a dict's keys -- so the row
    # totals and every projected coordinate are the same bits as
    # per-key accumulation.  Zero-total rows stay at the origin.
    totals = np.bincount(rows, weights=values, minlength=n)
    keep = totals[rows] > 0
    if not keep.all():
        rows, cols, values = rows[keep], cols[keep], values[keep]
    coeffs = values / totals[rows]
    # One dimension at a time: no temporary holds more than one value
    # per element.
    projected = np.empty((n, dim), dtype=np.float64)
    for d, direction in enumerate(np.ascontiguousarray(directions.T)):
        projected[:, d] = np.bincount(
            rows, weights=coeffs * direction[cols], minlength=n
        )
    return projected


def _kmeans_pp_init(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted k-means++ seeding."""
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


def _lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted Lloyd iterations; returns (labels, centroids, distortion).

    Equals the plain per-cluster loop bit for bit when the weights are
    integers (instruction counts) and points have two or more columns:
    mass sums are then exact in any order, and ``bincount`` adds each
    cluster's weighted points in the row order of a masked
    ``sum(axis=0)`` (which numpy sums pairwise for one column).  Each
    iteration is a deterministic function of (labels, centroids), so
    once that state repeats byte for byte the loop is in a cycle that
    never converges; it then runs only the iterations that land on the
    state iteration ``max_iterations`` would hold -- an exact jump, not
    an early stop.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    log = _events.get()
    labels = np.zeros(n, dtype=np.int64)
    norms = (points**2).sum(axis=1, keepdims=True)
    # Row-major (point, dimension) products, summed per cluster by one
    # ``bincount`` over the ``label * dim + dimension`` bins.
    weighted = (weights[:, None] * points).ravel()
    columns = np.arange(dim)

    def sq_distances() -> np.ndarray:
        """(n, k) squared distances to the current centroids."""
        return (
            norms - 2.0 * points @ centroids.T + (centroids**2).sum(axis=1)
        )

    seen: dict[bytes, int] | None = {}
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
                # Re-seed an empty cluster at the farthest point, measured
                # against the centroids *as updated so far this
                # iteration*: distances from before the update are stale
                # for clusters updated earlier in this loop and could
                # reseed on a point that is now well covered.  The
                # vacated centroid itself is excluded -- it is the
                # position being replaced.
                current_d2 = sq_distances()
                current_d2[:, j] = np.inf
                farthest = int(current_d2.min(axis=1).argmax())
                centroids[j] = points[farthest]
                new_labels[farthest] = j
                if log.enabled:
                    log.debug("simpoint.reseed", cluster=j, point=farthest)
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
            if log.enabled:
                log.debug(
                    "simpoint.cycle", k=k, period=period,
                    skipped=max_iterations - end,
                )
    d2 = sq_distances()
    point_d2 = np.maximum(d2[np.arange(n), labels], 0.0)
    distortion = float((weights * point_d2).sum())
    return labels, centroids, distortion


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    options: SimPointOptions,
    seed_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``restarts`` weighted k-means."""
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for restart in range(options.restarts):
        rng = np.random.default_rng(
            options.seed + 7919 * (seed_offset + restart)
        )
        init = _kmeans_pp_init(points, weights, k, rng)
        labels, centroids, distortion = _lloyd(
            points, weights, init.copy(), options.max_iterations
        )
        if best is None or distortion < best[2]:
            best = (labels, centroids, distortion)
    assert best is not None
    return best


def bic_score(
    points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    distortion: float,
) -> float:
    """Pelleg-Moore BIC for a weighted clustering.

    Interval weights are renormalized so that total mass equals the number
    of intervals -- keeping the parameter penalty on the same footing as
    the likelihood regardless of the (scaled) instruction volumes.
    """
    n, d = points.shape
    k = centroids.shape[0]
    mass = weights / weights.sum() * n
    if n <= k:
        return float("-inf")
    variance = distortion / weights.sum() + 1e-12
    log_likelihood = 0.0
    for j in range(k):
        mask = labels == j
        nj = mass[mask].sum()
        if nj <= 0:
            continue
        log_likelihood += nj * np.log(nj / n)
    log_likelihood -= n * d / 2.0 * np.log(2.0 * np.pi * variance)
    log_likelihood -= (n - k) * d / 2.0
    n_params = k * (d + 1)
    return float(log_likelihood - n_params / 2.0 * np.log(n))


def run_simpoint(
    vectors: Sequence[FeatureVector],
    weights: Sequence[int] | np.ndarray,
    options: SimPointOptions | None = None,
) -> SimPointResult:
    """Full SimPoint pipeline over one application's intervals."""
    options = options or SimPointOptions()
    if len(vectors) == 0:
        raise ValueError("no intervals to cluster")
    weights_arr = np.asarray(weights, dtype=np.float64)
    if weights_arr.shape != (len(vectors),):
        raise ValueError(
            f"weights shape {weights_arr.shape} does not match "
            f"{len(vectors)} intervals"
        )
    if (weights_arr <= 0).any():
        raise ValueError("interval weights must be positive")

    points = project_features(vectors, options.projection_dim, options.seed)
    n = points.shape[0]
    max_k = min(options.max_k, n)

    candidates: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
    bic_by_k: dict[int, float] = {}
    if options.fixed_k is not None:
        ks: tuple[int, ...] = (min(options.fixed_k, n),)
    else:
        ks = tuple(range(1, max_k + 1))
    for k in ks:
        labels, centroids, distortion = weighted_kmeans(
            points, weights_arr, k, options, seed_offset=1000 * k
        )
        candidates[k] = (labels, centroids, distortion)
        bic_by_k[k] = bic_score(
            points, weights_arr, labels, centroids, distortion
        )

    if options.fixed_k is not None:
        chosen_k = ks[0]
    else:
        scores = np.array([bic_by_k[k] for k in ks])
        finite = scores[np.isfinite(scores)]
        if finite.size == 0:
            chosen_k = max_k
        else:
            low, high = finite.min(), finite.max()
            threshold = low + options.bic_coverage * (high - low)
            chosen_k = next(
                k
                for k in ks
                if np.isfinite(bic_by_k[k]) and bic_by_k[k] >= threshold
            )

    labels, centroids, _ = candidates[chosen_k]
    representatives: list[int] = []
    ratios: list[float] = []
    total_weight = float(weights_arr.sum())
    kept = 0
    final_labels = labels.copy()
    for j in range(chosen_k):
        mask = labels == j
        if not mask.any():
            continue
        cluster_points = points[mask]
        d2 = ((cluster_points - centroids[j]) ** 2).sum(axis=1)
        local = int(d2.argmin())
        global_idx = int(np.nonzero(mask)[0][local])
        representatives.append(global_idx)
        ratios.append(float(weights_arr[mask].sum()) / total_weight)
        final_labels[mask] = kept
        kept += 1

    return SimPointResult(
        k=kept,
        labels=final_labels,
        representatives=tuple(representatives),
        representation_ratios=tuple(ratios),
        bic_by_k=bic_by_k,
        projected=points,
    )
