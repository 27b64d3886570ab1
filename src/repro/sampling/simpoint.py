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

Step 3's (k, restart) runs -- 30 for the defaults -- are independent,
so one call runs them as one array program (:func:`_best_of_restarts`):
seeding advances every run one centre at a time, and Lloyd iterates
the live runs together (one stacked product per k, one ``argmin``, one
``bincount`` each for masses and centroid sums, one convergence test),
while each run keeps its own convergence exit, empty-cluster reseeds
and cycle jump.  Every label, centroid and distortion keeps the bits a
lone run gives: a run's products stay BLAS calls of its own shape,
reductions run along the same contiguous axis, ``bincount`` adds each
(run, cluster, column) bin in row order (exact for integer weights;
other weights keep the masked sums when reseeding), and each run draws
from its own generator through a replica of ``Generator.choice``.
``docs/performance.md`` gives the argument; the tests keep the per-run
code as the oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
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


#: Element budget of one batch of Lloyd runs: a batch's largest
#: temporaries hold at most this many (run, point, column) values.
#: Fixed, so a sweep's peak memory does not grow with its run count.
_BATCH_ELEMENTS = 1 << 16


def _choice(
    probabilities: np.ndarray, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """``rngs[a].choice(n, p=probabilities[a])`` for every row ``a``.

    The draw numpy makes -- its cumulative sum, renormalized by the last
    entry, searched right-sided at one ``random()`` -- without its
    argument checks, which cost more than the draw: callers pass finite,
    non-negative rows that sum to 1 up to rounding.
    """
    cdf = probabilities.cumsum(axis=1)
    cdf /= cdf[:, -1:].copy()
    uniform = np.array([rng.random() for rng in rngs])
    return (cdf <= uniform[:, None]).sum(axis=1)


def _kmeans_pp_runs(
    points: np.ndarray,
    weights: np.ndarray,
    ks: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Weighted k-means++ seeding of several runs, one centre at a time.

    ``ks`` is non-increasing, so the runs still choosing a j-th centre
    are a prefix.  Run ``a`` draws only from ``rngs[a]``, in the order a
    lone run would.  Returns (runs, ks[0], dim) centroids; rows past a
    run's k are zero.  The squared distances from a chosen point to
    every point are computed once per distinct point value, however
    many runs (or duplicate points) choose it: each row depends on that
    value alone.
    """
    n, dim = points.shape
    centroids = np.zeros((len(ks), ks[0], dim))
    cache: dict[bytes, np.ndarray] = {}

    def distances(chosen: np.ndarray) -> np.ndarray:
        out = []
        for point in points[chosen]:
            key = point.tobytes()
            row = cache.get(key)
            if row is None:
                row = cache[key] = ((points - point) ** 2).sum(axis=1)
            out.append(row)
        return np.array(out)

    def draw(scores: np.ndarray) -> np.ndarray:
        """One centre per row, chosen with probability ∝ its score."""
        totals = scores.sum(axis=1)
        if not np.isfinite(totals).all():
            raise ValueError("k-means++ seeding scores are not finite")
        positive = totals > 0
        if positive.all():
            return _choice(scores / totals[:, None], rngs[: len(scores)])
        # A row whose points all sit on its centres draws uniformly.
        chosen = np.empty(len(scores), dtype=np.int64)
        for a in np.flatnonzero(~positive).tolist():
            chosen[a] = rngs[a].integers(n)
        drawn = np.flatnonzero(positive)
        if drawn.size:
            chosen[drawn] = _choice(
                scores[drawn] / totals[drawn, None],
                [rngs[a] for a in drawn.tolist()],
            )
        return chosen

    chosen = draw(np.broadcast_to(weights, (len(ks), n)))
    centroids[:, 0] = points[chosen]
    closest = distances(chosen)
    for j in range(1, ks[0]):
        live = sum(k > j for k in ks)
        chosen = draw(closest[:live] * weights)
        centroids[:live, j] = points[chosen]
        np.minimum(closest[:live], distances(chosen), out=closest[:live])
    return centroids


def _lloyd_runs(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    ks: Sequence[int],
    max_iterations: int,
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Weighted Lloyd iterations of several runs as one array program.

    ``centroids`` is a C-contiguous (runs, ks[0], dim) array; run ``a``
    starts from its first ``ks[a]`` rows, and ``ks`` is non-increasing.
    Returns one (labels, centroids, distortion) per run, each the same
    bits the run gives alone.  Every iteration takes the live runs'
    distances (one product per run size), labels, masses and centroid
    sums together; a run leaves the batch when it converges or reaches
    its last iteration, reseeds its empty clusters on its own, and
    jumps exactly out of a cycle (module docstring).
    """
    n, dim = points.shape
    log = _events.get()
    points2 = 2.0 * points
    norms = (points**2).sum(axis=1, keepdims=True)
    columns = np.arange(dim)
    # Weights and weighted points once per run, for the bincounts; every
    # run's copy is the same, so a prefix serves the live runs.
    w_tiled = np.tile(weights, len(ks))
    x_tiled = np.tile((weights[:, None] * points).ravel(), len(ks))
    # A bincount mean equals the masked mean of the per-cluster loop
    # when every mass sum is exact (integer weights) and numpy sums the
    # masked rows in order (two or more columns); otherwise reseeding
    # iterations take every mean by mask, as the per-cluster loop does.
    bincount_means = (
        dim > 1 and not np.modf(weights)[0].any()
        and weights.sum() < 2.0**53
    )
    slots = list(range(len(ks)))
    ks = list(ks)
    results: list = [None] * len(ks)
    labels = np.zeros((len(ks), n), dtype=np.int64)
    ends = np.full(len(ks), max_iterations)
    seen: list[dict[bytes, int] | None] = [{} for _ in ks]
    done = np.zeros(len(ks), dtype=bool)
    # Padded columns (past a run's k) read +inf, so argmin never picks
    # them; real columns are rewritten every iteration.
    d2 = np.zeros((len(ks), n, ks[0]))
    runs, width = len(ks), ks[0]
    pad = np.arange(width) >= np.array(ks)[:, None]
    iteration = 0
    while True:
        # Equal-k runs share one stacked product: the same BLAS call per
        # run as a lone run's ``points2 @ centroids.T``.
        start = 0
        for k, members in itertools.groupby(ks):
            stop = start + len(list(members))
            cross = np.matmul(
                points2, centroids[start:stop, :k].transpose(0, 2, 1)
            )
            np.subtract(norms, cross, out=d2[start:stop, :, :k])
            start = stop
        csq = (centroids**2).sum(axis=2)
        csq[pad] = np.inf
        d2 += csq[:, None, :]
        if done.any():
            # Runs that finished last iteration: their distortion from
            # these distances, then they leave the batch.
            finished = np.flatnonzero(done)
            point_d2 = np.maximum(
                d2[finished[:, None], np.arange(n), labels[finished]], 0.0
            )
            distortions = (weights * point_d2).sum(axis=1).tolist()
            for a, distortion in zip(finished.tolist(), distortions):
                results[slots[a]] = (
                    labels[a].copy(), centroids[a, : ks[a]].copy(),
                    distortion,
                )
            keep = np.flatnonzero(~done)
            if not keep.size:
                return results
            slots = [slots[a] for a in keep.tolist()]
            seen = [seen[a] for a in keep.tolist()]
            ks = [ks[a] for a in keep.tolist()]
            runs, width = len(ks), ks[0]
            labels, ends, pad = labels[keep], ends[keep], pad[keep, :width]
            centroids = np.ascontiguousarray(centroids[keep, :width])
            d2 = d2[keep, :, :width]
        iteration += 1
        new_labels = d2.argmin(axis=2)
        bins = new_labels + (np.arange(runs) * width)[:, None]
        masses = np.bincount(
            bins.ravel(), weights=w_tiled[: runs * n],
            minlength=runs * width,
        ).reshape(runs, width)
        sums = np.bincount(
            (bins[:, :, None] * dim + columns).ravel(),
            weights=x_tiled[: runs * n * dim],
            minlength=runs * width * dim,
        ).reshape(runs, width, dim)
        filled = masses > 0
        means = sums / np.where(filled, masses, 1.0)[:, :, None]
        full = (filled | pad).all(axis=1)
        centroids = np.where(full[:, None, None], means, centroids)
        for a in np.flatnonzero(~full).tolist():
            # A run that emptied a cluster runs the per-cluster loop:
            # each empty cluster is reseeded at the point farthest from
            # the centroids *as updated so far this iteration* (stale
            # distances could pick a point an updated centroid now
            # covers), the vacated centroid excluded.  A later cluster
            # that a reseed robbed of a point takes its masked mean;
            # every other cluster its bincount mean, the same bits.
            cent, run_labels = centroids[a, : ks[a]], new_labels[a]
            mass, robbed = masses[a].tolist(), set()
            for j in range(ks[a]):
                if j in robbed or not bincount_means:
                    mask = run_labels == j
                    member_mass = weights[mask].sum()
                    if member_mass > 0:
                        cent[j] = (
                            weights[mask, None] * points[mask]
                        ).sum(axis=0) / member_mass
                        continue
                elif mass[j] > 0:
                    cent[j] = means[a, j]
                    continue
                current_d2 = norms - points2 @ cent.T + (cent**2).sum(axis=1)
                current_d2[:, j] = np.inf
                farthest = int(current_d2.min(axis=1).argmax())
                if run_labels[farthest] > j:
                    robbed.add(int(run_labels[farthest]))
                cent[j] = points[farthest]
                run_labels[farthest] = j
                if log.enabled:
                    log.debug("simpoint.reseed", cluster=j, point=farthest)
        converged = (new_labels == labels).all(axis=1)
        labels = new_labels
        for a in np.flatnonzero(~converged).tolist():
            states = seen[a]
            if states is None:
                continue
            first = states.setdefault(
                labels[a].tobytes() + centroids[a, : ks[a]].tobytes(),
                iteration,
            )
            if first < iteration:
                period = iteration - first
                ends[a] = iteration + (max_iterations - iteration) % period
                seen[a] = None
                if log.enabled:
                    log.debug(
                        "simpoint.cycle", k=ks[a], period=period,
                        skipped=max_iterations - int(ends[a]),
                    )
        done = converged | (ends <= iteration)


def _best_of_restarts(
    points: np.ndarray,
    weights: np.ndarray,
    specs: Sequence[tuple[int, int]],
    options: SimPointOptions,
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Best-of-``restarts`` clustering for each ``(k, seed_offset)``.

    Restart ``r`` seeds its generator with ``options.seed + 7919 *
    (seed_offset + r)``; ties keep the earliest restart.  Every run is
    seeded at once, largest k first, then iterated in batches of at
    most :data:`_BATCH_ELEMENTS` (run, point, column) values.
    """
    n, dim = points.shape
    runs = [
        (k, options.seed + 7919 * (offset + restart))
        for k, offset in specs
        for restart in range(options.restarts)
    ]
    order = sorted(range(len(runs)), key=lambda r: -runs[r][0])
    ks = [runs[r][0] for r in order]
    centroids = _kmeans_pp_runs(
        points, weights, ks,
        [np.random.default_rng(runs[r][1]) for r in order],
    )
    size = max(1, _BATCH_ELEMENTS // (n * max(dim, ks[0])))
    results: list = [None] * len(runs)
    for start in range(0, len(order), size):
        stop = start + size
        batch = _lloyd_runs(
            points, weights,
            np.ascontiguousarray(centroids[start:stop, : ks[start]]),
            ks[start:stop], options.max_iterations,
        )
        for r, result in zip(order[start:stop], batch):
            results[r] = result
    return [
        min(results[i : i + options.restarts], key=lambda res: res[2])
        for i in range(0, len(results), options.restarts)
    ]


def _lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted Lloyd iterations of one run from ``centroids``; returns
    (labels, centroids, distortion)."""
    k, dim = centroids.shape
    return _lloyd_runs(
        points, weights,
        np.array(centroids, dtype=np.float64).reshape(1, k, dim),
        [k], max_iterations,
    )[0]


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    options: SimPointOptions,
    seed_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``restarts`` weighted k-means."""
    return _best_of_restarts(points, weights, [(k, seed_offset)], options)[0]


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
    # A finite total of positive weights also rules out inf and nan.
    with np.errstate(over="ignore"):
        total = weights_arr.sum()
    if not ((weights_arr > 0).all() and np.isfinite(total)):
        raise ValueError("interval weights must be positive and finite")

    points = project_features(vectors, options.projection_dim, options.seed)
    n = points.shape[0]
    max_k = min(options.max_k, n)

    if options.fixed_k is not None:
        ks: tuple[int, ...] = (min(options.fixed_k, n),)
    else:
        ks = tuple(range(1, max_k + 1))
    candidates = dict(
        zip(
            ks,
            _best_of_restarts(
                points, weights_arr, [(k, 1000 * k) for k in ks], options
            ),
        )
    )
    bic_by_k = {
        k: bic_score(points, weights_arr, *candidates[k]) for k in ks
    }

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
