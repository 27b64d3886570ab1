"""The 30-configuration exploration and its two optimization policies.

Section V-B evaluates every (interval scheme x feature kind) combination
-- 3 x 10 = 30 configs -- per application.  The key observation enabling
Sections V-C/V-D: **one native profiling run suffices to score all 30
configs**, because every config is post-processing over the same
GT-Pin invocation log ("there is almost no additional overhead ... we
need to profile each application just once").

Two policies consume the exploration results:

* :func:`ExplorationResult.minimize_error` -- Section V-C / Figure 6: the
  per-application config with the smallest Eq. (1) error;
* :func:`ExplorationResult.co_optimize` -- Section V-D / Figure 7: the
  smallest-selection config whose error is below a threshold, falling
  back to the error-minimizing config when none qualifies.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro import faults, telemetry
from repro.cofluent.timing import TimingTrace
from repro.faults.errors import SweepTaskFault
from repro.faults.health import ProfileHealth
from repro.faults.retry import retry_transient
from repro.gtpin.tools.invocations import InvocationLog
from repro.parallel.pool import parallel_map, resolve_jobs
from repro.sampling.error import arrays_from_profile, spi_error_percent
from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    FeatureMatrix,
    feature_matrices,
)
from repro.sampling.intervals import (
    DEFAULT_APPROX_SIZE,
    Interval,
    IntervalScheme,
    divide,
)
from repro.sampling.selection import (
    Clustering,
    Selection,
    SelectionConfig,
    selection_from_simpoint,
)
from repro.sampling.simpoint import SimPointOptions, run_simpoint

#: All 30 configurations, interval-major (Figure 5's x-axis order).
ALL_CONFIGS: tuple[SelectionConfig, ...] = tuple(
    SelectionConfig(scheme, feature)
    for scheme in (
        IntervalScheme.SYNC,
        IntervalScheme.APPROX_100M,
        IntervalScheme.SINGLE_KERNEL,
    )
    for feature in ALL_FEATURE_KINDS
)


@dataclasses.dataclass(frozen=True)
class ConfigResult:
    """Outcome of one configuration on one application."""

    selection: Selection
    error_percent: float

    @property
    def config(self) -> SelectionConfig:
        return self.selection.config

    @property
    def selection_fraction(self) -> float:
        return self.selection.selection_fraction

    @property
    def simulation_speedup(self) -> float:
        return self.selection.simulation_speedup


class ExplorationError(RuntimeError):
    """Raised when *every* configuration of an exploration failed."""


@dataclasses.dataclass(frozen=True)
class ExplorationResult:
    """All configuration outcomes for one application.

    ``errors`` maps any configuration whose evaluation raised to a
    one-line description; a failed config never kills the sweep, it is
    just absent from ``results``.
    """

    application_name: str
    results: Mapping[SelectionConfig, ConfigResult]
    total_instructions: int
    errors: Mapping[SelectionConfig, str] = dataclasses.field(
        default_factory=dict
    )
    #: The underlying workload's fault-degradation record, when the
    #: exploration ran over a flagged partial profile.
    health: ProfileHealth | None = None

    def __getitem__(self, config: SelectionConfig) -> ConfigResult:
        return self.results[config]

    def minimize_error(self) -> ConfigResult:
        """Section V-C: the error-minimizing configuration.

        Ties break toward the smaller selection (cheaper to simulate).
        """
        return min(
            self.results.values(),
            key=lambda r: (r.error_percent, r.selection_fraction),
        )

    def co_optimize(self, error_threshold_percent: float) -> ConfigResult:
        """Section V-D: smallest selection with error below the threshold.

        "If no configuration has an error below the specified threshold,
        we choose the configuration with the smallest error, regardless
        of selection size."
        """
        eligible = [
            r
            for r in self.results.values()
            if r.error_percent <= error_threshold_percent
        ]
        if not eligible:
            return self.minimize_error()
        return min(eligible, key=lambda r: r.selection_fraction)


def _describe(exc: BaseException) -> str:
    """The one-line description a failed configuration is recorded as."""
    if isinstance(exc, _SharedFailure):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


class _SharedFailure(Exception):
    """A featurization or clustering that failed in a pool task; its
    message is the original exception's description."""


def _content_key(matrix: FeatureMatrix) -> bytes:
    """A digest of everything :func:`run_simpoint` reads of a matrix.

    Projection draws one direction per key id and reads the elements,
    never the key labels, so matrices equal in (rows, cols, values,
    row and key counts) cluster the same under the same weights.
    """
    digest = hashlib.sha256(f"{matrix.n_rows}/{len(matrix.keys)}".encode())
    for array in (matrix.rows, matrix.cols, matrix.values):
        digest.update(array.tobytes())
    return digest.digest()


def _cluster_kinds(
    log: InvocationLog,
    intervals: Sequence[Interval],
    kinds: Sequence[FeatureKind],
    weighted: bool,
    options: SimPointOptions | None,
) -> Iterator[tuple[FeatureKind, Clustering | Exception]]:
    """Each kind's clustering over one division, in order.

    Matrices are built one at a time (:func:`feature_matrices`) and
    clustered once per distinct content; every kind with that content
    gets the same clustering, or the same exception.  A featurization
    that raises ends the iteration.
    """
    tm = telemetry.get()
    weights = [iv.instruction_count for iv in intervals]
    matrices = feature_matrices(log, intervals, kinds, weighted)
    clusterings: dict[bytes, Clustering | Exception] = {}
    for kind in kinds:
        with tm.span("select.featurize", category="sampling", feature=kind.value):
            matrix = next(matrices)
        key = _content_key(matrix)
        if key not in clusterings:
            with tm.span(
                "select.cluster", category="sampling",
                intervals=len(intervals),
            ):
                try:
                    result = run_simpoint(matrix, weights, options)
                except Exception as exc:
                    clusterings[key] = exc
                else:
                    clusterings[key] = Clustering(
                        result.representatives, result.representation_ratios
                    )
        yield kind, clusterings[key]


def _cluster_task(
    log: InvocationLog,
    divisions: Sequence[Sequence[Interval]],
    index: int,
    kinds: Sequence[FeatureKind],
    weighted: bool,
    options: SimPointOptions | None,
) -> dict[FeatureKind, Clustering | str]:
    """One pool task: :func:`_cluster_kinds` over ``divisions[index]``,
    failures as their descriptions (they cross a process boundary)."""
    return {
        kind: _describe(outcome) if isinstance(outcome, Exception) else outcome
        for kind, outcome in _cluster_kinds(
            log, divisions[index], kinds, weighted, options
        )
    }


class ExplorationPlan:
    """What the configurations of one :func:`explore` call share.

    Construction divides each scheme once; a division whose interval
    boundaries equal an earlier scheme's is that division.
    :meth:`run` featurizes and clusters every (division, kind) the
    configurations need, each distinct clustering problem once, in one
    task per (division, feature family), the largest division first.
    :func:`evaluate_config` then reads a configuration's intervals and
    clustering from the plan.  A failure is kept where it happened and
    raised for every configuration that reads it; a featurization that
    raises fails every kind of its task.  A plan lives only inside one
    call: nothing is kept across calls.
    """

    def __init__(
        self,
        log: InvocationLog,
        configs: Sequence[SelectionConfig],
        approx_size: int = DEFAULT_APPROX_SIZE,
        options: SimPointOptions | None = None,
        weighted_features: bool = True,
    ) -> None:
        self.log = log
        self.options = options
        self.weighted_features = weighted_features
        #: Distinct divisions, in the order their schemes first appear.
        self.divisions: list[list[Interval]] = []
        self._division_of: dict[IntervalScheme, int | Exception] = {}
        self._clusterings: dict[
            tuple[int, FeatureKind], Clustering | Exception
        ] = {}
        tm = telemetry.get()
        by_bounds: dict[tuple[int, ...], int] = {}
        families: dict[tuple[int, bool], list[FeatureKind]] = {}
        for config in configs:
            if config.scheme not in self._division_of:
                try:
                    with tm.span(
                        "select.divide", category="sampling",
                        scheme=config.scheme.value,
                    ):
                        intervals = divide(log, config.scheme, approx_size)
                except Exception as exc:
                    self._division_of[config.scheme] = exc
                else:
                    bounds = tuple(iv.stop for iv in intervals)
                    index = by_bounds.setdefault(bounds, len(self.divisions))
                    if index == len(self.divisions):
                        self.divisions.append(intervals)
                    self._division_of[config.scheme] = index
            index = self._division_of[config.scheme]
            if isinstance(index, int):
                kinds = families.setdefault(
                    (index, config.feature.is_block_based), []
                )
                if config.feature not in kinds:
                    kinds.append(config.feature)
        #: (division index, kinds) per task, the largest division first
        #: and, within one, the BB family first: it usually has five
        #: distinct problems to the KN family's four (a kernel that runs
        #: at one work size makes KN-GWS repeat KN).
        self.tasks: list[tuple[int, tuple[FeatureKind, ...]]] = sorted(
            ((index, tuple(kinds)) for (index, _), kinds in families.items()),
            key=lambda task: (
                -len(self.divisions[task[0]]), not task[1][0].is_block_based
            ),
        )

    def run(self, jobs: int = 1) -> None:
        """Cluster every task: in this process with ``jobs=1`` (or one
        task), else fanned out over a ``jobs``-worker pool."""
        if jobs == 1 or len(self.tasks) <= 1:
            for index, kinds in self.tasks:
                try:
                    for kind, outcome in _cluster_kinds(
                        self.log, self.divisions[index], kinds,
                        self.weighted_features, self.options,
                    ):
                        self._clusterings[index, kind] = outcome
                except Exception as exc:
                    for kind in kinds:
                        self._clusterings[index, kind] = exc
            return
        outcomes = parallel_map(
            _cluster_task,
            [
                (
                    self.log, self.divisions, index, kinds,
                    self.weighted_features, self.options,
                )
                for index, kinds in self.tasks
            ],
            jobs=jobs,
            label="explore.fanout",
        )
        for (index, kinds), outcome in zip(self.tasks, outcomes):
            for kind in kinds:
                value = (
                    outcome.value[kind] if outcome.ok
                    else outcome.error or "unknown error"
                )
                self._clusterings[index, kind] = (
                    _SharedFailure(value) if isinstance(value, str) else value
                )

    def intervals(self, scheme: IntervalScheme) -> list[Interval]:
        """The scheme's division; raises what dividing raised."""
        index = self._division_of[scheme]
        if isinstance(index, Exception):
            raise index
        return self.divisions[index]

    def clustering(self, config: SelectionConfig) -> Clustering:
        """The config's clustering; raises what building it raised."""
        index = self._division_of[config.scheme]
        if isinstance(index, Exception):
            raise index
        outcome = self._clusterings[index, config.feature]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def evaluate_config(
    config: SelectionConfig,
    log: InvocationLog,
    timings: TimingTrace,
    approx_size: int = DEFAULT_APPROX_SIZE,
    options: SimPointOptions | None = None,
    weighted_features: bool = True,
    application_name: str = "",
    *,
    plan: ExplorationPlan | None = None,
) -> ConfigResult:
    """Divide, featurize, cluster, select, and score one configuration.

    ``plan`` is :func:`explore`'s plan, which already holds the
    configuration's division and clustering (and was built from the
    same log, ``approx_size``, ``options`` and ``weighted_features``);
    without one, the configuration gets a one-config plan of its own.

    The ``sampling.config`` fault site models a sweep task dying on a
    transient (worker OOM, spurious signal): the gate retries with
    backoff, and on exhaustion the raised :class:`SweepTaskFault`
    propagates to :func:`explore`, which records the config under
    ``ExplorationResult.errors`` instead of killing the sweep.
    """
    fi = faults.get()
    if fi.enabled:
        def _gate() -> None:
            if fi.draw("sampling.config") is not None:
                raise SweepTaskFault(
                    f"transient sweep-task failure for config {config.label}"
                )

        retry_transient(_gate, site="sampling.config")
    tm = telemetry.get()
    with tm.span(
        "select.config", category="sampling", config=config.label
    ) as span:
        if plan is None:
            plan = ExplorationPlan(
                log, (config,), approx_size, options, weighted_features
            )
            plan.run()
        intervals = plan.intervals(config.scheme)
        if tm.enabled:
            tm.histogram(
                "sampling.interval_instructions", "instructions"
            ).observe_array(
                np.array([iv.instruction_count for iv in intervals])
            )
        clustering = plan.clustering(config)
        with tm.span("select.score", category="sampling"):
            selection = selection_from_simpoint(
                config, intervals, clustering, log.total_instructions
            )
            seconds, instructions = arrays_from_profile(log, timings)
            error = spi_error_percent(
                selection, seconds, instructions, workload=application_name
            )
        span.annotate(k=selection.k, error_percent=round(error, 4))
    if tm.enabled:
        tm.observe_hist(
            "sampling.config_seconds", span.duration_seconds, "s"
        )
    tm.inc("sampling.configs_evaluated")
    return ConfigResult(selection=selection, error_percent=error)


def explore(
    application_name: str,
    log: InvocationLog,
    timings: TimingTrace,
    configs: Sequence[SelectionConfig] = ALL_CONFIGS,
    approx_size: int = DEFAULT_APPROX_SIZE,
    options: SimPointOptions | None = None,
    weighted_features: bool = True,
    jobs: int | None = None,
    health: ProfileHealth | None = None,
) -> ExplorationResult:
    """Score every configuration from one profile + one timing trace.

    The configurations share one :class:`ExplorationPlan`: each distinct
    division is made once and each distinct clustering problem solved
    once, with ``jobs > 1`` (or ``REPRO_JOBS``) across a process pool.
    Every configuration is then scored in config order by
    :func:`evaluate_config`, so results are bit-identical to scoring
    each configuration alone, serial or parallel, and a configuration
    that raises lands in ``ExplorationResult.errors`` instead of
    killing the sweep.  Raises :class:`ExplorationError` only when *no*
    configuration succeeded.
    """
    configs = tuple(configs)
    n_jobs = resolve_jobs(jobs)
    if faults.is_enabled():
        # The injector is process-global state workers do not inherit;
        # injection runs serial so every draw stays deterministic.
        n_jobs = 1
    tm = telemetry.get()
    results: dict[SelectionConfig, ConfigResult] = {}
    errors: dict[SelectionConfig, str] = {}
    with tm.span(
        "explore.configs", category="sampling",
        app=application_name, configs=len(configs), jobs=n_jobs,
    ):
        plan = ExplorationPlan(
            log, configs, approx_size, options, weighted_features
        )
        plan.run(n_jobs)
        for config in configs:
            try:
                results[config] = evaluate_config(
                    config, log, timings, approx_size, options,
                    weighted_features, application_name, plan=plan,
                )
            except Exception as exc:
                errors[config] = _describe(exc)
        if errors:
            tm.inc("sampling.config_failures", len(errors))
    if not results:
        detail = "; ".join(
            f"{config.label}: {error}" for config, error in errors.items()
        )
        raise ExplorationError(
            f"every configuration failed for {application_name!r}: {detail}"
        )
    return ExplorationResult(
        application_name=application_name,
        results=results,
        total_instructions=log.total_instructions,
        errors=errors,
        health=health,
    )


@dataclasses.dataclass(frozen=True)
class ThresholdSweepPoint:
    """One point of Figure 7: a threshold's cross-app average outcome."""

    threshold_percent: float | None  #: None = pure error-minimizing policy
    mean_error_percent: float
    mean_speedup: float

    @property
    def label(self) -> str:
        if self.threshold_percent is None:
            return "min-error"
        return f"<= {self.threshold_percent:g}%"


def threshold_sweep(
    explorations: Iterable[ExplorationResult],
    thresholds: Sequence[float] = (0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> list[ThresholdSweepPoint]:
    """Figure 7's sweep: min-error policy plus each error threshold."""
    explorations = list(explorations)
    if not explorations:
        raise ValueError("threshold_sweep needs at least one exploration")
    points: list[ThresholdSweepPoint] = []

    chosen = [e.minimize_error() for e in explorations]
    points.append(
        ThresholdSweepPoint(
            threshold_percent=None,
            mean_error_percent=float(
                np.mean([c.error_percent for c in chosen])
            ),
            mean_speedup=float(
                np.mean([c.simulation_speedup for c in chosen])
            ),
        )
    )
    for threshold in thresholds:
        chosen = [e.co_optimize(threshold) for e in explorations]
        points.append(
            ThresholdSweepPoint(
                threshold_percent=threshold,
                mean_error_percent=float(
                    np.mean([c.error_percent for c in chosen])
                ),
                mean_speedup=float(
                    np.mean([c.simulation_speedup for c in chosen])
                ),
            )
        )
    return points
