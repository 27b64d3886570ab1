"""``explore`` shares divisions and clusterings; every config is unchanged.

One exploration divides each scheme once and solves each distinct
clustering problem once (:class:`ExplorationPlan`).  These tests hold
it to independent :func:`evaluate_config` calls, config by config: on
random logs forced to repeat work in each way the plan shares it, under
a seeded fault plan, and (slow) on every suite application.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.cofluent.timing import KernelTiming, TimingTrace
from repro.faults.plan import FaultPlan, FaultRule
from repro.gtpin.tools.invocations import InvocationLog
from repro.isa.builder import KernelBuilder
from repro.isa.program import TripCount
from repro.sampling.explorer import (
    ALL_CONFIGS,
    ExplorationError,
    ExplorationPlan,
    evaluate_config,
    explore,
)
from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    build_feature_vectors,
    feature_matrices,
)
from repro.sampling.intervals import IntervalScheme, divide
from repro.sampling.pipeline import explore_application, profile_workload
from repro.sampling.simpoint import SimPointOptions
from repro.workloads import SUITE_NAMES, load_app

from test_properties_sampling import invocation_logs, sparse_logs

FAST_OPTIONS = SimPointOptions(max_k=4, restarts=2, max_iterations=20)

#: Large enough that a ~100M chunk never closes inside a sync interval,
#: so the ~100M division is the Sync division.
NEVER_SPLIT = 10**15


def _store_only_kernel(name: str, simd_width: int):
    """``build_tiny_kernel``'s three blocks, with the load dropped: no
    block reads memory."""
    kb = KernelBuilder(name, simd_width=simd_width, arg_names=("iters", "n"))
    with kb.block("prologue") as b:
        b.mov(exec_size=1)
        b.mov()
        b.alu("add", exec_size=1)
    with kb.loop(TripCount(base=0, arg="iters", scale=1.0)):
        with kb.block("body") as b:
            b.alu("add")
            b.alu("mul")
            b.store(bytes_per_channel=4)
    with kb.block("epilogue") as b:
        b.store(bytes_per_channel=4)
        b.control("ret")
    return kb.build()


_STORE_ONLY = {
    "pk.a": _store_only_kernel("pk.a", 16),
    "pk.b": _store_only_kernel("pk.b", 8),
}


@st.composite
def repeating_logs(draw):
    """A random log forced to repeat work three ways under
    ``NEVER_SPLIT``: the Sync and ~100M divisions coincide, every kernel
    runs at one work size (KN-GWS is KN, KN-ARGS-GWS is KN-ARGS), and no
    block reads memory (BB-(R+W) is BB-W)."""
    log = draw(st.one_of(invocation_logs(), sparse_logs()))
    profiles = []
    for p in log.invocations:
        arrays = _STORE_ONLY[p.kernel_name].arrays
        profiles.append(dataclasses.replace(
            p,
            global_work_size=64,
            instruction_count=int(p.block_counts @ arrays.instruction_counts),
            bytes_read=0,
            bytes_written=int(p.block_counts @ arrays.bytes_written),
        ))
    return InvocationLog(invocations=tuple(profiles), binaries=_STORE_ONLY)


def _timings(log: InvocationLog) -> TimingTrace:
    seconds = np.linspace(1e-4, 3e-4, len(log.invocations))
    return TimingTrace(
        program_name="plan",
        device_name="dev",
        trial_seed=0,
        timings=tuple(
            KernelTiming(i, p.kernel_name, float(seconds[i]), p.sync_epoch)
            for i, p in enumerate(log.invocations)
        ),
    )


def _independent(log, timings, approx_size, options=FAST_OPTIONS):
    """Every config scored alone; failures as ``explore`` records them."""
    results, errors = {}, {}
    for config in ALL_CONFIGS:
        try:
            results[config] = evaluate_config(
                config, log, timings, approx_size, options,
                application_name="plan",
            )
        except Exception as exc:
            errors[config] = f"{type(exc).__name__}: {exc}"
    return results, errors


def _explored(log, timings, approx_size, jobs, options=FAST_OPTIONS):
    try:
        result = explore(
            "plan", log, timings, approx_size=approx_size, options=options,
            jobs=jobs,
        )
    except ExplorationError as exc:
        return {}, str(exc)
    return dict(result.results), dict(result.errors)


@given(repeating_logs())
@settings(max_examples=20, deadline=None)
def test_explore_equals_independent_configs_on_repeating_logs(log):
    timings = _timings(log)
    plan = ExplorationPlan(log, ALL_CONFIGS, NEVER_SPLIT)
    sync, approx, single = (
        plan.intervals(scheme) for scheme in IntervalScheme
    )
    assert approx is sync and len(plan.divisions) <= 2
    for kinds in (
        (FeatureKind.KN, FeatureKind.KN_GWS),
        (FeatureKind.KN_ARGS, FeatureKind.KN_ARGS_GWS),
        (FeatureKind.BB_W, FeatureKind.BB_R_PLUS_W),
    ):
        a, b = feature_matrices(log, single, kinds)
        assert a.keys != b.keys or not a.keys
        for name in ("rows", "cols", "values"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    want_results, want_errors = _independent(log, timings, NEVER_SPLIT)
    for jobs in (1, 2):
        results, errors = _explored(log, timings, NEVER_SPLIT, jobs)
        assert list(results) == list(want_results)
        assert results == want_results
        if want_results:
            assert errors == want_errors
        else:
            for config, error in want_errors.items():
                assert f"{config.label}: {error}" in errors
    if any(p.instruction_count == 0 for p in log.invocations):
        # A zero-weight interval: one failed clustering, shared by every
        # Single config, each recording the same error.
        assert {want_errors[c] for c in ALL_CONFIGS[20:]} == {
            "ValueError: interval weights must be positive and finite"
        }


@given(
    st.one_of(invocation_logs(), sparse_logs()),
    st.sampled_from(list(IntervalScheme)),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_shared_block_pass_equals_one_kind_at_a_time(log, scheme, weighted):
    intervals = divide(log, scheme, approx_size=5_000)
    shared = list(feature_matrices(log, intervals, ALL_FEATURE_KINDS, weighted))
    for kind, matrix in zip(ALL_FEATURE_KINDS, shared, strict=True):
        alone = build_feature_vectors(log, intervals, kind, weighted)
        assert matrix.keys == alone.keys and matrix.n_rows == alone.n_rows
        for name in ("rows", "cols", "values"):
            got, want = getattr(matrix, name), getattr(alone, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_explore_under_sampling_config_faults_replays_per_config(
    small_workload,
):
    """One draw per config, in config order: the same results, errors
    and injected faults as scoring each config alone."""
    plan = FaultPlan(seed=29, rules=(FaultRule("sampling.config", 0.7),))
    log, timings = small_workload.log, small_workload.timings
    with faults.session(plan) as injector:
        injector.begin_scope("explore")
        results, errors = _explored(log, timings, 200_000, jobs=2)
        explored_log = list(injector.log)
    with faults.session(plan) as injector:
        injector.begin_scope("explore")
        want_results, want_errors = _independent(log, timings, 200_000)
        independent_log = list(injector.log)
    assert errors and results
    assert all("SweepTaskFault" in error for error in errors.values())
    assert results == want_results and errors == want_errors
    assert explored_log == independent_log


def test_explore_parent_memory_stays_small():
    """The parent holds no feature matrix: the pool tasks build them."""
    workload = profile_workload(load_app("cb-vision-facedetect", scale=0.25))
    tracemalloc.start()
    try:
        explore_application(workload, jobs=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.slow
def test_explore_shares_only_identical_problems_on_the_suite():
    for name in SUITE_NAMES:
        workload = profile_workload(load_app(name, scale=0.25))
        exploration = explore_application(workload, jobs=2)
        assert not exploration.errors, name
        for config in ALL_CONFIGS:
            alone = evaluate_config(
                config, workload.log, workload.timings,
                application_name=name,
            )
            assert exploration.results[config] == alone, (name, config.label)
