"""repro.faults: plans, deterministic injection, retries, degradation.

The robustness acceptance tests: a seeded plan replays identical fault
sequences across runs, transient storms are retried away or surfaced
as flagged partial profiles (never uncaught exceptions), the
``faults.injected.*`` / ``faults.recovered.*`` counters reach the
telemetry export, and with faults disabled every hook is a no-op.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.driver.driver import GPUDriver
from repro.driver.jit import KernelSource
from repro.faults import (
    DISABLED,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedOutOfResources,
    RetryPolicy,
    SITES,
    TRANSIENT_SITES,
    retry_transient,
)
from repro.gpu.device import HD4000
from repro.gpu.execution import GPUDevice
from repro.parallel.cache import ProfileCache
from repro.sampling.explorer import ALL_CONFIGS
from repro.sampling.pipeline import explore_application, profile_workload
from repro.telemetry import to_chrome_trace

from conftest import FAST_OPTIONS, SMALL_SPEC, build_tiny_kernel

#: A zero-sleep policy so retry-heavy tests stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=4, base_delay_seconds=0.0)


# -- fault plans --------------------------------------------------------------


def test_plan_parse_and_round_trip():
    spec = "seed=42;jit.build=0.1;dispatch.resources=0.05:3;timeout=0.5"
    plan = FaultPlan.parse(spec)
    assert plan.seed == 42
    assert plan.dispatch_timeout_seconds == 0.5
    assert plan.rule_for("jit.build") == FaultRule("jit.build", 0.1)
    assert plan.rule_for("dispatch.resources") == FaultRule(
        "dispatch.resources", 0.05, max_injections=3
    )
    assert FaultPlan.parse(plan.to_spec()) == plan
    # Commas work as separators too.
    assert FaultPlan.parse("seed=1,event.lost=0.2").seed == 1


def test_plan_from_env(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv(faults.FAULTS_ENV, "seed=9;trace.truncate=0.5")
    plan = FaultPlan.from_env()
    assert plan is not None and plan.seed == 9
    assert plan.rule_for("trace.truncate").probability == 0.5


def test_plan_uniform_covers_transient_sites():
    plan = FaultPlan.uniform(0.10, seed=7)
    assert tuple(rule.site for rule in plan.rules) == TRANSIENT_SITES
    assert all(rule.probability == 0.10 for rule in plan.rules)


@pytest.mark.parametrize(
    "bad",
    [
        "no-such-site=0.1",
        "jit.build=1.5",
        "jit.build=0.1;jit.build=0.2",
        "timeout=0",
        "jit.build",
        "jit.build=0.1:-1",
        # numpy's SeedSequence would reject the seed at the first draw.
        "seed=-5;event.lost=0.5",
        "timeout=nan",
        "timeout=inf",
    ],
)
def test_plan_validation_rejects(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


def _mostly(good, bad):
    """``good`` nine times in ten, ``bad`` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


@st.composite
def _plan_specs(draw) -> str:
    """Mostly well-formed specs with edge values; sometimes junk."""
    odd = st.sampled_from(["", "x", "-0", "1e999", "nan", ":"])
    tokens = []
    if draw(st.booleans()):
        seed = st.integers(-(2**70), 2**70)
        tokens.append(f"seed={draw(_mostly(seed, odd))}")
    if draw(st.booleans()):
        timeout = st.floats(0.0, 10.0) | st.sampled_from([math.inf, math.nan])
        tokens.append(f"timeout={draw(_mostly(timeout, st.floats() | odd))}")
    for site in draw(st.lists(st.sampled_from(sorted(SITES)), unique=True)):
        probability = draw(_mostly(st.floats(0.0, 1.0), st.floats() | odd))
        cap = draw(_mostly(st.sampled_from(["", ":0", ":3"]),
                           st.sampled_from([":-1", ":x", ":"])))
        tokens.append(f"{site}={probability}{cap}")
    if draw(st.integers(0, 3)) == 0:
        tokens.append(draw(st.text(max_size=12)))
    tokens = draw(st.permutations(tokens))
    return draw(st.sampled_from([";", ","])).join(tokens)


@settings(max_examples=300, deadline=None)
@given(spec=_plan_specs() | st.text(max_size=40))
def test_plan_parse_accepts_or_raises_value_error(spec):
    """Any text parses into a plan whose draws work, or raises ValueError."""
    try:
        plan = FaultPlan.parse(spec)
    except ValueError:
        return
    injector = FaultInjector(plan)
    injector.begin_scope("run/fuzz/0")
    for site in SITES:
        injection = injector.draw(site)
        if injection is not None:
            injection.rng.uniform()


# -- the injector: determinism, replay, caps ----------------------------------


def _drive(injector):
    """A fixed scope/draw schedule; returns the decision stream."""
    decisions = []
    for scope in ("run/a/0", "timings/a/0", "run/a/0"):
        injector.begin_scope(scope)
        for _ in range(20):
            for site in ("jit.build", "event.lost"):
                injection = injector.draw(site)
                decisions.append(
                    None
                    if injection is None
                    else (injection.site, injection.ordinal)
                )
    return decisions


def test_injection_stream_is_deterministic():
    plan = FaultPlan(
        seed=99,
        rules=(FaultRule("jit.build", 0.3), FaultRule("event.lost", 0.5)),
    )
    first, second = FaultInjector(plan), FaultInjector(plan)
    assert _drive(first) == _drive(second)
    assert first.log == second.log
    assert first.log, "the schedule should inject at these probabilities"


def test_reentered_scope_replays_the_same_decisions():
    plan = FaultPlan(seed=99, rules=(FaultRule("event.lost", 0.5),))
    injector = FaultInjector(plan)
    decisions = _drive(injector)
    # The schedule enters "run/a/0" at positions [0:40] and again at
    # [80:120]; re-entering the scope must replay the stream exactly.
    assert decisions[0:40] == decisions[80:120]


def test_different_seeds_differ():
    rules = (FaultRule("event.lost", 0.5),)
    a = FaultInjector(FaultPlan(seed=1, rules=rules))
    b = FaultInjector(FaultPlan(seed=2, rules=rules))
    assert _drive(a) != _drive(b)


def test_max_injections_caps_total():
    plan = FaultPlan(
        seed=1, rules=(FaultRule("event.lost", 1.0, max_injections=1),)
    )
    injector = FaultInjector(plan)
    injector.begin_scope("s")
    assert injector.draw("event.lost") is not None
    assert injector.draw("event.lost") is None
    assert injector.injected == {"event.lost": 1}


def test_unruled_site_never_fires():
    injector = FaultInjector(FaultPlan(seed=1))
    injector.begin_scope("s")
    assert all(injector.draw("jit.build") is None for _ in range(50))
    assert injector.injected_total == 0


# -- disabled: zero-overhead no-ops -------------------------------------------


def test_disabled_is_the_default():
    assert faults.get() is DISABLED
    assert not faults.is_enabled()
    assert DISABLED.draw("jit.build") is None
    DISABLED.begin_scope("x")
    DISABLED.note_recovered("y")
    assert DISABLED.injected_total == 0


def test_session_restores_previous_injector():
    plan = FaultPlan(seed=1)
    with faults.session(plan) as outer:
        assert faults.get() is outer
        with faults.session(plan) as inner:
            assert faults.get() is inner
        assert faults.get() is outer
    assert faults.get() is DISABLED


def test_empty_plan_leaves_results_unchanged(small_app, small_workload):
    """Enabled-but-silent injection must not perturb any result."""
    with faults.session(FaultPlan(seed=123)) as injector:
        redone = profile_workload(small_app, trial_seed=3)
    assert injector.injected_total == 0
    assert redone.health.ok
    assert (
        redone.log.total_instructions
        == small_workload.log.total_instructions
    )
    assert len(redone.log.invocations) == len(small_workload.log.invocations)


# -- retries ------------------------------------------------------------------


def test_retry_backoff_delays():
    delays = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 4:
            raise InjectedOutOfResources("transient")
        return "ok"

    policy = RetryPolicy(
        max_attempts=4,
        base_delay_seconds=1.0,
        multiplier=2.0,
        max_delay_seconds=3.0,
    )
    assert retry_transient(flaky, policy=policy, sleep=delays.append) == "ok"
    assert delays == [1.0, 2.0, 3.0]  # exponential, capped


def test_retry_nontransient_passthrough():
    calls = {"n": 0}

    def boom():
        calls["n"] += 1
        raise ValueError("not transient")

    with pytest.raises(ValueError):
        retry_transient(boom, policy=FAST_RETRIES, sleep=lambda _s: None)
    assert calls["n"] == 1


def test_retry_exhaustion_reraises_last_error():
    calls = {"n": 0}

    def always():
        calls["n"] += 1
        raise InjectedOutOfResources("again")

    with pytest.raises(InjectedOutOfResources):
        retry_transient(always, policy=FAST_RETRIES, sleep=lambda _s: None)
    assert calls["n"] == FAST_RETRIES.max_attempts


def test_retry_notes_recovery_per_site():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise InjectedOutOfResources("once")
        return 1

    with faults.session(FaultPlan(seed=0)) as injector:
        value = retry_transient(
            flaky, policy=FAST_RETRIES, sleep=lambda _s: None
        )
    assert value == 1
    assert injector.recovered == {"dispatch.resources": 1}


# -- the driver's build retry -------------------------------------------------


def _sources():
    kernel = build_tiny_kernel("fk.k0")
    return {"fk.k0": KernelSource(name="fk.k0", body=kernel)}


def test_build_retry_recovers_capped_failures():
    plan = FaultPlan(
        seed=3, rules=(FaultRule("jit.build", 1.0, max_injections=2),)
    )
    with faults.session(plan) as injector:
        driver = GPUDriver(GPUDevice(HD4000), retry_policy=FAST_RETRIES)
        failed = driver.build_program(_sources())
    assert failed == ()
    assert injector.injected == {"jit.build": 2}
    assert injector.recovered == {"jit.build": 1}
    assert driver.binary("fk.k0") is not None


def test_build_exhaustion_returns_failed_kernels():
    plan = FaultPlan(seed=3, rules=(FaultRule("jit.build", 1.0),))
    with faults.session(plan):
        driver = GPUDriver(GPUDevice(HD4000), retry_policy=FAST_RETRIES)
        failed = driver.build_program(_sources())
    assert failed == ("fk.k0",)


# -- graceful degradation: flagged partial profiles ---------------------------


def test_lost_events_flag_partial_profile(small_app):
    plan = FaultPlan(seed=4, rules=(FaultRule("event.lost", 1.0),))
    with faults.session(plan):
        workload = profile_workload(small_app, trial_seed=3)
    assert not workload.health.ok
    assert workload.health.lost_events > 0
    assert any(f.startswith("lost_events:") for f in workload.health.flags)


def test_flaky_timings_counted(small_app):
    plan = FaultPlan(seed=4, rules=(FaultRule("timing.flaky", 1.0),))
    with faults.session(plan):
        workload = profile_workload(small_app, trial_seed=3)
    assert workload.health.flaky_timings == workload.timings.flaky_count
    assert workload.health.flaky_timings > 0


def test_exhausted_dispatches_drop_and_flag(small_app):
    plan = FaultPlan(seed=4, rules=(FaultRule("dispatch.resources", 0.9),))
    with faults.session(plan):
        workload = profile_workload(small_app, trial_seed=3)
    assert workload.health.dropped_dispatches > 0
    # Dropped dispatches vanish from the log, they do not corrupt it.
    assert 0 < len(workload.log.invocations) < SMALL_SPEC.n_invocations


def test_profile_cache_bypassed_under_faults(tmp_path, small_app):
    cache = ProfileCache(tmp_path)
    plan = FaultPlan(seed=9, rules=(FaultRule("event.lost", 1.0),))
    with faults.session(plan):
        profile_workload(small_app, trial_seed=3, cache=cache)
    assert not any(tmp_path.iterdir()), "faulted profiles must not persist"


# -- acceptance: seeded storms ------------------------------------------------


def test_identical_seeds_replay_identical_fault_sequences(small_app):
    """Two runs under the same plan inject the exact same fault stream."""
    plan = FaultPlan.uniform(0.2, seed=5, sites=tuple(SITES))
    runs = []
    for _ in range(2):
        with faults.session(plan) as injector:
            workload = profile_workload(small_app, trial_seed=3)
        runs.append((list(injector.log), workload.health))
    assert runs[0][0] == runs[1][0]
    assert runs[0][0], "a 20% storm over every site should inject"
    assert runs[0][1] == runs[1][1]


def test_transient_storm_sweep_completes_with_flagged_partials(mini_suite):
    """A seeded 10% storm over every site: the full mini-suite sweep
    finishes with zero uncaught exceptions, and every fault is either
    recovered, in ``ExplorationResult.errors``, or flagged in health."""
    plan = FaultPlan.uniform(0.10, seed=2026, sites=tuple(SITES))
    with faults.session(plan) as injector:
        for app in mini_suite:
            workload = profile_workload(app, trial_seed=0)
            exploration = explore_application(workload, options=FAST_OPTIONS)
            scored = len(exploration.results) + len(exploration.errors)
            assert scored == len(ALL_CONFIGS)
            if workload.health.ok:
                assert exploration.health is None
            else:
                assert exploration.health == workload.health
            for config, message in exploration.errors.items():
                assert config in ALL_CONFIGS and message
    assert injector.injected_total > 0
    assert injector.recovered_total > 0


# -- telemetry ----------------------------------------------------------------


def test_fault_counters_reach_the_telemetry_export():
    plan = FaultPlan(seed=1, rules=(FaultRule("jit.build", 1.0),))
    with telemetry.session() as tm:
        with faults.session(plan) as injector:
            injector.begin_scope("test")
            assert injector.draw("jit.build") is not None
            injector.note_recovered("jit.build")
        assert tm.counter_value("faults.injected.jit.build") == 1
        assert tm.counter_value("faults.recovered.jit.build") == 1
        names = {e["name"] for e in to_chrome_trace(tm)["traceEvents"]}
    assert "faults.injected.jit.build" in names
    assert "faults.recovered.jit.build" in names


def test_retry_traffic_counters():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise InjectedOutOfResources("transient")
        return 1

    with telemetry.session() as tm:
        retry_transient(flaky, policy=FAST_RETRIES, sleep=lambda _s: None)
        with pytest.raises(InjectedOutOfResources):
            retry_transient(
                lambda: (_ for _ in ()).throw(InjectedOutOfResources("x")),
                policy=RetryPolicy(max_attempts=1),
                sleep=lambda _s: None,
            )
        assert tm.counter_value("faults.retry.attempts") == 2
        assert tm.counter_value("faults.retry.exhausted") == 1


# -- CLI ----------------------------------------------------------------------


def test_cli_env_plan_activates_and_summarizes(capsys, monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV, "seed=5;jit.build=0.25")
    status = cli_main(["suite"])
    out = capsys.readouterr().out
    assert status == 0
    assert "fault plan: seed=5" in out
    assert "fault injection (seed 5)" in out
