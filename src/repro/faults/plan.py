"""Fault plans: which sites misbehave, how often, under which seed.

GT-Pin profiles *native* runs, and native stacks misbehave: driver JIT
builds fail, allocations return ``CL_OUT_OF_RESOURCES``, completion
events get lost, trace-buffer flushes truncate (Section III's shared
CPU/GPU buffer is exactly such a failure point).  A :class:`FaultPlan`
describes a reproducible storm of those failures: a seed plus one
:class:`FaultRule` per *site* (a named hook threaded into the driver,
runtime, GT-Pin, and sampling layers -- see :data:`SITE_SPECS`).

Because injection decisions are pure functions of
``(plan seed, scope, site, ordinal)`` -- see
:mod:`repro.faults.injector` -- every failure mode a plan can produce
is a deterministic, replayable test case.
"""

from __future__ import annotations

import dataclasses
import math
import os

#: Environment variable carrying a fault-plan spec (same format as
#: :meth:`FaultPlan.parse`); the CLI's ``--faults`` flag overrides it.
FAULTS_ENV = "REPRO_FAULTS"


@dataclasses.dataclass(frozen=True)
class SiteSpec:
    """One injectable fault site: where it lives and how it fails."""

    name: str
    layer: str
    transient: bool
    description: str


#: The fault taxonomy.  ``transient`` sites raise retryable errors (the
#: bounded-backoff policy in :mod:`repro.faults.retry` recovers them);
#: the rest silently damage data and are surfaced through
#: :class:`~repro.faults.health.ProfileHealth` flags instead.
SITE_SPECS: tuple[SiteSpec, ...] = (
    SiteSpec(
        "jit.build", "driver", True,
        "transient JIT failure compiling a kernel (CL_BUILD_PROGRAM_FAILURE)",
    ),
    SiteSpec(
        "alloc.buffer", "opencl", True,
        "buffer/image allocation OOM (CL_MEM_OBJECT_ALLOCATION_FAILURE)",
    ),
    SiteSpec(
        "dispatch.resources", "opencl", True,
        "transient CL_OUT_OF_RESOURCES submitting a kernel dispatch",
    ),
    SiteSpec(
        "dispatch.hang", "opencl", True,
        "dispatch exceeds the per-dispatch timeout and is cancelled",
    ),
    SiteSpec(
        "event.lost", "opencl", False,
        "kernel-complete event lost; the invocation's timing reads zero",
    ),
    SiteSpec(
        "event.late", "opencl", False,
        "kernel-complete event delivered late; the timing is inflated",
    ),
    SiteSpec(
        "trace.corrupt", "gtpin", False,
        "one trace record's counters are scrambled in the shared buffer",
    ),
    SiteSpec(
        "trace.truncate", "gtpin", False,
        "a trace-buffer flush truncates; tail records are lost",
    ),
    SiteSpec(
        "timing.flaky", "cofluent", False,
        "an SPI timing read glitches (sample drops to zero or spikes)",
    ),
    SiteSpec(
        "sampling.config", "sampling", True,
        "transient failure scoring one exploration configuration",
    ),
)

SITES: dict[str, SiteSpec] = {spec.name: spec for spec in SITE_SPECS}

#: Sites whose failures are retryable (the "10% transient faults" class).
TRANSIENT_SITES: tuple[str, ...] = tuple(
    spec.name for spec in SITE_SPECS if spec.transient
)

#: Sites that damage data instead of raising (degradation-only class).
DEGRADATION_SITES: tuple[str, ...] = tuple(
    spec.name for spec in SITE_SPECS if not spec.transient
)


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """Inject at ``site`` with ``probability`` per opportunity.

    ``max_injections`` caps the total injections from this rule (handy
    for "exactly one build failure" test cases); ``None`` means
    unlimited.
    """

    site: str
    probability: float
    max_injections: int | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {known}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.max_injections is not None and self.max_injections < 0:
            raise ValueError(
                f"max_injections must be >= 0, got {self.max_injections}"
            )


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seed-driven set of fault rules, one per site at most."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    #: Dispatches whose (simulated) completion exceeds this are cancelled
    #: and retried when a ``dispatch.hang`` fault fires.
    dispatch_timeout_seconds: float = 0.25

    def __post_init__(self) -> None:
        sites = [rule.site for rule in self.rules]
        duplicates = {s for s in sites if sites.count(s) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate fault rules for sites: {sorted(duplicates)}"
            )
        if self.seed < 0:
            # numpy's SeedSequence takes only non-negative entropy; the
            # first draw would fail in the middle of a run.
            raise ValueError(f"fault-plan seed must be >= 0, got {self.seed}")
        if not 0 < self.dispatch_timeout_seconds < math.inf:
            raise ValueError(
                "dispatch_timeout_seconds must be positive and finite, got "
                f"{self.dispatch_timeout_seconds}"
            )

    def rule_for(self, site: str) -> FaultRule | None:
        for rule in self.rules:
            if rule.site == site:
                return rule
        return None

    # -- constructors --------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        probability: float,
        seed: int = 0,
        sites: tuple[str, ...] = TRANSIENT_SITES,
    ) -> "FaultPlan":
        """One rule per site at the same probability (e.g. the 10%
        transient-fault storm the robustness tests run under)."""
        return cls(
            seed=seed,
            rules=tuple(FaultRule(site, probability) for site in sites),
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``--faults`` / ``REPRO_FAULTS`` spec format.

        ``;``- or ``,``-separated tokens: ``seed=N``, ``timeout=S``, and
        ``<site>=<probability>`` (optionally ``<site>=<prob>:<max>`` to
        cap injections).  Example::

            seed=42;jit.build=0.1;dispatch.resources=0.05:3
        """
        seed = 0
        timeout = 0.25
        rules: list[FaultRule] = []
        for token in spec.replace(",", ";").split(";"):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ValueError(
                    f"malformed fault-plan token {token!r} "
                    "(expected key=value)"
                )
            key, _, value = token.partition("=")
            key, value = key.strip(), value.strip()
            if key == "seed":
                seed = int(value)
            elif key == "timeout":
                timeout = float(value)
            else:
                cap: int | None = None
                if ":" in value:
                    value, _, raw_cap = value.partition(":")
                    cap = int(raw_cap)
                rules.append(FaultRule(key, float(value), cap))
        return cls(
            seed=seed, rules=tuple(rules), dispatch_timeout_seconds=timeout
        )

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The env-configured plan, or ``None`` when unset/empty."""
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        return cls.parse(raw)

    def to_spec(self) -> str:
        """The :meth:`parse`-compatible spec string for this plan."""
        tokens = [f"seed={self.seed}"]
        if self.dispatch_timeout_seconds != 0.25:
            tokens.append(f"timeout={self.dispatch_timeout_seconds:g}")
        for rule in self.rules:
            token = f"{rule.site}={rule.probability:g}"
            if rule.max_injections is not None:
                token += f":{rule.max_injections}"
            tokens.append(token)
        return ";".join(tokens)

    def describe(self) -> str:
        """One human-readable line per rule (CLI / docs output)."""
        lines = [f"fault plan: seed={self.seed}, "
                 f"dispatch timeout {self.dispatch_timeout_seconds:g}s"]
        for rule in self.rules:
            spec = SITES[rule.site]
            cap = (
                "" if rule.max_injections is None
                else f", at most {rule.max_injections}"
            )
            lines.append(
                f"  {rule.site} ({spec.layer}, "
                f"{'transient' if spec.transient else 'degradation'}): "
                f"p={rule.probability:g}{cap}"
            )
        return "\n".join(lines)
