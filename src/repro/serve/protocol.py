"""The ``gtpin serve`` JSON protocol: job specs, states, and views.

Everything that crosses the HTTP boundary lives here so the server,
the client, and the tests agree on one schema:

* a **job spec** is the client's request -- what to run (``kind`` +
  application + parameters) and how urgently (``priority``);
* a **job state** is one of the five lifecycle states below; the three
  terminal ones are exactly the states from which a job never moves
  again, which is what "zero lost jobs" quantifies over;
* a **job view** is the wire representation of one job at one moment:
  spec + state + timestamps + (on completion) the result or error.

Validation raises :class:`ProtocolError`, which the server maps to a
400 response; nothing in this module touches the network.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.gpu.providers import known_device_tokens, resolve_device
from repro.workloads import SUITE_NAMES

#: What a job can ask the daemon to run.  Each kind starts from the same
#: cached profiling pass (the paper's "profile once" economy): profile
#: stops there, the others post-process the profile further.
JOB_KINDS = ("profile", "select", "explore", "simulate")

#: Canonical device tokens (mirrors the CLI's ``--device`` registry
#: resolution; any token ``resolve_device`` accepts is a valid spec).
DEVICE_NAMES = known_device_tokens()

#: Priority band: higher runs earlier; the band is clamped-checked so a
#: client cannot starve everyone with priority=10**9.
PRIORITY_MIN, PRIORITY_MAX = -100, 100


class ProtocolError(ValueError):
    """A malformed or out-of-range job spec (HTTP 400)."""


class JobState:
    """Lifecycle states (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    #: States a job never leaves; every submitted job must reach one.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One validated job request."""

    kind: str
    app: str
    scale: float = 1.0
    device: str = "hd4000"
    seed: int = 0
    scheme: str = "sync"
    feature: str = "BB"
    priority: int = 0
    #: Worker processes for the job's own parallel stages (explore);
    #: 1 keeps per-job work serial so daemon slots stay fair.
    jobs: int = 1
    #: Free-form client identity; fairness interleaves across clients.
    client: str = "anon"
    #: W3C-style trace context from the submitting side ("" = none);
    #: see :mod:`repro.telemetry.context`.  Carried in the spec (and
    #: accepted from the ``traceparent`` HTTP header) so the daemon can
    #: parent the job's whole execution under the client's span.
    traceparent: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ProtocolError(
                f"kind must be one of {JOB_KINDS}, got {self.kind!r}"
            )
        if self.app not in SUITE_NAMES:
            raise ProtocolError(f"unknown application {self.app!r}")
        if not 0.0 < float(self.scale) <= 4.0:
            raise ProtocolError(
                f"scale must be in (0, 4], got {self.scale!r}"
            )
        try:
            resolve_device(self.device)
        except KeyError:
            raise ProtocolError(
                f"unknown device {self.device!r}; known devices: "
                + ", ".join(DEVICE_NAMES)
            ) from None
        if not PRIORITY_MIN <= int(self.priority) <= PRIORITY_MAX:
            raise ProtocolError(
                f"priority must be in [{PRIORITY_MIN}, {PRIORITY_MAX}], "
                f"got {self.priority!r}"
            )
        if int(self.jobs) < 0:
            raise ProtocolError(
                f"jobs must be >= 0 (0 = all cores), got {self.jobs!r}"
            )
        # Scheme / feature names are validated lazily by the pipeline
        # enums; check eagerly so a bad spec is a 400, not a FAILED job.
        from repro.sampling import FeatureKind, IntervalScheme

        if self.scheme not in {s.value for s in IntervalScheme}:
            raise ProtocolError(f"unknown interval scheme {self.scheme!r}")
        if self.feature not in {f.value for f in FeatureKind}:
            raise ProtocolError(f"unknown feature kind {self.feature!r}")
        if self.traceparent:
            from repro.telemetry.context import parse_traceparent

            if parse_traceparent(self.traceparent) is None:
                raise ProtocolError(
                    f"malformed traceparent {self.traceparent!r} "
                    "(expected 00-<32 hex>-<16 hex>-<2 hex>)"
                )

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Build and validate a spec from a decoded request body."""
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProtocolError(f"unknown spec field(s): {', '.join(unknown)}")
        if "kind" not in payload or "app" not in payload:
            raise ProtocolError("job spec requires 'kind' and 'app'")
        kwargs: dict[str, Any] = dict(payload)
        try:
            if "scale" in kwargs:
                kwargs["scale"] = float(kwargs["scale"])
            for field in ("seed", "priority", "jobs"):
                if field in kwargs:
                    kwargs[field] = int(kwargs[field])
            for field in ("kind", "app", "device", "scheme", "feature",
                          "client", "traceparent"):
                if field in kwargs and not isinstance(kwargs[field], str):
                    raise ProtocolError(
                        f"{field} must be a string, got {kwargs[field]!r}"
                    )
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(f"malformed job spec: {exc}") from None
        return cls(**kwargs)

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def job_view(
    job_id: str,
    spec: JobSpec,
    state: str,
    *,
    submitted_unix: float,
    started_unix: float | None = None,
    ended_unix: float | None = None,
    result: Mapping[str, Any] | None = None,
    error: str | None = None,
    cancel_requested: bool = False,
    trace_id: str = "",
) -> dict[str, Any]:
    """The wire representation of one job at one moment."""
    view: dict[str, Any] = {
        "id": job_id,
        "state": state,
        "spec": spec.to_json(),
        "submitted_unix": submitted_unix,
        "started_unix": started_unix,
        "ended_unix": ended_unix,
        "cancel_requested": cancel_requested,
    }
    if trace_id:
        view["trace_id"] = trace_id
    if result is not None:
        view["result"] = dict(result)
    if error is not None:
        view["error"] = error
    if started_unix is not None:
        view["queue_seconds"] = round(started_unix - submitted_unix, 6)
    if started_unix is not None and ended_unix is not None:
        view["run_seconds"] = round(ended_unix - started_unix, 6)
    return view
