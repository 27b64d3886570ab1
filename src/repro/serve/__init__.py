"""Profiling-as-a-service: the long-running ``gtpin serve`` daemon.

The paper's economy argument -- one native GT-Pin profiling run scores
all 30 configurations -- pays off at fleet scale only when profiles are
shared across clients and process lifetimes.  This package turns the
one-shot CLI into a service:

* :mod:`repro.serve.protocol` -- the JSON job protocol (specs, states,
  views, validation);
* :mod:`repro.serve.queue` -- a job queue run by its own worker
  threads under one lock, with priorities, client-fair ordering,
  bounded backpressure, and per-job cancellation;
* :mod:`repro.serve.work` -- job execution over the existing pipeline
  (:func:`~repro.sampling.pipeline.profile_workload` and friends),
  served from the shared multi-tenant
  :class:`~repro.parallel.cache.ProfileCache`;
* :mod:`repro.serve.server` -- the stdlib HTTP daemon (same style as
  :mod:`repro.obs.live`), registered with the :class:`LiveHub` so
  ``/metrics``, ``/health``, and ``gtpin top`` show server state;
* :mod:`repro.serve.client` -- a stdlib client with backpressure-aware
  retry.

Start it with ``gtpin serve --port N``; see docs/serve.md.
"""

from repro.serve.client import QueueFullError, ServeClient, ServeError
from repro.serve.protocol import (
    JOB_KINDS,
    JobSpec,
    JobState,
    ProtocolError,
)
from repro.serve.queue import JobQueue, QueueFull, UnknownJob
from repro.serve.server import ServeDaemon

__all__ = [
    "JOB_KINDS",
    "JobQueue",
    "JobSpec",
    "JobState",
    "ProtocolError",
    "QueueFull",
    "QueueFullError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "UnknownJob",
]
