"""W3C-traceparent-style trace context: one id for one logical request.

A serve job crosses four execution domains -- client process, daemon
queue, worker subprocess, simulation engine -- and each domain records
spans into its own registry.  What stitches them back into *one* trace
is a :class:`TraceContext`: a 128-bit ``trace_id`` naming the logical
request plus the ``parent_span_id`` the next domain's root spans should
hang under.  The wire form is the W3C ``traceparent`` header
(``00-<32 hex trace-id>-<16 hex parent-span>-01``), so any HTTP hop --
today the ``/v1/jobs`` submission -- carries it for free.

Propagation is deliberately minimal:

* :func:`activate` installs a context for the current thread (a
  ``with`` block); root spans opened while it is active inherit its
  ``trace_id`` and parent under its ``parent_span_id``.  Nested spans
  inherit from their parent span, so the per-span cost is one attribute
  read.
* Span ids are globally unique (see
  :class:`~repro.telemetry.spans.SpanCollector`'s random high word), so
  a context can reference a span in *another process* and the
  cross-process snapshot merge keeps the edge verbatim -- no remapping.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import re
import threading
from typing import Iterator

#: The only traceparent version we emit (and the one we accept).
TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})-"
    r"(?P<parent>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """One logical request: its trace id and the span to parent under."""

    trace_id: str  #: 32 lowercase hex chars
    parent_span_id: int | None = None


def new_trace_id() -> str:
    """A fresh random 128-bit trace id, lowercase hex."""
    return f"{random.getrandbits(128):032x}"


def format_traceparent(trace_id: str, parent_span_id: int | None) -> str:
    """The W3C wire form; a missing parent renders as all-zero."""
    parent = (parent_span_id or 0) & 0xFFFFFFFFFFFFFFFF
    return f"{TRACEPARENT_VERSION}-{trace_id}-{parent:016x}-01"


def parse_traceparent(header: str) -> TraceContext | None:
    """Parse a traceparent header; ``None`` when malformed.

    An all-zero parent field means "no parent yet" (the submitting side
    had no open span), mirroring the W3C convention that an all-zero
    ``parent-id`` is invalid as a *reference* -- we map it to ``None``.
    """
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None or match.group("version") == "ff":
        # W3C Trace Context forbids version ff.
        return None
    trace_id = match.group("trace_id")
    if trace_id == "0" * 32:
        return None
    parent = int(match.group("parent"), 16)
    return TraceContext(trace_id, parent if parent else None)


class _ThreadContext(threading.local):
    def __init__(self) -> None:
        self.context: TraceContext | None = None


_thread_state = _ThreadContext()


def current() -> TraceContext | None:
    """The context active on the calling thread, if any."""
    return _thread_state.context


@contextlib.contextmanager
def activate(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``context`` for the current thread for a ``with`` block.

    Root spans opened inside the block join ``context.trace_id`` and
    parent under ``context.parent_span_id``; on exit the previous
    context (usually ``None``) is restored.  ``activate(None)`` is a
    no-op block, so call sites can pass an optional context through
    without branching.
    """
    previous = _thread_state.context
    _thread_state.context = context if context is not None else previous
    try:
        yield _thread_state.context
    finally:
        _thread_state.context = previous


__all__ = [
    "TRACEPARENT_VERSION",
    "TraceContext",
    "activate",
    "current",
    "format_traceparent",
    "new_trace_id",
    "parse_traceparent",
]
