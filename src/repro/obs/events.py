"""Leveled structured event log, correlated with the telemetry trace.

Spans and counters describe the *shape* of a run; events describe its
*incidents*: a fault injected here, a dispatch dropped there, a profile
cache bypassed, an empty cluster reseeded.  Each event is one
:class:`EventRecord` -- a level, a dotted name, a wall-clock timestamp,
free-form scalar fields, and the id of the telemetry span that was open
when it fired -- so ``jq`` can answer "which kernel's span absorbed the
event.lost faults" without parsing prose.

The registry mirrors :mod:`repro.telemetry.registry` exactly: one
process-global active log, a no-op :data:`DISABLED_EVENTS` singleton by
default, ``enable()/disable()/session()`` to switch.  Emit sites guard
on ``log.enabled`` where they sit inside hot loops, so the off cost is
one attribute check.

Worker processes run their own session (every record travels back in
the task's final telemetry delta and the parent absorbs them in task
order -- see :mod:`repro.parallel.pool`), so the merged log is
complete under ``--jobs N``.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import json
import os
import threading
import time
from typing import IO, Any, Iterator

from repro import telemetry

#: Recognized severity levels, in increasing order.
LEVELS = ("DEBUG", "INFO", "WARN", "ERROR")

#: Ring-buffer capacity override (events kept in memory per log).
CAPACITY_ENV = "REPRO_EVENTS_CAP"

#: Default ring-buffer capacity.  Week-long runs emit events without
#: bound; the ring keeps the newest ``DEFAULT_CAPACITY`` and counts the
#: rest in ``dropped`` (mirrored as the ``events.dropped`` telemetry
#: counter), so the log's memory stays flat no matter how long the run.
DEFAULT_CAPACITY = 65536

#: Cap of the WARN/ERROR reserve: incidents evicted from the main ring
#: are parked here instead of lost, so high-volume DEBUG/INFO chatter
#: can never flush a run's few important records (fault injections,
#: degradations) out of reports and the live endpoint.
INCIDENT_RESERVE = 1024

_LEVEL_RANK = {level: rank for rank, level in enumerate(LEVELS)}
_WARN_RANK = _LEVEL_RANK["WARN"]


@dataclasses.dataclass(frozen=True)
class EventRecord:
    """One structured event (picklable for cross-process shipping)."""

    ts_unix: float
    level: str
    name: str
    span_id: int | None
    fields: tuple[tuple[str, Any], ...]

    def __reduce__(self):
        # Positional: a pickled field-name dict per record would make
        # shipped worker records a third larger.
        return EventRecord, (
            self.ts_unix, self.level, self.name, self.span_id, self.fields
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "ts_unix": self.ts_unix,
            "level": self.level,
            "name": self.name,
            "span_id": self.span_id,
        }
        out.update(self.fields)
        return out


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _job_of(record: EventRecord) -> str | None:
    """The record's ``job`` field, when it is a job id (a string)."""
    for key, value in record.fields:
        if key == "job" and isinstance(value, str):
            return value
    return None


def _index(jobs: dict[str, list[EventRecord]], record: EventRecord) -> None:
    job = _job_of(record)
    if job is not None:
        records = jobs.get(job)
        if records is None:
            jobs[job] = [record]
        else:
            records.append(record)


def _unindex(jobs: dict[str, list[EventRecord]], record: EventRecord) -> None:
    """Remove ``record``, its job's oldest entry in ``jobs``."""
    job = _job_of(record)
    if job is not None:
        records = jobs[job]
        if len(records) == 1:
            del jobs[job]
        else:
            del records[0]


def _resolve_capacity(capacity: int | None) -> int:
    if capacity is not None:
        return max(1, int(capacity))
    raw = os.environ.get(CAPACITY_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(
                f"{CAPACITY_ENV} must be an integer, got {raw!r}"
            ) from None
    return DEFAULT_CAPACITY


class EventLog:
    """A live (recording) event log.

    Storage is a bounded ring (:data:`DEFAULT_CAPACITY` records, or the
    ``REPRO_EVENTS_CAP`` override): when full, the oldest record is
    evicted to admit the newest and ``dropped`` increments -- so the log
    of an arbitrarily long run occupies bounded memory while the *count*
    of what was lost stays exact.  Eviction is severity-aware: a
    WARN/ERROR record pushed out of the main ring parks in a small
    bounded reserve (:data:`INCIDENT_RESERVE`) instead of vanishing, so
    chatty DEBUG loops cannot flush the incidents that reports and the
    live endpoint exist to surface.  The log also keeps per-level counts
    of what it retains, and :meth:`tail` reads the newest records at a
    level without scanning the ring, so a live-endpoint scrape costs
    the same on a full ring as on an empty one; :meth:`job_records`
    reads one job's records from a per-job index, for the same reason.
    """

    enabled = True

    def __init__(self, capacity: int | None = None) -> None:
        self._lock = threading.Lock()
        self.capacity = _resolve_capacity(capacity)
        self._records: collections.deque[EventRecord] = collections.deque()
        # The ring's records at or above INFO, WARN and ERROR, each in
        # ring order, so the newest records at a level are a slice of
        # one deque rather than a scan of the ring.
        self._floors: list[collections.deque[EventRecord]] = [
            collections.deque() for _ in LEVELS[1:]
        ]
        self._reserve_capacity = min(INCIDENT_RESERVE, self.capacity)
        self._reserve: collections.deque[EventRecord] = collections.deque()
        # Retained records (ring and reserve) per level.
        self._counts = dict.fromkeys(LEVELS, 0)
        # Retained records per job id (see _job_of), those in the ring
        # in ring order and those in the reserve in reserve order: a
        # record leaves either as its job's oldest there.  A job keys
        # each only while it has records there.
        self._job_ring: dict[str, list[EventRecord]] = {}
        self._job_reserve: dict[str, list[EventRecord]] = {}
        #: Records truly lost (evicted past the reserve); exact forever.
        self.dropped = 0
        # Absorbed worker records may carry timestamps older than
        # already-recorded parent events; sort lazily on read.
        self._needs_sort = False

    def _drop(self, record: EventRecord, parked: bool) -> None:
        """Lose ``record``, the oldest of the reserve (``parked``) or of
        the ring."""
        self._counts[record.level] -= 1
        self.dropped += 1
        _unindex(self._job_reserve if parked else self._job_ring, record)
        tm = telemetry.get()
        if tm.enabled:
            tm.inc("events.dropped")

    def _admit(self, record: EventRecord) -> None:
        """Append under the lock, evicting when the ring is full."""
        if len(self._records) >= self.capacity:
            evicted = self._records.popleft()
            rank = _LEVEL_RANK[evicted.level]
            for floor in self._floors[:rank]:
                floor.popleft()
            if rank >= _WARN_RANK:
                if len(self._reserve) >= self._reserve_capacity:
                    self._drop(self._reserve.popleft(), parked=True)
                self._reserve.append(evicted)
                _unindex(self._job_ring, evicted)
                _index(self._job_reserve, evicted)
            else:
                self._drop(evicted, parked=False)
        self._records.append(record)
        for floor in self._floors[: _LEVEL_RANK[record.level]]:
            floor.append(record)
        self._counts[record.level] += 1
        _index(self._job_ring, record)

    def _sort(self) -> None:
        """Re-sort the ring by timestamp after an :meth:`absorb` (under
        the lock; stable, so same-timestamp records keep their
        per-source emission order)."""
        if not self._needs_sort:
            return
        self._records = collections.deque(
            sorted(self._records, key=lambda r: r.ts_unix)
        )
        self._floors = [
            collections.deque(
                r for r in self._records if _LEVEL_RANK[r.level] > rank
            )
            for rank in range(len(self._floors))
        ]
        self._job_ring = {}
        for record in self._records:
            _index(self._job_ring, record)
        self._needs_sort = False

    def emit(self, level: str, name: str, **fields: Any) -> None:
        """Record one event at ``level`` (one of :data:`LEVELS`)."""
        if level not in _LEVEL_RANK:
            raise ValueError(
                f"level must be one of {LEVELS}, got {level!r}"
            )
        record = EventRecord(
            ts_unix=time.time(),
            level=level,
            name=name,
            span_id=telemetry.get().current_span_id(),
            fields=tuple(
                (key, _scalar(value)) for key, value in fields.items()
            ),
        )
        with self._lock:
            self._admit(record)

    def debug(self, name: str, **fields: Any) -> None:
        self.emit("DEBUG", name, **fields)

    def info(self, name: str, **fields: Any) -> None:
        self.emit("INFO", name, **fields)

    def warn(self, name: str, **fields: Any) -> None:
        self.emit("WARN", name, **fields)

    def error(self, name: str, **fields: Any) -> None:
        self.emit("ERROR", name, **fields)

    def records(self, min_level: str = "DEBUG") -> list[EventRecord]:
        """All retained events at or above ``min_level``, chronological.

        Local emissions are already time-ordered; after an
        :meth:`absorb` the merged deque is re-sorted by timestamp
        (stable, so same-timestamp records keep their per-source
        emission order) -- interleaved worker/parent events therefore
        read chronologically in JSONL exports and reports.
        """
        floor = _LEVEL_RANK[min_level]
        with self._lock:
            self._sort()
            if self._reserve:
                # Reserved incidents predate everything still in the
                # main ring (they were evicted first); listing them
                # ahead keeps the stable sort's tie order = admit order.
                merged = sorted(
                    list(self._reserve) + list(self._records),
                    key=lambda r: r.ts_unix,
                )
            else:
                merged = self._records
            return [r for r in merged if _LEVEL_RANK[r.level] >= floor]

    def absorb(self, records: Iterator[EventRecord] | list[EventRecord]) -> None:
        """Fold shipped worker records in.

        Worker wall clocks are comparable to the parent's (both are
        ``time.time``), so absorbed records merge chronologically with
        local ones -- the sort happens lazily on the next read.
        """
        with self._lock:
            absorbed = False
            for record in records:
                self._admit(record)
                absorbed = True
            if absorbed:
                self._needs_sort = True

    def tail(self, limit: int, min_level: str = "DEBUG") -> list[EventRecord]:
        """The newest ``limit`` retained events at or above
        ``min_level``, chronological: ``records(min_level)[-limit:]``,
        read from the ring's end and the bounded reserve, so its cost
        does not grow with the ring (after an :meth:`absorb`, the first
        read still sorts the ring)."""
        if limit <= 0:
            return []
        floor = _LEVEL_RANK[min_level]
        with self._lock:
            self._sort()
            ring = self._records if floor == 0 else self._floors[floor - 1]
            newest = list(itertools.islice(reversed(ring), limit))[::-1]
            if not self._reserve:
                return newest
            # As in records(): reserved incidents first, then a stable
            # sort; only the ring's newest ``limit`` can make the cut.
            parked = [
                r for r in self._reserve if _LEVEL_RANK[r.level] >= floor
            ]
            return sorted(parked + newest, key=lambda r: r.ts_unix)[-limit:]

    def job_records(self, job: str) -> list[EventRecord]:
        """The retained events whose ``job`` field is ``job``, in
        :meth:`records` order, read from the per-job index: its cost
        does not grow with the ring (after an :meth:`absorb`, the first
        read still sorts the ring)."""
        with self._lock:
            self._sort()
            ring = self._job_ring.get(job, [])
            if self._reserve:
                # As in records(): reserved incidents first, then a
                # stable sort by timestamp.
                return sorted(
                    self._job_reserve.get(job, []) + ring,
                    key=lambda r: r.ts_unix,
                )
            return list(ring)

    def level_counts(self) -> dict[str, int]:
        """Retained events (ring and reserve) per level."""
        with self._lock:
            return dict(self._counts)

    def __len__(self) -> int:
        return len(self._records) + len(self._reserve)


class DisabledEventLog:
    """The no-op singleton active by default."""

    enabled = False
    dropped = 0
    capacity = 0

    def emit(self, level: str, name: str, **fields: Any) -> None:
        pass

    def debug(self, name: str, **fields: Any) -> None:
        pass

    def info(self, name: str, **fields: Any) -> None:
        pass

    def warn(self, name: str, **fields: Any) -> None:
        pass

    def error(self, name: str, **fields: Any) -> None:
        pass

    def records(self, min_level: str = "DEBUG") -> list[EventRecord]:
        return []

    def tail(self, limit: int, min_level: str = "DEBUG") -> list[EventRecord]:
        return []

    def job_records(self, job: str) -> list[EventRecord]:
        return []

    def level_counts(self) -> dict[str, int]:
        return dict.fromkeys(LEVELS, 0)

    def absorb(self, records: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The one disabled log (identity-comparable in tests).
DISABLED_EVENTS = DisabledEventLog()

_active: EventLog | DisabledEventLog = DISABLED_EVENTS


def get() -> EventLog | DisabledEventLog:
    """The active event log.  Hot paths hoist this once per operation."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def enable(capacity: int | None = None) -> EventLog:
    """Activate a fresh recording log and return it."""
    global _active
    _active = EventLog(capacity)
    return _active


def disable() -> None:
    """Deactivate recording; the no-op singleton becomes active again."""
    global _active
    _active = DISABLED_EVENTS


@contextlib.contextmanager
def session(capacity: int | None = None) -> Iterator[EventLog]:
    """Enable for a ``with`` block, then restore the previous log."""
    global _active
    previous = _active
    _active = EventLog(capacity)
    try:
        yield _active
    finally:
        _active = previous


def write_events_jsonl(
    log: EventLog | DisabledEventLog,
    path_or_file: str | IO[str],
    min_level: str = "DEBUG",
) -> None:
    """One JSON object per event line -- grep/jq-friendly."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as out:
            write_events_jsonl(log, out, min_level)
        return
    for record in log.records(min_level):
        path_or_file.write(json.dumps(record.to_json()))
        path_or_file.write("\n")
