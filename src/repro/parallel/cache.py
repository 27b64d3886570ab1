"""On-disk profile cache: skip re-profiling on repeated sweeps.

The paper's key observation is that one native profiling run suffices to
score all 30 configurations; the cache extends that economy across
*process lifetimes*: a suite sweep that was profiled once (same
application, device, trial seed, and code version) never profiles
again -- subsequent sweeps deserialize the stored
:class:`~repro.sampling.pipeline.ProfiledWorkload` and go straight to
the post-processing fan-out.

Keys are SHA-256 digests over:

* a **workload fingerprint** -- application name, every kernel's static
  per-block instruction footprint, and the full recorded API stream
  (so changing ``--scale`` or the generator seed changes the key);
* the **device** name, the **trial seed**, and the timing parameters;
* the **code version** (``repro.__version__`` plus an internal schema
  number), so upgrading the package invalidates every stored profile.

Entries are single pickle files written atomically (tmp file +
``os.replace``), so concurrent workers racing on the same key are safe:
last writer wins and both wrote identical bytes-for-equal inputs.
Corrupt or unreadable entries count as misses and are deleted.

The store is **multi-tenant** (the ``gtpin serve`` daemon and any
number of CLI processes may share one directory), so mutations are
additionally serialized with a cross-process file lock (``fcntl`` where
available; a no-op elsewhere -- atomic replaces keep readers safe
regardless).  The cache is bounded: size- and age-based eviction runs
on every store (``REPRO_PROFILE_CACHE_MAX_MB`` /
``REPRO_PROFILE_CACHE_MAX_AGE`` or constructor arguments), oldest-read
entries first.  Eviction never breaks an active reader: entries are
unlinked, and a reader that already opened the file keeps its data
(POSIX semantics).  Stale ``.profile-*.tmp`` droppings from crashed
stores are swept (age-gated) on init and unconditionally on
:meth:`ProfileCache.clear`.

Location: ``$REPRO_PROFILE_CACHE`` if set to a path, else
``$XDG_CACHE_HOME/repro/profiles`` (``~/.cache/repro/profiles``).
Setting ``REPRO_PROFILE_CACHE=1`` enables the default location;
``REPRO_PROFILE_CACHE=0`` (or unset) disables env-driven caching.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import tempfile
import time
from typing import Any, Iterator

import numpy as np

import repro
from repro import telemetry

try:  # POSIX only; the lock degrades to a no-op elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Environment control: a directory path, ``1``/``on`` (default dir),
#: or ``0``/``off``/unset (disabled).
CACHE_ENV = "REPRO_PROFILE_CACHE"

#: Size budget override, in megabytes (0/unset = unbounded).
MAX_MB_ENV = "REPRO_PROFILE_CACHE_MAX_MB"

#: Age budget override, in seconds (0/unset = no age eviction).
MAX_AGE_ENV = "REPRO_PROFILE_CACHE_MAX_AGE"

#: Bump to invalidate every existing entry when the stored layout changes.
SCHEMA_VERSION = 2

#: Orphaned ``.profile-*.tmp`` files older than this are swept on init.
#: A healthy store holds its tmp file for milliseconds, so an hour-old
#: one can only be the dropping of a process that died mid-store.
TMP_SWEEP_AGE_SECONDS = 3600.0

_ENABLE_VALUES = {"1", "on", "yes", "true"}
_DISABLE_VALUES = {"", "0", "off", "no", "false"}


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r}"
        ) from None
    return value if value > 0 else None


def default_cache_root() -> pathlib.Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return pathlib.Path(base) / "repro" / "profiles"


#: Instance attribute holding an application's fingerprint once computed.
_FINGERPRINT_ATTR = "_profile_cache_fingerprint"


def _application_fingerprint(application: Any) -> str:
    """Digest everything that determines a profile's content.

    Computed once per application object and kept in its ``__dict__``
    (applications are immutable), so every cold profile of one loaded
    application hashes its calls once.  Two threads that race here
    compute the same digest.  Objects without a ``__dict__`` are hashed
    on every call.
    """
    state = getattr(application, "__dict__", None)
    if state is not None:
        cached = state.get(_FINGERPRINT_ATTR)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    digest.update(application.name.encode())
    for kernel_name in sorted(application.sources):
        source = application.sources[kernel_name]
        digest.update(kernel_name.encode())
        arrays = source.body.arrays
        digest.update(
            np.asarray(arrays.instruction_counts, dtype=np.float64).tobytes()
        )
    for call in application.host_program.calls:
        digest.update(call.name.encode())
        digest.update(repr(sorted(call.args.items())).encode())
    fingerprint = digest.hexdigest()
    if state is not None:
        state[_FINGERPRINT_ATTR] = fingerprint
    return fingerprint


class ProfileCache:
    """Content-addressed store of :class:`ProfiledWorkload` pickles.

    ``max_bytes`` / ``max_age_seconds`` bound the store (``None`` falls
    back to the environment knobs, which default to unbounded): every
    store evicts expired entries first, then the least-recently-read
    entries until the directory fits the size budget again.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
    ) -> None:
        self.root = pathlib.Path(root) if root else default_cache_root()
        if max_bytes is None:
            max_mb = _env_float(MAX_MB_ENV)
            max_bytes = None if max_mb is None else int(max_mb * 1024 * 1024)
        if max_age_seconds is None:
            max_age_seconds = _env_float(MAX_AGE_ENV)
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        self._sweep_tmp(TMP_SWEEP_AGE_SECONDS)

    @classmethod
    def from_env(cls) -> "ProfileCache | None":
        """The env-configured cache, or ``None`` when caching is off."""
        raw = os.environ.get(CACHE_ENV, "").strip()
        if raw.lower() in _DISABLE_VALUES:
            return None
        if raw.lower() in _ENABLE_VALUES:
            return cls()
        return cls(raw)

    @contextlib.contextmanager
    def _lock(self, exclusive: bool) -> Iterator[None]:
        """Cross-process advisory lock over the whole cache directory.

        Shared for reads (so an eviction pass never interleaves with a
        reader's open-then-load window on platforms without POSIX
        unlink semantics), exclusive for mutations.  A no-op where
        ``fcntl`` is unavailable -- atomic replaces keep the cache
        corruption-free either way, locking only tightens the
        eviction/accounting races.
        """
        if fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a+b") as handle:
            fcntl.flock(
                handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
            )
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def key(
        self,
        application: Any,
        device: Any,
        trial_seed: int,
        timing_params: Any = None,
    ) -> str:
        digest = hashlib.sha256()
        digest.update(f"schema={SCHEMA_VERSION}".encode())
        digest.update(f"version={repro.__version__}".encode())
        digest.update(_application_fingerprint(application).encode())
        digest.update(f"device={device.name}".encode())
        digest.update(f"seed={trial_seed}".encode())
        digest.update(f"timing={timing_params!r}".encode())
        return digest.hexdigest()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def load(self, key: str) -> Any | None:
        """The stored object for ``key``, or ``None`` on a miss."""
        tm = telemetry.get()
        path = self.path_for(key)
        if not path.exists():
            tm.inc("sampling.profile_cache.misses")
            return None
        try:
            with self._lock(exclusive=False):
                with open(path, "rb") as stream:
                    value = pickle.load(stream)
                # Touch on hit: eviction is least-recently-*read* first.
                os.utime(path)
        except FileNotFoundError:
            tm.inc("sampling.profile_cache.misses")
            return None
        except Exception:
            # Corrupt / truncated / version-skewed entry: drop it.
            try:
                path.unlink()
            except OSError:
                pass
            tm.inc("sampling.profile_cache.misses")
            return None
        tm.inc("sampling.profile_cache.hits")
        return value

    def store(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key``, then evict down
        to the configured size/age budget."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=".profile-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)
            with self._lock(exclusive=True):
                os.replace(tmp_path, self.path_for(key))
                self._evict_locked(protect=self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        telemetry.get().inc("sampling.profile_cache.stores")

    def evict(self) -> int:
        """Apply the size/age budget now; returns entries removed."""
        if not self.root.is_dir():
            return 0
        with self._lock(exclusive=True):
            return self._evict_locked()

    def _evict_locked(self, protect: pathlib.Path | None = None) -> int:
        """Eviction body (caller holds the exclusive lock).

        Expired entries go first, then least-recently-read entries
        until the size budget holds.  ``protect`` (the entry just
        stored) is never evicted -- a store must not evict itself.
        Unlinking never disturbs an in-flight reader: an already-open
        file stays readable until its descriptor closes.
        """
        if self.max_bytes is None and self.max_age_seconds is None:
            return 0
        now = time.time()
        entries = []  # (mtime, size, path), oldest-read first
        for path in self.root.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for mtime, size, path in entries:
            if protect is not None and path == protect:
                continue
            expired = (
                self.max_age_seconds is not None
                and now - mtime > self.max_age_seconds
            )
            oversize = self.max_bytes is not None and total > self.max_bytes
            if not expired and not oversize:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        if removed:
            tm = telemetry.get()
            tm.inc("sampling.profile_cache.evictions", removed)
            from repro.obs import events as obs_events

            obs_events.get().info(
                "profile_cache.evict",
                removed=removed, remaining_bytes=total,
            )
        return removed

    def _sweep_tmp(self, max_age_seconds: float) -> int:
        """Remove orphaned ``.profile-*.tmp`` files older than the gate.

        A process that dies between ``mkstemp`` and ``os.replace``
        leaks its tmp file; nothing ever reads those, so sweeping them
        (age-gated, to spare any in-flight store) keeps the directory
        from growing forever.  Returns how many were removed.
        """
        if not self.root.is_dir():
            return 0
        now = time.time()
        swept = 0
        for path in self.root.glob(".profile-*.tmp"):
            try:
                if now - path.stat().st_mtime >= max_age_seconds:
                    path.unlink()
                    swept += 1
            except OSError:
                continue
        if swept:
            telemetry.get().inc("sampling.profile_cache.tmp_swept", swept)
        return swept

    def clear(self) -> int:
        """Delete every entry (and every orphaned tmp file); returns
        how many *entries* were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        with self._lock(exclusive=True):
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            self._sweep_tmp(0.0)
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count and on-disk footprint (real entries only --
        lock files and tmp droppings are not entries)."""
        entries = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total,
            "max_bytes": self.max_bytes,
            "max_age_seconds": self.max_age_seconds,
        }

    def __len__(self) -> int:
        """Real entries only; tmp droppings and lock files don't count."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))
