"""Persistent schedule cache keyed by problem content.

Synthesizing a schedule means solving a sequence of ILPs — seconds to
minutes of solver time — yet the result is a pure function of the
``(Mode, SchedulingConfig)`` pair.  :class:`ScheduleCache` memoizes that
function on disk: entries are addressed by the canonical content hash
from :func:`repro.io.serialize.synthesis_fingerprint`, so repeated
syntheses across parameter sweeps, mode graphs, and CLI invocations cost
one JSON read instead of a solver run.

Any change to the problem inputs — an application's period, a WCET, the
round length, the backend — changes the fingerprint and therefore misses
the cache; stale entries are never returned.  Corrupt or
version-incompatible files are treated as misses and removed.

One cache object is also the single-flight point of the threads that
share it (the ``repro serve`` workers): after a miss, a thread claims
the problem before solving it, and a thread that misses on a problem
another thread is solving waits for that solve instead of repeating
it.  Hits never wait, and distinct problems solve in parallel.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..core.modes import Mode
from ..core.schedule import ModeSchedule, SchedulingConfig
from ..obs.events import emit
from ..io.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    schedule_from_dict,
    schedule_to_dict,
    synthesis_fingerprint,
)


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ScheduleCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def __str__(self) -> str:
        text = f"{self.hits} hit(s), {self.misses} miss(es), {self.stores} store(s)"
        if self.evictions:
            text += f", {self.evictions} eviction(s)"
        return text


class ScheduleCache:
    """Content-addressed store of synthesized schedules.

    Args:
        cache_dir: Directory holding one ``<fingerprint>.json`` file per
            cached schedule; created on first use.

    Entries round-trip through :func:`repro.io.serialize.schedule_to_dict`,
    so a cached schedule verifies exactly like a freshly synthesized one.
    Per-run solver statistics (``solve_stats``) are not part of the
    schedule image and are absent on cached copies.

    Size policy: a long-lived cache (the ``repro serve`` daemon keeps
    one resident across every request) must not grow without bound, so
    ``max_entries`` / ``max_bytes`` cap it with LRU eviction — every
    hit refreshes an entry's file mtime, and :meth:`put` evicts the
    stalest entries until both limits hold again (the entry just
    written is never evicted).  Eviction is safe by construction:
    entries are pure content-addressed functions of their problem, so
    an evicted-then-recomputed schedule is bit-identical to the one
    that was dropped.

    Thread safety: the counters in :attr:`stats` are updated under a
    lock, and :meth:`claim` / :meth:`release` / :meth:`wait` make the
    solve of one problem single-flight among the threads of a process
    (:func:`repro.engine.api.run_cached_batch` drives them).
    """

    def __init__(
        self,
        cache_dir: str | Path,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 (or None), got {max_entries!r}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1 (or None), got {max_bytes!r}"
            )
        self.cache_dir = Path(cache_dir)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        # fingerprint -> event set when the thread solving it releases it
        self._solving: Dict[str, threading.Event] = {}

    def key(self, mode: Mode, config: SchedulingConfig) -> str:
        """The content hash addressing ``(mode, config)``."""
        return synthesis_fingerprint(mode, config)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, mode: Mode, config: SchedulingConfig) -> Optional[ModeSchedule]:
        """Return the cached schedule, or ``None`` on a miss."""
        key = self.key(mode, config)
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != SCHEMA_VERSION:
                raise SerializationError(f"schema {payload.get('schema')!r}")
            schedule = schedule_from_dict(payload["schedule"])
        except FileNotFoundError:
            self._count("misses")
            emit("cache.miss", key=key, mode=mode.name)
            return None
        except (SerializationError, json.JSONDecodeError, KeyError, TypeError):
            # Unreadable entry: drop it and treat as a miss.
            path.unlink(missing_ok=True)
            self._count("misses")
            emit("cache.miss", key=key, mode=mode.name, corrupt=True)
            return None
        self._count("hits")
        emit("cache.hit", key=key, mode=mode.name)
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass  # entry raced an eviction/clear; the hit still stands
        return schedule

    def put(
        self, mode: Mode, config: SchedulingConfig, schedule: ModeSchedule
    ) -> str:
        """Store ``schedule`` for ``(mode, config)``; returns the key."""
        key = self.key(mode, config)
        payload = {
            "schema": SCHEMA_VERSION,
            "fingerprint": key,
            "mode_name": mode.name,
            "schedule": schedule_to_dict(schedule),
        }
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        # Write-then-rename so concurrent readers never see a torn file;
        # the temporary name is per writer, so two processes storing
        # the same entry (shards sharing a cache) never rename each
        # other's file away.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(path)
        self._count("stores")
        emit("cache.store", key=key, mode=mode.name)
        if self.max_entries is not None or self.max_bytes is not None:
            self._evict(keep=path.name)
        return key

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    # -- single flight ---------------------------------------------------
    def claim(self, key: str) -> bool:
        """Take the solve of ``key`` for the calling thread, after a miss.

        True: the caller owns the solve; it must :meth:`put` the
        schedule, if it gets one, and then :meth:`release` ``key`` on
        every exit, a failed solve included.  False: another thread of
        this process is solving ``key``, or stored it since the
        caller's miss; the caller should :meth:`wait`, then :meth:`get`
        again.
        """
        with self._lock:
            if key in self._solving or self._path(key).exists():
                return False
            self._solving[key] = threading.Event()
            return True

    def release(self, key: str) -> None:
        """End the caller's claim on ``key`` and wake its waiters."""
        with self._lock:
            released = self._solving.pop(key)
        released.set()

    def wait(self, key: str) -> None:
        """Block until no thread of this process is solving ``key``.

        An actual wait writes one ``cache.wait`` run-log event.
        """
        with self._lock:
            released = self._solving.get(key)
        if released is None:
            return
        started = time.perf_counter()
        released.wait()
        emit("cache.wait", key=key, seconds=time.perf_counter() - started)

    def _evict(self, keep: str) -> None:
        """Drop least-recently-used entries until the limits hold."""
        entries = []
        for entry in self.cache_dir.glob("*.json"):
            try:
                stat = entry.stat()
            except OSError:
                continue  # concurrently removed
            entries.append((stat.st_mtime_ns, entry.name, entry, stat.st_size))
        entries.sort()  # oldest mtime first; name breaks ties deterministically
        count = len(entries)
        total = sum(size for _, _, _, size in entries)
        for _, name, entry, size in entries:
            over_entries = (
                self.max_entries is not None and count > self.max_entries
            )
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_entries or over_bytes):
                break
            if name == keep:
                continue  # never evict the entry this put just wrote
            try:
                entry.unlink()
            except OSError:
                continue
            count -= 1
            total -= size
            self._count("evictions")
            emit("cache.evict", key=name[: -len(".json")], bytes=size)

    def usage(self) -> dict:
        """Current size and traffic counters, as one JSON-ready dict.

        The ``cache stats`` accessor for dashboards and the serve
        daemon's ``/stats`` endpoint: entry/byte usage against the
        configured limits plus the hit/miss/store/eviction counters.
        """
        entries = 0
        total = 0
        if self.cache_dir.is_dir():
            for entry in self.cache_dir.glob("*.json"):
                try:
                    total += entry.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {
            "entries": entries,
            "bytes": total,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "stores": self.stats.stores,
            "evictions": self.stats.evictions,
        }

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for entry in self.cache_dir.glob("*.json"):
                entry.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def __repr__(self) -> str:
        return f"ScheduleCache({str(self.cache_dir)!r}, {self.stats})"
