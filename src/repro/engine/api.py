"""Cache-aware batch synthesis: the one entry point into the engine.

:func:`run_cached_batch` composes the two throughput mechanisms of this
package around the paper's Algorithm 1:

1. every problem first consults the persistent
   :class:`~repro.engine.cache.ScheduleCache` (when one is given) — a
   hit skips the solver entirely;
2. identical problems are deduplicated by content fingerprint, and the
   misses are solved with :func:`repro.engine.parallel.synthesize_batch`
   over one shared process pool.

Threads that share one cache (the ``repro serve`` workers) solve each
problem once: a miss claims the problem on the cache before solving
it, and a miss on a problem another thread has claimed waits for that
solve and reads its schedule from the cache.  Nothing else waits: hits
return at once, and distinct problems solve in parallel.

Every scenario runner reaches it through
:func:`repro.api.experiment.synthesize_scenarios`.  The engine never
changes *what* is synthesized — results are equal to the sequential
:func:`repro.core.synthesis.synthesize` — only how fast the answer
arrives and whether it must be recomputed at all.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.schedule import ModeSchedule
from ..io.serialize import synthesis_fingerprint
from .cache import ScheduleCache
from .parallel import synthesize_batch


@dataclass
class EngineStats:
    """What one engine did: cache traffic and solver work."""

    cache_hits: int = 0
    cache_misses: int = 0
    modes_synthesized: int = 0
    solver_runs: int = 0
    total_time: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, other: "EngineStats") -> None:
        """Fold ``other``'s counters into these, atomically."""
        with self._lock:
            self.cache_hits += other.cache_hits
            self.cache_misses += other.cache_misses
            self.modes_synthesized += other.modes_synthesized
            self.solver_runs += other.solver_runs
            self.total_time += other.total_time

    def to_dict(self) -> dict:
        """The counters as one consistent JSON-ready snapshot."""
        with self._lock:
            return {
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "modes_synthesized": self.modes_synthesized,
                "solver_runs": self.solver_runs,
                "total_time": self.total_time,
            }

    def __str__(self) -> str:
        return (
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es); "
            f"solver runs: {self.solver_runs}; "
            f"synthesized {self.modes_synthesized} mode(s) "
            f"in {self.total_time:.3f}s"
        )


def run_cached_batch(
    problems: Sequence[tuple],
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    warm_start: bool = True,
    stats: Optional[EngineStats] = None,
) -> List[ModeSchedule]:
    """Cache-aware batch synthesis of ``(mode, config)`` problems.

    The full engine pipeline as one function: consult the cache, dedupe
    identical problems (by content fingerprint) so each distinct ILP
    sequence is solved once, solve the misses over one shared pool, and
    store the results back.  Safe to call from several threads sharing
    one ``cache`` and one ``stats``: a problem another thread is solving
    is waited for, not solved again (see the module docstring).

    Args:
        problems: ``(mode, config)`` pairs; configs may differ.  Each
            config's ``backend`` picks the solver and is part of the
            cache fingerprint, so schedules from different backends
            never share cache entries.
        jobs: Worker processes for the miss pool.
        cache: Optional persistent cache consulted/updated per problem.
        warm_start: Seed searches at the demand lower bound.
        stats: Counters to update (a fresh object by default); this
            call's counts are added once, under the object's lock.

    Returns:
        Schedules aligned with ``problems``.  Duplicate problems share
        one schedule object.
    """
    stats = stats if stats is not None else EngineStats()
    call = EngineStats()
    started = time.monotonic()
    results: List[Optional[ModeSchedule]] = [None] * len(problems)
    # fingerprint -> indices of the problems still without a schedule
    missing: Dict[str, List[int]] = {}

    def lookup(mode, config) -> Optional[ModeSchedule]:
        if cache is None:
            return None
        schedule = cache.get(mode, config)
        if schedule is None:
            call.cache_misses += 1
        else:
            call.cache_hits += 1
        return schedule

    try:
        for index, (mode, config) in enumerate(problems):
            cached = lookup(mode, config)
            if cached is not None:
                results[index] = cached
            else:
                key = synthesis_fingerprint(mode, config)
                missing.setdefault(key, []).append(index)

        while missing:
            claimed: List[str] = []
            try:
                for key in missing:
                    if cache is None or cache.claim(key):
                        claimed.append(key)
                solved = synthesize_batch(
                    [problems[missing[key][0]] for key in claimed],
                    jobs=jobs,
                    warm_start=warm_start,
                )
                for key, schedule in zip(claimed, solved):
                    call.solver_runs += len(
                        schedule.solve_stats.iterations
                        if schedule.solve_stats else ()
                    )
                    if cache is not None:
                        cache.put(*problems[missing[key][0]], schedule)
                    for index in missing.pop(key):
                        results[index] = schedule
                call.modes_synthesized += len(claimed)
            finally:
                if cache is not None:
                    for key in claimed:
                        cache.release(key)
            # The rest were claimed by other threads: read their
            # schedules once they are released.  A mode whose solve
            # failed there is still missing, and the next pass claims it.
            for key in list(missing):
                cache.wait(key)
                cached = lookup(*problems[missing[key][0]])
                if cached is not None:
                    for index in missing.pop(key):
                        results[index] = cached
    finally:
        call.total_time = time.monotonic() - started
        stats.add(call)
    return results


__all__ = ["EngineStats", "run_cached_batch"]
