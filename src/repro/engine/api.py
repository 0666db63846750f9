"""Cache-aware batch synthesis: the one entry point into the engine.

:func:`run_cached_batch` composes the two throughput mechanisms of this
package around the paper's Algorithm 1:

1. every problem first consults the persistent
   :class:`~repro.engine.cache.ScheduleCache` (when one is given) — a
   hit skips the solver entirely;
2. identical problems are deduplicated by content fingerprint, and the
   misses are solved with :func:`repro.engine.parallel.synthesize_batch`
   over one shared process pool.

Every scenario runner reaches it through
:func:`repro.api.experiment.synthesize_scenarios`.  The engine never
changes *what* is synthesized — results are equal to the sequential
:func:`repro.core.synthesis.synthesize` — only how fast the answer
arrives and whether it must be recomputed at all.
"""

from __future__ import annotations

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
    store the results back.

    Args:
        problems: ``(mode, config)`` pairs; configs may differ.  Each
            config's ``backend`` picks the solver and is part of the
            cache fingerprint, so schedules from different backends
            never share cache entries.
        jobs: Worker processes for the miss pool.
        cache: Optional persistent cache consulted/updated per problem.
        warm_start: Seed searches at the demand lower bound.
        stats: Counters to update in place (a fresh object by default).

    Returns:
        Schedules aligned with ``problems``.  Duplicate problems share
        one schedule object.
    """
    stats = stats if stats is not None else EngineStats()
    started = time.monotonic()
    results: List[Optional[ModeSchedule]] = [None] * len(problems)
    occurrences: Dict[str, List[int]] = {}
    to_solve: List[tuple] = []  # (fingerprint, mode, config), first seen
    for index, (mode, config) in enumerate(problems):
        cached = cache.get(mode, config) if cache is not None else None
        if cached is not None:
            stats.cache_hits += 1
            results[index] = cached
            continue
        if cache is not None:
            stats.cache_misses += 1
        key = synthesis_fingerprint(mode, config)
        if key in occurrences:
            occurrences[key].append(index)
        else:
            occurrences[key] = [index]
            to_solve.append((key, mode, config))

    solved = synthesize_batch(
        [(mode, config) for _, mode, config in to_solve],
        jobs=jobs,
        warm_start=warm_start,
    )
    for (key, mode, config), schedule in zip(to_solve, solved):
        stats.solver_runs += len(
            schedule.solve_stats.iterations if schedule.solve_stats else ()
        )
        if cache is not None:
            cache.put(mode, config, schedule)
        for index in occurrences[key]:
            results[index] = schedule

    stats.modes_synthesized += len(to_solve)
    stats.total_time += time.monotonic() - started
    return results


__all__ = ["EngineStats", "run_cached_batch"]
