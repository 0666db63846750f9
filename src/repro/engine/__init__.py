"""Synthesis engine: parallel speculative Algorithm 1 + schedule cache.

This package scales the paper's offline synthesis to sweep-sized
workloads without changing its results:

* :func:`run_cached_batch` — the one batch-synthesis function: consults
  the cache, dedupes identical problems, and sends the misses to
  :func:`synthesize_batch`, which runs speculative parallel Algorithm 1
  for heterogeneous ``(mode, config)`` problems over one shared process
  pool;
* :class:`ScheduleCache` — persistent, content-addressed memoization of
  ``(Mode, SchedulingConfig) -> ModeSchedule``;
* :class:`TrialPool` — batched execution of context-sharing evaluation
  tasks (Monte-Carlo trials) over the same process-pool machinery.

Scenario-level callers (``TTWSystem``, ``Experiment``, campaigns,
exploration and the service) all reach :func:`run_cached_batch` through
:func:`repro.api.experiment.synthesize_scenarios`.
"""

from .api import EngineStats, run_cached_batch
from .cache import CacheStats, ScheduleCache
from .parallel import synthesize_batch
from .trials import TrialPool

__all__ = [
    "CacheStats",
    "EngineStats",
    "ScheduleCache",
    "TrialPool",
    "run_cached_batch",
    "synthesize_batch",
]
