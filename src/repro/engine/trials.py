"""Batched task execution over the engine's process pool.

The synthesis side of the engine parallelizes *ILP iterations*
(:mod:`repro.engine.parallel`); this module is the equivalent for
*evaluation work*: thousands of small, independent tasks (Monte-Carlo
trials) that share a large, expensive context (deployments, schedules,
topology).  Shipping the context with every task would drown the pool
in serialization, so :class:`TrialPool` uses the executor's
initializer protocol instead:

* contexts are serialized **once** and rebuilt lazily inside each
  worker on first use (`build_context`);
* tasks are submitted in **chunks**, amortizing the per-future
  overhead over many trials;
* ``jobs=1`` bypasses the executor entirely and runs everything
  in-process through the very same code path, which keeps single-
  process and pooled results bit-identical and makes the pool easy to
  reason about in tests.

The pool is deliberately generic — it knows nothing about simulation.
Callers hand it two module-level functions (picklable by reference):
``build_context(context_data) -> context`` and ``run_task(context,
task) -> result``.  :mod:`repro.mc.campaign` is the main customer.
"""

from __future__ import annotations

import math
import signal
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.events import emit
from ..obs.metrics import REGISTRY, MetricsRegistry

# Per-worker state, set by the pool initializer.  A worker process
# serves exactly one TrialPool, so module globals are safe here (the
# same pattern the stdlib pool initializer API is designed around).
_BUILD_CONTEXT: Optional[Callable] = None
_RUN_TASK: Optional[Callable] = None
_CONTEXT_DATA: Dict[str, dict] = {}
_CONTEXTS: Dict[str, object] = {}


def _ignore_sigint() -> None:
    """Workers leave Ctrl-C to the parent.

    A terminal delivers SIGINT to the whole process group, so without
    this every pool worker would die mid-task printing its own
    traceback.  The parent handles the interrupt (shutting the pool
    down and exiting 130); workers just finish or get terminated.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


def _pool_initializer(build_context, run_task, context_data) -> None:
    global _BUILD_CONTEXT, _RUN_TASK, _CONTEXT_DATA, _CONTEXTS
    _ignore_sigint()
    _BUILD_CONTEXT = build_context
    _RUN_TASK = run_task
    _CONTEXT_DATA = context_data
    _CONTEXTS = {}


def _context_for(key: str):
    if key not in _CONTEXTS:
        _CONTEXTS[key] = _BUILD_CONTEXT(_CONTEXT_DATA[key])
    return _CONTEXTS[key]


def _run_chunk(chunk: Sequence[Tuple[str, dict]]) -> List[dict]:
    """Worker entry point: run one chunk of ``(context_key, task)``."""
    return [_RUN_TASK(_context_for(key), task) for key, task in chunk]


# Worker state of the resident pool: contexts are NOT fixed at
# initialization (a daemon's scenarios arrive per request), so chunks
# ship the context data and workers cache the built context under its
# content key, with a bound so a long-lived worker cannot grow forever.
_RESIDENT_LIMIT: int = 32
_RESIDENT_CONTEXTS: "OrderedDict[str, object]" = OrderedDict()

# Worker-local metrics: context-cache traffic accumulates here and each
# chunk result carries the delta back to the parent, which folds it
# into its own REGISTRY (the obs snapshot/merge protocol — workers are
# separate processes, so counters cannot be shared directly).
_RESIDENT_METRICS = MetricsRegistry()


def _resident_initializer(build_context, run_task, max_contexts) -> None:
    global _BUILD_CONTEXT, _RUN_TASK, _RESIDENT_LIMIT, _RESIDENT_CONTEXTS
    _ignore_sigint()
    _BUILD_CONTEXT = build_context
    _RUN_TASK = run_task
    _RESIDENT_LIMIT = max_contexts
    _RESIDENT_CONTEXTS = OrderedDict()
    _RESIDENT_METRICS.reset()


def _resident_context(
    cache: "OrderedDict[str, object]",
    build_context: Callable,
    key: str,
    data: dict,
    limit: int,
    metrics: Optional[MetricsRegistry] = None,
):
    if key in cache:
        cache.move_to_end(key)
        if metrics is not None:
            metrics.incr("pool.context_hits")
        return cache[key]
    context = build_context(data)
    cache[key] = context
    if metrics is not None:
        metrics.incr("pool.context_builds")
    while len(cache) > limit:
        cache.popitem(last=False)
        if metrics is not None:
            metrics.incr("pool.context_evictions")
    return context


def _resident_chunk(payload: Tuple[str, dict, List[dict]]) -> dict:
    """Worker entry point of :class:`ResidentPool` chunks.

    Returns the task results plus the worker's metrics delta since its
    last chunk, so the parent's registry sees context-cache traffic.
    """
    key, data, tasks = payload
    context = _resident_context(
        _RESIDENT_CONTEXTS, _BUILD_CONTEXT, key, data, _RESIDENT_LIMIT,
        metrics=_RESIDENT_METRICS,
    )
    results = [_RUN_TASK(context, task) for task in tasks]
    return {"results": results, "metrics": _RESIDENT_METRICS.flush_delta()}


def default_chunk_size(num_tasks: int, jobs: int) -> int:
    """Tasks per submitted future when the caller does not pin one.

    Aims at ~4 futures per worker — half as many futures (and half
    the submission/pickling overhead) as the previous 8-per-worker
    split, while still leaving enough slack for stragglers to
    rebalance.  Small batches (``num_tasks < 4 * jobs``, which covers
    every ``tasks < 2 * jobs`` campaign) degrade to one task per
    future, so every worker gets work.
    """
    return max(1, math.ceil(num_tasks / (4 * jobs)))


class TrialPool:
    """Run many context-sharing tasks over one process pool.

    Args:
        build_context: Module-level function turning a JSON context
            dict into the worker-side shared context.
        run_task: Module-level function executing one task against a
            context, returning a picklable result.
        contexts: ``key -> context data`` for every context tasks may
            reference.
        jobs: Worker processes; ``1`` runs in-process (no executor).
        chunk_size: Tasks per submitted future; defaults to
            :func:`default_chunk_size` (an even split at ~4 futures
            per worker, degrading to one task per future for small
            batches so no worker idles).
    """

    def __init__(
        self,
        build_context: Callable,
        run_task: Callable,
        contexts: Dict[str, dict],
        jobs: int = 1,
        chunk_size: Optional[int] = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(
                f"jobs must be an integer >= 1, got {jobs!r}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        self.build_context = build_context
        self.run_task = run_task
        self.contexts = dict(contexts)
        self.jobs = jobs
        self.chunk_size = chunk_size

    def map(self, tasks: Sequence[Tuple[str, dict]]) -> List[dict]:
        """Run every ``(context_key, task)``; results in input order."""
        unknown = {key for key, _ in tasks} - set(self.contexts)
        if unknown:
            raise KeyError(f"tasks reference unknown context(s): {sorted(unknown)}")
        if not tasks:
            return []
        if self.jobs == 1:
            local: Dict[str, object] = {}
            results = []
            for key, task in tasks:
                if key not in local:
                    local[key] = self.build_context(self.contexts[key])
                results.append(self.run_task(local[key], task))
            emit("pool.map", tasks=len(tasks), jobs=1,
                 contexts=len(local))
            return results

        chunk_size = self.chunk_size or default_chunk_size(
            len(tasks), self.jobs
        )
        chunks = [
            list(tasks[i:i + chunk_size])
            for i in range(0, len(tasks), chunk_size)
        ]
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_pool_initializer,
            initargs=(self.build_context, self.run_task, self.contexts),
        )
        emit("pool.spawn", jobs=self.jobs, resident=False,
             tasks=len(tasks), chunks=len(chunks))
        REGISTRY.incr("pool.spawns")
        try:
            chunk_results = list(pool.map(_run_chunk, chunks))
        except KeyboardInterrupt:
            # Don't wait for in-flight chunks: the user asked to stop.
            # Workers ignore SIGINT (see _ignore_sigint), so terminate
            # them instead of leaking processes that would finish their
            # chunk into a closed pipe.
            for process in getattr(pool, "_processes", {}).values():
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return [result for chunk in chunk_results for result in chunk]


class ResidentPool:
    """A long-lived trial executor for services.

    :class:`TrialPool` is built for batch runs: contexts are fixed at
    construction and the process pool lives for one :meth:`~TrialPool.map`
    call.  A daemon (``repro serve``) inverts both assumptions — scenarios
    arrive with requests, and executor startup must be paid once, not per
    job — so a ResidentPool:

    * keeps its :class:`~concurrent.futures.ProcessPoolExecutor` up
      across :meth:`run` calls (created lazily on first use, closed by
      :meth:`close`);
    * ships the context *data* with each chunk instead of at pool
      initialization, cached worker-side under its **content key** with
      a bounded LRU — so two requests for the same scenario share one
      compiled context, however far apart they arrive, and a week of
      distinct scenarios cannot exhaust worker memory;
    * is thread-safe: many queue workers may call :meth:`run`
      concurrently (executor submission is locked internally, and the
      ``jobs=1`` in-process path keeps its own locked LRU).

    ``jobs=1`` executes in the calling thread through the same chunk
    code path, bit-identical to the pooled result.
    """

    def __init__(
        self,
        build_context: Callable,
        run_task: Callable,
        jobs: int = 1,
        max_contexts: int = 32,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
        if not isinstance(max_contexts, int) or max_contexts < 1:
            raise ValueError(
                f"max_contexts must be an integer >= 1, got {max_contexts!r}"
            )
        self.build_context = build_context
        self.run_task = run_task
        self.jobs = jobs
        self.max_contexts = max_contexts
        self._executor: Optional[ProcessPoolExecutor] = None
        self._local: "OrderedDict[str, object]" = OrderedDict()
        import threading

        self._lock = threading.Lock()
        self._closed = False

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("ResidentPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_resident_initializer,
                    initargs=(
                        self.build_context,
                        self.run_task,
                        self.max_contexts,
                    ),
                )
                emit("pool.spawn", jobs=self.jobs, resident=True)
                REGISTRY.incr("pool.spawns")
            return self._executor

    def run(
        self,
        context_key: str,
        context_data: dict,
        tasks: Sequence[dict],
        chunk_size: Optional[int] = None,
    ) -> List[dict]:
        """Run ``tasks`` against one context; results in input order.

        ``context_key`` must content-address ``context_data`` — equal
        keys may reuse a previously built worker context without
        looking at the data again.
        """
        if not tasks:
            return []
        if self.jobs == 1:
            with self._lock:
                if self._closed:
                    raise RuntimeError("ResidentPool is closed")
                context = _resident_context(
                    self._local,
                    self.build_context,
                    context_key,
                    context_data,
                    self.max_contexts,
                    metrics=REGISTRY,
                )
            results = [self.run_task(context, task) for task in tasks]
            emit("pool.run", tasks=len(tasks), jobs=1,
                 context=context_key[:12])
            return results

        size = chunk_size or default_chunk_size(len(tasks), self.jobs)
        chunks = [
            (context_key, context_data, list(tasks[i:i + size]))
            for i in range(0, len(tasks), size)
        ]
        executor = self._ensure_executor()
        futures = [executor.submit(_resident_chunk, chunk) for chunk in chunks]
        results: List[dict] = []
        built = hits = 0
        for future in futures:
            outcome = future.result()
            results.extend(outcome["results"])
            delta = outcome["metrics"]
            REGISTRY.merge(delta)
            built += delta.get("counters", {}).get("pool.context_builds", 0)
            hits += delta.get("counters", {}).get("pool.context_hits", 0)
        emit("pool.run", tasks=len(tasks), jobs=self.jobs,
             chunks=len(chunks), context=context_key[:12],
             context_builds=built, context_hits=hits)
        return results

    def close(self) -> None:
        """Shut the executor down (idempotent); the pool is unusable after."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            self._local.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ResidentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
