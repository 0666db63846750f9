"""Batched task execution over the engine's process pool.

The synthesis side of the engine parallelizes *ILP iterations*
(:mod:`repro.engine.parallel`); this module is the equivalent for
*evaluation work*: thousands of small, independent tasks (Monte-Carlo
trials) that share a large, expensive context (deployments, schedules,
topology).  :class:`TrialPool` is the one trial pool — a batch
campaign opens one per call, the daemon and each exploration shard
hold one for their lifetime:

* the executor is spawned lazily on the first pooled :meth:`~TrialPool
  .map` and kept until :meth:`~TrialPool.close`, so repeated maps pay
  process startup once;
* tasks are submitted in **chunks**, amortizing the per-future
  overhead over many trials; each chunk carries the data of the
  contexts it names, and workers cache the built contexts under their
  **content key** (:func:`context_key`) in a bounded LRU — two maps
  over the same scenario share one built context, however far apart
  they arrive, and a stream of distinct scenarios cannot exhaust
  worker memory;
* ``jobs=1`` bypasses the executor entirely and runs everything
  in-process through the very same code path, which keeps single-
  process and pooled results bit-identical and makes the pool easy to
  reason about in tests.

The pool is deliberately generic — it knows nothing about simulation.
Callers hand it two module-level functions (picklable by reference):
``build_context(context_data) -> context`` and ``run_task(context,
task) -> result``.  :mod:`repro.mc.campaign` is the main customer.

Every process pool of the engine — this one and the synthesis pool of
:mod:`repro.engine.parallel` — starts through :func:`_spawn_executor`
and stops through :func:`_stop_executor`: workers ignore SIGINT, the
pool's own threads leave Ctrl-C to the caller's main thread, and a
pool stopped by Ctrl-C (or, for synthesis, with only superseded solves
left running) terminates its workers and joins them instead of waiting
for their tasks.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.events import emit
from ..obs.metrics import REGISTRY, MetricsRegistry

#: Built contexts each worker (and the in-process path) keeps, least
#: recently used first out.
CONTEXT_CACHE_SIZE = 32


def context_key(context_data: dict) -> str:
    """The content key of a trial context: SHA-256 of its canonical JSON.

    Equal keys may reuse a previously built context without looking at
    the data again, so every caller keys contexts through this one
    function.
    """
    text = json.dumps(context_data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- process lifecycle ---------------------------------------------------------


def _ignore_sigint() -> None:
    """Workers leave Ctrl-C to the parent.

    A terminal delivers SIGINT to the whole process group, so without
    this every pool worker would die mid-task printing its own
    traceback.  The parent handles the interrupt (terminating the pool
    and exiting 130); workers just finish or get terminated.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


#: The signals that stop a process: Ctrl-C, and ``terminate()``.
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


class _Pool(ProcessPoolExecutor):
    """A process pool that submits with :data:`_STOP_SIGNALS` blocked.

    The pool starts its helper threads and forks its workers inside
    ``submit``, and both inherit the submitting thread's signal mask.
    So no helper thread can take a Ctrl-C or SIGTERM meant for the
    process (the main thread, blocked on a future, would never see
    it), and no worker can be interrupted before :func:`_init_worker`
    has set its handlers.
    """

    def submit(self, fn, /, *args, **kwargs):
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            return super().submit(fn, *args, **kwargs)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _init_worker(setup: Optional[Callable], args: tuple) -> None:
    _ignore_sigint()
    # Whatever handler the parent installed, terminate() must kill.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Forked with the stop signals blocked (_Pool.submit): take them
    # from here on.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    if setup is not None:
        setup(*args)


def _spawn_executor(
    jobs: int, setup: Optional[Callable] = None, args: tuple = ()
) -> ProcessPoolExecutor:
    """A process pool whose workers ignore SIGINT, then run ``setup``."""
    executor = _Pool(
        max_workers=jobs, initializer=_init_worker, initargs=(setup, args)
    )
    emit("pool.spawn", jobs=jobs)
    REGISTRY.incr("pool.spawns")
    return executor


def _stop_executor(executor: ProcessPoolExecutor, terminate: bool) -> None:
    """Shut a pool down, cancelling work that has not started.

    Normally waits for running tasks.  With ``terminate`` it terminates
    the workers and joins them instead: after Ctrl-C (workers ignore
    SIGINT, and waiting would let a long task, an ILP solve or a big
    chunk, hold the exit for minutes) and when only work whose result
    is no longer wanted still runs.
    """
    if terminate:
        for process in list((executor._processes or {}).values()):
            process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


# -- context cache -------------------------------------------------------------


def _cached_context(
    cache: "OrderedDict[str, object]",
    build_context: Callable,
    key: str,
    data: dict,
    metrics: MetricsRegistry,
):
    """The context under ``key``: an LRU hit, or built from ``data``."""
    if key in cache:
        cache.move_to_end(key)
        metrics.incr("pool.context_hits")
        return cache[key]
    context = build_context(data)
    cache[key] = context
    metrics.incr("pool.context_builds")
    while len(cache) > CONTEXT_CACHE_SIZE:
        cache.popitem(last=False)
        metrics.incr("pool.context_evictions")
    return context


def _run_tasks(
    lookup: Callable[[str], object],
    run_task: Callable,
    chunk: Sequence[Tuple[str, dict]],
) -> List[dict]:
    """Run ``(context_key, task)`` pairs, looking each context up once
    per run of equal keys."""
    results = []
    key: Optional[str] = None
    context = None
    for task_key, task in chunk:
        if task_key != key:
            key, context = task_key, lookup(task_key)
        results.append(run_task(context, task))
    return results


# Per-worker state, set by the pool initializer.  A worker process
# serves exactly one pool, so module globals are safe here (the same
# pattern the stdlib pool initializer API is designed around).
_BUILD_CONTEXT: Optional[Callable] = None
_RUN_TASK: Optional[Callable] = None
_CONTEXTS: "OrderedDict[str, object]" = OrderedDict()

# Worker-local metrics: context-cache traffic accumulates here and each
# chunk result carries the delta back to the parent, which folds it
# into its own REGISTRY (the obs snapshot/merge protocol — workers are
# separate processes, so counters cannot be shared directly).
_WORKER_METRICS = MetricsRegistry()


def _pool_initializer(build_context: Callable, run_task: Callable) -> None:
    global _BUILD_CONTEXT, _RUN_TASK, _CONTEXTS
    _BUILD_CONTEXT = build_context
    _RUN_TASK = run_task
    _CONTEXTS = OrderedDict()
    _WORKER_METRICS.reset()


def _run_chunk(
    contexts: Dict[str, dict], chunk: Sequence[Tuple[str, dict]]
) -> dict:
    """Worker entry point: run one chunk of ``(context_key, task)``.

    ``contexts`` holds the data of every context the chunk names.
    Returns the task results plus the worker's metrics delta since its
    last chunk, so the parent's registry sees context-cache traffic.
    """
    results = _run_tasks(
        lambda key: _cached_context(
            _CONTEXTS, _BUILD_CONTEXT, key, contexts[key], _WORKER_METRICS
        ),
        _RUN_TASK,
        chunk,
    )
    return {"results": results, "metrics": _WORKER_METRICS.flush_delta()}


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

    Thread-safe: many threads (the daemon's queue workers) may call
    :meth:`map` concurrently.  Close it with :meth:`close`, or use it
    as a context manager.  Ctrl-C during :meth:`map`, or a ``with``
    block left by Ctrl-C, closes the pool and terminates its workers
    instead of waiting for them.

    Args:
        build_context: Module-level function turning a JSON context
            dict into the worker-side shared context.
        run_task: Module-level function executing one task against a
            context, returning a picklable result.
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
        self.jobs = jobs
        self.chunk_size = chunk_size
        self._executor: Optional[ProcessPoolExecutor] = None
        self._local: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False

    def map(
        self,
        tasks: Sequence[Tuple[str, dict]],
        contexts: Mapping[str, dict],
    ) -> List[dict]:
        """Run every ``(context_key, task)``; results in input order.

        ``contexts`` maps each key the tasks name to its context data;
        the key must content-address the data (see
        :func:`context_key`).
        """
        keys = {key for key, _ in tasks}
        unknown = keys - set(contexts)
        if unknown:
            raise KeyError(f"tasks reference unknown context(s): {sorted(unknown)}")
        if not tasks:
            return []
        if self.jobs == 1:
            self._check_open()

            def lookup(key: str):
                with self._lock:
                    return _cached_context(self._local, self.build_context,
                                           key, contexts[key], REGISTRY)

            results = _run_tasks(lookup, self.run_task, tasks)
            emit("pool.map", tasks=len(tasks), jobs=1, contexts=len(keys))
            return results

        size = self.chunk_size or default_chunk_size(len(tasks), self.jobs)
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        futures = []
        try:
            executor = self._ensure_executor()
            for chunk in chunks:
                shipped = {key: contexts[key] for key, _ in chunk}
                futures.append(executor.submit(_run_chunk, shipped, chunk))
            outcomes = [future.result() for future in futures]
        except KeyboardInterrupt:
            self._shutdown(interrupted=True)
            raise
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        results: List[dict] = []
        built = hits = 0
        for outcome in outcomes:
            results.extend(outcome["results"])
            REGISTRY.merge(outcome["metrics"])
            counters = outcome["metrics"].get("counters", {})
            built += counters.get("pool.context_builds", 0)
            hits += counters.get("pool.context_hits", 0)
        emit("pool.map", tasks=len(tasks), jobs=self.jobs,
             chunks=len(chunks), contexts=len(keys),
             context_builds=built, context_hits=hits)
        return results

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("TrialPool is closed")

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            self._check_open()
            if self._executor is None:
                self._executor = _spawn_executor(
                    self.jobs, _pool_initializer,
                    (self.build_context, self.run_task),
                )
            return self._executor

    def _shutdown(self, interrupted: bool) -> None:
        with self._lock:
            self._closed = True
            self._local.clear()
            executor, self._executor = self._executor, None
        if executor is not None:
            _stop_executor(executor, interrupted)

    def close(self) -> None:
        """Shut the executor down (idempotent); the pool is unusable after."""
        self._shutdown(interrupted=False)

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._shutdown(interrupted=isinstance(exc, KeyboardInterrupt))
