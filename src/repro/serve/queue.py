"""Admission control and the worker pool that executes jobs.

The queue holds :class:`~repro.serve.dedup.Execution` objects (not
jobs — attached duplicates never occupy a second slot).  Worker
*threads* drain it; each execution runs through the very same fast
paths the batch tools use:

* synthesis via :func:`repro.api.experiment.synthesize_scenarios`
  against the service's shared :class:`~repro.engine.cache
  .ScheduleCache`, in the worker thread, concurrently with the other
  workers: the cache is the single-flight point, so a job whose
  schedule is cached never waits for another job's solve, distinct
  cold modes solve in parallel (HiGHS releases the GIL), and a mode
  two jobs need at once is solved once while the other job waits for
  it;
* trials via :func:`repro.runtime.trial.execute_trial_batch` over the
  service's long-lived :class:`~repro.engine.trials.TrialPool`, in
  **batches** of ``trial_batch`` seeds with the execution's cancel
  flag polled between batches — a cancelled job stops within one
  batch, and every batch emits a progress event to every attached
  job;
* results as store records built by the exploration's own code
  (:mod:`repro.dse.explore`), so exploration results answer service
  requests and service results seed explorations.

Admission control rejects work *before* it costs anything:

* ``max_queued``  — executions waiting to start (HTTP 429);
* ``max_trials`` — per-request trial budget (HTTP 429);
* draining       — a stopping service admits nothing (HTTP 503).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

from ..api.experiment import synthesize_scenarios
from ..api.scenario import Scenario, ScenarioError
from ..core.synthesis import InfeasibleError
from ..dse.explore import _failure_text, _record_of
from ..dse.objectives import Evaluation
from ..dse.store import ResultStore
from ..engine.api import EngineStats
from ..engine.cache import ScheduleCache
from ..engine.trials import TrialPool, context_key
from ..mc.campaign import _point_loss, _resolve_seeds, scenario_context
from ..mc.stats import CampaignStats
from ..obs.events import emit
from ..obs.metrics import timed_span
from ..runtime.trial import TrialBatch, check_engine
from .dedup import DedupIndex, Execution, job_key
from .jobs import TERMINAL, JobTable


class AdmissionError(RuntimeError):
    """A submission the service refuses; ``status`` is the HTTP code."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


class JobQueue:
    """The service's execution core: admission, workers, cancellation.

    Args:
        table: The job table (shared with the HTTP layer).
        store: Shared result store (completed-work dedup + durability).
        pool: Shared long-lived trial pool.
        cache: Shared schedule cache (may be ``None``).
        workers: Worker threads draining the queue — each runs one
            execution at a time.
        max_queued: Executions allowed to wait (admission bound).
        max_trials: Per-request trial budget (admission bound).
        trial_batch: Trials per execution batch — the cancellation and
            progress granularity.
        engine: Default trial engine for submissions that name none.
    """

    def __init__(
        self,
        table: JobTable,
        store: ResultStore,
        pool: TrialPool,
        cache: Optional[ScheduleCache] = None,
        workers: int = 2,
        max_queued: int = 64,
        max_trials: int = 100_000,
        trial_batch: int = 16,
        engine: str = "fast",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if max_queued < 1:
            raise ValueError(f"max_queued must be >= 1, got {max_queued!r}")
        if max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {max_trials!r}")
        if trial_batch < 1:
            raise ValueError(f"trial_batch must be >= 1, got {trial_batch!r}")
        check_engine(engine)
        self.table = table
        self.store = store
        self.pool = pool
        self.cache = cache
        self.workers = workers
        self.max_queued = max_queued
        self.max_trials = max_trials
        self.trial_batch = trial_batch
        self.engine = engine

        self.dedup = DedupIndex()
        self.engine_stats = EngineStats()
        self._queue: "deque[Execution]" = deque()
        self._condition = threading.Condition()
        self._running = 0
        self._stopping = False
        self._threads: List[threading.Thread] = []
        # Admission/throughput counters (all under _condition's lock).
        self.accepted = 0
        self.rejected: Dict[str, int] = {
            "queue_full": 0, "trial_budget": 0, "draining": 0,
        }
        self.cancelled = 0
        self.campaigns_executed = 0
        self.trials_executed = 0
        # requested engine -> {engine actually used -> count}; fallback
        # shows up as an off-diagonal entry (e.g. vectorized -> reference).
        self.engine_resolution: Dict[str, Dict[str, int]] = {}

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, finish queued + running work, join workers.

        Returns True when every worker exited within ``timeout``.
        """
        with self._condition:
            self._stopping = True
            self._condition.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        return not any(thread.is_alive() for thread in self._threads)

    # -- admission -------------------------------------------------------
    def submit(
        self,
        scenario: Scenario,
        trials: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
        engine: Optional[str] = None,
        client: str = "anonymous",
    ) -> dict:
        """Admit one request; returns the job record.

        Raises:
            AdmissionError: queue full / budget exceeded / draining.
            ScenarioError: inconsistent scenario (an HTTP 400).
            ValueError: bad trials/seeds/engine (an HTTP 400).
        """
        engine = engine if engine is not None else self.engine
        check_engine(engine)
        scenario.validate()
        if scenario.simulation is not None:
            seed_list: List[Optional[int]] = _resolve_seeds(
                scenario, trials, seeds
            )
        else:
            if trials is not None or seeds is not None:
                raise ScenarioError(
                    f"scenario {scenario.name!r} has no simulation phase; "
                    f"trials/seeds only apply to campaign jobs"
                )
            seed_list = []
        if len(seed_list) > self.max_trials:
            with self._condition:
                self.rejected["trial_budget"] += 1
            emit(
                "serve.reject", reason="trial_budget", client=client,
                trials=len(seed_list), limit=self.max_trials,
            )
            raise AdmissionError(
                429,
                f"trial budget exceeded: {len(seed_list)} trials requested, "
                f"limit is {self.max_trials} per job",
            )
        key = job_key(scenario, seed_list)

        with self._condition:
            if self._stopping:
                self.rejected["draining"] += 1
                emit("serve.reject", reason="draining", client=client)
                raise AdmissionError(503, "service is draining")

            # Dedup layer 1: completed work in the shared store.
            record = self.store.get(key)
            if record is not None:
                self.dedup.count_store_hit()
                self.accepted += 1
                emit(
                    "serve.dedup", layer="store", key=key,
                    scenario=scenario.name, client=client,
                )
                job = self.table.create(
                    scenario.name, key, client=client,
                    trials=len(seed_list), engine=engine,
                )
                error = record.get("error")
                if error is not None:
                    return self.table.transition(
                        job["id"], "failed", error=error, cached=True,
                        result=dict(record),
                    )
                return self.table.transition(
                    job["id"], "done", cached=True, result=dict(record),
                    trials_done=len(record.get("seeds", seed_list)),
                )

            # Dedup layer 2: identical work already in flight — attach.
            execution = self.dedup.lookup(key)
            if execution is not None:
                self.dedup.count_attach()
                self.accepted += 1
                emit(
                    "serve.dedup", layer="inflight", key=key,
                    scenario=scenario.name, client=client,
                    leader=execution.job_ids[0],
                )
                job = self.table.create(
                    scenario.name, key, client=client,
                    trials=len(seed_list), engine=execution.engine,
                )
                execution.attach(job["id"])
                # Mirror the execution's progress so this job's event
                # stream starts where the work actually is.
                leader_state = self._execution_state(execution)
                if leader_state in ("synthesizing", "simulating"):
                    self.table.transition(job["id"], leader_state)
                return job

            if len(self._queue) >= self.max_queued:
                self.rejected["queue_full"] += 1
                emit(
                    "serve.reject", reason="queue_full", client=client,
                    queued=len(self._queue), limit=self.max_queued,
                )
                raise AdmissionError(
                    429,
                    f"queue full: {len(self._queue)} execution(s) waiting, "
                    f"limit is {self.max_queued}",
                )

            self.accepted += 1
            job = self.table.create(
                scenario.name, key, client=client,
                trials=len(seed_list), engine=engine,
            )
            execution = Execution(key, scenario, seed_list, engine, job["id"])
            self.dedup.register(execution)
            self._queue.append(execution)
            self._condition.notify()
            return job

    def cancel(self, job_id: str) -> bool:
        """Cancel one job; returns False when it already ended.

        A queued execution whose last job cancels is removed from the
        queue and never executes; a running one stops within one trial
        batch (its worker polls the cancel flag).
        """
        job = self.table.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        with self._condition:
            if job["state"] in TERMINAL:
                return False
            self.table.transition(job_id, "cancelled")
            self.cancelled += 1
            execution = self.dedup.lookup(job["key"])
            if execution is not None and job_id in execution.job_ids:
                if execution.detach(job_id):
                    # Nobody is waiting any more.
                    if execution in self._queue:
                        self._queue.remove(execution)
                        self.dedup.release(execution)
                    # else: the running worker sees .cancel and stops.
            return True

    def queued_count(self) -> int:
        with self._condition:
            return len(self._queue)

    def stats(self) -> dict:
        with self._condition:
            counters = {
                "accepted": self.accepted,
                "rejected": dict(self.rejected),
                "cancelled": self.cancelled,
                "queued": len(self._queue),
                "running": self._running,
                "max_queued": self.max_queued,
                "max_trials": self.max_trials,
                "campaigns_executed": self.campaigns_executed,
                "trials_executed": self.trials_executed,
            }
            resolution = {
                requested: dict(used)
                for requested, used in self.engine_resolution.items()
            }
        return {
            "admission": counters,
            "dedup": self.dedup.stats(),
            "engine_resolution": resolution,
            "jobs": self.table.counts(),
            "engine": self.engine_stats.to_dict(),
        }

    # -- execution -------------------------------------------------------
    def _execution_state(self, execution: Execution) -> str:
        for job_id in execution.active_jobs():
            job = self.table.get(job_id)
            if job is not None:
                return job["state"]
        return "queued"

    def _worker(self) -> None:
        while True:
            with self._condition:
                while not self._queue:
                    if self._stopping:
                        return
                    self._condition.wait(0.2)
                execution = self._queue.popleft()
                self._running += 1
            try:
                if execution.cancel.is_set():
                    self.dedup.release(execution)
                    continue
                self._run_execution(execution)
            except Exception as exc:  # defensive: a worker must survive
                self._fail_execution(execution, f"internal error: {exc}")
            finally:
                self.dedup.release(execution)
                with self._condition:
                    self._running -= 1
                    self._condition.notify_all()

    def _transition_all(self, execution: Execution, state: str, **detail) -> None:
        for job_id in execution.active_jobs():
            job = self.table.get(job_id)
            if job is not None and job["state"] not in TERMINAL:
                self.table.transition(job_id, state, **detail)

    def _progress_all(self, execution: Execution, **detail) -> None:
        for job_id in execution.active_jobs():
            try:
                self.table.progress(job_id, **detail)
            except KeyError:
                pass

    def _fail_execution(self, execution: Execution, error: str) -> None:
        self._transition_all(execution, "failed", error=error)

    def _fail_with_record(self, execution: Execution, record: dict) -> None:
        self.store.put(execution.key, record)
        self._fail_execution(execution, record["error"])

    def _run_execution(self, execution: Execution) -> None:
        scenario = execution.scenario
        seeds = execution.seeds
        started = time.perf_counter()

        def record_of(**fields) -> dict:
            """This execution's store record, built as explorations do."""
            return _record_of(Evaluation(
                scenario=scenario, assignment={}, seeds=tuple(seeds),
                elapsed=time.perf_counter() - started, **fields,
            ))

        self._transition_all(execution, "synthesizing")

        # Phase 1 — synthesis, concurrent with the other workers: the
        # shared cache makes each mode's solve single-flight, and the
        # engine counters are merged under a lock.
        try:
            schedules, reports, _ = synthesize_scenarios(
                [scenario], jobs=1, cache=self.cache,
                stats=self.engine_stats,
            )
        except InfeasibleError as exc:
            self._fail_with_record(
                execution, record_of(error=f"infeasible: {exc}")
            )
            return
        by_mode = schedules[scenario.name]
        mode_reports = reports[scenario.name]
        if not all(report.ok for report in mode_reports.values()):
            self._fail_with_record(
                execution, record_of(error=_failure_text(mode_reports))
            )
            return

        total_latency = sum(s.total_latency for s in by_mode.values())
        rounds = sum(s.num_rounds for s in by_mode.values())

        if scenario.simulation is None:
            record = record_of(total_latency=total_latency, rounds=rounds)
            self.store.put(execution.key, record)
            self._transition_all(
                execution, "done", result=record, cached=False
            )
            return

        # Phase 2 — trials, in cancellable batches over the shared pool.
        if execution.cancel.is_set():
            return
        self._transition_all(execution, "simulating", trials_total=len(seeds))
        context_data = scenario_context(scenario, by_mode)
        key = context_key(context_data)
        batches: List[TrialBatch] = []
        trials_done = 0
        engine_used: Optional[str] = None
        with timed_span("simulate"):
            for lo in range(0, len(seeds), self.trial_batch):
                if execution.cancel.is_set():
                    return  # every attached job already cancelled itself
                batch = [
                    (lo + offset, seed)
                    for offset, seed
                    in enumerate(seeds[lo:lo + self.trial_batch])
                ]
                task = {
                    "scenario": scenario.name,
                    "point": 0,
                    "trials": batch,
                    "loss": _point_loss(scenario, {}, seed=None),
                    "engine": execution.engine,
                }
                outcome = self.pool.map(
                    [(key, task)], {key: context_data}
                )[0]
                engine_used = outcome["engine_used"]
                batches.append(outcome["batch"])
                trials_done += len(outcome["batch"])
                with self._condition:
                    self.trials_executed += len(batch)
                self._progress_all(
                    execution,
                    trials_done=trials_done,
                    trials_total=len(seeds),
                    engine_used=engine_used,
                )

        with timed_span("aggregate"):
            stats = CampaignStats.aggregate(TrialBatch.concat(batches))
        record = record_of(
            stats=stats, total_latency=total_latency, rounds=rounds,
            campaigns=1,
        )
        record["engine_used"] = engine_used
        self.store.put(execution.key, record)
        requested = execution.engine
        used = engine_used or requested
        with self._condition:
            self.campaigns_executed += 1
            by_used = self.engine_resolution.setdefault(requested, {})
            by_used[used] = by_used.get(used, 0) + 1
        if used != requested:
            emit(
                "engine.fallback", scenario=scenario.name,
                requested=requested, used=used,
            )
        self._transition_all(
            execution, "done", result=record, cached=False,
            trials_done=trials_done, trials_total=len(seeds),
        )
