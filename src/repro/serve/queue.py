"""Admission control and the worker pool that executes jobs.

The queue holds :class:`~repro.serve.dedup.Execution` objects (not
jobs — attached duplicates never occupy a second slot).  Worker
*threads* drain it; each execution runs through the very same fast
paths the batch tools use:

* synthesis via :func:`repro.api.experiment.synthesize_scenarios`
  against the service's shared :class:`~repro.engine.cache
  .ScheduleCache` (one synthesis at a time — the solver is CPU-bound
  and the cache counters stay exact);
* trials via :func:`repro.runtime.trial.execute_trial_batch` over the
  shared :class:`~repro.engine.trials.ResidentPool`, in **batches** of
  ``trial_batch`` seeds with the execution's cancel flag polled
  between batches — a cancelled job stops within one batch, and every
  batch emits a progress event to every attached job.

Admission control rejects work *before* it costs anything:

* ``max_queued``  — executions waiting to start (HTTP 429);
* ``max_inflight`` — executions running at once (workers wait, clients
  are only rejected via ``max_queued``);
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
from ..dse.store import STORE_SCHEMA, ResultStore, candidate_key
from ..engine.api import EngineStats
from ..engine.cache import ScheduleCache
from ..engine.trials import ResidentPool
from ..mc.campaign import _point_loss, _resolve_seeds, scenario_context
from ..mc.stats import CampaignStats
from ..obs.events import emit
from ..obs.metrics import timed_span
from ..runtime.trial import ENGINES, TrialResult, build_context, execute_trial_batch
from .dedup import DedupIndex, Execution, job_key
from .jobs import TERMINAL, JobTable


class AdmissionError(RuntimeError):
    """A submission the service refuses; ``status`` is the HTTP code."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


def _result_record(
    scenario: Scenario,
    seeds: Sequence[Optional[int]],
    stats: Optional[CampaignStats],
    total_latency: float,
    rounds: int,
    elapsed: float,
    error: Optional[str] = None,
) -> dict:
    """A store record in the exact schema ``repro.dse`` writes.

    Shared schema => shared store: exploration results answer service
    requests and service results seed explorations.
    """
    return {
        "schema": STORE_SCHEMA,
        "name": scenario.name,
        "assignment": {},
        "seeds": list(seeds),
        "stats": stats.to_dict() if stats is not None else None,
        "total_latency": total_latency,
        "rounds": rounds,
        "elapsed": elapsed,
        "error": error,
    }


def _failure_text(reports: Dict[str, object]) -> str:
    lines = []
    for mode_name, report in sorted(reports.items()):
        for violation in report.violations:
            lines.append(f"mode {mode_name!r}: {violation}")
    return "; ".join(lines) or "verification failed"


class JobQueue:
    """The service's execution core: admission, workers, cancellation.

    Args:
        table: The job table (shared with the HTTP layer).
        store: Shared result store (completed-work dedup + durability).
        pool: Shared resident trial pool.
        cache: Shared schedule cache (may be ``None``).
        workers: Worker threads draining the queue.
        max_queued: Executions allowed to wait (admission bound).
        max_inflight: Executions allowed to run at once (defaults to
            ``workers``).
        max_trials: Per-request trial budget (admission bound).
        trial_batch: Trials per execution batch — the cancellation and
            progress granularity.
        engine: Default trial engine for submissions that name none.
        synth_jobs: Worker processes for each synthesis call (1 =
            in-thread, the service default; synthesis is serialized
            across jobs either way).
    """

    def __init__(
        self,
        table: JobTable,
        store: ResultStore,
        pool: ResidentPool,
        cache: Optional[ScheduleCache] = None,
        workers: int = 2,
        max_queued: int = 64,
        max_inflight: Optional[int] = None,
        max_trials: int = 100_000,
        trial_batch: int = 16,
        engine: str = "fast",
        synth_jobs: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if max_queued < 1:
            raise ValueError(f"max_queued must be >= 1, got {max_queued!r}")
        if max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {max_trials!r}")
        if trial_batch < 1:
            raise ValueError(f"trial_batch must be >= 1, got {trial_batch!r}")
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINES)}, got {engine!r}"
            )
        self.table = table
        self.store = store
        self.pool = pool
        self.cache = cache
        self.workers = workers
        self.max_queued = max_queued
        self.max_inflight = max_inflight if max_inflight is not None else workers
        self.max_trials = max_trials
        self.trial_batch = trial_batch
        self.engine = engine
        self.synth_jobs = synth_jobs

        self.dedup = DedupIndex()
        self.engine_stats = EngineStats()
        self._queue: "deque[Execution]" = deque()
        self._condition = threading.Condition()
        self._inflight = 0
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self._synth_lock = threading.Lock()
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
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINES)}, got {engine!r}"
            )
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
                "running": self._inflight,
                "max_queued": self.max_queued,
                "max_inflight": self.max_inflight,
                "max_trials": self.max_trials,
                "campaigns_executed": self.campaigns_executed,
                "trials_executed": self.trials_executed,
            }
            resolution = {
                requested: dict(used)
                for requested, used in self.engine_resolution.items()
            }
        stats = self.engine_stats
        return {
            "admission": counters,
            "dedup": self.dedup.stats(),
            "engine_resolution": resolution,
            "jobs": self.table.counts(),
            "engine": {
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "modes_synthesized": stats.modes_synthesized,
                "solver_runs": stats.solver_runs,
                "total_time": stats.total_time,
            },
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
                while True:
                    if self._queue and self._inflight < self.max_inflight:
                        execution = self._queue.popleft()
                        self._inflight += 1
                        break
                    if self._stopping and not self._queue:
                        return
                    self._condition.wait(0.2)
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
                    self._inflight -= 1
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

    def _run_execution(self, execution: Execution) -> None:
        scenario = execution.scenario
        seeds = execution.seeds
        started = time.perf_counter()
        self._transition_all(execution, "synthesizing")

        # Phase 1 — synthesis (serialized: exact cache/engine counters,
        # and the solver is CPU-bound anyway).
        with self._synth_lock:
            try:
                schedules, reports, _ = synthesize_scenarios(
                    [scenario],
                    jobs=self.synth_jobs,
                    cache=self.cache,
                    stats=self.engine_stats,
                )
            except InfeasibleError as exc:
                error = f"infeasible: {exc}"
                record = _result_record(
                    scenario, seeds, None, 0.0, 0,
                    time.perf_counter() - started, error=error,
                )
                self.store.put(execution.key, record)
                self._fail_execution(execution, error)
                return
        by_mode = schedules[scenario.name]
        mode_reports = reports[scenario.name]
        if not all(report.ok for report in mode_reports.values()):
            error = _failure_text(mode_reports)
            record = _result_record(
                scenario, seeds, None, 0.0, 0,
                time.perf_counter() - started, error=error,
            )
            self.store.put(execution.key, record)
            self._fail_execution(execution, error)
            return

        total_latency = sum(s.total_latency for s in by_mode.values())
        rounds = sum(s.num_rounds for s in by_mode.values())

        if scenario.simulation is None:
            record = _result_record(
                scenario, seeds, None, total_latency, rounds,
                time.perf_counter() - started,
            )
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
        context_key = candidate_key(scenario, {"context": "trial"}, [])
        results: List[TrialResult] = []
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
                outcome = self.pool.run(context_key, context_data, [task])[0]
                engine_used = outcome.get("engine_used", engine_used)
                results.extend(
                    TrialResult.from_dict(payload)
                    for payload in outcome["results"]
                )
                with self._condition:
                    self.trials_executed += len(batch)
                self._progress_all(
                    execution,
                    trials_done=len(results),
                    trials_total=len(seeds),
                    engine_used=engine_used,
                )

        with timed_span("aggregate"):
            stats = CampaignStats.aggregate(results)
        record = _result_record(
            scenario, seeds, stats, total_latency, rounds,
            time.perf_counter() - started,
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
            trials_done=len(results), trials_total=len(seeds),
        )
