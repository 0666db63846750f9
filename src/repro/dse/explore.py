"""The exploration driver: sample -> (store-checked) evaluate -> front.

:func:`explore` ties the subsystem together.  A sampler selects grid
assignments; each candidate is materialized, content-hashed, and looked
up in the result store; only unseen candidates are evaluated — in
batches, through the existing ``synthesize_scenarios`` ->
``run_campaigns`` pipeline, over one schedule cache and one trial pool
held for the whole exploration, with the compiled fast engine by
default.  Every finished batch is persisted before the next starts, so
a killed exploration loses at most one batch and a re-run executes
zero already-completed campaigns.  With ``shards > 1`` the fresh
candidates go to a work-stealing pool of shard processes instead
(:mod:`repro.dse.distributed`), each of which runs the blocks it claims
through the same :class:`BatchEvaluator`.

The measured objective vectors then go through the exact Pareto
machinery: per-candidate dominance rank, the front, and table/series
renderers in :mod:`repro.analysis.exploration`.

Infeasible corners of a space are findings, not crashes: a batch that
trips :class:`~repro.core.synthesis.InfeasibleError` is re-evaluated
candidate by candidate, and the infeasible ones are recorded (and
stored, so resumes skip them) with their error instead of aborting the
exploration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..api.scenario import Scenario
from ..core.synthesis import InfeasibleError
from ..engine.api import EngineStats
from ..engine.cache import ScheduleCache
from ..engine.trials import TrialPool
from ..mc.campaign import _resolve_seeds, run_campaigns
from ..mc.stats import CampaignStats
from ..obs.events import emit
from ..runtime.trial import build_context, execute_trial_task
from .objectives import (
    DEFAULT_OBJECTIVES,
    Evaluation,
    Objective,
    resolve_objectives,
)
from .pareto import dominance_rank
from .samplers import Sampler, get_sampler
from .space import Space
from .store import STORE_SCHEMA, ResultStore, candidate_key, open_store

#: Candidates evaluated per ``run_campaigns`` call — the durability
#: unit: a killed exploration loses at most this many evaluations.
DEFAULT_BATCH_SIZE = 8


class ExplorationError(ValueError):
    """Raised for explorations that cannot be set up or scored."""


@dataclass
class CandidateResult:
    """One explored grid point, scored.

    Attributes:
        assignment: The axis values of this candidate.
        name: The derived candidate scenario name.
        key: Content hash identifying the evaluation in the store.
        evaluation: The underlying evaluation record.
        values: Measured objective values by objective name (``None``
            for failed candidates).
        rank: Dominance rank among the exploration's healthy
            candidates (0 = Pareto front; ``None`` for failed ones).
        on_front: True when the candidate is Pareto-optimal.
    """

    assignment: Dict[str, object]
    name: str
    key: str
    evaluation: Evaluation
    values: Optional[Dict[str, float]] = None
    rank: Optional[int] = None
    on_front: bool = False

    @property
    def cached(self) -> bool:
        return self.evaluation.cached

    @property
    def error(self) -> Optional[str]:
        return self.evaluation.error

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "key": self.key,
            "assignment": dict(self.assignment),
            "values": dict(self.values) if self.values is not None else None,
            "rank": self.rank,
            "on_front": self.on_front,
            "cached": self.cached,
            "error": self.error,
        }


@dataclass
class ExplorationResult:
    """Everything one :func:`explore` call produced.

    Attributes:
        objectives: The resolved objectives, in scoring order.
        candidates: One entry per selected assignment, in selection
            order.
        executed: Campaign evaluations actually run by this call.
        reused: Evaluations restored from the result store.
        failed: Candidates that could not be evaluated (infeasible or
            unverified).
        stats: Engine counters of this call's synthesis work.
        sampler: Name of the sampler that selected the candidates.
        space_size: Full grid size of the explored space.
        store_path: Path of the backing store (``None`` in-memory).
        elapsed: Wall-clock seconds of the evaluation phase.
        shards: Worker processes the evaluation was partitioned over
            (1 for single-process exploration).
    """

    objectives: Tuple[Objective, ...]
    candidates: List[CandidateResult] = field(default_factory=list)
    executed: int = 0
    reused: int = 0
    failed: int = 0
    stats: EngineStats = field(default_factory=EngineStats)
    sampler: str = "grid"
    space_size: int = 0
    store_path: Optional[str] = None
    elapsed: float = 0.0
    shards: int = 1

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def front(self) -> List[CandidateResult]:
        """The Pareto-optimal candidates, in selection order."""
        return [c for c in self.candidates if c.on_front]

    def rows(self) -> List[Dict[str, object]]:
        from ..analysis.exploration import exploration_rows

        return exploration_rows(self)

    def table(self) -> str:
        """All explored candidates as an aligned ASCII table."""
        from ..analysis.exploration import exploration_table

        return exploration_table(self)

    def front_rows(self) -> List[Dict[str, object]]:
        from ..analysis.exploration import front_rows

        return front_rows(self)

    def front_table(self) -> str:
        """The Pareto front as an aligned ASCII table."""
        from ..analysis.exploration import front_table

        return front_table(self)

    def to_dict(self) -> dict:
        return {
            "sampler": self.sampler,
            "space_size": self.space_size,
            "shards": self.shards,
            "objectives": [
                {"name": obj.name, "direction": obj.direction}
                for obj in self.objectives
            ],
            "executed": self.executed,
            "reused": self.reused,
            "failed": self.failed,
            "elapsed": self.elapsed,
            "store": self.store_path,
            "candidates": [c.to_dict() for c in self.candidates],
            "front": [c.name for c in self.front],
            "engine": self.stats.to_dict(),
        }


# -- store record (de)serialization -------------------------------------------


def _record_of(evaluation: Evaluation) -> dict:
    return {
        "schema": STORE_SCHEMA,
        "name": evaluation.scenario.name,
        "assignment": dict(evaluation.assignment),
        "seeds": list(evaluation.seeds),
        "stats": (
            evaluation.stats.to_dict() if evaluation.stats is not None else None
        ),
        "total_latency": evaluation.total_latency,
        "rounds": evaluation.rounds,
        "elapsed": evaluation.elapsed,
        "error": evaluation.error,
        "campaigns": evaluation.campaigns,
        "shard": evaluation.shard,
        # Wall-clock write stamp — the merge tool's "newest wins"
        # tiebreak when partitioned segments disagree on a key.
        "written_at": time.time(),
    }


def _evaluation_from_record(
    record: dict,
    scenario: Scenario,
    assignment: Dict[str, object],
) -> Evaluation:
    if record.get("schema") != STORE_SCHEMA:
        raise ExplorationError(
            f"store record for {scenario.name!r} has schema "
            f"{record.get('schema')!r}, expected {STORE_SCHEMA!r}"
        )
    stats_data = record.get("stats")
    return Evaluation(
        scenario=scenario,
        assignment=dict(assignment),
        stats=(
            CampaignStats.from_dict(stats_data)
            if stats_data is not None else None
        ),
        total_latency=record.get("total_latency", 0.0),
        rounds=record.get("rounds", 0),
        seeds=tuple(record.get("seeds", ())),
        cached=True,
        elapsed=0.0,
        error=record.get("error"),
        # Pre-provenance records (schema unchanged: the fields are
        # additive) default to one spent campaign for healthy results.
        campaigns=record.get(
            "campaigns", 0 if record.get("error") else 1
        ),
        shard=record.get("shard"),
    )


# -- evaluation ---------------------------------------------------------------


def _candidate_key(
    store: ResultStore,
    scenario: Scenario,
    assignment: Dict[str, object],
    seed_list: Sequence[Optional[int]],
) -> str:
    """The store key — with an in-memory fallback for non-JSON axes.

    Axis values that are not JSON-serializable (spec dataclasses as
    whole-field replacements) cannot be content-hashed for a
    *persistent* store, but a purely in-memory
    exploration still needs a dedup key: fall back to a repr-based
    hash, which is stable within the process — exactly the lifetime of
    a :class:`MemoryStore`.
    """
    from .store import StoreError

    try:
        return candidate_key(scenario, assignment, seed_list)
    except StoreError:
        if store.path is not None:
            raise  # a persistent store genuinely needs JSON identity
        import hashlib

        payload = repr((
            scenario.name,
            sorted((name, repr(value)) for name, value in assignment.items()),
            list(seed_list),
        ))
        return "mem-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _failure_text(reports: Dict[str, object]) -> str:
    lines = []
    for mode_name, report in sorted(reports.items()):
        for violation in report.violations:
            lines.append(f"mode {mode_name!r}: {violation}")
    return "; ".join(lines) or "verification failed"


@dataclass
class _Candidate:
    """One selected assignment, materialized and keyed for the store."""

    assignment: Dict[str, object]
    scenario: Scenario
    seeds: List[Optional[int]]
    key: str


def _prepare(
    space: Space,
    assignment: Dict[str, object],
    objectives: Sequence[Objective],
    trials: Optional[int],
    seeds: Optional[Sequence[int]],
    store: ResultStore,
) -> _Candidate:
    """Materialize one assignment, failing fast *before* any synthesis
    or MC budget is spent on it."""
    scenario = space.candidate(assignment)
    if scenario.simulation is None:
        # An axis may null the simulation out (whole-field
        # replacement); catch it per candidate, cleanly.
        raise ExplorationError(
            f"candidate {scenario.name!r} has no SimulationSpec; "
            f"exploration evaluates through Monte-Carlo campaigns"
        )
    # Predictable scoring problems, e.g. an energy objective without a
    # radio spec.
    for objective in objectives:
        if objective.requires is not None:
            objective.requires(scenario)
    try:
        seed_list = _resolve_seeds(scenario, trials, seeds)
    except ValueError as exc:
        raise ExplorationError(str(exc)) from None
    key = _candidate_key(store, scenario, assignment, seed_list)
    return _Candidate(dict(assignment), scenario, seed_list, key)


@dataclass
class BatchEvaluator:
    """Evaluates fresh candidates in batches and stores every result.

    A single-process exploration holds one over its result store for
    the whole run; each shard process holds one over its part segment.
    Either way one :class:`~repro.engine.trials.TrialPool` serves every
    batch, so its workers keep the trial contexts they built.  Every
    batch is persisted before the next starts — the durability unit.
    Use it as a context manager: leaving the block closes the pool.

    Attributes:
        store: Where each evaluation is recorded.
        trials/seeds/jobs/cache/warm_start/engine: As in
            :func:`explore`.
        batch_size: Candidates per ``run_campaigns`` call.
        stats: Engine counters updated in place.
        shard: Provenance label written into every record (``None``
            outside a shard process).
    """

    store: ResultStore
    trials: Optional[int]
    seeds: Optional[Sequence[int]]
    jobs: int
    cache: Optional[ScheduleCache]
    warm_start: bool
    engine: str
    batch_size: int
    stats: EngineStats = field(default_factory=EngineStats)
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        self.pool = TrialPool(build_context, execute_trial_task, self.jobs)

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.pool.__exit__(exc_type, exc, traceback)

    def evaluate(
        self, fresh: Sequence[_Candidate]
    ) -> Tuple[List[Evaluation], int]:
        """Evaluate and store ``fresh``; returns one Evaluation per
        candidate and the number of campaigns run."""
        evaluations: List[Evaluation] = []
        for start in range(0, len(fresh), self.batch_size):
            batch = fresh[start:start + self.batch_size]
            evaluated = self._campaigns(batch)
            failed = sum(1 for e in evaluated if e.error is not None)
            emit("dse.batch", candidates=len(batch), failed=failed,
                 shard=self.shard)
            for candidate, evaluation in zip(batch, evaluated):
                self.store.put(candidate.key, _record_of(evaluation))
            evaluations.extend(evaluated)
        return evaluations, len(evaluations)

    def _campaigns(self, batch: Sequence[_Candidate]) -> List[Evaluation]:
        """One ``run_campaigns`` call over a batch.

        A batch-wide :class:`InfeasibleError` triggers per-candidate
        re-evaluation so only the genuinely infeasible candidates fail.
        """
        started = time.perf_counter()
        try:
            outcome = run_campaigns(
                [candidate.scenario for candidate in batch],
                trials=self.trials,
                seeds=self.seeds,
                jobs=self.jobs,
                cache=self.cache,
                warm_start=self.warm_start,
                stats=self.stats,
                engine=self.engine,
                pool=self.pool,
            )
        except InfeasibleError as exc:
            if len(batch) > 1:
                return [
                    evaluation for candidate in batch
                    for evaluation in self._campaigns([candidate])
                ]
            return [self._evaluation(
                batch[0], time.perf_counter() - started,
                error=f"infeasible: {exc}",
            )]

        per_candidate = (time.perf_counter() - started) / len(batch)
        by_scenario = {point.scenario: point for point in outcome.points}
        evaluations = []
        for candidate in batch:
            name = candidate.scenario.name
            schedules = outcome.schedules.get(name, {}).values()
            point = by_scenario.get(name)
            evaluations.append(self._evaluation(
                candidate,
                per_candidate,
                stats=point.stats if point is not None else None,
                total_latency=sum(s.total_latency for s in schedules),
                rounds=sum(s.num_rounds for s in schedules),
                error=(
                    _failure_text(outcome.reports.get(name, {}))
                    if point is None else None
                ),
            ))
        return evaluations

    def _evaluation(
        self, candidate: _Candidate, elapsed: float, **fields
    ) -> Evaluation:
        return Evaluation(
            scenario=candidate.scenario,
            assignment=dict(candidate.assignment),
            seeds=tuple(candidate.seeds),
            elapsed=elapsed,
            campaigns=0 if fields.get("error") is not None else 1,
            shard=self.shard,
            **fields,
        )


def _measured_vector(
    candidate: CandidateResult,
    objectives: Sequence[Objective],
) -> Optional[List[float]]:
    """A candidate's normalized objective vector for sampler feedback
    (``None`` for failed candidates — the sampler skips them)."""
    if candidate.error is not None:
        return None
    try:
        return [
            obj.normalized(obj.value(candidate.evaluation))
            for obj in objectives
        ]
    except Exception:
        return None


def _check_count(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ExplorationError(
            f"{name} must be an integer >= 1, got {value!r}"
        )


def explore(
    space: Space,
    sampler: "Union[str, Sampler]" = "grid",
    objectives: "Sequence[str | Objective]" = DEFAULT_OBJECTIVES,
    trials: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    samples: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    cache_dir: "Optional[str | Path]" = None,
    warm_start: bool = True,
    store: "Union[ResultStore, str, Path, None]" = None,
    engine: str = "fast",
    batch_size: int = DEFAULT_BATCH_SIZE,
    shards: int = 1,
) -> ExplorationResult:
    """Explore a design space and compute its Pareto front.

    Args:
        space: The parameter space (base scenario + axes).
        sampler: Selection strategy — a :class:`Sampler` instance or a
            name (``grid``, ``random``, ``halton``, ``adaptive``,
            ``surrogate``).  Iterative samplers (``surrogate``) are
            driven in propose/measure rounds; the rest select all
            candidates up front.
        objectives: Objective names or instances (default
            ``energy, latency, miss``).
        trials: MC trials per candidate (default: the base scenario's
            ``simulation.trials``).
        seeds: Explicit per-trial seeds shared by every candidate
            (common random numbers across the space).
        samples: Candidate budget handed to name-built samplers
            (random/halton draw size, adaptive survivor target).
        jobs: Worker processes shared by synthesis and trials (per
            shard when ``shards > 1``).
        cache: Schedule cache to share (or ``cache_dir`` to build one).
        cache_dir: Persistent schedule-cache directory.
        warm_start: Seed Algorithm 1 at the demand lower bound.
        store: Result store — a :class:`ResultStore`, a path (suffix
            selects JSONL vs. SQLite), or ``None`` for in-memory.
            Stored evaluations are **reused, not re-run**.
        engine: Trial engine (``fast``/``reference`` are bit-identical;
            ``vectorized`` batches trials into tensor programs and is
            distribution-equivalent).
        batch_size: Candidates per evaluation batch (per claim block
            when sharded) — the durability granularity of the store.
        shards: Processes to evaluate candidates on.  ``1`` evaluates
            in this process; more fans each selection's fresh
            candidates out over a work-stealing pool of shard processes
            (see :mod:`repro.dse.distributed`), which needs a
            persistent ``store`` and JSON-representable axis values.
            The shards share ``cache``'s directory.

    Returns:
        An :class:`ExplorationResult`; ``result.front`` is the exact
        Pareto front over the measured objective vectors.
    """
    _check_count("batch_size", batch_size)
    _check_count("shards", shards)
    objectives = resolve_objectives(objectives)
    if isinstance(sampler, str):
        sampler = get_sampler(sampler, samples=samples)
    if space.base.simulation is None:
        raise ExplorationError(
            "exploration evaluates candidates through Monte-Carlo "
            "campaigns; give the base scenario a SimulationSpec "
            "(duration, trials, seed)"
        )

    own_store = not isinstance(store, ResultStore)
    store = store if isinstance(store, ResultStore) else open_store(store)
    cache = cache if cache is not None else (
        ScheduleCache(cache_dir) if cache_dir is not None else None
    )
    stats = EngineStats()
    result = ExplorationResult(
        objectives=objectives,
        stats=stats,
        sampler=sampler.name,
        space_size=space.size,
        store_path=str(store.path) if store.path is not None else None,
        shards=shards,
    )
    started = time.perf_counter()

    def run_selection(selected) -> List[CandidateResult]:
        """Store-check one assignment list and evaluate what is new."""
        prepared: List[Tuple[_Candidate, Optional[Evaluation]]] = []
        fresh: List[_Candidate] = []
        for assignment in selected:
            candidate = _prepare(
                space, assignment, objectives, trials, seeds, store
            )
            record = store.get(candidate.key)
            if record is None:
                fresh.append(candidate)
                prepared.append((candidate, None))
            else:
                prepared.append((candidate, _evaluation_from_record(
                    record, candidate.scenario, assignment
                )))
                result.reused += 1
        emit("dse.selection", selected=len(selected),
             reused=len(selected) - len(fresh), fresh=len(fresh))
        evaluations, executed = evaluator.evaluate(fresh) if fresh else ([], 0)
        result.executed += executed
        evaluated = iter(evaluations)
        return [
            CandidateResult(
                assignment=dict(candidate.assignment),
                name=candidate.scenario.name,
                key=candidate.key,
                evaluation=(
                    evaluation if evaluation is not None else next(evaluated)
                ),
            )
            for candidate, evaluation in prepared
        ]

    try:
        if shards > 1:
            from .distributed import ShardedEvaluator

            evaluator = ShardedEvaluator(
                space, store, shards, trials, seeds, jobs, cache,
                warm_start, engine, batch_size,
            )
        else:
            evaluator = BatchEvaluator(
                store, trials, seeds, jobs, cache, warm_start, engine,
                batch_size, stats,
            )
        with evaluator:
            if getattr(sampler, "iterative", False):
                # Iterative (model-guided) samplers: propose -> measure
                # -> feed the normalized objective vectors back, until
                # the sampler stops proposing.
                measured: List[dict] = []
                round_index = 0
                while True:
                    proposals = sampler.propose(space, objectives, measured)
                    if not proposals:
                        break
                    emit("dse.round", round=round_index,
                         proposed=len(proposals))
                    round_index += 1
                    round_results = run_selection(proposals)
                    result.candidates.extend(round_results)
                    for candidate in round_results:
                        measured.append({
                            "assignment": dict(candidate.assignment),
                            "vector": _measured_vector(candidate, objectives),
                        })
            else:
                result.candidates = run_selection(
                    sampler.select(space, objectives)
                )
    finally:
        result.elapsed = time.perf_counter() - started
        if own_store:
            store.close()

    _score_result(result)
    return result


def _score_result(result: ExplorationResult) -> None:
    """Score a result in place: measured objective vectors, exact front."""
    objectives = result.objectives
    healthy: List[CandidateResult] = []
    for candidate in result.candidates:
        if candidate.error is not None:
            result.failed += 1
            continue
        candidate.values = {
            obj.name: obj.value(candidate.evaluation) for obj in objectives
        }
        healthy.append(candidate)
    if healthy:
        vectors = [
            tuple(
                obj.normalized(candidate.values[obj.name])
                for obj in objectives
            )
            for candidate in healthy
        ]
        for candidate, rank in zip(healthy, dominance_rank(vectors)):
            candidate.rank = rank
            candidate.on_front = rank == 0
