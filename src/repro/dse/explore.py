"""The exploration driver: sample -> (store-checked) evaluate -> front.

:func:`explore` ties the subsystem together.  A sampler selects grid
assignments; each candidate is materialized, content-hashed, and looked
up in the result store; only unseen candidates are evaluated — in
batches, through the existing ``synthesize_scenarios`` ->
``run_campaigns`` pipeline, over one shared solver pool and schedule
cache, with the compiled fast engine by default.  Every finished batch
is persisted before the next starts, so a killed exploration loses at
most one batch and a re-run executes zero already-completed campaigns.

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
from ..mc.campaign import _resolve_seeds, run_campaigns
from ..mc.stats import CampaignStats
from ..obs.events import emit
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
            "engine": {
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "modes_synthesized": self.stats.modes_synthesized,
                "solver_runs": self.stats.solver_runs,
                "total_time": self.stats.total_time,
            },
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


def _evaluate_batch(
    batch: "List[Tuple[Scenario, Dict[str, object], List[Optional[int]]]]",
    trials: Optional[int],
    seeds: Optional[Sequence[int]],
    jobs: int,
    cache: Optional[ScheduleCache],
    warm_start: bool,
    stats: EngineStats,
    engine: str,
    pool=None,
    shard: Optional[int] = None,
) -> List[Evaluation]:
    """Evaluate one batch of candidates; one Evaluation per input.

    A batch-wide :class:`InfeasibleError` triggers per-candidate
    re-evaluation so only the genuinely infeasible candidates fail.
    ``pool`` (a :class:`~repro.engine.trials.TrialPool`) lets a
    long-lived caller — the exploration shards — reuse one executor
    and its worker-side context caches across many batches; ``shard``
    labels the produced evaluations for provenance.
    """
    started = time.perf_counter()
    scenarios = [scenario for scenario, _, _ in batch]
    try:
        outcome = run_campaigns(
            scenarios,
            trials=trials,
            seeds=seeds,
            jobs=jobs,
            cache=cache,
            warm_start=warm_start,
            stats=stats,
            engine=engine,
            pool=pool,
        )
    except InfeasibleError as exc:
        if len(batch) == 1:
            scenario, assignment, seed_list = batch[0]
            return [Evaluation(
                scenario=scenario,
                assignment=dict(assignment),
                seeds=tuple(seed_list),
                elapsed=time.perf_counter() - started,
                error=f"infeasible: {exc}",
                campaigns=0,
                shard=shard,
            )]
        evaluations: List[Evaluation] = []
        for item in batch:
            evaluations.extend(_evaluate_batch(
                [item], trials, seeds, jobs, cache, warm_start, stats,
                engine, pool, shard,
            ))
        return evaluations

    elapsed = time.perf_counter() - started
    per_candidate = elapsed / len(batch)
    by_scenario = {point.scenario: point for point in outcome.points}
    evaluations = []
    for scenario, assignment, seed_list in batch:
        schedules = outcome.schedules.get(scenario.name, {})
        total_latency = sum(s.total_latency for s in schedules.values())
        rounds = sum(s.num_rounds for s in schedules.values())
        point = by_scenario.get(scenario.name)
        if point is None:
            evaluations.append(Evaluation(
                scenario=scenario,
                assignment=dict(assignment),
                total_latency=total_latency,
                rounds=rounds,
                seeds=tuple(seed_list),
                elapsed=per_candidate,
                error=_failure_text(outcome.reports.get(scenario.name, {})),
                campaigns=0,
                shard=shard,
            ))
            continue
        evaluations.append(Evaluation(
            scenario=scenario,
            assignment=dict(assignment),
            stats=point.stats,
            total_latency=total_latency,
            rounds=rounds,
            seeds=tuple(seed_list),
            elapsed=per_candidate,
            campaigns=1,
            shard=shard,
        ))
    return evaluations


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
    pool=None,
    shard: Optional[int] = None,
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
        jobs: Worker processes shared by synthesis and trials.
        cache: Schedule cache to share (or ``cache_dir`` to build one).
        cache_dir: Persistent schedule-cache directory.
        warm_start: Seed Algorithm 1 at the demand lower bound.
        store: Result store — a :class:`ResultStore`, a path (suffix
            selects JSONL vs. SQLite), or ``None`` for in-memory.
            Stored evaluations are **reused, not re-run**.
        engine: Trial engine (``fast``/``reference`` are bit-identical;
            ``vectorized`` batches trials into tensor programs and is
            distribution-equivalent).
        batch_size: Candidates per evaluation batch — the durability
            granularity of the store.
        pool: Optional :class:`~repro.engine.trials.TrialPool` to
            execute trials on instead of one opened per batch — a
            long-lived pool whose workers cache built contexts across
            batches (and across calls); the distributed exploration
            shards pass one so ``jobs`` only governs synthesis.
        shard: Provenance label written into every produced store
            record (the shard id of a distributed exploration;
            ``None`` for single-process runs).

    Returns:
        An :class:`ExplorationResult`; ``result.front`` is the exact
        Pareto front over the measured objective vectors.
    """
    objectives = resolve_objectives(objectives)
    if isinstance(sampler, str):
        sampler = get_sampler(sampler, samples=samples)
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) \
            or batch_size < 1:
        raise ExplorationError(
            f"batch_size must be an integer >= 1, got {batch_size!r}"
        )
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
    )
    started = time.perf_counter()

    def run_selection(selected) -> List[CandidateResult]:
        """Store-check + batched evaluation of one assignment list."""
        pending: List[Tuple[int, str, Scenario, Dict[str, object], List]] = []
        slots: List[Optional[CandidateResult]] = []
        for assignment in selected:
            scenario = space.candidate(assignment)
            if scenario.simulation is None:
                # An axis may null the simulation out (whole-field
                # replacement); catch it per candidate, cleanly.
                raise ExplorationError(
                    f"candidate {scenario.name!r} has no SimulationSpec; "
                    f"exploration evaluates through Monte-Carlo campaigns"
                )
            # Fail fast on predictable scoring problems (e.g. an energy
            # objective without a radio spec) *before* any synthesis or
            # MC budget is spent on this candidate.
            for objective in objectives:
                if objective.requires is not None:
                    objective.requires(scenario)
            try:
                seed_list = _resolve_seeds(scenario, trials, seeds)
            except ValueError as exc:
                raise ExplorationError(str(exc)) from None
            key = _candidate_key(store, scenario, assignment, seed_list)
            record = store.get(key)
            if record is not None:
                evaluation = _evaluation_from_record(
                    record, scenario, assignment
                )
                slots.append(CandidateResult(
                    assignment=dict(assignment),
                    name=scenario.name,
                    key=key,
                    evaluation=evaluation,
                ))
                result.reused += 1
            else:
                pending.append(
                    (len(slots), key, scenario, assignment, seed_list)
                )
                slots.append(None)

        emit("dse.selection", selected=len(selected),
             reused=len(selected) - len(pending), fresh=len(pending),
             shard=shard)
        for start in range(0, len(pending), batch_size):
            chunk = pending[start:start + batch_size]
            evaluations = _evaluate_batch(
                [(s, a, sl) for _, _, s, a, sl in chunk],
                trials, seeds, jobs, cache, warm_start, stats, engine,
                pool, shard,
            )
            failed = sum(1 for e in evaluations if e.error is not None)
            emit("dse.batch", candidates=len(chunk), failed=failed,
                 shard=shard)
            for (slot, key, scenario, assignment, seed_list), evaluation \
                    in zip(chunk, evaluations):
                store.put(key, _record_of(evaluation))
                slots[slot] = CandidateResult(
                    assignment=dict(assignment),
                    name=scenario.name,
                    key=key,
                    evaluation=evaluation,
                )
                result.executed += 1
        assert all(slot is not None for slot in slots)
        return list(slots)

    candidates: List[CandidateResult] = []
    try:
        if getattr(sampler, "iterative", False):
            # Iterative (model-guided) samplers: propose -> measure ->
            # feed the normalized objective vectors back, until the
            # sampler stops proposing.
            measured: List[dict] = []
            round_index = 0
            while True:
                proposals = sampler.propose(space, objectives, measured)
                if not proposals:
                    break
                emit("dse.round", round=round_index,
                     proposed=len(proposals), shard=shard)
                round_index += 1
                round_results = run_selection(proposals)
                candidates.extend(round_results)
                for candidate in round_results:
                    measured.append({
                        "assignment": dict(candidate.assignment),
                        "vector": _measured_vector(candidate, objectives),
                    })
        else:
            candidates = run_selection(sampler.select(space, objectives))
    finally:
        result.elapsed = time.perf_counter() - started
        if own_store:
            store.close()

    result.candidates = candidates
    _score_result(result)
    return result


def _score_result(result: ExplorationResult) -> None:
    """Score a result in place: measured objective vectors, exact front.

    Shared by :func:`explore` and the distributed driver
    (:func:`repro.dse.distributed.explore_sharded`), so a sharded
    exploration ranks candidates exactly like a single-process one.
    """
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


def explore_scenario(
    base: Scenario,
    axes,
    **kwargs,
) -> ExplorationResult:
    """Convenience: build a :class:`Space` around ``base`` and explore.

    ``axes`` is a list of :class:`~repro.dse.space.Axis` (or
    ``(name, target, values)`` tuples); keyword arguments pass through
    to :func:`explore` (plus ``derive=`` for the space).
    """
    from .space import Axis

    derive = kwargs.pop("derive", None)
    built = [
        axis if isinstance(axis, Axis) else Axis(*axis) for axis in axes
    ]
    return explore(Space(base=base, axes=built, derive=derive), **kwargs)
