"""Monte-Carlo campaigns: fan one scenario out over trials × seeds × grids.

A *campaign* turns the one-shot runtime simulator into an evaluation
instrument.  For every scenario it executes ``n_trials`` independent
simulation trials per point of a loss-parameter grid, then aggregates
the samples into :class:`~repro.mc.stats.CampaignStats` (deadline-miss
rates with Wilson confidence intervals, radio-on distributions,
mode-change latency tails).

The execution plan reuses every throughput mechanism the engine
already has:

1. **Synthesis happens once per distinct config.**  All modes of all
   scenarios go through one :func:`repro.engine.run_cached_batch`
   call, which dedupes identical problems by content fingerprint and
   consults the persistent schedule cache — trials and sweep points
   never trigger re-synthesis, because loss parameters are not part of
   the synthesis problem.
2. **Trials run over one shared process pool.**  One
   :class:`repro.engine.trials.TrialPool` serves the whole campaign;
   each scenario's context is keyed by the content hash of its
   :func:`scenario_context` data, and workers rebuild it (deployments,
   topology, radio timing) once, then execute trials from JSON-sized
   task descriptions.
3. **Seeding is deterministic.**  Trial ``i`` uses
   ``derive_seed(campaign_seed, i)`` — a SHA-256 derivation, stable
   across platforms and processes.  The *same* seed list is reused at
   every grid point (common random numbers), so differences between
   points are differences of parameters, not of luck.  Explicit
   ``seeds=[...]`` override the derivation.

Single-trial fidelity: a campaign trial with seed ``s`` is
bit-identical to running the scenario through
``Experiment.run(simulate=True)`` with ``seed=s`` in its loss spec —
the tests assert this, so campaign numbers are directly comparable to
every previously published single-run result.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..api.scenario import Scenario, ScenarioError
from ..api.experiment import synthesize_scenarios
from ..core.rng import derive_seed
from ..core.schedule import ModeSchedule
from ..core.verify import VerificationReport
from ..engine.api import EngineStats
from ..engine.cache import ScheduleCache
from ..engine.trials import TrialPool, context_key
from ..io.serialize import mode_to_dict, schedule_to_dict
from ..obs.events import emit
from ..obs.metrics import timed_span
from ..runtime.loss import build_loss, reseeded
from ..runtime.trial import (
    TrialBatch,
    TrialResult,
    build_context,
    check_engine,
    execute_trial,
    execute_trial_batch,
)
from .stats import CampaignStats


class PointResult:
    """All trials of one scenario at one grid point, aggregated.

    The trials are kept as one columnar :class:`~repro.runtime.trial
    .TrialBatch` (``batch``); :attr:`trials` builds their
    :class:`~repro.runtime.trial.TrialResult` objects on first read.
    Give either ``trials`` or ``batch``.
    """

    def __init__(
        self,
        scenario: str,
        point: Dict[str, object],
        seeds: List[Optional[int]],
        stats: CampaignStats,
        trials: Optional[List[TrialResult]] = None,
        batch: Optional[TrialBatch] = None,
    ) -> None:
        self.scenario = scenario
        self.point = point
        self.seeds = seeds
        self.stats = stats
        self.batch = (
            batch if batch is not None
            else TrialBatch.from_results(trials or [])
        )
        self._trials = trials

    @property
    def trials(self) -> List[TrialResult]:
        """The per-trial results, in seed order."""
        if self._trials is None:
            self._trials = self.batch.results()
        return self._trials

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointResult):
            return NotImplemented
        return (
            self.scenario, self.point, self.seeds, self.stats, self.trials
        ) == (
            other.scenario, other.point, other.seeds, other.stats,
            other.trials,
        )

    def __repr__(self) -> str:
        return (
            f"PointResult(scenario={self.scenario!r}, point={self.point!r}, "
            f"trials={len(self.batch)}, stats={self.stats!r})"
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "point": dict(self.point),
            "seeds": list(self.seeds),
            "stats": self.stats.to_dict(),
        }


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    Attributes:
        points: One :class:`PointResult` per (scenario, grid point),
            scenarios in input order, grid points in sweep order.
        schedules: Synthesized schedule per mode, per scenario.
        reports: Verification report per mode, per scenario.
        stats: Engine counters — ``modes_synthesized`` equals the
            number of *distinct* synthesis problems, however many
            trials ran.
        engines: Trial engine actually used per scenario, after the
            fallback to the reference simulator — e.g.
            ``{"baseline": "vectorized"}``.
        wall_seconds: Wall-clock per campaign phase —
            ``{"synthesis", "simulation", "aggregation"}`` — measured
            by the obs phase spans (always populated; logging need not
            be on).
    """

    points: List[PointResult] = field(default_factory=list)
    schedules: Dict[str, Dict[str, ModeSchedule]] = field(default_factory=dict)
    reports: Dict[str, Dict[str, VerificationReport]] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)
    engines: Dict[str, str] = field(default_factory=dict)
    wall_seconds: Dict[str, float] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def verified(self) -> bool:
        return all(
            report.ok
            for by_mode in self.reports.values()
            for report in by_mode.values()
        )

    @property
    def ok(self) -> bool:
        """Verified and collision-free across every trial."""
        return self.verified and all(
            point.stats.collisions == 0 for point in self.points
        )

    def rows(self) -> List[Dict[str, object]]:
        """One flat metrics dict per grid point (the results table)."""
        from ..analysis.campaign import campaign_rows

        return campaign_rows(self)

    def table(self, verbose: bool = False) -> str:
        """The campaign statistics as an aligned ASCII table."""
        from ..analysis.campaign import campaign_table

        return campaign_table(self, verbose=verbose)

    def to_dict(self) -> dict:
        return {
            "points": [point.to_dict() for point in self.points],
            "verified": self.verified,
            "ok": self.ok,
            "trial_engines": dict(self.engines),
            "wall_seconds": dict(self.wall_seconds),
            "engine": self.stats.to_dict(),
        }


def _expand_sweep(sweep: Optional[Dict[str, Sequence]]) -> List[Dict[str, object]]:
    """Cartesian product of a ``{param: values}`` sweep description."""
    if not sweep:
        return [{}]
    names = list(sweep)
    for name, values in sweep.items():
        if isinstance(values, (str, bytes)) or not isinstance(
            values, (list, tuple)
        ):
            raise ValueError(
                f"sweep parameter {name!r} needs a list/tuple of values, "
                f"got {values!r}"
            )
        if not values:
            raise ValueError(f"sweep parameter {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(sweep[name] for name in names))
    ]


def _resolve_seeds(
    scenario: Scenario,
    trials: Optional[int],
    seeds: Optional[Sequence[int]],
) -> List[Optional[int]]:
    """The per-trial seed list for one scenario.

    Explicit ``seeds`` win; otherwise ``trials`` (falling back to the
    scenario's ``simulation.trials``) seeds are derived from the
    scenario's ``simulation.seed`` master.
    """
    spec = scenario.simulation
    assert spec is not None
    if seeds is not None:
        seed_list = list(seeds)
        for seed in seed_list:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ValueError(
                    f"seeds must be integers, got {seed!r}"
                )
        if not seed_list:
            raise ValueError("seeds must not be empty")
        if trials is not None and trials != len(seed_list):
            raise ValueError(
                f"trials={trials} contradicts len(seeds)={len(seed_list)}; "
                f"give one or the other"
            )
        return list(seed_list)
    count = trials if trials is not None else spec.trials
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(
            f"trials must be an integer >= 1, got {count!r}"
        )
    return [derive_seed(spec.seed, index) for index in range(count)]


def scenario_context(scenario: Scenario, schedules: Dict[str, ModeSchedule]) -> dict:
    """The JSON context trial workers rebuild deployments from.

    Public building block for custom evaluation loops: feed the result
    to :func:`repro.runtime.trial.build_context` to get the
    :class:`~repro.runtime.trial.TrialContext` (deployments, compiled
    round program, simulation parameters) that
    :func:`~repro.runtime.trial.run_trial` executes against.
    """
    system = scenario.to_system()  # assigns mode-graph ids
    spec = scenario.simulation
    assert spec is not None
    topology = scenario.build_topology()
    radio = scenario.build_radio(topology)
    return {
        "modes": [mode_to_dict(mode) for mode in system.modes],
        "schedules": {
            name: schedule_to_dict(schedule)
            for name, schedule in schedules.items()
        },
        "sim": spec.to_dict(),
        "radio": (
            {"payload_bytes": radio.payload_bytes, "diameter": radio.diameter}
            if radio is not None
            else None
        ),
        "topology": scenario.topology.to_dict() if scenario.topology else None,
    }


def _point_loss(
    scenario: Scenario,
    point: Dict[str, object],
    seed: Optional[int],
) -> Optional[dict]:
    """The loss description of one trial: base params + grid point + seed."""
    if scenario.loss is None:
        if point:
            raise ScenarioError(
                f"scenario {scenario.name!r} has no loss model to sweep "
                f"over; set Scenario.loss"
            )
        return None
    kind = scenario.loss.kind
    params = dict(scenario.loss.params)
    params.update(point)
    if seed is not None:
        params = reseeded(kind, params, seed)  # no-op for seedless kinds
    return {"kind": kind, "params": params}


def run_campaigns(
    scenarios: Sequence[Scenario],
    trials: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    sweep: Optional[Dict[str, Sequence]] = None,
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    cache_dir: "Optional[str | Path]" = None,
    warm_start: bool = True,
    stats: Optional[EngineStats] = None,
    engine: str = "fast",
    pool=None,
) -> CampaignResult:
    """Run a Monte-Carlo campaign over many scenarios.

    Args:
        scenarios: Scenario descriptions; each needs a simulation
            phase.
        trials: Trials per grid point (default: each scenario's
            ``simulation.trials``).
        seeds: Explicit per-trial seeds, overriding the deterministic
            derivation from ``simulation.seed`` (the list is reused at
            every grid point — common random numbers).
        sweep: ``{loss_param: [values, ...]}`` grid; the cartesian
            product of all parameters is evaluated per scenario.
        jobs: Worker processes shared by synthesis *and* trial
            execution; ``1`` runs everything in-process.
        cache: An existing schedule cache to share.
        cache_dir: Build a persistent cache here (ignored when
            ``cache`` is given).
        warm_start: Seed Algorithm 1 at the demand lower bound.
        stats: Engine counters to update in place.
        engine: Trial engine — ``"fast"`` (default) lowers each
            scenario into a compiled round program once per worker
            (via the trial pool's context cache) and runs trials
            trace-free, falling back to the reference simulator for
            unsupported features; ``"vectorized"`` additionally
            executes all trials of a grid point as batched tensor
            programs — every built-in loss kind (``glossy`` floods
            included) under both node policies (``local_belief``
            included); distribution-equivalent to the other engines,
            not bit-identical; like ``"fast"``, falls back to the
            reference simulator for loss kinds that lower onto no
            sampling primitive, uncompilable scenarios and hosts
            outside the deployment.  ``"reference"`` always
            walks the object-level simulator.  ``fast`` and
            ``reference`` results are bit-identical;
            :attr:`CampaignResult.engines` records what actually ran.
        pool: Optional :class:`~repro.engine.trials.TrialPool` (built
            with :func:`~repro.runtime.trial.build_context` and
            :func:`~repro.runtime.trial.execute_trial_task`) to run
            trials on instead of one opened for this call — a
            long-lived pool keeps its workers, and the contexts they
            built, across calls; ``jobs`` then only governs synthesis.

    Returns:
        A :class:`CampaignResult`; scenarios whose schedules fail
        verification contribute reports but no trials.

    Raises:
        ScenarioError: on inconsistent scenarios (no simulation phase,
            sweeping a scenario without a loss model, ...).
        ValueError: on invalid ``trials`` / ``seeds`` / ``sweep`` /
            ``engine``.
    """
    if not scenarios:
        raise ValueError("run_campaigns needs at least one scenario")
    check_engine(engine)
    for scenario in scenarios:
        scenario.validate()
        if scenario.simulation is None:
            raise ScenarioError(
                f"scenario {scenario.name!r} has no simulation phase; a "
                f"campaign needs Scenario.simulation (duration, trials, seed)"
            )
    points = _expand_sweep(sweep)
    seeds_by_scenario = {
        scenario.name: _resolve_seeds(scenario, trials, seeds)
        for scenario in scenarios
    }
    emit(
        "campaign.begin",
        scenarios=[scenario.name for scenario in scenarios],
        points=len(points),
        engine=engine,
        jobs=jobs,
        trials=sum(len(s) for s in seeds_by_scenario.values()) * len(points),
    )

    # Phase 1 — synthesis: one cached batch over every mode of every
    # scenario (shared with Experiment.run); identical problems — all
    # grid points, all trials — are solved exactly once.
    cache = cache if cache is not None else (
        ScheduleCache(cache_dir) if cache_dir is not None else None
    )
    synthesis_started = time.perf_counter()
    all_schedules, all_reports, stats = synthesize_scenarios(
        scenarios, jobs=jobs, cache=cache, warm_start=warm_start, stats=stats
    )
    wall_seconds = {"synthesis": time.perf_counter() - synthesis_started}

    result = CampaignResult(
        schedules=all_schedules, reports=all_reports, stats=stats,
        wall_seconds=wall_seconds,
    )
    contexts: Dict[str, dict] = {}
    keys: Dict[str, str] = {}  # scenario name -> its context's key
    tasks: List[Tuple[str, dict]] = []
    for scenario in scenarios:
        schedules = all_schedules[scenario.name]
        if not all(r.ok for r in all_reports[scenario.name].values()):
            continue  # reports record the failure; no trials to run

        # Validate every grid point eagerly, in the parent, where the
        # error message can name the scenario — not deep in a worker.
        topology = scenario.build_topology()
        for point in points:
            loss = _point_loss(scenario, point, seed=0)
            if loss is not None:
                try:
                    build_loss(loss["kind"], loss["params"], topology)
                except ValueError as exc:
                    raise ScenarioError(
                        f"scenario {scenario.name!r}: {exc}"
                    ) from None

        context_data = scenario_context(scenario, schedules)
        key = keys[scenario.name] = context_key(context_data)
        contexts[key] = context_data
        scenario_seeds = seeds_by_scenario[scenario.name]
        for point_index, point in enumerate(points):
            emit("campaign.point.begin", scenario=scenario.name,
                 point=point_index, trials=len(scenario_seeds))
            if engine == "vectorized":
                # The vectorized kernel amortizes tensor setup over
                # many trials, so a grid point becomes a few *batch*
                # tasks (one per worker share) instead of one task per
                # trial.  Per-trial seeding keeps results identical
                # however the batches are cut.
                indexed = list(enumerate(scenario_seeds))
                shares = max(1, min(jobs, len(indexed)))
                size = (len(indexed) + shares - 1) // shares
                for lo in range(0, len(indexed), size):
                    tasks.append((
                        key,
                        {
                            "scenario": scenario.name,
                            "point": point_index,
                            "trials": indexed[lo : lo + size],
                            "loss": _point_loss(scenario, point, seed=None),
                            "engine": engine,
                        },
                    ))
            else:
                for trial_index, seed in enumerate(scenario_seeds):
                    tasks.append((
                        key,
                        {
                            "scenario": scenario.name,
                            "point": point_index,
                            "trial": trial_index,
                            "seed": seed,
                            "loss": _point_loss(scenario, point, seed),
                            "engine": engine,
                        },
                    ))

    # Phase 2 — evaluation: every trial of every scenario and grid
    # point drains through one pool — the caller's, or one opened for
    # this call.
    if pool is None:
        run_task = execute_trial_batch if engine == "vectorized" else execute_trial
        opened = TrialPool(build_context, run_task, jobs=jobs)
    else:
        opened = contextlib.nullcontext(pool)
    with timed_span("simulate") as simulate_span, opened as trial_pool:
        outcomes = trial_pool.map(tasks, contexts)
    wall_seconds["simulation"] = simulate_span.seconds

    # Phase 3 — aggregation, grouped by (scenario, grid point).  Batch
    # envelopes concatenate as columns; per-trial payloads (fast and
    # reference campaigns) become one batch per grid point.
    with timed_span("aggregate") as aggregate_span:
        batches: Dict[Tuple[str, int], List[TrialBatch]] = {}
        payloads: Dict[Tuple[str, int], List[TrialResult]] = {}
        fallback_reasons: Dict[str, str] = {}
        for outcome in outcomes:
            key = (outcome["scenario"], outcome["point"])
            if "batch" in outcome:
                batches.setdefault(key, []).append(outcome["batch"])
            else:
                payloads.setdefault(key, []).append(
                    TrialResult.from_dict(outcome)
                )
            result.engines[outcome["scenario"]] = outcome["engine_used"]
            reason = outcome.get("engine_reason")
            if reason is not None:
                fallback_reasons[outcome["scenario"]] = reason
        for key, trial_results in payloads.items():
            batches[key] = [TrialBatch.from_results(trial_results)]
        for scenario in scenarios:
            if scenario.name not in keys:
                continue
            for point_index, point in enumerate(points):
                batch = TrialBatch.concat(
                    batches.get((scenario.name, point_index), [])
                )
                stats_point = CampaignStats.aggregate(batch)
                result.points.append(
                    PointResult(
                        scenario=scenario.name,
                        point=dict(point),
                        seeds=list(seeds_by_scenario[scenario.name]),
                        stats=stats_point,
                        batch=batch,
                    )
                )
                emit("campaign.point.end", scenario=scenario.name,
                     point=point_index, trials=len(batch),
                     collisions=stats_point.collisions)
    wall_seconds["aggregation"] = aggregate_span.seconds

    # The engine-resolution ladder's outcome, per scenario: what ran,
    # and — when a rung was taken — why.
    for name, used in result.engines.items():
        emit("engine.resolved", scenario=name, requested=engine, used=used)
        if used != engine:
            emit("engine.fallback", scenario=name, requested=engine,
                 used=used, reason=fallback_reasons.get(name))
    emit("campaign.end", points=len(result.points), ok=result.ok,
         wall_seconds=wall_seconds)
    return result


def run_campaign(
    scenario: Scenario,
    trials: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    sweep: Optional[Dict[str, Sequence]] = None,
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    cache_dir: "Optional[str | Path]" = None,
    warm_start: bool = True,
    engine: str = "fast",
) -> CampaignResult:
    """One-scenario convenience wrapper over :func:`run_campaigns`."""
    return run_campaigns(
        [scenario],
        trials=trials,
        seeds=seeds,
        sweep=sweep,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        warm_start=warm_start,
        engine=engine,
    )
