"""Experiment runner — the execution side of ``repro.api``.

An :class:`Experiment` fans a list of :class:`~repro.api.scenario.Scenario`
descriptions through the synthesis engine's shared pool and persistent
cache (one :func:`repro.engine.run_cached_batch` call covers every mode
of every scenario, so identical problems across scenarios are solved
once), then verifies each schedule, optionally executes the scenario's
simulation phase, and collects one metrics row per scenario into a
results table.

The pipeline per scenario is the paper's full workflow::

    synthesize (Algorithm 1, chosen backend)
        -> verify (independent oracle)
        -> simulate (beacons, losses, mode changes)   [optional]
        -> collect metrics

:func:`run_scenario` is the one-scenario convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from ..analysis.format import format_table
from ..core.schedule import ModeSchedule
from ..core.verify import VerificationReport, verify_schedule
from ..engine.api import EngineStats, run_cached_batch
from ..engine.cache import ScheduleCache
from ..obs.metrics import timed_span
from ..runtime.simulator import ModeRequest
from ..runtime.trace import Trace
from .scenario import Scenario


@dataclass
class ScenarioResult:
    """Everything one scenario produced.

    Attributes:
        scenario: The input description.
        schedules: Synthesized schedule per mode name.
        reports: Verification report per mode name (empty when
            verification was skipped).
        trace: Simulation trace, when the scenario has a simulation
            phase and verification passed.
        metrics: Flat summary row (also the results-table row).
    """

    scenario: Scenario
    schedules: Dict[str, ModeSchedule] = field(default_factory=dict)
    reports: Dict[str, VerificationReport] = field(default_factory=dict)
    trace: Optional[Trace] = None
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        """All schedules verified (vacuously True when not verified)."""
        return all(report.ok for report in self.reports.values())

    def system(self):
        """A deployable :class:`repro.system.TTWSystem` carrying these
        schedules (no re-synthesis)."""
        return _build_system(self.scenario, self.schedules)


def _build_system(scenario: Scenario, schedules: Dict[str, ModeSchedule]):
    system = scenario.to_system()
    system.install_schedules(schedules)
    return system


def synthesize_scenarios(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    warm_start: bool = True,
    stats: Optional[EngineStats] = None,
    verify: bool = True,
) -> "tuple[Dict[str, Dict[str, ModeSchedule]], Dict[str, Dict[str, VerificationReport]], EngineStats]":
    """The shared synthesis phase of every scenario runner.

    Validates the scenarios, flattens every mode of every scenario into
    **one** cached batch (so identical problems are solved once across
    the whole set), and optionally verifies each schedule with the
    independent oracle.  :meth:`Experiment.run`,
    :meth:`repro.system.TTWSystem.synthesize_all`, the Monte-Carlo
    campaign layer (:func:`repro.mc.run_campaigns`), exploration and
    the service all sit on top of this.

    Returns:
        ``(schedules, reports, stats)`` — schedule and verification
        report per mode name, per scenario name (``reports`` is empty
        per scenario when ``verify`` is false).

    Raises:
        ValueError: on duplicate scenario names.
        ScenarioError: on inconsistent scenario descriptions.
        repro.core.synthesis.InfeasibleError: if any mode is
            unschedulable.
    """
    for scenario in scenarios:
        scenario.validate()
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names: {names}")

    problems = []
    slices = []
    for scenario in scenarios:
        config = scenario.effective_config
        start = len(problems)
        problems.extend((mode, config) for mode in scenario.modes)
        slices.append((start, len(problems)))

    stats = stats if stats is not None else EngineStats()
    with timed_span("synthesize"):
        solved = run_cached_batch(
            problems, jobs=jobs, cache=cache, warm_start=warm_start,
            stats=stats,
        )

    schedules: Dict[str, Dict[str, ModeSchedule]] = {}
    reports: Dict[str, Dict[str, VerificationReport]] = {}
    with timed_span("verify"):
        for scenario, (start, stop) in zip(scenarios, slices):
            by_name = {
                mode.name: schedule
                for (mode, _), schedule in zip(
                    problems[start:stop], solved[start:stop]
                )
            }
            schedules[scenario.name] = by_name
            reports[scenario.name] = (
                {
                    mode.name: verify_schedule(mode, by_name[mode.name])
                    for mode in scenario.modes
                }
                if verify
                else {}
            )
    return schedules, reports, stats


@dataclass
class ExperimentResult:
    """Results of one :meth:`Experiment.run`, scenario by scenario."""

    results: List[ScenarioResult] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, key: "int | str") -> ScenarioResult:
        if isinstance(key, int):
            return self.results[key]
        for result in self.results:
            if result.scenario.name == key:
                return result
        raise KeyError(key)

    @property
    def ok(self) -> bool:
        """Every scenario verified (and simulated collision-free)."""
        return all(
            result.verified
            and (result.trace is None or result.trace.collision_free)
            for result in self.results
        )

    def rows(self) -> List[Dict[str, object]]:
        """One metrics dict per scenario, in input order."""
        return [result.metrics for result in self.results]

    def table(self) -> str:
        """The metrics as an aligned ASCII table."""
        rows = self.rows()
        if not rows:
            return "(no scenarios)"
        headers: List[str] = []
        for row in rows:
            for key in row:
                if key not in headers:
                    headers.append(key)
        body = [[row.get(h, "-") for h in headers] for row in rows]
        return format_table(headers, body, float_fmt="{:.3f}")


class Experiment:
    """Run many scenarios over one shared solver pool and cache.

    Args:
        scenarios: Initial scenario list (more via :meth:`add`).
        jobs: Worker processes for speculative/batch synthesis.
        cache: An existing :class:`ScheduleCache` to share.
        cache_dir: Convenience: build a cache at this directory
            (ignored when ``cache`` is given).
        warm_start: Seed Algorithm 1 at the demand lower bound
            (identical schedules, fewer iterations).
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario] = (),
        jobs: int = 1,
        cache: Optional[ScheduleCache] = None,
        cache_dir: "Optional[str | Path]" = None,
        warm_start: bool = True,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(
                f"jobs must be an integer >= 1, got {jobs!r}"
            )
        self.scenarios: List[Scenario] = list(scenarios)
        self.jobs = jobs
        self.cache = cache if cache is not None else (
            ScheduleCache(cache_dir) if cache_dir is not None else None
        )
        self.warm_start = warm_start

    def add(self, scenario: Scenario) -> Scenario:
        self.scenarios.append(scenario)
        return scenario

    # -- execution -------------------------------------------------------
    def run(self, verify: bool = True, simulate: bool = True) -> ExperimentResult:
        """Synthesize, verify, and (optionally) simulate every scenario.

        Args:
            verify: Re-check every schedule with the independent
                verifier; failures are recorded in the scenario's
                reports and skip its simulation phase.
            simulate: Execute scenarios that carry a
                :class:`~repro.api.scenario.SimulationSpec`.

        Returns:
            An :class:`ExperimentResult` aligned with the scenario
            list.

        Raises:
            repro.core.synthesis.InfeasibleError: if any mode of any
                scenario is unschedulable.
            ScenarioError: on inconsistent scenario descriptions.
        """
        # One flat problem list -> one pool/cache pass for everything.
        schedules, reports, stats = synthesize_scenarios(
            self.scenarios,
            jobs=self.jobs,
            cache=self.cache,
            warm_start=self.warm_start,
            verify=verify,
        )

        outcome = ExperimentResult(stats=stats)
        for scenario in self.scenarios:
            result = ScenarioResult(
                scenario=scenario,
                schedules=schedules[scenario.name],
                reports=reports[scenario.name],
            )
            if simulate and scenario.simulation is not None and result.verified:
                result.trace = self._simulate(scenario, result.schedules)
            result.metrics = self._metrics(result)
            outcome.results.append(result)
        return outcome

    def run_campaign(
        self,
        trials: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
        sweep: Optional[Dict[str, Sequence]] = None,
        engine: str = "fast",
    ):
        """Run a Monte-Carlo campaign over this experiment's scenarios.

        Where :meth:`run` executes each scenario's simulation phase
        exactly once, a campaign executes it ``trials`` times per
        point of a loss-parameter ``sweep`` grid with deterministic
        per-trial seeds, and aggregates the samples into
        :class:`repro.mc.CampaignStats` — deadline-miss rates with
        Wilson confidence intervals, radio-on distributions,
        mode-change latency tails.  Synthesis still happens once per
        distinct config (shared pool + cache), and trials drain
        through the same worker pool.

        Args:
            trials: Trials per grid point (default: each scenario's
                ``simulation.trials``).
            seeds: Explicit per-trial seeds (reused at every grid
                point — common random numbers); overrides ``trials``.
            sweep: ``{loss_param: [values, ...]}`` grid evaluated per
                scenario.
            engine: ``"fast"`` (compiled round programs, trace-free
                accumulation, automatic fallback), ``"vectorized"``
                (all trials of a grid point as batched tensor
                programs — distribution-equivalent, automatic
                fallback), or
                ``"reference"`` (the object-level simulator;
                bit-identical to ``fast``).

        Returns:
            A :class:`repro.mc.CampaignResult`.
        """
        from ..mc.campaign import run_campaigns

        return run_campaigns(
            self.scenarios,
            trials=trials,
            seeds=seeds,
            sweep=sweep,
            jobs=self.jobs,
            cache=self.cache,
            warm_start=self.warm_start,
            engine=engine,
        )

    def explore(
        self,
        space,
        sampler: str = "grid",
        objectives: Optional[Sequence] = None,
        trials: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
        samples: Optional[int] = None,
        store=None,
        engine: str = "fast",
        batch_size: Optional[int] = None,
        shards: int = 1,
    ):
        """Explore a design space over this experiment's pool and cache.

        Where :meth:`run` executes a fixed scenario list and
        :meth:`run_campaign` adds trials x seeds x loss grids, an
        *exploration* searches a declarative parameter
        :class:`~repro.dse.space.Space` (axes over scenario fields —
        slots per round, payload, loss grids, backends, ...) for its
        Pareto-optimal configurations: a sampler selects candidates
        (``grid``, ``random``, ``halton``, the adaptive ``adaptive``
        successive-halving strategy, or the model-guided
        ``surrogate``), each candidate runs one Monte-Carlo campaign
        through the shared pool/cache, and the measured objective
        vectors yield an exact multi-objective Pareto front.  A
        persistent ``store`` (JSONL or SQLite path) makes the
        exploration resumable: completed candidates are never
        re-executed.  ``shards > 1`` fans candidate evaluation out
        over a work-stealing pool of shard processes (requires a
        persistent store).  See :func:`repro.dse.explore` for the full
        parameter set and :doc:`docs/EXPLORATION.md` for a worked
        example.

        Returns:
            A :class:`repro.dse.ExplorationResult`.
        """
        from ..dse import DEFAULT_BATCH_SIZE, DEFAULT_OBJECTIVES
        from ..dse import explore as run_exploration

        return run_exploration(
            space,
            sampler=sampler,
            objectives=(
                objectives if objectives is not None else DEFAULT_OBJECTIVES
            ),
            trials=trials,
            seeds=seeds,
            samples=samples,
            jobs=self.jobs,
            cache=self.cache,
            warm_start=self.warm_start,
            store=store,
            engine=engine,
            batch_size=(
                batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
            ),
            shards=shards,
        )

    def _simulate(
        self, scenario: Scenario, schedules: Dict[str, ModeSchedule]
    ) -> Trace:
        spec = scenario.simulation
        assert spec is not None
        system = _build_system(scenario, schedules)
        topology = scenario.build_topology()
        simulator = system.simulator(
            initial_mode=spec.initial_mode,
            loss=scenario.build_loss(topology),
            policy=spec.node_policy(),
            radio=scenario.build_radio(topology),
        )
        requests = [
            ModeRequest(time, system.mode_id(target))
            for time, target in spec.mode_requests
        ]
        return simulator.run(
            spec.duration, mode_requests=requests, host_node=spec.host_node
        )

    def _metrics(self, result: ScenarioResult) -> Dict[str, object]:
        scenario = result.scenario
        schedules = result.schedules.values()
        row: Dict[str, object] = {
            "scenario": scenario.name,
            "backend": scenario.effective_config.backend,
            "modes": len(result.schedules),
            "rounds": sum(s.num_rounds for s in schedules),
            "total_latency": sum(s.total_latency for s in schedules),
        }
        if result.reports:
            row["verified"] = result.verified
        if result.trace is not None:
            trace = result.trace
            row["delivery"] = trace.delivery_rate()
            row["on_time"] = trace.on_time_rate()
            row["chains"] = trace.chain_success_rate()
            row["collision_free"] = trace.collision_free
            row["mode_switches"] = len(trace.mode_switches)
        return row


def run_scenario(
    scenario: Scenario,
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    cache_dir: "Optional[str | Path]" = None,
    warm_start: bool = False,
    verify: bool = True,
    simulate: bool = True,
) -> ScenarioResult:
    """Run one scenario end to end; see :class:`Experiment`.

    Note ``warm_start`` defaults to False here (the paper's exact
    Algorithm 1 loop), unlike batch experiments where the demand-bound
    warm start is on by default.
    """
    experiment = Experiment(
        [scenario],
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        warm_start=warm_start,
    )
    return experiment.run(verify=verify, simulate=simulate).results[0]
