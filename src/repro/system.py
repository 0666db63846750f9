"""High-level facade: build, synthesize, deploy, and simulate a whole
multi-mode TTW system in a few calls.

:class:`TTWSystem` wires the subpackages together the way a deployment
would.  Synthesis goes through the same path as every scenario runner,
:func:`repro.api.experiment.synthesize_scenarios`:

    >>> from repro.system import TTWSystem
    >>> from repro.core import SchedulingConfig
    >>> from repro.workloads import closed_loop_pipeline
    >>> from repro.core import Mode
    >>> system = TTWSystem(SchedulingConfig(round_length=1.0,
    ...                                     max_round_gap=None))
    >>> _ = system.add_mode(Mode("normal", [
    ...     closed_loop_pipeline("a", period=20, deadline=20, num_hops=1)]))
    >>> system.synthesize_all()
    >>> trace = system.simulate(duration=100.0)
    >>> trace.collision_free
    True
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .core.modes import Mode, ModeGraph
from .core.schedule import ModeSchedule, SchedulingConfig
from .core.verify import VerificationReport, verify_schedule
from .runtime.deployment import ModeDeployment, build_deployment
from .runtime.loss import LossModel
from .runtime.simulator import ModeRequest, NodePolicy, RadioTiming, RuntimeSimulator
from .runtime.trace import Trace


class SystemStateError(RuntimeError):
    """Raised on inconsistent system usage (e.g. simulate before synth)."""


class TTWSystem:
    """A complete TTW deployment: modes, schedules, and runtime.

    Args:
        config: Scheduling parameters shared by all modes.
        warm_start: Use the demand-bound warm start in Algorithm 1.
        jobs: Worker processes for synthesis; ``1`` (default)
            synthesizes sequentially in-process, exactly like the paper.
        cache_dir: Enable the persistent schedule cache at this
            directory (see :class:`repro.engine.ScheduleCache`).
        backend: Solver backend name overriding ``config.backend`` (see
            :func:`repro.milp.available_backends`).

    Raises:
        ValueError: on invalid ``jobs`` or an unknown backend — caught
            here, at the API boundary, instead of deep inside an
            executor.  ``SchedulingConfig`` checks its own fields.
    """

    def __init__(
        self,
        config: Optional[SchedulingConfig] = None,
        warm_start: bool = False,
        jobs: int = 1,
        cache_dir: Optional[str | Path] = None,
        backend: Optional[str] = None,
    ) -> None:
        config = config or SchedulingConfig()
        if backend is not None and backend != config.backend:
            config = dataclasses.replace(config, backend=backend)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(
                f"jobs must be an integer >= 1 (worker processes), got {jobs!r}"
            )
        if backend is not None:
            # Fail fast on an explicit override.  A backend name arriving
            # inside `config` is only checked when the solver is about to
            # run (synthesize_all) — solver-free uses like loading a
            # system image for verify/simulate must not require the
            # backend to be registered in this process.
            from .milp.backends import get_backend

            get_backend(config.backend)
        self.config = config
        self.warm_start = warm_start
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.engine_stats = None
        self.mode_graph = ModeGraph()
        self.schedules: Dict[str, ModeSchedule] = {}
        self.deployments: Dict[int, ModeDeployment] = {}

    # -- construction ---------------------------------------------------
    def add_mode(self, mode: Mode) -> Mode:
        """Register a mode (ids are assigned by the mode graph)."""
        return self.mode_graph.add_mode(mode)

    def allow_transition(self, source: str, target: str) -> None:
        self.mode_graph.add_transition(source, target)

    @property
    def modes(self) -> List[Mode]:
        return list(self.mode_graph.modes.values())

    def mode_id(self, name: str) -> int:
        mode = self.mode_graph.modes[name]
        assert mode.mode_id is not None
        return mode.mode_id

    # -- synthesis --------------------------------------------------------
    def synthesize_all(self, verify: bool = True) -> Dict[str, ModeSchedule]:
        """Run Algorithm 1 for every mode; optionally verify each result.

        Synthesis goes through
        :func:`repro.api.experiment.synthesize_scenarios` with this
        system as a one-scenario batch, so ``jobs > 1`` solves the mode
        set over a shared process pool and ``cache_dir`` reuses
        previously synthesized schedules; the defaults reproduce the
        paper's sequential loop.  Engine counters (cache hits, solver
        runs) are left in :attr:`engine_stats`.

        Raises:
            repro.core.synthesis.InfeasibleError: if any mode is
                unschedulable.
            ValueError: on an unknown backend (before any solver runs).
            SystemStateError: if no mode is registered, or if
                verification fails (indicates a bug — synthesized
                schedules must always verify).
        """
        from .api.experiment import synthesize_scenarios
        from .engine.cache import ScheduleCache

        if not self.mode_graph.modes:
            raise SystemStateError("no modes registered")
        scenario = self.to_scenario()
        schedules, reports, self.engine_stats = synthesize_scenarios(
            [scenario],
            jobs=self.jobs,
            cache=(
                ScheduleCache(self.cache_dir)
                if self.cache_dir is not None else None
            ),
            warm_start=self.warm_start,
            verify=verify,
        )
        for name, report in reports[scenario.name].items():
            if not report.ok:
                raise SystemStateError(
                    f"schedule for {name!r} failed verification: "
                    f"{report.violations}"
                )
        self.install_schedules(schedules[scenario.name])
        return dict(self.schedules)

    def install_schedules(self, schedules: Dict[str, ModeSchedule]) -> None:
        """Store each mode's schedule and build its deployment."""
        for mode in self.modes:
            schedule = schedules[mode.name]
            self.schedules[mode.name] = schedule
            assert mode.mode_id is not None
            self.deployments[mode.mode_id] = build_deployment(
                mode, schedule, mode.mode_id
            )

    def verify_all(self) -> Dict[str, VerificationReport]:
        """Re-verify all synthesized schedules."""
        return {
            mode.name: verify_schedule(mode, self.schedules[mode.name])
            for mode in self.modes
            if mode.name in self.schedules
        }

    # -- runtime ---------------------------------------------------------
    def simulator(
        self,
        initial_mode: Optional[str] = None,
        loss: Optional[LossModel] = None,
        policy: NodePolicy = NodePolicy.BEACON_GATED,
        radio: Optional[RadioTiming] = None,
    ) -> RuntimeSimulator:
        """Build a runtime simulator over the synthesized deployments."""
        if not self.deployments:
            raise SystemStateError("call synthesize_all() before simulating")
        modes_by_id = {
            mode.mode_id: mode for mode in self.modes if mode.mode_id is not None
        }
        first = (
            self.mode_id(initial_mode)
            if initial_mode is not None
            else min(self.deployments)
        )
        return RuntimeSimulator(
            modes_by_id,
            dict(self.deployments),
            initial_mode=first,
            loss=loss,
            policy=policy,
            radio=radio,
        )

    def simulate(
        self,
        duration: float,
        initial_mode: Optional[str] = None,
        mode_requests: Sequence[ModeRequest] = (),
        loss: Optional[LossModel] = None,
        policy: NodePolicy = NodePolicy.BEACON_GATED,
        radio: Optional[RadioTiming] = None,
        host_node: Optional[str] = None,
    ) -> Trace:
        """Synthesize-then-run convenience wrapper."""
        sim = self.simulator(
            initial_mode=initial_mode, loss=loss, policy=policy, radio=radio
        )
        return sim.run(duration, mode_requests=mode_requests, host_node=host_node)

    def request(self, time: float, target_mode: str) -> ModeRequest:
        """Build a mode request by mode *name*."""
        return ModeRequest(time, self.mode_id(target_mode))

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write modes + schedules + transitions to a JSON system file."""
        from .io.serialize import save_system

        if set(self.schedules) != set(self.mode_graph.modes):
            raise SystemStateError("synthesize_all() before saving")
        transitions = [
            (source, target)
            for source, targets in self.mode_graph.transitions.items()
            for target in targets
        ]
        save_system(path, self.modes, self.schedules, transitions=transitions)

    @classmethod
    def load(
        cls, path: str | Path, config: Optional[SchedulingConfig] = None
    ) -> "TTWSystem":
        """Rebuild a system (modes, schedules, transitions, deployments)
        from disk."""
        from .io.serialize import load_system_image

        image = load_system_image(path)
        first_config = (
            config
            if config is not None
            else next(iter(image.schedules.values())).config
        )
        system = cls(first_config)
        for mode in image.modes:
            system.mode_graph.add_mode(mode)
        for source, target in image.transitions:
            system.allow_transition(source, target)
        system.install_schedules(image.schedules)
        return system

    # -- migration ------------------------------------------------------------
    def to_scenario(self, name: str = "system") -> "object":
        """Describe this system as a :class:`repro.api.Scenario` — the
        declarative API's equivalent of the add_mode/allow_transition
        calls that built it."""
        from .api.scenario import Scenario

        return Scenario.from_system(self, name=name)
