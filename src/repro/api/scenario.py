"""Declarative scenario descriptions — the input side of ``repro.api``.

A :class:`Scenario` is a complete, serializable description of one TTW
experiment: the workload (modes and their applications), the mode
graph, the scheduling configuration and solver backend, and optionally
the network (topology, loss model, radio timing) plus a simulation
phase.  It carries **no results** — synthesis and execution live in
:mod:`repro.api.experiment` — so a scenario file is a stable artifact
that can be versioned, diffed, swept over, and replayed.

The network/simulation parts are described by small *spec* dataclasses
(:class:`TopologySpec`, :class:`LossSpec`, :class:`RadioSpec`,
:class:`SimulationSpec`) that name a kind plus JSON-compatible
parameters and know how to build the corresponding runtime object.

Example::

    from repro.api import Scenario, SimulationSpec, LossSpec, run_scenario
    from repro.core import Mode, SchedulingConfig
    from repro.workloads import closed_loop_pipeline

    scenario = Scenario(
        name="smoke",
        modes=[Mode("normal", [closed_loop_pipeline("a", period=20,
                                                    deadline=20,
                                                    num_hops=1)])],
        config=SchedulingConfig(round_length=1.0, max_round_gap=None),
        backend="greedy",
        loss=LossSpec("bernoulli", {"beacon_loss": 0.05,
                                    "data_loss": 0.05, "seed": 7}),
        simulation=SimulationSpec(duration=500.0),
    )
    scenario.save("smoke.scenario.json")
    result = run_scenario(scenario)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.modes import Mode
from ..core.schedule import SchedulingConfig
from ..milp.backends import get_backend
from ..net import topology as topologies
from ..net.topology import Topology
from ..runtime.loss import TOPOLOGY_LOSS_KINDS, LossModel, build_loss
from ..runtime.simulator import NodePolicy, RadioTiming


class ScenarioError(ValueError):
    """Raised for inconsistent or unbuildable scenario descriptions."""


def _is_real(value) -> bool:
    """A JSON number: an ``int`` or ``float``, never a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def spec_to_dict(spec) -> Optional[dict]:
    """Serialize any spec dataclass (or ``None``) to a JSON dict."""
    if spec is None:
        return None
    return spec.to_dict()


@dataclass(frozen=True)
class TopologySpec:
    """A named multi-hop network shape plus its parameters.

    ``kind`` selects a builder from :mod:`repro.net.topology`:
    ``line``, ``star``, ``grid``, ``ring``, ``random_geometric``, or
    ``diameter_line``; ``params`` are its keyword arguments.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def build(self) -> Topology:
        try:
            return topologies.build_topology(self.kind, self.params)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["TopologySpec"]:
        if data is None:
            return None
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


@dataclass(frozen=True)
class LossSpec:
    """A named packet-loss model plus its parameters.

    Kinds (see :func:`repro.runtime.loss.build_loss`): ``perfect``,
    ``bernoulli``, ``gilbert_elliott``, ``scripted_beacon``,
    ``trace_replay``, ``matrix_trace``, ``time_varying``,
    ``interference``, plus ``glossy`` and ``spatial`` (which need the
    scenario to carry a :class:`TopologySpec` — ``spatial``
    specifically one with node positions: ``grid2d`` or
    ``uniform_random``).  ``params["seed"]`` accepts an integer, a
    ``random.Random``, a ``numpy.random.Generator``, or ``None``
    uniformly across all stochastic kinds; only integers and ``None``
    survive JSON round-trips.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def build(self, topology: Optional[Topology] = None) -> LossModel:
        try:
            return build_loss(self.kind, self.params, topology)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["LossSpec"]:
        if data is None:
            return None
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


@dataclass(frozen=True)
class RadioSpec:
    """Radio-on accounting parameters for the simulator.

    ``diameter`` may be omitted when the scenario carries a topology —
    it is then taken from the built network.
    """

    payload_bytes: int
    diameter: Optional[int] = None

    def build(self, topology: Optional[Topology] = None) -> RadioTiming:
        diameter = self.diameter
        if diameter is None:
            if topology is None:
                raise ScenarioError(
                    "RadioSpec without diameter needs a topology in the scenario"
                )
            diameter = topology.diameter
        return RadioTiming(payload_bytes=self.payload_bytes, diameter=diameter)

    def to_dict(self) -> dict:
        return {"payload_bytes": self.payload_bytes, "diameter": self.diameter}

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["RadioSpec"]:
        if data is None:
            return None
        return cls(
            payload_bytes=data["payload_bytes"], diameter=data.get("diameter")
        )


@dataclass(frozen=True)
class SimulationSpec:
    """The optional execution phase of a scenario.

    Attributes:
        duration: Simulated time to run.
        initial_mode: Mode name to boot into (lowest id when ``None``).
        policy: ``"beacon_gated"`` (TTW) or ``"local_belief"``
            (the unsafe ablation).
        host_node: Override the beacon host node.
        mode_requests: ``(time, target_mode_name)`` runtime switch
            requests.
        trials: Default trial count of a Monte-Carlo campaign over
            this scenario (see :mod:`repro.mc`).  ``Experiment.run``
            still executes exactly one trial; campaigns use this many
            per grid point unless overridden.
        seed: Campaign master seed — per-trial seeds are derived
            deterministically from it (``None`` counts as 0).
    """

    duration: float
    initial_mode: Optional[str] = None
    policy: str = "beacon_gated"
    host_node: Optional[str] = None
    mode_requests: Tuple[Tuple[float, str], ...] = ()
    trials: int = 1
    seed: Optional[int] = None

    def node_policy(self) -> NodePolicy:
        try:
            return NodePolicy(self.policy)
        except ValueError:
            raise ScenarioError(
                f"unknown policy {self.policy!r}; known: "
                f"{', '.join(p.value for p in NodePolicy)}"
            ) from None

    def to_dict(self) -> dict:
        return {
            "duration": self.duration,
            "initial_mode": self.initial_mode,
            "policy": self.policy,
            "host_node": self.host_node,
            "mode_requests": [[t, mode] for t, mode in self.mode_requests],
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["SimulationSpec"]:
        if data is None:
            return None
        return cls(
            duration=data["duration"],
            initial_mode=data.get("initial_mode"),
            policy=data.get("policy", "beacon_gated"),
            host_node=data.get("host_node"),
            mode_requests=tuple(
                (float(t), mode) for t, mode in data.get("mode_requests", [])
            ),
            trials=data.get("trials", 1),
            seed=data.get("seed"),
        )


@dataclass
class Scenario:
    """One declarative TTW experiment: workload, solver, network, run.

    Attributes:
        name: Scenario identifier (labels results tables and output
            files).
        modes: The workload — modes with their applications.
        config: Scheduling parameters shared by all modes.
        backend: Solver backend name overriding ``config.backend``
            (``None`` keeps the config's choice); see
            :func:`repro.milp.available_backends`.
        transitions: Allowed runtime mode switches, by name.
        topology: Optional multi-hop network description.
        loss: Optional packet-loss model description.
        radio: Optional radio-on accounting parameters.
        simulation: Optional execution phase; ``None`` means
            synthesize + verify only.
    """

    name: str
    modes: List[Mode]
    config: SchedulingConfig = field(default_factory=SchedulingConfig)
    backend: Optional[str] = None
    transitions: List[Tuple[str, str]] = field(default_factory=list)
    topology: Optional[TopologySpec] = None
    loss: Optional[LossSpec] = None
    radio: Optional[RadioSpec] = None
    simulation: Optional[SimulationSpec] = None

    # -- derived ---------------------------------------------------------
    @property
    def effective_config(self) -> SchedulingConfig:
        """``config`` with the scenario's backend override applied."""
        if self.backend is not None and self.backend != self.config.backend:
            return dataclasses.replace(self.config, backend=self.backend)
        return self.config

    def validate(self) -> None:
        """Check internal consistency; raises :class:`ScenarioError`.

        Field types are checked before any name lookup, so a
        wrong-typed JSON value is a precise error, never a
        ``TypeError``."""
        if not self.modes:
            raise ScenarioError(f"scenario {self.name!r} has no modes")

        def expect(ok: bool, path: str, what: str, value) -> None:
            if not ok:
                raise ScenarioError(
                    f"scenario {self.name!r}: {path} must be {what}, "
                    f"got {value!r}"
                )

        names = [mode.name for mode in self.modes]
        for index, name in enumerate(names):
            expect(isinstance(name, str), f"modes[{index}].name",
                   "a string", name)
        if len(set(names)) != len(names):
            raise ScenarioError(
                f"scenario {self.name!r}: duplicate mode names {names}"
            )
        for path, backend in (("backend", self.backend),
                              ("config.backend", self.config.backend)):
            expect(backend is None or isinstance(backend, str), path,
                   "a string", backend)
        try:
            get_backend(self.effective_config.backend)
        except ValueError as exc:
            # get_backend's message already lists the available backends.
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        time_limit = self.config.time_limit
        expect(time_limit is None or (_is_real(time_limit) and time_limit > 0),
               "time_limit", "> 0 seconds (or null for no limit)",
               time_limit)
        known = set(names)
        for index, (source, target) in enumerate(self.transitions):
            expect(isinstance(source, str) and isinstance(target, str),
                   f"transitions[{index}]", "a pair of mode names",
                   [source, target])
            if source not in known or target not in known:
                raise ScenarioError(
                    f"scenario {self.name!r}: transition {source!r} -> "
                    f"{target!r} references an unknown mode"
                )
        if self.simulation is not None:
            simulation = self.simulation
            duration = simulation.duration
            expect(_is_real(duration) and 0 < duration < math.inf,
                   "simulation.duration", "a finite number > 0", duration)
            simulation.node_policy()
            trials = simulation.trials
            expect(isinstance(trials, int) and not isinstance(trials, bool)
                   and trials >= 1, "simulation.trials", "an integer >= 1",
                   trials)
            seed = simulation.seed
            expect(seed is None or (isinstance(seed, int)
                                    and not isinstance(seed, bool)),
                   "simulation.seed", "an integer or null", seed)
            initial = simulation.initial_mode
            expect(initial is None or isinstance(initial, str),
                   "simulation.initial_mode", "a mode name or null", initial)
            if initial is not None and initial not in known:
                raise ScenarioError(
                    f"scenario {self.name!r}: initial mode "
                    f"{initial!r} is not a scenario mode"
                )
            for index, (_, target) in enumerate(simulation.mode_requests):
                expect(isinstance(target, str),
                       f"simulation.mode_requests[{index}][1]",
                       "a mode name", target)
                if target not in known:
                    raise ScenarioError(
                        f"scenario {self.name!r}: mode request targets "
                        f"unknown mode {target!r}"
                    )
        if self.loss is not None:
            expect(isinstance(self.loss.kind, str), "loss.kind", "a string",
                   self.loss.kind)
            if self.loss.kind in TOPOLOGY_LOSS_KINDS and self.topology is None:
                raise ScenarioError(
                    f"scenario {self.name!r}: loss kind "
                    f"{self.loss.kind!r} needs a topology"
                )

    # -- builders --------------------------------------------------------
    def build_topology(self) -> Optional[Topology]:
        return self.topology.build() if self.topology is not None else None

    def build_loss(self, topology: Optional[Topology] = None) -> Optional[LossModel]:
        if self.loss is None:
            return None
        return self.loss.build(topology)

    def build_radio(self, topology: Optional[Topology] = None) -> Optional[RadioTiming]:
        if self.radio is None:
            return None
        return self.radio.build(topology)

    def to_system(self):
        """An (unsynthesized) :class:`repro.system.TTWSystem` for this
        scenario — modes registered, transitions allowed."""
        from ..system import TTWSystem

        self.validate()
        system = TTWSystem(self.effective_config)
        for mode in self.modes:
            system.add_mode(mode)
        for source, target in self.transitions:
            system.allow_transition(source, target)
        return system

    @classmethod
    def from_system(cls, system, name: str = "system") -> "Scenario":
        """Describe an existing :class:`repro.system.TTWSystem` as a
        scenario (workload, transitions, and config; no network/run)."""
        transitions = [
            (source, target)
            for source, targets in system.mode_graph.transitions.items()
            for target in targets
        ]
        return cls(
            name=name,
            modes=list(system.modes),
            config=system.config,
            transitions=transitions,
        )

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict:
        from ..io.serialize import scenario_to_dict

        return scenario_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        from ..io.serialize import scenario_from_dict

        return scenario_from_dict(data)

    def save(self, path: "str | Path") -> None:
        from ..io.serialize import save_scenario

        save_scenario(path, self)

    @classmethod
    def load(cls, path: "str | Path") -> "Scenario":
        from ..io.serialize import load_scenario

        return load_scenario(path)

    # -- convenience -----------------------------------------------------
    def run(self, **kwargs):
        """Synthesize/verify/simulate this scenario; see
        :func:`repro.api.run_scenario`."""
        from .experiment import run_scenario

        return run_scenario(self, **kwargs)
