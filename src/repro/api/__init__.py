"""``repro.api`` — the declarative public surface of the toolkit.

Everything the other subpackages do — workload modeling, Algorithm 1
synthesis over pluggable solver backends, verification, deployment,
lossy simulation, metrics — is reachable through two concepts:

* :class:`Scenario` — a serializable description of one experiment:
  modes/workloads, mode graph, scheduling config + solver backend, and
  optionally topology, loss model, radio timing, and a simulation
  phase.  Round-trips to JSON (``Scenario.save`` / ``Scenario.load``).
* :class:`Experiment` — fans a list of scenarios through the synthesis
  engine's shared process pool and persistent schedule cache, verifies
  every schedule with the independent oracle, executes the simulation
  phases, and collects a results table.

Quickstart::

    from repro.api import Scenario, SimulationSpec, run_scenario
    from repro.core import Mode, SchedulingConfig
    from repro.workloads import closed_loop_pipeline

    scenario = Scenario(
        name="demo",
        modes=[Mode("normal", [closed_loop_pipeline(
            "a", period=20, deadline=20, num_hops=1)])],
        config=SchedulingConfig(round_length=1.0, max_round_gap=None),
        simulation=SimulationSpec(duration=500.0),
    )
    result = run_scenario(scenario)
    print(result.metrics)

On the command line the same scenario file runs with
``python -m repro.cli scenario run demo.scenario.json``.
"""

from .experiment import (
    Experiment,
    ExperimentResult,
    ScenarioResult,
    run_scenario,
)
from .scenario import (
    LossSpec,
    RadioSpec,
    Scenario,
    ScenarioError,
    SimulationSpec,
    TopologySpec,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "LossSpec",
    "RadioSpec",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "SimulationSpec",
    "TopologySpec",
    "run_scenario",
]
