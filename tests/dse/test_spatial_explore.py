"""End-to-end acceptance: design-space exploration over the spatial
connectivity model — radio parameters as axes, non-empty Pareto front.

The connectivity layer's JSON surface (positions in ``TopologySpec``,
``loss.params.*`` dotted axes) must compose with the existing dse
machinery without special cases.
"""

from pathlib import Path

from repro.api import LossSpec, RadioSpec, Scenario, SimulationSpec, TopologySpec
from repro.core import Mode, SchedulingConfig
from repro.core.app_model import Application
from repro.dse import Axis, Space, explore

REPO_ROOT = Path(__file__).resolve().parents[2]

POSITIONS = {
    "n0": [0.0, 0.0], "n1": [12.0, 0.0], "n2": [12.0, 9.0], "n3": [0.0, 14.0],
}


def pipeline(name, period, nodes):
    app = Application(name, period=period, deadline=period)
    previous = None
    for index, node in enumerate(nodes):
        task = f"{name}_t{index}"
        app.add_task(task, node=node, wcet=1.0)
        if previous is not None:
            message = f"{name}_m{index - 1}"
            app.add_message(message)
            app.connect(previous, message)
            app.connect(message, task)
        previous = task
    return app


def spatial_base() -> Scenario:
    return Scenario(
        name="spatial-dse",
        modes=[Mode("normal", [pipeline("a", 20.0, ["n0", "n1", "n2", "n3"])])],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        backend="greedy",
        topology=TopologySpec(
            "uniform_random", {"positions": POSITIONS, "comm_range": 40.0}
        ),
        radio=RadioSpec(payload_bytes=16),
        loss=LossSpec("spatial", {"shadowing_db": 3.0, "shadowing_seed": 5,
                                  "sensitivity_dbm": -92.0}),
        simulation=SimulationSpec(duration=400.0, trials=2, seed=7),
    )


class TestSpatialExploration:
    def test_explore_produces_nonempty_pareto_front(self, tmp_path):
        space = Space(
            base=spatial_base(),
            axes=[
                Axis("tx", "loss.params.tx_power_dbm", [-6.0, 0.0]),
                Axis("sigma", "loss.params.shadowing_db", [0.0, 3.0]),
            ],
        )
        result = explore(space, sampler="grid", jobs=1,
                         cache_dir=tmp_path / "cache")
        assert len(result) == 4
        assert all(candidate.error is None for candidate in result)
        front = result.front
        assert front, "spatial exploration must yield a non-empty front"
        # Less transmit power cannot *reduce* the miss rate: the
        # measured objective must respond to the axis in the physical
        # direction (averaged over the grid's other axis).
        def mean_miss(tx):
            rows = [c for c in result if c.assignment["tx"] == tx]
            return sum(c.values["miss"] for c in rows) / len(rows)

        assert mean_miss(-6.0) >= mean_miss(0.0)

    def test_topology_params_axis(self, tmp_path):
        """The communication range itself is explorable — a
        ``topology.params.*`` axis rebuilds the spatial graph per
        candidate."""
        space = Space(
            base=spatial_base(),
            axes=[Axis("range", "topology.params.comm_range", [20.0, 40.0])],
        )
        result = explore(space, sampler="grid", jobs=1,
                         cache_dir=tmp_path / "cache")
        assert len(result) == 2
        assert all(candidate.error is None for candidate in result)
        assert result.front

    def test_cli_scenario_explore(self, tmp_path):
        """The acceptance path end to end: ``scenario explore`` over a
        spatial scenario file yields a non-empty Pareto front."""
        import json
        import subprocess
        import sys

        scenario_path = tmp_path / "spatial.scenario.json"
        spatial_base().save(scenario_path)
        out = tmp_path / "explore.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "scenario", "explore",
             str(scenario_path),
             "--axis", "loss.params.tx_power_dbm=-6,0",
             "--trials", "2", "--engine", "vectorized",
             "--cache-dir", str(tmp_path / "cache"),
             "--json", str(out)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(out.read_text())
        front = [row for row in report["candidates"] if row["on_front"]]
        assert front, "CLI exploration must report a non-empty front"
