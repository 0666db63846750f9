"""Scenario descriptions: construction, validation, JSON round-trips."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    LossSpec,
    RadioSpec,
    Scenario,
    ScenarioError,
    SimulationSpec,
    TopologySpec,
)
from repro.core import Mode, SchedulingConfig
from repro.io import SerializationError, canonical_dumps
from repro.runtime import (
    BernoulliLoss,
    GilbertElliottLoss,
    GlossyLoss,
    PerfectLinks,
)
from repro.workloads import GeneratorConfig, WorkloadGenerator, closed_loop_pipeline


def two_mode_scenario(**overrides) -> Scenario:
    fields = dict(
        name="two",
        modes=[
            Mode("normal", [
                closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
            ]),
            Mode("emergency", [
                closed_loop_pipeline("b", period=10, deadline=10, num_hops=1),
            ]),
        ],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        transitions=[("normal", "emergency")],
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestValidation:
    def test_valid_scenario_passes(self):
        two_mode_scenario().validate()

    def test_no_modes_rejected(self):
        with pytest.raises(ScenarioError, match="no modes"):
            Scenario(name="empty", modes=[]).validate()

    def test_duplicate_mode_names_rejected(self):
        mode = Mode("twice", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        ])
        other = Mode("twice", [
            closed_loop_pipeline("b", period=20, deadline=20, num_hops=1),
        ])
        with pytest.raises(ScenarioError, match="duplicate mode names"):
            Scenario(name="dup", modes=[mode, other]).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ScenarioError, match="unknown backend"):
            two_mode_scenario(backend="cplex").validate()

    def test_transition_to_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError, match="unknown mode"):
            two_mode_scenario(
                transitions=[("normal", "nonexistent")]
            ).validate()

    def test_initial_mode_must_exist(self):
        with pytest.raises(ScenarioError, match="initial mode"):
            two_mode_scenario(
                simulation=SimulationSpec(duration=10.0, initial_mode="zzz")
            ).validate()

    def test_mode_request_target_must_exist(self):
        with pytest.raises(ScenarioError, match="unknown mode"):
            two_mode_scenario(
                simulation=SimulationSpec(
                    duration=10.0, mode_requests=((1.0, "zzz"),)
                )
            ).validate()

    def test_glossy_loss_needs_topology(self):
        with pytest.raises(ScenarioError, match="glossy"):
            two_mode_scenario(
                loss=LossSpec("glossy", {"link_success": 0.9})
            ).validate()

    def test_bad_policy_rejected(self):
        with pytest.raises(ScenarioError, match="unknown policy"):
            two_mode_scenario(
                simulation=SimulationSpec(duration=10.0, policy="psychic")
            ).validate()

    def test_spatial_loss_needs_topology(self):
        with pytest.raises(ScenarioError, match="spatial"):
            two_mode_scenario(
                loss=LossSpec("spatial", {"shadowing_db": 3.0})
            ).validate()

    def test_spatial_loss_with_topology_passes(self):
        two_mode_scenario(
            topology=TopologySpec("grid2d", {"rows": 2, "cols": 2}),
            loss=LossSpec("spatial", {"shadowing_db": 3.0}),
        ).validate()

    @pytest.mark.parametrize(
        "duration", [None, "x", True, -5.0, 0, math.inf, math.nan],
        ids=repr,
    )
    def test_duration_must_be_finite_positive(self, duration):
        scenario = two_mode_scenario(
            simulation=SimulationSpec(duration=duration)
        )
        with pytest.raises(ScenarioError, match="simulation.duration"):
            scenario.validate()

    @pytest.mark.parametrize("path", [
        ("backend",),
        ("config", "backend"),
        ("config", "time_limit"),
        ("loss", "kind"),
        ("modes", 0, "name"),
        ("transitions", 0, 1),
        ("simulation", "initial_mode"),
        ("simulation", "mode_requests", 0, 1),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_wrong_json_type_is_a_scenario_error(self, path):
        """A list where a name, kind or number belongs fails validation,
        not a set or dict lookup with ``TypeError``."""
        data = two_mode_scenario(
            loss=LossSpec("bernoulli", {"beacon_loss": 0.1}),
            simulation=SimulationSpec(
                duration=100.0, mode_requests=((40.0, "emergency"),)
            ),
        ).to_dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = []
        scenario = Scenario.from_dict(data)
        with pytest.raises(ScenarioError, match="must be"):
            scenario.validate()


class TestSpecBuilders:
    def test_loss_kinds_build(self):
        assert isinstance(LossSpec("perfect").build(), PerfectLinks)
        assert isinstance(
            LossSpec("bernoulli", {"beacon_loss": 0.1}).build(), BernoulliLoss
        )
        assert isinstance(
            LossSpec("gilbert_elliott").build(), GilbertElliottLoss
        )
        topology = TopologySpec("line", {"num_nodes": 4}).build()
        assert isinstance(
            LossSpec("glossy", {"link_success": 0.9}).build(topology),
            GlossyLoss,
        )

    def test_unknown_loss_kind(self):
        with pytest.raises(ScenarioError, match="unknown loss kind"):
            LossSpec("quantum").build()

    def test_topology_kinds_build(self):
        assert TopologySpec("line", {"num_nodes": 5}).build().diameter == 4
        assert TopologySpec("star", {"num_leaves": 3}).build().num_nodes == 4
        assert TopologySpec("grid", {"rows": 2, "cols": 3}).build().num_nodes == 6

    def test_unknown_topology_kind(self):
        with pytest.raises(ScenarioError, match="unknown topology kind"):
            TopologySpec("moebius").build()

    def test_radio_diameter_from_topology(self):
        topology = TopologySpec("line", {"num_nodes": 5}).build()
        radio = RadioSpec(payload_bytes=16).build(topology)
        assert radio.diameter == 4

    def test_radio_without_diameter_or_topology(self):
        with pytest.raises(ScenarioError, match="topology"):
            RadioSpec(payload_bytes=16).build()


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        scenario = two_mode_scenario(
            backend="greedy",
            topology=TopologySpec("line", {"num_nodes": 5}),
            loss=LossSpec("bernoulli", {"beacon_loss": 0.05, "seed": 3}),
            radio=RadioSpec(payload_bytes=16),
            simulation=SimulationSpec(
                duration=300.0,
                initial_mode="normal",
                mode_requests=((40.0, "emergency"),),
            ),
        )
        path = tmp_path / "two.scenario.json"
        scenario.save(path)
        reloaded = Scenario.load(path)
        assert canonical_dumps(scenario.to_dict()) == canonical_dumps(
            reloaded.to_dict()
        )
        reloaded.validate()

    def test_minimal_round_trip(self):
        scenario = two_mode_scenario()
        again = Scenario.from_dict(scenario.to_dict())
        assert again.topology is None
        assert again.loss is None
        assert again.simulation is None
        assert again.transitions == [("normal", "emergency")]

    def test_not_a_scenario_rejected(self):
        with pytest.raises(SerializationError, match="not a scenario"):
            Scenario.from_dict({"kind": "system"})
        for data in ([], "x", 3, None):
            with pytest.raises(SerializationError, match="JSON object"):
                Scenario.from_dict(data)

    def test_positions_survive_json(self, tmp_path):
        """Per-node coordinates persist through Scenario JSON and
        rebuild the identical spatial topology."""
        positions = {"n0": [0.0, 0.0], "n1": [12.0, 0.0], "n2": [12.0, 9.0]}
        scenario = two_mode_scenario(
            topology=TopologySpec(
                "uniform_random",
                {"positions": positions, "comm_range": 20.0},
            ),
            loss=LossSpec("spatial", {"shadowing_db": 2.0,
                                      "shadowing_seed": 7}),
        )
        path = tmp_path / "spatial.scenario.json"
        scenario.save(path)
        reloaded = Scenario.load(path)
        reloaded.validate()
        topo = reloaded.topology.build()
        assert topo.positions == {
            "n0": (0.0, 0.0), "n1": (12.0, 0.0), "n2": (12.0, 9.0)
        }
        assert reloaded.loss.build(topo).pdr_matrix() == \
            scenario.loss.build(scenario.topology.build()).pdr_matrix()

    def test_config_fields_survive(self):
        config = SchedulingConfig(
            round_length=2.5, slots_per_round=3, max_round_gap=50.0,
            mm=1e-3, big_m=1234.0, backend="bnb", time_limit=9.0,
            minimize_latency=False,
        )
        scenario = two_mode_scenario(config=config)
        again = Scenario.from_dict(scenario.to_dict())
        assert again.config == config


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**6),
    num_apps=st.integers(1, 2),
    num_tasks=st.integers(2, 5),
    slots=st.integers(1, 5),
    backend=st.sampled_from([None, "highs", "bnb", "greedy"]),
    duration=st.one_of(st.none(), st.floats(1.0, 1000.0)),
)
def test_scenario_json_round_trip_property(
    seed, num_apps, num_tasks, slots, backend, duration
):
    """Any generated scenario survives to_dict -> JSON -> from_dict."""
    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=num_tasks, num_nodes=6,
                        period_choices=(20.0, 40.0)),
        seed=seed,
    )
    scenario = Scenario(
        name=f"rand{seed}",
        modes=[generator.mode("rand", num_apps)],
        config=SchedulingConfig(round_length=1.0, slots_per_round=slots,
                                max_round_gap=None),
        backend=backend,
        simulation=(
            SimulationSpec(duration=duration) if duration is not None else None
        ),
    )
    text = json.dumps(scenario.to_dict())
    again = Scenario.from_dict(json.loads(text))
    assert canonical_dumps(again.to_dict()) == canonical_dumps(
        scenario.to_dict()
    )
    # The rebuilt workload is structurally identical, not just equal-looking.
    assert [m.name for m in again.modes] == [m.name for m in scenario.modes]
    assert again.effective_config == scenario.effective_config


class TestSystemBridge:
    def test_from_system_round_trip(self):
        from repro.system import TTWSystem

        scenario = two_mode_scenario()
        system = scenario.to_system()
        again = Scenario.from_system(system, name="two")
        assert [m.name for m in again.modes] == ["normal", "emergency"]
        assert again.transitions == [("normal", "emergency")]
        assert again.config == scenario.config
        assert isinstance(system, TTWSystem)

    def test_to_scenario_method(self):
        system = two_mode_scenario().to_system()
        scenario = system.to_scenario("roundtrip")
        assert scenario.name == "roundtrip"
        assert [m.name for m in scenario.modes] == ["normal", "emergency"]


class TestTimeLimitBoundary:
    def test_negative_time_limit_rejected(self):
        scenario = two_mode_scenario(
            config=SchedulingConfig(round_length=1.0, max_round_gap=None,
                                    time_limit=-5.0),
        )
        with pytest.raises(ScenarioError, match="time_limit must be > 0"):
            scenario.validate()

    def test_positive_time_limit_accepted(self):
        two_mode_scenario(
            config=SchedulingConfig(round_length=1.0, max_round_gap=None,
                                    time_limit=30.0),
        ).validate()
