"""Tests of the TTWSystem facade."""

import pytest

from repro.core import Mode, SchedulingConfig
from repro.runtime import BernoulliLoss
from repro.system import SystemStateError, TTWSystem
from repro.workloads import closed_loop_pipeline


@pytest.fixture
def system():
    config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                              max_round_gap=None)
    sys_ = TTWSystem(config)
    sys_.add_mode(Mode("normal", [
        closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
    ]))
    sys_.add_mode(Mode("emergency", [
        closed_loop_pipeline("b", period=10, deadline=10, num_hops=1),
    ]))
    sys_.allow_transition("normal", "emergency")
    return sys_


class TestConstruction:
    def test_mode_ids_assigned(self, system):
        assert system.mode_id("normal") == 0
        assert system.mode_id("emergency") == 1

    def test_simulate_before_synth_rejected(self, system):
        with pytest.raises(SystemStateError):
            system.simulator()

    def test_empty_system_rejected(self):
        with pytest.raises(SystemStateError):
            TTWSystem().synthesize_all()


class TestSynthesis:
    def test_synthesize_all(self, system):
        schedules = system.synthesize_all()
        assert set(schedules) == {"normal", "emergency"}
        assert all(r.ok for r in system.verify_all().values())

    def test_warm_start_variant(self):
        config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                                  max_round_gap=None)
        sys_ = TTWSystem(config, warm_start=True)
        sys_.add_mode(Mode("m", [
            closed_loop_pipeline(f"p{i}", period=20, deadline=20, num_hops=2)
            for i in range(2)
        ]))
        schedules = sys_.synthesize_all()
        assert schedules["m"].num_rounds >= 2


class TestSimulation:
    def test_steady_state(self, system):
        system.synthesize_all()
        trace = system.simulate(duration=200.0)
        assert trace.collision_free
        assert trace.delivery_rate() == 1.0

    def test_mode_change_by_name(self, system):
        system.synthesize_all()
        trace = system.simulate(
            duration=300.0,
            mode_requests=[system.request(40.0, "emergency")],
        )
        assert len(trace.mode_switches) == 1
        assert trace.mode_switches[0].to_mode == system.mode_id("emergency")

    def test_with_loss(self, system):
        system.synthesize_all()
        trace = system.simulate(
            duration=500.0,
            loss=BernoulliLoss(beacon_loss=0.1, data_loss=0.1, seed=3),
            host_node="a_node1",
        )
        assert trace.collision_free
        assert trace.delivery_rate() < 1.0


class TestPersistence:
    def test_save_requires_synthesis(self, system, tmp_path):
        with pytest.raises(SystemStateError):
            system.save(tmp_path / "sys.json")

    def test_save_load_simulate(self, system, tmp_path):
        system.synthesize_all()
        path = tmp_path / "sys.json"
        system.save(path)
        reloaded = TTWSystem.load(path)
        assert set(reloaded.schedules) == {"normal", "emergency"}
        trace = reloaded.simulate(duration=200.0)
        assert trace.collision_free
        assert trace.delivery_rate() == 1.0

    def test_loaded_schedules_verify(self, system, tmp_path):
        system.synthesize_all()
        path = tmp_path / "sys.json"
        system.save(path)
        reloaded = TTWSystem.load(path)
        assert all(r.ok for r in reloaded.verify_all().values())


class TestBoundaryValidation:
    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError, match="jobs must be"):
            TTWSystem(jobs=0)

    def test_jobs_non_integer_rejected(self):
        with pytest.raises(ValueError, match="jobs must be"):
            TTWSystem(jobs=2.5)

    def test_negative_time_limit_rejected(self):
        config = SchedulingConfig(round_length=1.0, time_limit=-1.0)
        with pytest.raises(ValueError, match="time_limit must be > 0"):
            TTWSystem(config)

    def test_zero_time_limit_rejected(self):
        config = SchedulingConfig(round_length=1.0, time_limit=0.0)
        with pytest.raises(ValueError, match="time_limit must be > 0"):
            TTWSystem(config)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            TTWSystem(backend="cplex")

    def test_backend_override_applies(self):
        system = TTWSystem(backend="greedy")
        assert system.config.backend == "greedy"


class TestErrorRename:
    def test_new_name_is_canonical(self):
        from repro.system import SystemStateError

        assert SystemStateError.__name__ == "SystemStateError"


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_transitions_and_config(self, tmp_path):
        config = SchedulingConfig(round_length=1.0, slots_per_round=3,
                                  max_round_gap=25.0, mm=2e-4,
                                  backend="highs")
        system = TTWSystem(config, warm_start=True)
        system.add_mode(Mode("normal", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        ]))
        system.add_mode(Mode("emergency", [
            closed_loop_pipeline("b", period=10, deadline=10, num_hops=1),
        ]))
        system.add_mode(Mode("recovery", [
            closed_loop_pipeline("c", period=20, deadline=20, num_hops=1),
        ]))
        system.allow_transition("normal", "emergency")
        system.allow_transition("emergency", "recovery")
        system.allow_transition("recovery", "normal")
        system.synthesize_all()

        path = tmp_path / "sys.json"
        system.save(path)
        reloaded = TTWSystem.load(path)

        # Mode graph: modes, ids, and every transition survive.
        assert set(reloaded.mode_graph.modes) == set(system.mode_graph.modes)
        for name in system.mode_graph.modes:
            assert reloaded.mode_id(name) == system.mode_id(name)
        for source in ("normal", "emergency", "recovery"):
            for target in ("normal", "emergency", "recovery"):
                assert reloaded.mode_graph.can_switch(source, target) == \
                    system.mode_graph.can_switch(source, target)

        # Config fields travel inside every schedule.
        for name, schedule in reloaded.schedules.items():
            assert schedule.config == config
        assert reloaded.config == config

        # The reloaded system can execute the persisted transitions.
        trace = reloaded.simulate(
            duration=300.0,
            mode_requests=[reloaded.request(40.0, "emergency"),
                           reloaded.request(120.0, "recovery")],
        )
        assert trace.collision_free
        assert len(trace.mode_switches) == 2

    def test_round_trip_without_transitions(self, system, tmp_path):
        system.synthesize_all()
        path = tmp_path / "sys.json"
        system.save(path)
        reloaded = TTWSystem.load(path)
        assert reloaded.mode_graph.can_switch("normal", "emergency")

    def test_old_image_without_transitions_loads(self, system, tmp_path):
        import json

        system.synthesize_all()
        path = tmp_path / "sys.json"
        system.save(path)
        payload = json.loads(path.read_text())
        del payload["transitions"]  # pre-transitions schema
        path.write_text(json.dumps(payload))
        reloaded = TTWSystem.load(path)
        assert set(reloaded.schedules) == {"normal", "emergency"}
        assert not reloaded.mode_graph.can_switch("normal", "emergency")


class TestUnregisteredBackendImages:
    def test_load_and_simulate_without_backend_registered(self, system,
                                                          tmp_path):
        """System images synthesized elsewhere (e.g. by a custom backend
        plugin) must stay loadable/verifiable/simulatable in a process
        where that backend is not registered; only synthesis needs it."""
        import json

        system.synthesize_all()
        path = tmp_path / "sys.json"
        system.save(path)
        payload = json.loads(path.read_text())
        for schedule in payload["schedules"].values():
            schedule["config"]["backend"] = "some-plugin-backend"
        path.write_text(json.dumps(payload))

        reloaded = TTWSystem.load(path)
        assert all(r.ok for r in reloaded.verify_all().values())
        assert reloaded.simulate(duration=100.0).collision_free
        # ... but actually synthesizing with it fails with a clear error.
        with pytest.raises(ValueError, match="unknown backend"):
            reloaded.synthesize_all()
