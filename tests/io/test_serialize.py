"""Tests of JSON serialization round-trips."""

import json

import pytest

from repro.core import Mode, SchedulingConfig, synthesize, verify_schedule
from repro.io import (
    SerializationError,
    application_from_dict,
    application_to_dict,
    config_from_dict,
    config_to_dict,
    load_system,
    mode_from_dict,
    mode_to_dict,
    save_system,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.workloads import fig3_control_app


@pytest.fixture
def fig3_mode():
    app = fig3_control_app(period=20, deadline=20, sense_wcet=1,
                           control_wcet=2, act_wcet=1)
    return Mode("m", [app], mode_id=0)


class TestApplicationRoundTrip:
    def test_round_trip_preserves_structure(self, fig3_app):
        data = application_to_dict(fig3_app)
        rebuilt = application_from_dict(data)
        assert rebuilt.name == fig3_app.name
        assert rebuilt.period == fig3_app.period
        assert rebuilt.deadline == fig3_app.deadline
        assert set(rebuilt.tasks) == set(fig3_app.tasks)
        assert set(rebuilt.messages) == set(fig3_app.messages)
        for m in fig3_app.messages:
            assert set(rebuilt.msg_producers[m]) == set(fig3_app.msg_producers[m])
            assert set(rebuilt.msg_consumers[m]) == set(fig3_app.msg_consumers[m])

    def test_round_trip_preserves_chains(self, fig3_app):
        rebuilt = application_from_dict(application_to_dict(fig3_app))
        original = {c.elements for c in fig3_app.chains()}
        assert {c.elements for c in rebuilt.chains()} == original

    def test_json_compatible(self, fig3_app):
        text = json.dumps(application_to_dict(fig3_app))
        rebuilt = application_from_dict(json.loads(text))
        rebuilt.validate()

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            application_from_dict({"name": "x"})

    def test_invalid_structure_rejected(self):
        data = {
            "name": "x", "period": 10, "deadline": 10,
            "tasks": [{"name": "t", "node": "n", "wcet": 1}],
            "messages": ["m"],
            "edges": [["t", "m"]],  # message without consumer
        }
        with pytest.raises(Exception):
            application_from_dict(data)


class TestModeRoundTrip:
    def test_round_trip(self, fig3_mode):
        rebuilt = mode_from_dict(mode_to_dict(fig3_mode))
        assert rebuilt.name == fig3_mode.name
        assert rebuilt.mode_id == fig3_mode.mode_id
        assert rebuilt.hyperperiod == fig3_mode.hyperperiod

    def test_malformed(self):
        with pytest.raises(SerializationError):
            mode_from_dict({"name": "x"})


class TestConfigRoundTrip:
    def test_round_trip(self):
        config = SchedulingConfig(round_length=2.5, slots_per_round=3,
                                  max_round_gap=None, backend="bnb",
                                  minimize_latency=False)
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_defaults_filled(self):
        rebuilt = config_from_dict({"round_length": 1.0, "slots_per_round": 5})
        assert rebuilt.backend == "highs"
        assert rebuilt.minimize_latency is True


class TestScheduleRoundTrip:
    def test_round_trip_verifies(self, fig3_mode, unit_config):
        sched = synthesize(fig3_mode, unit_config)
        rebuilt = schedule_from_dict(
            json.loads(json.dumps(schedule_to_dict(sched)))
        )
        assert rebuilt.num_rounds == sched.num_rounds
        assert rebuilt.task_offsets == sched.task_offsets
        assert rebuilt.sigma == sched.sigma
        assert rebuilt.total_latency == pytest.approx(sched.total_latency)
        # The reloaded schedule passes full verification.
        assert verify_schedule(fig3_mode, rebuilt).ok

    def test_bad_sigma_key(self):
        with pytest.raises(SerializationError):
            schedule_from_dict({
                "mode_name": "m", "hyperperiod": 10.0,
                "config": {"round_length": 1.0, "slots_per_round": 5},
                "task_offsets": {}, "message_offsets": {},
                "message_deadlines": {}, "rounds": [],
                "sigma": {"no-arrow": 1},
            })


class TestSystemFiles:
    def test_save_load_cycle(self, tmp_path, fig3_mode, unit_config):
        sched = synthesize(fig3_mode, unit_config)
        path = tmp_path / "system.json"
        save_system(path, [fig3_mode], {"m": sched})
        modes, schedules = load_system(path)
        assert len(modes) == 1
        assert verify_schedule(modes[0], schedules["m"]).ok

    def test_missing_schedule_rejected(self, tmp_path, fig3_mode):
        with pytest.raises(SerializationError, match="without schedules"):
            save_system(tmp_path / "x.json", [fig3_mode], {})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="JSON"):
            load_system(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 99, "modes": [], "schedules": {}}))
        with pytest.raises(SerializationError, match="schema"):
            load_system(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(SerializationError,
                           match="expected a JSON object, got list"):
            load_system(path)
