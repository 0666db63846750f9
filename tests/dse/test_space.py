"""Parameter spaces: typed transforms, enumeration, (de)serialization."""

import dataclasses
import math
import re

import pytest

from repro.api import Scenario
from repro.dse import (
    Axis,
    Space,
    SpaceError,
    apply_target,
    available_derivers,
    available_transforms,
    register_transform,
)
from repro.io import SerializationError
from repro.timing import round_length_ms


class TestApplyTarget:
    def test_slots_transform(self, dse_base):
        derived = apply_target(dse_base, "slots", 9)
        assert derived.config.slots_per_round == 9
        assert dse_base.config.slots_per_round == 5  # base untouched

    def test_payload_transform(self, dse_base):
        derived = apply_target(dse_base, "payload", 64)
        assert derived.radio.payload_bytes == 64

    def test_dotted_config_path(self, dse_base):
        derived = apply_target(dse_base, "config.round_length", 12.5)
        assert derived.config.round_length == 12.5

    def test_dotted_loss_param(self, dse_base):
        derived = apply_target(dse_base, "loss.params.data_loss", 0.25)
        assert derived.loss.params["data_loss"] == 0.25
        assert derived.loss.params["beacon_loss"] == 0.0  # others kept

    def test_dotted_simulation_field(self, dse_base):
        derived = apply_target(dse_base, "simulation.duration", 999.0)
        assert derived.simulation.duration == 999.0

    def test_backend_transform(self, dse_base):
        assert apply_target(dse_base, "backend", "bnb").backend == "bnb"

    def test_period_scale_scales_periods_and_deadlines(self, dse_base):
        derived = apply_target(dse_base, "period_scale", 0.5)
        app = derived.modes[0].applications[0]
        assert app.period == 1000.0 and app.deadline == 1000.0

    def test_period_scale_rejects_nonpositive(self, dse_base):
        with pytest.raises(SpaceError, match="period_scale"):
            apply_target(dse_base, "period_scale", 0)

    def test_top_level_scenario_field(self, dse_base):
        derived = apply_target(dse_base, "radio", None)
        assert derived.radio is None

    def test_unknown_target_rejected(self, dse_base):
        with pytest.raises(SpaceError, match="unknown axis target"):
            apply_target(dse_base, "nonsense", 1)

    def test_unknown_config_field_rejected(self, dse_base):
        with pytest.raises(SpaceError, match="unknown config field"):
            apply_target(dse_base, "config.nonsense", 1)

    def test_name_target_rejected(self, dse_base):
        with pytest.raises(SpaceError, match="name"):
            apply_target(dse_base, "name", "x")

    def test_invalid_config_value_reported(self, dse_base):
        with pytest.raises(SpaceError, match="round_length"):
            apply_target(dse_base, "config.round_length", -1.0)

    def test_spec_target_without_spec_rejected(self, dse_base):
        bare = dataclasses.replace(dse_base, radio=None)
        with pytest.raises(SpaceError, match="no radio spec"):
            apply_target(bare, "payload", 8)

    def test_mode_requests_transform(self, dse_base):
        derived = apply_target(dse_base, "mode_requests", [[100, "normal"]])
        assert derived.simulation.mode_requests == ((100.0, "normal"),)
        derived.validate()

    @pytest.mark.parametrize("request_, path", [
        (["100", "normal"], "[0][0]"),
        ([True, "normal"], "[0][0]"),
        ([-5, "normal"], "[0][0]"),
        ([math.nan, "normal"], "[0][0]"),
        ([100, 5], "[0][1]"),
    ], ids=["string-time", "bool-time", "negative-time", "nan-time",
            "non-string-mode"])
    def test_mode_requests_values_are_not_coerced(self, dse_base, request_,
                                                  path):
        """The values scenario JSON rejects: they used to be coerced with
        ``float()``/``str()`` and run."""
        space = Space(base=dse_base,
                      axes=[Axis("requests", "mode_requests", [[request_]])])
        with pytest.raises(SpaceError,
                           match=re.escape(f"simulation.mode_requests{path}")):
            space.candidate({"requests": [request_]})

    def test_custom_transform_registry(self, dse_base):
        register_transform(
            "double_slots",
            lambda s, v: apply_target(s, "slots", s.config.slots_per_round * v),
        )
        try:
            derived = apply_target(dse_base, "double_slots", 3)
            assert derived.config.slots_per_round == 15
            assert "double_slots" in available_transforms()
        finally:
            from repro.dse.space import _TRANSFORMS

            _TRANSFORMS.pop("double_slots", None)


class TestAxis:
    def test_empty_values_rejected(self):
        with pytest.raises(SpaceError, match="no values"):
            Axis("B", "slots", [])

    def test_duplicate_values_rejected(self):
        with pytest.raises(SpaceError, match="twice"):
            Axis("B", "slots", [1, 2, 1])

    def test_non_json_values_fail_only_serialization(self, dse_base):
        axis = Axis("sim", "simulation", [dse_base.simulation])
        with pytest.raises(SpaceError, match="non-JSON"):
            axis.to_dict()


class TestSpace:
    def test_size_and_assignment_order(self, dse_space):
        assert dse_space.size == 6
        assignments = list(dse_space.assignments())
        assert assignments[0] == {"B": 1, "payload": 8}
        assert assignments[1] == {"B": 1, "payload": 32}  # last axis fastest
        assert assignments[-1] == {"B": 5, "payload": 32}

    def test_assignment_at_matches_enumeration(self, dse_space):
        for index, assignment in enumerate(dse_space.assignments()):
            assert dse_space.assignment_at(index) == assignment
        with pytest.raises(IndexError):
            dse_space.assignment_at(dse_space.size)

    def test_candidate_applies_axes_and_deriver(self, dse_space):
        candidate = dse_space.candidate({"B": 2, "payload": 32})
        assert candidate.config.slots_per_round == 2
        assert candidate.radio.payload_bytes == 32
        # glossy_timing: Tr follows the Fig. 6 model for (l, H, B).
        assert candidate.config.round_length == pytest.approx(
            round_length_ms(32, 4, 2)
        )
        assert candidate.name == "dse[B=2,payload=32]"

    def test_candidate_rejects_incomplete_assignment(self, dse_space):
        with pytest.raises(SpaceError, match="misses axes"):
            dse_space.candidate({"B": 2})
        with pytest.raises(SpaceError, match="unknown axes"):
            dse_space.candidate({"B": 2, "payload": 8, "x": 1})

    def test_duplicate_axis_names_rejected(self, dse_base):
        with pytest.raises(SpaceError, match="duplicate axis names"):
            Space(base=dse_base, axes=[
                Axis("B", "slots", [1]), Axis("B", "payload", [8]),
            ])

    def test_unknown_deriver_rejected(self, dse_base):
        with pytest.raises(SpaceError, match="unknown deriver"):
            Space(base=dse_base, axes=[], derive="nonsense")
        assert "glossy_timing" in available_derivers()

    def test_validate_flags_bad_axis_values(self, dse_base):
        space = Space(base=dse_base, axes=[Axis("B", "slots", [1, 0])])
        with pytest.raises(SpaceError):
            space.validate()

    def test_round_trip_through_json(self, dse_space, tmp_path):
        path = tmp_path / "space.json"
        dse_space.save(path)
        again = Space.load(path)
        assert again.size == dse_space.size
        assert [a.to_dict() for a in again.axes] == \
            [a.to_dict() for a in dse_space.axes]
        assert again.derive == dse_space.derive
        first = next(iter(dse_space.assignments()))
        assert again.candidate(first).to_dict() == \
            dse_space.candidate(first).to_dict()

    @pytest.mark.parametrize("data", [[], "x", 3, None])
    def test_non_object_record_rejected(self, data):
        with pytest.raises(SerializationError, match="JSON object"):
            Space.from_dict(data)

    def test_axisless_space_is_the_base(self, dse_base):
        space = Space(base=dse_base)
        assert space.size == 1
        assert list(space.assignments()) == [{}]
        assert space.candidate({}).name == dse_base.name
