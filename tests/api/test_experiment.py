"""Experiment runner: batching, caching, simulation, bit-identity."""

import dataclasses

import pytest

from repro.api import (
    Experiment,
    LossSpec,
    Scenario,
    SimulationSpec,
    run_scenario,
)
from repro.core import Mode, SchedulingConfig
from repro.io import mode_from_dict, mode_to_dict, schedule_to_dict
from repro.system import TTWSystem
from repro.workloads import closed_loop_pipeline


def fresh_modes():
    return [
        Mode("normal", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        ]),
        Mode("emergency", [
            closed_loop_pipeline("b", period=10, deadline=10, num_hops=1),
        ]),
    ]


def make_scenario(**overrides) -> Scenario:
    fields = dict(
        name="exp",
        modes=fresh_modes(),
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        transitions=[("normal", "emergency")],
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestRunScenario:
    def test_synthesize_and_verify(self):
        result = run_scenario(make_scenario())
        assert set(result.schedules) == {"normal", "emergency"}
        assert result.verified
        assert result.trace is None  # no simulation phase
        assert result.metrics["modes"] == 2
        assert result.metrics["verified"] is True

    def test_simulation_phase(self):
        scenario = make_scenario(
            loss=LossSpec("bernoulli", {"beacon_loss": 0.05,
                                        "data_loss": 0.05, "seed": 7}),
            simulation=SimulationSpec(duration=300.0,
                                      mode_requests=((40.0, "emergency"),)),
        )
        result = run_scenario(scenario)
        assert result.trace is not None
        assert result.trace.collision_free
        assert len(result.trace.mode_switches) == 1
        assert 0.0 < result.metrics["delivery"] <= 1.0
        assert result.metrics["mode_switches"] == 1

    def test_result_system_is_deployable(self, tmp_path):
        scenario = make_scenario()
        result = run_scenario(scenario)
        system = result.system()
        trace = system.simulate(duration=100.0)
        assert trace.collision_free
        path = tmp_path / "img.json"
        system.save(path)
        reloaded = TTWSystem.load(path)
        assert reloaded.mode_graph.can_switch("normal", "emergency")


class TestBitIdentity:
    def test_matches_legacy_synthesize_all(self):
        """Acceptance: the api path == TTWSystem.synthesize_all(),
        bit for bit, for the scipy backend."""
        scenario = make_scenario()
        result = run_scenario(scenario)

        legacy = TTWSystem(scenario.config)
        for mode in [mode_from_dict(mode_to_dict(m)) for m in fresh_modes()]:
            legacy.add_mode(mode)
        legacy_schedules = legacy.synthesize_all()

        for name, legacy_schedule in legacy_schedules.items():
            assert schedule_to_dict(legacy_schedule) == schedule_to_dict(
                result.schedules[name]
            )


class TestExperiment:
    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs must be"):
            Experiment(jobs=0)
        with pytest.raises(ValueError, match="jobs must be"):
            Experiment(jobs=True)

    def test_duplicate_scenario_names_rejected(self):
        experiment = Experiment([make_scenario(), make_scenario()])
        with pytest.raises(ValueError, match="duplicate scenario names"):
            experiment.run()

    def test_shared_cache_across_scenarios(self, tmp_path):
        # Two scenarios, same workload content -> the second is all hits
        # on a re-run; greedy gets its own entries (backend in the key).
        first = Experiment(
            [make_scenario(name="one")], cache_dir=tmp_path / "cache"
        ).run(simulate=False)
        assert first.stats.cache_misses == 2

        second = Experiment(
            [make_scenario(name="two", modes=fresh_modes())],
            cache_dir=tmp_path / "cache",
        ).run(simulate=False)
        assert second.stats.cache_hits == 2
        assert second.stats.solver_runs == 0

        greedy = Experiment(
            [make_scenario(name="three", modes=fresh_modes(),
                           backend="greedy")],
            cache_dir=tmp_path / "cache",
        ).run(simulate=False)
        assert greedy.stats.cache_hits == 0
        assert greedy.stats.cache_misses == 2

    def test_backend_sweep_table(self):
        base = make_scenario()
        # Re-instantiate modes per variant: Mode objects are mutated
        # (mode ids) when registered in a mode graph.
        variants = [
            dataclasses.replace(base, name=f"{base.name}-{i}",
                                backend=backend, modes=fresh_modes())
            for i, backend in enumerate(["highs", "greedy"])
        ]
        outcome = Experiment(variants, jobs=2).run(simulate=False)
        assert outcome.ok
        assert len(outcome) == 2
        rows = outcome.rows()
        assert rows[0]["backend"] == "highs"
        assert rows[1]["backend"] == "greedy"
        # The exact backend is latency-optimal; greedy can only be worse.
        assert rows[1]["total_latency"] >= rows[0]["total_latency"]
        table = outcome.table()
        assert "scenario" in table and "greedy" in table

    def test_getitem_by_name_and_index(self):
        outcome = Experiment([make_scenario(name="solo")]).run(simulate=False)
        assert outcome["solo"] is outcome[0]
        with pytest.raises(KeyError):
            outcome["nope"]
