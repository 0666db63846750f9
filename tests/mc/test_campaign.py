"""Monte-Carlo campaigns: fan-out, caching, determinism, bit-identity."""

import dataclasses

import pytest

from repro.api import Experiment, LossSpec, Scenario, ScenarioError, SimulationSpec, run_scenario
from repro.core import Mode, SchedulingConfig
from repro.core.rng import derive_seed
from repro.mc import CampaignResult, run_campaign, run_campaigns
from repro.runtime.trial import TrialResult, summarize_trace
from repro.workloads import closed_loop_pipeline


def make_scenario(**overrides) -> Scenario:
    fields = dict(
        name="mc",
        modes=[Mode("normal", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        ])],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        backend="greedy",
        loss=LossSpec("bernoulli", {"beacon_loss": 0.05, "data_loss": 0.05}),
        simulation=SimulationSpec(duration=300.0, trials=4, seed=11),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestCampaignBasics:
    def test_one_point_per_grid_cell(self):
        result = run_campaign(
            make_scenario(),
            sweep={"data_loss": [0.0, 0.1], "beacon_loss": [0.0, 0.2]},
        )
        assert len(result.points) == 4
        assert [p.point for p in result.points] == [
            {"data_loss": 0.0, "beacon_loss": 0.0},
            {"data_loss": 0.0, "beacon_loss": 0.2},
            {"data_loss": 0.1, "beacon_loss": 0.0},
            {"data_loss": 0.1, "beacon_loss": 0.2},
        ]
        for point in result.points:
            assert point.stats.n_trials == 4
            assert len(point.trials) == 4

    def test_trials_defaults_from_simulation_spec(self):
        result = run_campaign(make_scenario())
        assert result.points[0].stats.n_trials == 4

    def test_trials_argument_overrides_spec(self):
        result = run_campaign(make_scenario(), trials=2)
        assert result.points[0].stats.n_trials == 2

    def test_seeds_are_derived_deterministically(self):
        result = run_campaign(make_scenario(), trials=3)
        assert result.points[0].seeds == [derive_seed(11, i) for i in range(3)]

    def test_explicit_seeds_win(self):
        result = run_campaign(make_scenario(), seeds=[1, 2, 3])
        assert result.points[0].seeds == [1, 2, 3]
        assert result.points[0].stats.n_trials == 3

    def test_lossless_point_never_misses(self):
        result = run_campaign(
            make_scenario(), trials=3,
            sweep={"data_loss": [0.0], "beacon_loss": [0.0]},
        )
        stats = result.points[0].stats
        assert stats.miss.rate == 0.0
        assert stats.collisions == 0
        assert result.ok

    def test_lossy_point_misses(self):
        result = run_campaign(
            make_scenario(), trials=5, sweep={"data_loss": [0.4]}
        )
        assert result.points[0].stats.miss.successes > 0
        # Beacon gating keeps even heavy loss collision-free.
        assert result.points[0].stats.collisions == 0

    def test_table_and_rows(self):
        result = run_campaign(make_scenario(), trials=2,
                              sweep={"data_loss": [0.0, 0.1]})
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0]["scenario"] == "mc"
        assert "miss" in rows[0]
        table = result.table()
        assert "data_loss" in table
        assert "miss" in table

    def test_to_dict_is_json_compatible(self):
        import json

        result = run_campaign(make_scenario(), trials=2)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["ok"] is True
        assert payload["engine"]["modes_synthesized"] == 1


class TestDeterminismAndIdentity:
    def test_campaign_is_reproducible(self):
        first = run_campaign(make_scenario(), trials=3)
        second = run_campaign(make_scenario(), trials=3)
        assert first.points[0].trials == second.points[0].trials
        assert first.points[0].stats.to_dict() == second.points[0].stats.to_dict()

    def test_pooled_equals_sequential_bit_identically(self):
        sequential = run_campaign(make_scenario(), trials=4, jobs=1)
        pooled = run_campaign(make_scenario(), trials=4, jobs=2)
        assert sequential.points[0].trials == pooled.points[0].trials

    def test_single_trial_matches_legacy_experiment_run(self):
        """A campaign trial with seed s is bit-identical to the legacy
        one-shot Experiment.run(simulate=True) path with that seed."""
        scenario = make_scenario()
        seed = 12345
        campaign = run_campaign(scenario, seeds=[seed])
        legacy = run_scenario(
            dataclasses.replace(
                scenario,
                loss=LossSpec("bernoulli", {"beacon_loss": 0.05,
                                            "data_loss": 0.05,
                                            "seed": seed}),
            ),
            warm_start=True,
        )
        assert summarize_trace(legacy.trace) == campaign.points[0].trials[0]


class TestColumnarResults:
    def test_vectorized_campaign_builds_no_trial_results(self, monkeypatch):
        """Kernel columns reach CampaignStats as a TrialBatch: no
        TrialResult and no to_dict/from_dict until .trials is read."""
        calls = {"init": 0, "to_dict": 0, "from_dict": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            TrialResult, "__init__", counting("init", TrialResult.__init__)
        )
        monkeypatch.setattr(
            TrialResult, "to_dict", counting("to_dict", TrialResult.to_dict)
        )
        monkeypatch.setattr(TrialResult, "from_dict", classmethod(
            counting("from_dict", TrialResult.from_dict.__func__)
        ))
        result = run_campaign(make_scenario(), trials=5,
                              sweep={"data_loss": [0.0, 0.1]},
                              engine="vectorized")
        assert result.engines == {"mc": "vectorized"}
        assert result.points[1].stats.n_trials == 5
        assert calls == {"init": 0, "to_dict": 0, "from_dict": 0}
        trials = result.points[0].trials
        assert len(trials) == 5
        assert calls == {"init": 5, "to_dict": 0, "from_dict": 0}
        assert result.points[0].trials is trials


class TestSynthesisReuse:
    def test_synthesis_runs_once_per_distinct_config(self):
        """However many trials and grid points, each distinct
        (mode, config) problem is synthesized exactly once."""
        result = run_campaign(
            make_scenario(), trials=6,
            sweep={"data_loss": [0.0, 0.1, 0.2]},
        )
        assert result.stats.modes_synthesized == 1

    def test_campaign_reuses_persistent_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_campaign(make_scenario(), trials=2, cache_dir=cache_dir)
        assert first.stats.cache_misses == 1
        second = run_campaign(make_scenario(), trials=2, cache_dir=cache_dir)
        assert second.stats.cache_hits == 1
        assert second.stats.modes_synthesized == 0
        assert first.points[0].trials == second.points[0].trials

    def test_multi_scenario_campaign_shares_the_batch(self):
        second = make_scenario(name="mc2")
        result = run_campaigns([make_scenario(), second], trials=2)
        assert len(result.points) == 2
        # Identical synthesis problems are deduped across scenarios.
        assert result.stats.modes_synthesized == 1


class TestExperimentIntegration:
    def test_run_campaign_via_experiment(self):
        experiment = Experiment([make_scenario()], jobs=1)
        result = experiment.run_campaign(trials=2)
        assert isinstance(result, CampaignResult)
        assert result.points[0].stats.n_trials == 2
        assert result.verified

    def test_scenario_json_round_trip_preserves_campaign(self, tmp_path):
        scenario = make_scenario()
        path = tmp_path / "mc.scenario.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded.simulation.trials == 4
        assert loaded.simulation.seed == 11
        direct = run_campaign(scenario, trials=2)
        via_file = run_campaign(loaded, trials=2)
        assert direct.points[0].trials == via_file.points[0].trials


class TestValidation:
    def test_requires_simulation_phase(self):
        with pytest.raises(ScenarioError, match="simulation phase"):
            run_campaign(make_scenario(simulation=None))

    def test_sweep_without_loss_model(self):
        with pytest.raises(ScenarioError, match="no loss model"):
            run_campaign(make_scenario(loss=None),
                         sweep={"data_loss": [0.1]})

    def test_no_sweep_without_loss_is_fine(self):
        result = run_campaign(make_scenario(loss=None), trials=2)
        assert result.points[0].stats.miss.rate == 0.0

    def test_unknown_sweep_parameter(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            run_campaign(make_scenario(), sweep={"nope": [0.1]})

    def test_sweep_values_must_be_sequences(self):
        with pytest.raises(ValueError, match="list/tuple"):
            run_campaign(make_scenario(), sweep={"data_loss": 0.1})

    def test_bad_trials(self):
        with pytest.raises(ValueError, match="trials must be"):
            run_campaign(make_scenario(), trials=0)

    def test_bad_seeds(self):
        with pytest.raises(ValueError, match="seeds must be integers"):
            run_campaign(make_scenario(), seeds=[1, "x"])
        with pytest.raises(ValueError, match="contradicts"):
            run_campaign(make_scenario(), trials=3, seeds=[1, 2])

    def test_spec_trials_validated_at_scenario_boundary(self):
        scenario = make_scenario(
            simulation=SimulationSpec(duration=100.0, trials=0)
        )
        with pytest.raises(ScenarioError, match="simulation.trials"):
            scenario.validate()

    def test_spec_seed_validated_at_scenario_boundary(self):
        scenario = make_scenario(
            simulation=SimulationSpec(duration=100.0, seed="abc")
        )
        with pytest.raises(ScenarioError, match="simulation.seed"):
            scenario.validate()

    def test_duplicate_scenario_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_campaigns([make_scenario(), make_scenario()], trials=1)
