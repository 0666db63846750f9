"""The exploration driver: fronts, acceptance criteria, failure modes.

The two acceptance criteria of the subsystem are asserted here:

* the adaptive sampler reaches the **same Pareto front** as the
  exhaustive grid on the pinned reference space while executing at
  most 60 % of its MC campaigns;
* re-running the same exploration against the same store performs
  **zero** new campaign evaluations.
"""

import dataclasses
import importlib

import pytest

explore_module = importlib.import_module("repro.dse.explore")

from repro.api import Experiment, Scenario
from repro.dse import (
    Axis,
    ExplorationError,
    Space,
    SuccessiveHalvingSampler,
    explore,
    explore_scenario,
)
from repro.engine.cache import ScheduleCache


def _front_keys(result):
    return sorted(
        tuple(sorted(c.assignment.items())) for c in result.front
    )


class TestExploreBasics:
    def test_grid_exploration_scores_every_candidate(self, dse_space):
        result = explore(dse_space, objectives=("energy_saving", "latency"))
        assert len(result.candidates) == dse_space.size
        assert result.executed == dse_space.size
        assert result.reused == 0 and result.failed == 0
        for candidate in result.candidates:
            assert candidate.values is not None
            assert set(candidate.values) == {"energy_saving", "latency"}
            assert candidate.rank is not None
            assert candidate.on_front == (candidate.rank == 0)

    def test_front_is_the_payload8_column(self, dse_space):
        # Reference space: at equal B, payload=32 yields less saving
        # and a longer round — strictly dominated by payload=8.
        result = explore(dse_space, objectives=("energy_saving", "latency"))
        assert _front_keys(result) == [
            (("B", 1), ("payload", 8)),
            (("B", 2), ("payload", 8)),
            (("B", 5), ("payload", 8)),
        ]

    def test_mc_objectives_come_from_campaign_stats(self, dse_space):
        result = explore(dse_space, objectives=("energy", "miss"),
                         trials=2)
        for candidate in result.candidates:
            assert 0.0 < candidate.values["energy"] < 1.0  # duty cycle
            assert 0.0 <= candidate.values["miss"] <= 1.0
            assert candidate.evaluation.stats.n_trials == 2

    def test_simulationless_base_is_rejected(self, dse_base):
        bare = dataclasses.replace(dse_base, simulation=None)
        space = Space(base=bare, axes=[Axis("B", "slots", [1, 2])])
        with pytest.raises(ExplorationError, match="SimulationSpec"):
            explore(space)

    def test_to_dict_is_json_shaped(self, dse_space):
        import json

        result = explore(dse_space, objectives=("energy_saving", "latency"))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["space_size"] == 6
        assert payload["executed"] == 6
        assert len(payload["candidates"]) == 6
        assert payload["front"]

    def test_explore_scenario_convenience(self, dse_base):
        result = explore_scenario(
            dse_base,
            axes=[("B", "slots", [1, 2])],
            derive="glossy_timing",
            objectives=("energy_saving", "latency"),
        )
        assert len(result.candidates) == 2


class TestAcceptance:
    """The ISSUE's acceptance criteria, on the pinned reference space."""

    def test_adaptive_matches_grid_front_with_at_most_60_percent(
        self, dse_space
    ):
        objectives = ("energy_saving", "latency")
        grid = explore(dse_space, sampler="grid", objectives=objectives)
        adaptive = explore(dse_space, sampler=SuccessiveHalvingSampler(),
                           objectives=objectives)
        assert _front_keys(adaptive) == _front_keys(grid)
        assert adaptive.executed <= 0.6 * grid.executed

    def test_rerun_against_same_store_runs_zero_campaigns(
        self, dse_space, tmp_path
    ):
        store = tmp_path / "store.jsonl"
        objectives = ("energy_saving", "latency", "miss")
        first = explore(dse_space, objectives=objectives, store=store)
        assert first.executed == dse_space.size

        evaluated = []
        real = explore_module.run_campaigns

        def counting(scenarios, **kwargs):
            evaluated.extend(s.name for s in scenarios)
            return real(scenarios, **kwargs)

        try:
            explore_module.run_campaigns = counting
            second = explore(dse_space, objectives=objectives, store=store)
        finally:
            explore_module.run_campaigns = real
        assert evaluated == []  # zero new campaign evaluations
        assert second.executed == 0
        assert second.reused == dse_space.size
        assert _front_keys(second) == _front_keys(first)
        # Restored evaluations score identically (stats round-trip).
        for before, after in zip(first.candidates, second.candidates):
            assert after.cached
            assert after.values == pytest.approx(before.values)


class TestFailureModes:
    def test_infeasible_candidates_are_findings_not_crashes(self, dse_base):
        # period_scale 0.004 shrinks the deadline to 8 ms against a
        # 50 ms round: unschedulable — the candidate must be recorded
        # as failed while the rest of the space is still explored.
        space = Space(
            base=dse_base,
            axes=[Axis("scale", "period_scale", [1.0, 0.004])],
        )
        result = explore(space, objectives=("latency",))
        assert result.failed == 1
        good, bad = result.candidates
        assert good.error is None and good.on_front
        assert bad.error is not None and bad.error.startswith("infeasible:")
        assert bad.values is None and bad.rank is None

    def test_failed_candidates_resume_from_store_too(
        self, dse_base, tmp_path
    ):
        space = Space(
            base=dse_base,
            axes=[Axis("scale", "period_scale", [1.0, 0.004])],
        )
        store = tmp_path / "store.jsonl"
        explore(space, objectives=("latency",), store=store)
        second = explore(space, objectives=("latency",), store=store)
        assert second.executed == 0
        assert second.reused == 2 and second.failed == 1

    def test_radio_objectives_fail_fast_before_any_campaign(
        self, dse_base, monkeypatch
    ):
        from repro.dse import ObjectiveError

        bare = dataclasses.replace(dse_base, radio=None, topology=None)
        space = Space(base=bare, axes=[Axis("B", "slots", [1, 2])])
        calls = []
        monkeypatch.setattr(
            explore_module, "run_campaigns",
            lambda scenarios, **kw: calls.append(scenarios) or None,
        )
        with pytest.raises(ObjectiveError, match="radio spec"):
            explore(space, objectives=("energy", "latency"))
        assert calls == []  # no synthesis/MC budget was spent

    def test_non_json_axes_explore_in_memory_but_not_to_disk(
        self, dse_base, tmp_path
    ):
        from repro.dse import StoreError

        # Whole-spec-field replacement: values are dataclasses, fine in
        # memory, unhashable for a persistent store.
        space = Space(
            base=dse_base,
            axes=[Axis("radio", "radio", [dse_base.radio, None])],
        )
        result = explore(space, objectives=("latency",))
        assert len(result.candidates) == 2 and result.failed == 0
        with pytest.raises(StoreError, match="not\\s+JSON-serializable"):
            explore(space, objectives=("latency",),
                    store=tmp_path / "store.jsonl")

    def test_bad_batch_size_rejected(self, dse_space):
        with pytest.raises(ExplorationError, match="batch_size"):
            explore(dse_space, batch_size=0)

    def test_unknown_objective_rejected(self, dse_space):
        with pytest.raises(ValueError, match="unknown objective"):
            explore(dse_space, objectives=("nonsense",))


class TestExperimentIntegration:
    def test_experiment_explore_shares_cache(self, dse_space, tmp_path):
        experiment = Experiment(cache_dir=tmp_path / "cache")
        objectives = ("energy_saving", "latency")
        first = experiment.explore(dse_space, objectives=objectives)
        second = experiment.explore(dse_space, objectives=objectives)
        assert len(first.candidates) == dse_space.size
        # Same synthesis problems, same shared cache: all hits.
        assert second.stats.cache_hits >= dse_space.size
        assert second.stats.solver_runs == 0

    def test_explicit_cache_object(self, dse_space, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        explore(dse_space, objectives=("latency",), cache=cache)
        result = explore(dse_space, objectives=("latency",), cache=cache)
        assert result.stats.solver_runs == 0
