"""Instrumentation through the hot seams: events without perturbation."""

import pytest

from repro.api import LossSpec, Scenario, SimulationSpec
from repro.core import Mode, SchedulingConfig
from repro.mc import run_campaign
from repro.obs import ObsConfig, RunLog, read_log, set_run_log
from repro.workloads import closed_loop_pipeline


def make_scenario(**overrides) -> Scenario:
    fields = dict(
        name="obs",
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


@pytest.fixture
def run_log(tmp_path):
    log = RunLog(tmp_path / "logs", run_id="test")
    previous = set_run_log(log)
    yield log
    set_run_log(previous)
    log.close()


class TestCampaignInstrumentation:
    def test_logged_campaign_emits_expected_kinds(self, run_log):
        run_campaign(make_scenario(), trials=2)
        kinds = {event.kind for event in read_log(run_log.path)}
        assert {
            "campaign.begin",
            "campaign.point.begin",
            "campaign.point.end",
            "campaign.end",
            "engine.resolved",
            "span",
        } <= kinds

    def test_all_four_phase_spans_are_timed(self, run_log):
        run_campaign(make_scenario(), trials=2)
        spans = {
            event.data["name"]
            for event in read_log(run_log.path)
            if event.kind == "span"
        }
        assert {"synthesize", "verify", "simulate", "aggregate"} <= spans

    def test_event_granularity_is_batch_not_per_slot(self, run_log):
        # The hot-loop contract: event count must not scale with
        # trials.  Same campaign at 2x trials -> same event count.
        run_campaign(make_scenario(), trials=2)
        small = len(read_log(run_log.path))
        run_campaign(make_scenario(), trials=4)
        assert len(read_log(run_log.path)) == 2 * small

    def test_logging_does_not_perturb_results(self, run_log):
        logged = run_campaign(make_scenario(), trials=3)
        set_run_log(None)
        unlogged = run_campaign(make_scenario(), trials=3)
        assert logged.points[0].trials == unlogged.points[0].trials
        assert logged.points[0].stats.to_dict() == \
            unlogged.points[0].stats.to_dict()

    def test_engine_fallback_event_carries_reason(self, run_log):
        # A beacon host outside the deployment cannot be masked by
        # either compiled engine -> vectorized falls back to reference,
        # and the log says why.
        scenario = make_scenario(simulation=SimulationSpec(
            duration=300.0, trials=4, seed=11, host_node="base_station",
        ))
        result = run_campaign(scenario, trials=2, engine="vectorized")
        assert result.engines == {"obs": "reference"}
        events = [
            event for event in read_log(run_log.path)
            if event.kind == "engine.fallback"
        ]
        assert len(events) == 1
        assert events[0].data["requested"] == "vectorized"
        assert events[0].data["used"] == "reference"
        assert "'base_station' not in the program" in \
            events[0].data["reason"]

    def test_wall_seconds_in_result_and_to_dict(self):
        result = run_campaign(make_scenario(), trials=2)
        assert set(result.wall_seconds) == {
            "synthesis", "simulation", "aggregation",
        }
        assert all(value >= 0.0 for value in result.wall_seconds.values())
        assert result.to_dict()["wall_seconds"] == result.wall_seconds

    def test_verbose_table_prints_phase_line(self):
        result = run_campaign(make_scenario(), trials=2)
        assert "phases:" not in result.table()
        assert "phases:" in result.table(verbose=True)
        assert "synthesis=" in result.table(verbose=True)


class TestOffByDefault:
    def test_no_log_dir_no_file(self, tmp_path):
        run_campaign(make_scenario(), trials=2)
        assert list(tmp_path.rglob("*.jsonl")) == []

    def test_obs_config_disabled(self):
        config = ObsConfig()
        assert not config.enabled
        assert config.open() is None

    def test_obs_config_enabled_opens_log(self, tmp_path):
        config = ObsConfig(log_dir=tmp_path / "logs", run_id="cfg")
        assert config.enabled
        with config.open() as log:
            log.emit("hello")
        assert log.path.name == "cfg.jsonl"
        with config.open(worker=1) as part:
            part.emit("hi")
        assert part.path.name == "cfg.part-1.jsonl"


def _build_ctx(data: dict) -> dict:
    return {"base": data["base"]}


def _run_task(ctx: dict, task: dict) -> dict:
    return {"value": ctx["base"] + task["x"]}


class TestPoolInstrumentation:
    def test_trial_pool_ships_worker_metric_deltas(self, run_log):
        from repro.engine.trials import TrialPool
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.counters.get("pool.context_builds", 0)
        with TrialPool(_build_ctx, _run_task, jobs=2) as pool:
            pool.map([("k", {"x": 1}), ("k", {"x": 2})], {"k": {"base": 1}})
        events = [
            event for event in read_log(run_log.path)
            if event.kind == "pool.map"
        ]
        assert events, "a pooled map must emit pool.map"
        assert events[0].data["jobs"] == 2
        assert events[0].data["tasks"] == 2
        # Worker-side context builds travel back as metric deltas.
        assert REGISTRY.counters.get("pool.context_builds", 0) > before

    def test_pooled_campaign_emits_spawn_and_batch_events(self, run_log):
        run_campaign(make_scenario(), trials=2, jobs=2)
        kinds = [event.kind for event in read_log(run_log.path)]
        assert "pool.spawn" in kinds
