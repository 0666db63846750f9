"""Trial entry point: trace summarization, context round-trip, pooling."""

import random
import re

import numpy as np
import pytest

from repro.core import Mode, SchedulingConfig, synthesize
from repro.engine.trials import TrialPool, default_chunk_size
from repro.io import mode_to_dict, schedule_to_dict
from repro.runtime import build_deployment
from repro.runtime.simulator import RuntimeSimulator
from repro.runtime.trace import (
    ChainInstanceRecord,
    MessageInstanceRecord,
    ModeSwitchRecord,
    RoundRecord,
    SlotRecord,
    Trace,
)
from repro.runtime.trial import (
    ENGINES,
    TrialResult,
    build_context,
    execute_trial,
    execute_trial_batch,
    run_trial,
    summarize_trace,
    trial_engine,
)
from repro.workloads import closed_loop_pipeline


def handcrafted_trace() -> Trace:
    trace = Trace(duration=100.0)
    r0 = RoundRecord(time=0.0, mode_id=0, round_id=0, beacon_mode_id=0,
                     trigger=False, beacon_receivers={"a", "b"})
    r0.slots.append(SlotRecord(0, "m", transmitters=["a"], receivers={"b"}))
    r1 = RoundRecord(time=10.0, mode_id=0, round_id=1, beacon_mode_id=0,
                     trigger=False, beacon_receivers={"a"})
    r1.slots.append(SlotRecord(0, "m", transmitters=["a", "b"]))  # collision
    trace.rounds = [r0, r1]
    trace.messages = [
        MessageInstanceRecord("m", 0, release_time=0.0, abs_deadline=5.0,
                              served_round_time=1.0, delivered_to={"b"},
                              consumers={"b"}),
        MessageInstanceRecord("m", 1, release_time=10.0, abs_deadline=15.0,
                              served_round_time=None, delivered_to=set(),
                              consumers={"b"}),
    ]
    trace.chains = [
        ChainInstanceRecord("app", ("t", "m", "u"), 0, 0.0, 5.0, True),
        ChainInstanceRecord("app", ("t", "m", "u"), 1, 10.0, None, False),
    ]
    trace.mode_switches = [
        ModeSwitchRecord(requested_at=5.0, announced_at=6.0,
                         trigger_round_time=9.0, new_mode_start=10.0,
                         from_mode=0, to_mode=1),
    ]
    trace.radio_on = {"a": 3.0, "b": 4.0}
    return trace


class TestSummarizeTrace:
    def test_counts(self):
        result = summarize_trace(handcrafted_trace())
        assert result.rounds == 2
        assert result.collisions == 1
        assert result.beacon_heard == (3, 4)  # 2 + 1 heard of 2 * 2
        assert result.messages == {"m": (1, 1, 2)}
        assert result.chains == {"app": (1, 2)}
        assert result.switch_delays == [5.0]
        assert result.total_radio_on() == pytest.approx(7.0)
        assert result.message_counts() == (1, 1, 2)

    def test_dict_round_trip_is_exact(self):
        import json

        result = summarize_trace(handcrafted_trace())
        round_tripped = TrialResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert round_tripped == result


def trial_context_data(duration=200.0, policy="beacon_gated"):
    mode = Mode("normal", [
        closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
    ], mode_id=0)
    config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                              max_round_gap=None)
    schedule = synthesize(mode, config)
    return {
        "modes": [mode_to_dict(mode)],
        "schedules": {"normal": schedule_to_dict(schedule)},
        "sim": {"duration": duration, "initial_mode": None, "policy": policy,
                "host_node": None, "mode_requests": []},
        "radio": None,
        "topology": None,
    }


class TestBuildContext:
    def test_rebuilds_deployments(self):
        context = build_context(trial_context_data())
        assert set(context.deployments) == {0}
        assert context.initial_mode == 0
        assert context.duration == 200.0

    def test_rejects_modes_without_ids(self):
        data = trial_context_data()
        data["modes"][0]["mode_id"] = None
        with pytest.raises(ValueError, match="no mode_id"):
            build_context(data)


class TestRunTrial:
    def test_seeded_trial_is_deterministic(self):
        context = build_context(trial_context_data())
        params = {"beacon_loss": 0.1, "data_loss": 0.1, "seed": 4}
        first = run_trial(context, "bernoulli", params)
        second = run_trial(context, "bernoulli", params)
        assert first == second
        assert first.rounds > 0

    def test_matches_direct_simulator_run(self):
        """run_trial over a JSON context equals driving the simulator
        by hand with the same objects."""
        mode = Mode("normal", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        ], mode_id=0)
        config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                                  max_round_gap=None)
        schedule = synthesize(mode, config)
        deployment = build_deployment(mode, schedule, 0)
        from repro.runtime import BernoulliLoss

        direct = RuntimeSimulator(
            {0: mode}, {0: deployment}, initial_mode=0,
            loss=BernoulliLoss(0.1, 0.1, seed=7),
        ).run(200.0)

        context = build_context(trial_context_data())
        via_context = run_trial(
            context, "bernoulli",
            {"beacon_loss": 0.1, "data_loss": 0.1, "seed": 7},
        )
        assert via_context == summarize_trace(direct)

    def test_beacon_rate_unbiased_under_heavy_loss(self):
        """The expected-beacon denominator is the full node set, not the
        best round observed — heavy loss must not inflate the rate."""
        context = build_context(trial_context_data(duration=2000.0))
        result = run_trial(
            context, "bernoulli", {"beacon_loss": 0.9, "seed": 3},
        )
        heard, expected = result.beacon_heard
        nodes = len(result.radio_on)
        assert expected == result.rounds * nodes
        # Host always receives; the other nodes hear ~10 % of beacons.
        rate = heard / expected
        true_rate = (1 + (nodes - 1) * 0.1) / nodes
        assert abs(rate - true_rate) < 0.15

    def test_no_loss_means_perfect_links(self):
        context = build_context(trial_context_data())
        result = run_trial(context, None, None)
        assert result.messages["a_m0"][0] == result.messages["a_m0"][2]

    def test_execute_trial_echoes_bookkeeping(self):
        context = build_context(trial_context_data())
        payload = execute_trial(context, {
            "loss": {"kind": "bernoulli",
                     "params": {"beacon_loss": 0.1, "seed": 1}},
            "trial": 3, "seed": 1, "point": 0, "scenario": "s",
        })
        assert payload["trial"] == 3
        assert payload["scenario"] == "s"
        assert payload["rounds"] > 0


#: id -> seed factory; stateful seeds are built fresh for every case.
ACCEPTED_SEEDS = {
    "7": lambda: 7,
    "-3": lambda: -3,
    "None": lambda: None,
    "Random": lambda: random.Random(7),
    "Generator": lambda: np.random.default_rng(7),
    "2**70": lambda: 2**70,
}


@pytest.fixture(scope="module")
def seed_context():
    return build_context(trial_context_data())


class TestSeedTypes:
    """``LossSpec`` promises the same ``params["seed"]`` types on every
    trial engine: what one engine runs, all run; what one rejects, all
    reject with the same message."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", sorted(ACCEPTED_SEEDS))
    def test_accepted_seed_runs_on_every_engine(self, seed_context, engine,
                                                seed):
        assert trial_engine(seed_context, "bernoulli", engine) == engine
        params = {"beacon_loss": 0.1, "data_loss": 0.1,
                  "seed": ACCEPTED_SEEDS[seed]()}
        result = run_trial(seed_context, "bernoulli", params, engine=engine)
        assert result.rounds > 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [True, 1.5, "x"], ids=repr)
    def test_rejected_seed_raises_on_every_engine(self, seed_context, engine,
                                                  seed):
        message = (
            "seed must be an integer, a random.Random, a "
            f"numpy.random.Generator, or None, got {seed!r}"
        )
        params = {"beacon_loss": 0.1, "data_loss": 0.1, "seed": seed}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_trial(seed_context, "bernoulli", params, engine=engine)


class TestTrialPool:
    def test_in_process_and_pooled_agree(self):
        contexts = {"ctx": trial_context_data()}
        tasks = [
            ("ctx", {"loss": {"kind": "bernoulli",
                              "params": {"beacon_loss": 0.2, "seed": seed}},
                     "seed": seed})
            for seed in range(6)
        ]
        with TrialPool(build_context, execute_trial, jobs=1) as pool:
            sequential = pool.map(tasks, contexts)
        with TrialPool(build_context, execute_trial, jobs=2) as pool:
            pooled = pool.map(tasks, contexts)
        assert sequential == pooled

    def test_results_in_input_order(self):
        contexts = {"ctx": trial_context_data()}
        tasks = [("ctx", {"loss": None, "trial": i}) for i in range(5)]
        with TrialPool(build_context, execute_trial, jobs=2,
                       chunk_size=2) as pool:
            results = pool.map(tasks, contexts)
        assert [r["trial"] for r in results] == list(range(5))

    def test_unknown_context_key(self):
        pool = TrialPool(build_context, execute_trial, jobs=1)
        with pytest.raises(KeyError, match="unknown context"):
            pool.map([("nope", {})], {})

    def test_empty_tasks(self):
        pool = TrialPool(build_context, execute_trial, jobs=1)
        assert pool.map([], {}) == []

    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="jobs must be"):
            TrialPool(build_context, execute_trial, jobs=0)
        with pytest.raises(ValueError, match="chunk_size"):
            TrialPool(build_context, execute_trial, jobs=2, chunk_size=0)


class TestBatchEnvelope:
    def test_trial_pool_ships_batches_across_processes(self):
        """The daemon's ``--workers 2`` path: TrialBatch envelopes
        pickled out of pool workers equal the in-process ones, for
        every engine."""
        loss = {"kind": "bernoulli",
                "params": {"beacon_loss": 0.1, "data_loss": 0.1}}
        tasks = [
            {"scenario": "s", "point": index, "loss": loss,
             "engine": engine, "trials": [(0, 3), (1, 4)]}
            for index, engine in enumerate(ENGINES)
        ]
        contexts = {"ctx": trial_context_data()}
        keyed = [("ctx", task) for task in tasks]
        with TrialPool(build_context, execute_trial_batch) as local, \
                TrialPool(build_context, execute_trial_batch, jobs=2,
                          chunk_size=1) as pooled:
            expected = local.map(keyed, contexts)
            shipped = pooled.map(keyed, contexts)
        for task, want, got in zip(tasks, expected, shipped):
            assert set(got) == {"scenario", "point", "engine_used", "batch"}
            assert got["engine_used"] == want["engine_used"] == task["engine"]
            assert got["point"] == task["point"]
            assert len(got["batch"]) == 2
            assert got["batch"].results() == want["batch"].results()


class TestChunkSizing:
    """Default chunking must keep every worker busy in both regimes."""

    def test_small_batches_fan_one_task_per_future(self):
        # tasks < 2 * jobs: a chunk size above 1 would idle workers,
        # so the default must degrade to one task per future.
        for jobs in (2, 4, 8):
            for tasks in range(1, 2 * jobs):
                assert default_chunk_size(tasks, jobs) == 1

    def test_large_batches_amortize_to_four_chunks_per_worker(self):
        # tasks >> jobs: ~4 futures per worker amortizes submission
        # overhead while leaving slack for stragglers to rebalance.
        import math

        for tasks, jobs in ((1000, 4), (640, 8), (100, 2)):
            chunk = default_chunk_size(tasks, jobs)
            assert chunk == math.ceil(tasks / (4 * jobs))
            num_chunks = math.ceil(tasks / chunk)
            # Every worker gets at least ~4 futures, and no fewer
            # chunks than workers exist (no idle workers).
            assert num_chunks >= jobs
            assert num_chunks <= 4 * jobs + jobs  # ceil slack

    def test_small_pooled_batch_executes_correctly(self):
        # Behavioral check of the small regime through a real pool:
        # 3 tasks over 2 workers must still produce in-order results.
        contexts = {"ctx": trial_context_data()}
        tasks = [("ctx", {"loss": None, "trial": i}) for i in range(3)]
        with TrialPool(build_context, execute_trial, jobs=2) as pool:
            results = pool.map(tasks, contexts)
        assert [r["trial"] for r in results] == [0, 1, 2]
