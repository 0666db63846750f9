"""JobQueue: admission control, dedup, execution, cancellation."""

import contextlib
import sys
import threading
import time

import pytest

import repro.engine.api as engine_api
from repro.api import Scenario
from repro.api.scenario import ScenarioError
from repro.core import Mode, SchedulingConfig, synthesize
from repro.dse.store import open_store
from repro.engine.cache import ScheduleCache
from repro.engine.trials import TrialPool
from repro.io import schedule_to_dict
from repro.runtime.trial import build_context, execute_trial_batch
from repro.serve.dedup import job_key
from repro.serve.jobs import TERMINAL, JobTable
from repro.serve.queue import AdmissionError, JobQueue
from repro.workloads import closed_loop_pipeline

from .conftest import make_scenario


class GatedPool:
    """A TrialPool proxy whose map() blocks until a permit is fed.

    Lets tests freeze an execution mid-``simulating`` (to attach
    duplicates or cancel it) and count exactly how many trial batches
    actually executed.
    """

    def __init__(self):
        self.inner = TrialPool(build_context, execute_trial_batch, jobs=1)
        self.calls = 0
        self.permits = threading.Semaphore(0)
        self.started = threading.Event()

    def feed(self, permits: int) -> None:
        for _ in range(permits):
            self.permits.release()

    def map(self, tasks, contexts):
        self.started.set()
        assert self.permits.acquire(timeout=30), "no permit fed within 30s"
        self.calls += 1
        return self.inner.map(tasks, contexts)

    def close(self):
        self.inner.close()


@contextlib.contextmanager
def running_queue(store=None, pool=None, start=True, **kwargs):
    table = JobTable()
    own_store = store is None
    store = store if store is not None else open_store(None)
    pool = pool if pool is not None else TrialPool(
        build_context, execute_trial_batch, jobs=1
    )
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("trial_batch", 2)
    queue = JobQueue(table, store, pool, **kwargs)
    if start:
        queue.start()
    try:
        yield queue
    finally:
        queue.drain(timeout=60)
        pool.close()
        if own_store:
            store.close()


def wait_terminal(queue, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = queue.table.get(job_id)
        if job["state"] in TERMINAL:
            return job
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} not terminal within {timeout}s")


def infeasible_scenario() -> Scenario:
    """A chain that cannot meet its deadline: 5 hops through 1-slot
    rounds of length 50 need >= 250 time units against a deadline of
    100."""
    return Scenario(
        name="doomed",
        modes=[Mode("normal", [closed_loop_pipeline(
            "loop", period=100.0, deadline=100.0, num_hops=5, wcet=1.0)])],
        config=SchedulingConfig(round_length=50.0, slots_per_round=1,
                                max_round_gap=None, backend="greedy"),
    )


class TestAdmission:
    def test_trial_budget_rejected_with_429(self):
        with running_queue(max_trials=4, start=False) as queue:
            with pytest.raises(AdmissionError) as err:
                queue.submit(make_scenario(), trials=8)
            assert err.value.status == 429
            assert queue.rejected["trial_budget"] == 1
            assert len(queue.table) == 0

    def test_queue_full_rejected_with_429(self):
        with running_queue(max_queued=1, start=False) as queue:
            queue.submit(make_scenario("first"), trials=2)
            with pytest.raises(AdmissionError) as err:
                queue.submit(make_scenario("second"), trials=2)
            assert err.value.status == 429
            assert queue.rejected["queue_full"] == 1

    def test_draining_rejected_with_503(self):
        with running_queue() as queue:
            queue.drain(timeout=30)
            with pytest.raises(AdmissionError) as err:
                queue.submit(make_scenario(), trials=2)
            assert err.value.status == 503

    def test_duplicate_submission_is_never_rejected_by_queue_bound(self):
        """Attaching costs no queue slot, so duplicates always get in."""
        with running_queue(max_queued=1, start=False) as queue:
            first = queue.submit(make_scenario(), trials=2)
            second = queue.submit(make_scenario(), trials=2)
            assert second["key"] == first["key"]
            assert queue.dedup.stats()["attached"] == 1

    def test_bad_engine_rejected(self):
        with running_queue(start=False) as queue:
            with pytest.raises(ValueError):
                queue.submit(make_scenario(), trials=2, engine="warp")

    def test_trials_on_synth_only_scenario_rejected(self, synth_only_scenario):
        with running_queue(start=False) as queue:
            with pytest.raises(ScenarioError):
                queue.submit(synth_only_scenario, trials=8)


class TestExecution:
    def test_full_lifecycle(self, scenario):
        with running_queue() as queue:
            job = queue.submit(scenario, trials=4)
            done = wait_terminal(queue, job["id"])
            assert done["state"] == "done"
            assert done["trials_done"] == 4
            assert done["cached"] is False
            record = done["result"]
            assert record["stats"]["n_trials"] == 4
            assert record["error"] is None
            assert queue.campaigns_executed == 1
            assert queue.trials_executed == 4
            # The result landed in the store under the job's key.
            assert queue.store.get(job["key"]) is not None

    def test_event_sequence_in_state_machine_order(self, scenario):
        from repro.serve.jobs import STATE_ORDER

        with running_queue() as queue:
            job = queue.submit(scenario, trials=4)
            wait_terminal(queue, job["id"])
            states = [event["state"] for event in job["events"]]
            orders = [STATE_ORDER[state] for state in states]
            assert orders == sorted(orders)
            assert states[0] == "queued"
            assert states[-1] == "done"
            assert "synthesizing" in states and "simulating" in states

    def test_synthesis_only_job(self, synth_only_scenario):
        with running_queue() as queue:
            job = queue.submit(synth_only_scenario)
            done = wait_terminal(queue, job["id"])
            assert done["state"] == "done"
            assert done["result"]["stats"] is None
            assert done["result"]["rounds"] > 0
            assert queue.campaigns_executed == 0

    def test_infeasible_scenario_fails_and_is_memoized(self):
        with running_queue() as queue:
            job = queue.submit(infeasible_scenario())
            failed = wait_terminal(queue, job["id"])
            assert failed["state"] == "failed"
            assert failed["error"].startswith("infeasible:")
            record = queue.store.get(job["key"])
            assert record["error"] == failed["error"]
            assert record["campaigns"] == 0  # the exploration's fields
            assert "written_at" in record and "shard" in record
            # The failure is stored: resubmitting does not re-synthesize.
            again = queue.submit(infeasible_scenario())
            assert again["state"] == "failed"
            assert again["cached"] is True
            assert queue.dedup.stats()["store_hits"] == 1


class TestDedup:
    def test_store_hit_shortcuts_to_done(self, scenario):
        with running_queue() as queue:
            first = queue.submit(scenario, trials=4)
            wait_terminal(queue, first["id"])
            second = queue.submit(scenario, trials=4)
            assert second["state"] == "done"
            assert second["cached"] is True
            assert second["result"] == first["result"]
            assert queue.campaigns_executed == 1

    def test_concurrent_identical_submissions_share_one_execution(
        self, scenario
    ):
        pool = GatedPool()
        with running_queue(pool=pool) as queue:
            jobs = [queue.submit(scenario, trials=4, client=f"c{i}")
                    for i in range(5)]
            assert pool.started.wait(30)
            # All five share one key; only one execution is in flight.
            stats = queue.dedup.stats()
            assert stats["executions"] == 1
            assert stats["attached"] == 4
            pool.feed(100)
            finals = [wait_terminal(queue, job["id"]) for job in jobs]
            assert {job["state"] for job in finals} == {"done"}
            results = [job["result"] for job in finals]
            assert all(result == results[0] for result in results)
            # Exactly one synthesis and one campaign ran for all five.
            assert queue.engine_stats.modes_synthesized == 1
            assert queue.campaigns_executed == 1
            assert pool.calls == 2  # 4 trials / trial_batch 2

    def test_restart_resume_from_shared_store(self, scenario, tmp_path):
        store_path = tmp_path / "resume.sqlite"
        store = open_store(store_path)
        with running_queue(store=store) as queue:
            job = queue.submit(scenario, trials=4)
            first_result = wait_terminal(queue, job["id"])["result"]
            assert queue.campaigns_executed == 1
        store.close()

        # "Restart": a brand-new queue over a re-opened store.
        store = open_store(store_path)
        with running_queue(store=store) as queue:
            job = queue.submit(scenario, trials=4)
            assert job["state"] == "done"
            assert job["cached"] is True
            assert job["result"] == first_result
            assert queue.campaigns_executed == 0
            assert queue.engine_stats.modes_synthesized == 0
        store.close()


class TestCancellation:
    def test_cancelled_queued_job_never_executes(self, scenario):
        pool = GatedPool()
        with running_queue(pool=pool, start=False) as queue:
            job = queue.submit(scenario, trials=4)
            assert queue.cancel(job["id"]) is True
            assert job["state"] == "cancelled"
            assert queue.queued_count() == 0  # removed from the queue
            queue.start()
            queue.drain(timeout=30)
            assert pool.calls == 0
            assert queue.campaigns_executed == 0
            assert queue.store.get(job["key"]) is None

    def test_cancel_in_flight_stops_within_one_batch(self, scenario):
        pool = GatedPool()
        with running_queue(pool=pool, workers=1) as queue:
            job = queue.submit(scenario, trials=8)  # 4 batches of 2
            assert pool.started.wait(30)
            pool.feed(1)  # let exactly one batch through
            deadline = time.monotonic() + 30
            while job["trials_done"] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert job["trials_done"] == 2
            assert queue.cancel(job["id"]) is True
            pool.feed(100)  # unblock; the worker must stop regardless
            queue.drain(timeout=30)
            # At most the batch in progress at cancel time completed.
            assert pool.calls <= 2
            assert job["state"] == "cancelled"
            assert queue.campaigns_executed == 0
            assert queue.store.get(job["key"]) is None

    def test_cancel_terminal_job_is_a_noop(self, scenario):
        with running_queue() as queue:
            job = queue.submit(scenario, trials=2)
            wait_terminal(queue, job["id"])
            assert queue.cancel(job["id"]) is False
            assert job["state"] == "done"

    def test_cancel_unknown_job_raises(self):
        with running_queue(start=False) as queue:
            with pytest.raises(KeyError):
                queue.cancel("job-99999")

    def test_one_of_many_attached_cancels_without_stopping_the_rest(
        self, scenario
    ):
        pool = GatedPool()
        with running_queue(pool=pool, workers=1) as queue:
            a = queue.submit(scenario, trials=4, client="a")
            assert pool.started.wait(30)
            b = queue.submit(scenario, trials=4, client="b")
            assert queue.cancel(a["id"]) is True
            pool.feed(100)
            done = wait_terminal(queue, b["id"])
            assert done["state"] == "done"
            assert done["result"]["stats"]["n_trials"] == 4
            assert a["state"] == "cancelled"
            assert queue.campaigns_executed == 1


class TestStats:
    def test_stats_shape(self, scenario):
        with running_queue() as queue:
            job = queue.submit(scenario, trials=2)
            wait_terminal(queue, job["id"])
            stats = queue.stats()
            assert stats["admission"]["accepted"] == 1
            assert stats["admission"]["campaigns_executed"] == 1
            assert stats["jobs"]["done"] == 1
            assert stats["dedup"]["executions"] == 1
            assert stats["engine"]["modes_synthesized"] == 1

    def test_key_matches_dse_identity(self, scenario):
        with running_queue(start=False) as queue:
            job = queue.submit(scenario, seeds=[1, 2])
            assert job["key"] == job_key(scenario, [1, 2])


class TestStoreRecords:
    def test_daemon_writes_exploration_records(self, scenario, tmp_path):
        """The daemon builds its records with the exploration's code:
        the same fields plus the engine that ran, and a store hit
        answers with exactly the record the executing job returned."""
        from repro.dse import Axis, Space, explore

        explored = open_store(None)
        explore(Space(base=scenario, axes=[Axis("slots", "slots", [5])]),
                trials=2, store=explored)
        (key,) = explored.keys()
        exploration_record = explored.get(key)

        store = open_store(tmp_path / "serve.jsonl")
        with running_queue(store=store) as queue:
            first = wait_terminal(
                queue, queue.submit(scenario, trials=4)["id"]
            )
            second = queue.submit(scenario, trials=4)
        store.close()
        record = first["result"]
        assert set(record) == set(exploration_record) | {"engine_used"}
        assert record["campaigns"] == 1
        assert record["shard"] is None
        assert record["written_at"] > 0
        assert second["cached"] is True
        assert second["result"] == record


# -- concurrent synthesis ------------------------------------------------------


def synth_job(name: str, modes) -> Scenario:
    """A synthesis-only scenario over ``modes`` (HiGHS, small ILPs)."""
    return Scenario(
        name=name, modes=list(modes),
        config=SchedulingConfig(round_length=50.0, slots_per_round=2,
                                max_round_gap=None),
    )


def pipeline_mode(index: int, name: str = "normal") -> Mode:
    period = 1000.0 + 250.0 * index
    return Mode(name, [closed_loop_pipeline(
        "loop", period=period, deadline=period, num_hops=1 + index % 3,
        wcet=1.0)])


class GatedSynthesis:
    """Stands in for the engine's solver: solves of the gated mode block
    until the gate opens."""

    def __init__(self, gated: Mode):
        self.real = engine_api.synthesize_batch
        self.gated = gated
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, problems, jobs=1, warm_start=True):
        if any(mode is self.gated for mode, _ in problems):
            self.started.set()
            assert self.gate.wait(60), "gate never opened"
        return self.real(problems, jobs=jobs, warm_start=warm_start)


class TestConcurrentSynthesis:
    def test_cached_job_does_not_queue_behind_a_solve(self, tmp_path,
                                                      monkeypatch):
        """Head-of-line: while one job's solve is held, a job whose
        schedule is cached reaches ``done``."""
        cache = ScheduleCache(tmp_path / "cache")
        cached, slow = pipeline_mode(0), pipeline_mode(1)
        with running_queue(cache=cache) as queue:
            warm = queue.submit(synth_job("warm", [cached]))
            assert wait_terminal(queue, warm["id"])["state"] == "done"
            solve = GatedSynthesis(slow)
            monkeypatch.setattr(engine_api, "synthesize_batch", solve)
            held = queue.submit(synth_job("held", [slow]))
            try:
                assert solve.started.wait(30)
                hit = queue.submit(synth_job("hit", [cached]))
                done = wait_terminal(queue, hit["id"], timeout=10)
                assert done["state"] == "done"
                assert queue.table.get(held["id"])["state"] == "synthesizing"
            finally:
                solve.gate.set()
            assert wait_terminal(queue, held["id"])["state"] == "done"
            assert queue.engine_stats.modes_synthesized == 2

    def test_stress_shared_modes_solve_once(self, tmp_path):
        """Four workers on shared and distinct modes, with thread switches
        forced often: every job ends ``done``, each distinct mode is
        solved exactly once, the counters stay exact, and every schedule
        equals the sequential one."""

        class CountingCache(ScheduleCache):
            def __init__(self, path):
                super().__init__(path)
                self.lookups = 0
                self._lookups_lock = threading.Lock()

            def get(self, mode, config):
                with self._lookups_lock:
                    self.lookups += 1
                return super().get(mode, config)

        modes = [pipeline_mode(index, name=f"m{index}") for index in range(6)]
        # Six one-mode jobs and twelve two-mode jobs, submitted two-mode
        # first: most jobs need a mode another job is solving or solved.
        scenarios = [synth_job(f"one-{i}", [modes[i]]) for i in range(6)]
        scenarios += [
            synth_job(f"two-{i}", [modes[i % 6], modes[(i * 5 + 1) % 6]])
            for i in range(12)
        ]
        cache = CountingCache(tmp_path / "cache")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_queue(cache=cache, workers=4) as queue:
                jobs = [queue.submit(s) for s in reversed(scenarios)]
                finals = [wait_terminal(queue, job["id"], timeout=120)
                          for job in jobs]
                assert queue.drain(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert {job["state"] for job in finals} == {"done"}
        stats = queue.engine_stats
        assert stats.modes_synthesized == len(modes)
        assert cache.stats.stores == len(modes)
        assert stats.cache_hits + stats.cache_misses == cache.lookups
        assert (stats.cache_hits, stats.cache_misses) == (
            cache.stats.hits, cache.stats.misses)
        config = scenarios[0].effective_config
        expected = {
            mode.name: synthesize(mode, config, warm_start=True)
            for mode in modes
        }
        for mode in modes:
            assert schedule_to_dict(cache.get(mode, config)) == \
                schedule_to_dict(expected[mode.name])
        for scenario, job in zip(reversed(scenarios), finals):
            record = job["result"]
            assert record["rounds"] == sum(
                expected[m.name].num_rounds for m in scenario.modes)
            assert record["total_latency"] == pytest.approx(sum(
                expected[m.name].total_latency for m in scenario.modes))
