"""Persistent schedule cache: hits, misses, invalidation, single flight."""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.engine.api as engine_api
from repro.core import (
    InfeasibleError,
    Mode,
    SchedulingConfig,
    synthesize,
    verify_schedule,
)
from repro.core.schedule import SynthesisStats
from repro.engine import EngineStats, ScheduleCache, run_cached_batch
from repro.io import (
    mode_from_dict,
    mode_to_dict,
    schedule_to_dict,
    synthesis_fingerprint,
)
from repro.obs import RunLog, read_log, set_run_log
from repro.workloads import closed_loop_pipeline


@pytest.fixture
def mode():
    return Mode("cached", [
        closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
    ])


@pytest.fixture
def config():
    return SchedulingConfig(round_length=1.0, slots_per_round=5, max_round_gap=None)


@pytest.fixture
def cache(tmp_path):
    return ScheduleCache(tmp_path / "cache")


class TestFingerprint:
    def test_stable_across_round_trip(self, mode, config):
        rebuilt = mode_from_dict(mode_to_dict(mode))
        assert synthesis_fingerprint(mode, config) == synthesis_fingerprint(
            rebuilt, config
        )

    def test_ignores_mode_id(self, mode, config):
        relabeled = Mode("cached", mode.applications, mode_id=7)
        assert synthesis_fingerprint(mode, config) == synthesis_fingerprint(
            relabeled, config
        )

    def test_ignores_construction_order(self, config):
        from repro.core import Application

        def build(reversed_tasks):
            app = Application("o", period=20, deadline=20)
            names = ["o_b", "o_a"] if reversed_tasks else ["o_a", "o_b"]
            for name in names:
                app.add_task(name, node=f"n{name[-1]}", wcet=1)
            app.add_message("o_m")
            app.connect("o_a", "o_m")
            app.connect("o_m", "o_b")
            return Mode("ordered", [app])

        assert synthesis_fingerprint(build(False), config) == \
            synthesis_fingerprint(build(True), config)

    def test_config_changes_fingerprint(self, mode, config):
        other = SchedulingConfig(round_length=2.0, slots_per_round=5,
                                 max_round_gap=None)
        assert synthesis_fingerprint(mode, config) != synthesis_fingerprint(
            mode, other
        )

    def test_workload_changes_fingerprint(self, mode, config):
        other = Mode("cached", [
            closed_loop_pipeline("a", period=40, deadline=40, num_hops=1),
        ])
        assert synthesis_fingerprint(mode, config) != synthesis_fingerprint(
            other, config
        )


class TestCacheBehavior:
    def test_miss_then_hit(self, cache, mode, config):
        assert cache.get(mode, config) is None
        schedule = synthesize(mode, config)
        cache.put(mode, config, schedule)
        cached = cache.get(mode, config)
        assert cached is not None
        assert cached.num_rounds == schedule.num_rounds
        assert cached.task_offsets == schedule.task_offsets
        assert cached.total_latency == pytest.approx(schedule.total_latency)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert len(cache) == 1

    def test_cached_schedule_verifies(self, cache, mode, config):
        cache.put(mode, config, synthesize(mode, config))
        assert verify_schedule(mode, cache.get(mode, config)).ok

    def test_config_change_invalidates(self, cache, mode, config):
        cache.put(mode, config, synthesize(mode, config))
        other = SchedulingConfig(round_length=1.0, slots_per_round=3,
                                 max_round_gap=None)
        assert cache.get(mode, other) is None

    def test_workload_change_invalidates(self, cache, mode, config):
        cache.put(mode, config, synthesize(mode, config))
        changed = Mode("cached", [
            closed_loop_pipeline("a", period=20, deadline=10, num_hops=1),
        ])
        assert cache.get(changed, config) is None

    def test_corrupt_entry_is_miss_and_removed(self, cache, mode, config):
        cache.put(mode, config, synthesize(mode, config))
        path = cache._path(cache.key(mode, config))
        path.write_text("{not json")
        assert cache.get(mode, config) is None
        assert not path.exists()

    def test_concurrent_puts_of_one_entry(self, cache, mode, config,
                                          monkeypatch):
        """A second writer stores the entry between the first one's write
        and rename; neither renames the other's temporary file away."""
        schedule = synthesize(mode, config)
        real_replace = Path.replace
        nested = []

        def replace(path, target):
            if not nested:
                nested.append(threading.Thread(
                    target=cache.put, args=(mode, config, schedule)))
                nested[0].start()
                nested[0].join(30)
            return real_replace(path, target)

        monkeypatch.setattr(Path, "replace", replace)
        cache.put(mode, config, schedule)
        assert not nested[0].is_alive()
        assert cache.stats.stores == 2
        assert [path.name for path in cache.cache_dir.iterdir()] == [
            f"{cache.key(mode, config)}.json"
        ]
        assert cache.get(mode, config) is not None

    def test_wrong_schema_is_miss(self, cache, mode, config):
        cache.put(mode, config, synthesize(mode, config))
        path = cache._path(cache.key(mode, config))
        payload = json.loads(path.read_text())
        payload["schema"] = 99
        path.write_text(json.dumps(payload))
        assert cache.get(mode, config) is None

    def test_clear(self, cache, mode, config):
        cache.put(mode, config, synthesize(mode, config))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(mode, config) is None


class TestEngineCaching:
    def test_second_engine_skips_solver(self, tmp_path, mode, config):
        first = EngineStats()
        schedule, = run_cached_batch(
            [(mode, config)], cache=ScheduleCache(tmp_path / "c"), stats=first
        )
        assert first.cache_misses == 1
        assert first.solver_runs > 0

        # A fresh cache object over the same directory, as a later run
        # would open it.
        second = EngineStats()
        again, = run_cached_batch(
            [(mode, config)], cache=ScheduleCache(tmp_path / "c"), stats=second
        )
        assert second.cache_hits == 1
        assert second.solver_runs == 0
        assert second.modes_synthesized == 0
        assert again.num_rounds == schedule.num_rounds
        assert again.total_latency == pytest.approx(schedule.total_latency)

    def test_run_cached_batch_dedupes_and_mixes_configs(self, tmp_path, mode):
        cache = ScheduleCache(tmp_path / "c")
        config_a = SchedulingConfig(round_length=1.0, slots_per_round=5,
                                    max_round_gap=None)
        config_b = SchedulingConfig(round_length=2.0, slots_per_round=5,
                                    max_round_gap=None)
        stats = EngineStats()
        # The (mode, config_a) problem appears twice: one solve, shared.
        results = run_cached_batch(
            [(mode, config_a), (mode, config_b), (mode, config_a)],
            cache=cache, stats=stats,
        )
        assert stats.modes_synthesized == 2
        assert results[0] is results[2]
        assert results[0].config.round_length == 1.0
        assert results[1].config.round_length == 2.0
        assert verify_schedule(mode, results[1]).ok
        assert len(cache) == 2

    def test_shared_cache_across_engines(self, tmp_path, mode):
        cache = ScheduleCache(tmp_path / "c")
        config_a = SchedulingConfig(round_length=1.0, slots_per_round=5,
                                    max_round_gap=None)
        config_b = SchedulingConfig(round_length=2.0, slots_per_round=5,
                                    max_round_gap=None)
        run_cached_batch([(mode, config_a)], cache=cache)
        run_cached_batch([(mode, config_b)], cache=cache)
        assert len(cache) == 2  # different configs, different entries
        hits = EngineStats()
        run_cached_batch([(mode, config_a)], cache=cache, stats=hits)
        assert hits.cache_hits == 1


class TestSizePolicy:
    """Satellite of the serve PR: LRU bounds for a resident daemon."""

    def modes(self, count):
        return [
            Mode(f"lru-{i}", [closed_loop_pipeline(
                f"app{i}", period=20 + 10 * i, deadline=20 + 10 * i,
                num_hops=1,
            )])
            for i in range(count)
        ]

    def fill(self, cache, config, count):
        from repro.core import synthesize

        schedules = []
        for mode in self.modes(count):
            schedule = synthesize(mode, config)
            cache.put(mode, config, schedule)
            schedules.append(schedule)
        return schedules

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ScheduleCache(tmp_path / "c", max_entries=0)
        with pytest.raises(ValueError):
            ScheduleCache(tmp_path / "c", max_bytes=0)

    def test_unbounded_by_default(self, tmp_path, config):
        cache = ScheduleCache(tmp_path / "c")
        self.fill(cache, config, 5)
        assert cache.usage()["entries"] == 5
        assert cache.stats.evictions == 0

    def test_max_entries_evicts_oldest(self, tmp_path, config):
        import os
        import time

        cache = ScheduleCache(tmp_path / "c", max_entries=2)
        modes = self.modes(3)
        from repro.core import synthesize

        for i, mode in enumerate(modes):
            cache.put(mode, config, synthesize(mode, config))
            # mtime resolution can be coarse; force distinct stamps.
            path = cache.cache_dir / f"{cache.key(mode, config)}.json"
            stamp = time.time() - (len(modes) - i)
            os.utime(path, (stamp, stamp))
            cache._evict(keep=path.name)
        usage = cache.usage()
        assert usage["entries"] == 2
        assert cache.stats.evictions >= 1
        # The oldest entry (mode 0) is the one gone.
        assert cache.get(modes[0], config) is None
        assert cache.get(modes[2], config) is not None

    def test_hit_refreshes_recency(self, tmp_path, config):
        import os

        cache = ScheduleCache(tmp_path / "c", max_entries=2)
        modes = self.modes(3)
        from repro.core import synthesize

        schedules = [synthesize(mode, config) for mode in modes]
        cache.put(modes[0], config, schedules[0])
        cache.put(modes[1], config, schedules[1])
        # Backdate both, then HIT mode 0 — it becomes most recent.
        for mode, age in ((modes[0], 100), (modes[1], 50)):
            path = cache.cache_dir / f"{cache.key(mode, config)}.json"
            stat = path.stat()
            os.utime(path, (stat.st_atime - age, stat.st_mtime - age))
        assert cache.get(modes[0], config) is not None
        cache.put(modes[2], config, schedules[2])
        # mode 1 (now the stalest) was evicted, mode 0 survived.
        assert cache.get(modes[1], config) is None
        assert cache.get(modes[0], config) is not None

    def test_max_bytes_bound(self, tmp_path, config):
        cache = ScheduleCache(tmp_path / "c", max_bytes=1)
        self.fill(cache, config, 2)
        usage = cache.usage()
        # Even a 1-byte bound never evicts the entry just written.
        assert usage["entries"] == 1
        assert cache.stats.evictions == 1

    def test_evicted_entry_recomputes_bit_identical(self, tmp_path, config):
        from repro.core import synthesize

        cache = ScheduleCache(tmp_path / "c", max_entries=1)
        modes = self.modes(2)
        first = synthesize(modes[0], config)
        cache.put(modes[0], config, first)
        cache.put(modes[1], config, synthesize(modes[1], config))
        assert cache.get(modes[0], config) is None  # evicted
        recomputed = synthesize(modes[0], config)
        cache.put(modes[0], config, recomputed)
        restored = cache.get(modes[0], config)
        assert restored is not None
        from repro.io import schedule_to_dict

        assert schedule_to_dict(restored) == schedule_to_dict(first)

    def test_usage_accessor(self, tmp_path, config):
        cache = ScheduleCache(tmp_path / "c", max_entries=4, max_bytes=10**6)
        self.fill(cache, config, 2)
        cache.get(self.modes(1)[0], config)
        usage = cache.usage()
        assert usage["entries"] == 2
        assert usage["bytes"] > 0
        assert usage["max_entries"] == 4
        assert usage["max_bytes"] == 10**6
        assert usage["stores"] == 2
        assert usage["hits"] == 1
        assert usage["evictions"] == 0


# -- single flight -------------------------------------------------------------


def _blocked_waiting(thread):
    """True once ``thread`` is inside ``threading.Event.wait``."""
    frame = sys._current_frames().get(thread.ident)
    while frame is not None:
        if frame.f_code is threading.Event.wait.__code__:
            return True
        frame = frame.f_back
    return False


def _until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.002)


class GatedSolve:
    """Stands in for the engine's solver: a solve of a gated mode blocks
    until the gate opens, and the first one may then fail."""

    def __init__(self, gated, fail_first=False):
        self.real = engine_api.synthesize_batch
        self.gated = set(gated)
        self.gate = threading.Event()
        self.started = threading.Event()
        self.fail_first = fail_first
        self.solved = []
        self.lock = threading.Lock()

    def __call__(self, problems, jobs=1, warm_start=True):
        names = [mode.name for mode, _ in problems]
        if self.gated & set(names):
            self.started.set()
            assert self.gate.wait(30), "gate never opened"
            with self.lock:
                fail, self.fail_first = self.fail_first, False
            if fail:
                mode, _ = problems[0]
                raise InfeasibleError(
                    mode, SynthesisStats(mode_name=mode.name), 0, 0
                )
        with self.lock:
            self.solved.extend(names)
        return self.real(problems, jobs=jobs, warm_start=warm_start)


class Caller(threading.Thread):
    """One ``run_cached_batch`` call in its own thread."""

    def __init__(self, problems, **kwargs):
        super().__init__(daemon=True)
        self.problems, self.kwargs = problems, kwargs
        self.result = self.error = None

    def run(self):
        try:
            self.result = run_cached_batch(self.problems, **self.kwargs)
        except Exception as exc:  # re-raised as an assertion in the test
            self.error = exc

    def finish(self, timeout=30.0):
        self.join(timeout)
        assert not self.is_alive(), "caller still running"
        return self


@pytest.fixture
def run_log(tmp_path):
    log = RunLog(tmp_path / "log")
    previous = set_run_log(log)
    yield log
    set_run_log(previous)
    log.close()


def other_mode(name, period):
    return Mode(name, [
        closed_loop_pipeline("b", period=period, deadline=period, num_hops=2),
    ])


class TestSingleFlight:
    def test_claim_is_exclusive_until_released(self, cache):
        assert cache.claim("k") is True
        assert cache.claim("k") is False
        cache.release("k")
        assert cache.claim("k") is True
        cache.release("k")

    def test_claim_refused_once_stored(self, cache, mode, config):
        """A miss that raced another thread's put does not solve again."""
        key = cache.key(mode, config)
        assert cache.get(mode, config) is None
        cache.put(mode, config, synthesize(mode, config))
        assert cache.claim(key) is False
        cache.wait(key)  # nothing in flight: returns at once

    def test_waiter_reads_the_solvers_schedule(self, cache, mode, config,
                                               monkeypatch, run_log):
        solve = GatedSolve({mode.name})
        monkeypatch.setattr(engine_api, "synthesize_batch", solve)
        stats = EngineStats()
        first = Caller([(mode, config)], cache=cache, stats=stats)
        first.start()
        assert solve.started.wait(30)
        second = Caller([(mode, config)], cache=cache, stats=stats)
        second.start()
        _until(lambda: _blocked_waiting(second))
        solve.gate.set()
        first.finish(), second.finish()
        assert first.error is None and second.error is None
        assert solve.solved == [mode.name]
        assert stats.modes_synthesized == 1
        # first: one miss; second: one miss, then a hit after the wait.
        assert (stats.cache_misses, stats.cache_hits) == (2, 1)
        assert (cache.stats.misses, cache.stats.hits) == (2, 1)
        expected = schedule_to_dict(synthesize(mode, config, warm_start=True))
        assert schedule_to_dict(first.result[0]) == expected
        assert schedule_to_dict(second.result[0]) == expected
        waits = [e for e in read_log(run_log.path) if e.kind == "cache.wait"]
        assert len(waits) == 1
        assert waits[0].data["key"] == cache.key(mode, config)
        assert waits[0].data["seconds"] >= 0

    def test_failed_solve_releases_the_claim(self, cache, mode, config,
                                             monkeypatch, run_log):
        """The waiter re-checks after the solver fails, and solves on its
        own."""
        solve = GatedSolve({mode.name}, fail_first=True)
        monkeypatch.setattr(engine_api, "synthesize_batch", solve)
        stats = EngineStats()
        first = Caller([(mode, config)], cache=cache, stats=stats)
        first.start()
        assert solve.started.wait(30)
        second = Caller([(mode, config)], cache=cache, stats=stats)
        second.start()
        _until(lambda: _blocked_waiting(second))
        solve.gate.set()
        first.finish(), second.finish()
        assert isinstance(first.error, InfeasibleError)
        assert second.error is None
        assert solve.solved == [mode.name]
        assert stats.modes_synthesized == 1
        assert (stats.cache_misses, stats.cache_hits) == (3, 0)
        assert (cache.stats.misses, cache.stats.hits) == (3, 0)
        assert cache.get(mode, config) is not None
        assert cache.claim(cache.key(mode, config)) is False  # stored
        kinds = [e.kind for e in read_log(run_log.path)]
        assert kinds.count("cache.wait") == 1

    def test_hits_and_other_modes_do_not_wait(self, cache, mode, config,
                                              monkeypatch):
        """While one mode solves, a cached mode and a distinct cold mode
        are both answered."""
        cached, cold = other_mode("hit", 40), other_mode("cold", 80)
        run_cached_batch([(cached, config)], cache=cache)
        solve = GatedSolve({mode.name})
        monkeypatch.setattr(engine_api, "synthesize_batch", solve)
        blocked = Caller([(mode, config)], cache=cache)
        blocked.start()
        try:
            assert solve.started.wait(30)
            hit = Caller([(cached, config)], cache=cache)
            other = Caller([(cold, config)], cache=cache)
            hit.start(), other.start()
            hit.finish(10), other.finish(10)
            assert hit.error is None and other.error is None
            assert hit.result[0].num_rounds > 0
            assert other.result[0].num_rounds > 0
            assert blocked.is_alive()
        finally:
            solve.gate.set()
        blocked.finish()
        assert blocked.error is None
