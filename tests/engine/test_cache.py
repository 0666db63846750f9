"""Persistent schedule cache: hits, misses, and invalidation."""

import json

import pytest

from repro.core import Mode, SchedulingConfig, synthesize, verify_schedule
from repro.engine import EngineStats, ScheduleCache, run_cached_batch
from repro.io import mode_from_dict, mode_to_dict, synthesis_fingerprint
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
