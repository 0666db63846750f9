"""TrialPool as a long-lived executor, and the SIGINT policy of every pool.

The campaign tests (tests/mc) exercise :class:`~repro.engine.trials
.TrialPool` end to end; this module covers what a pool kept across
many maps adds — lazy executor reuse, per-chunk context shipping,
bounded context caching, thread safety — plus the interrupt handling
shared by the trial pool and the synthesis pool.
"""

import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.engine import trials
from repro.engine.trials import (
    TrialPool,
    _cached_context,
    _ignore_sigint,
    context_key,
    default_chunk_size,
)
from repro.obs.metrics import MetricsRegistry


# Module-level (picklable by reference) context builder and task runner.
BUILD_CALLS = []


def build_ctx(data: dict) -> dict:
    BUILD_CALLS.append(data["key"])
    return {"base": data["base"]}


def run_task(ctx: dict, task: dict) -> dict:
    return {"value": ctx["base"] + task["x"]}


def run_on(pool, key, data, tasks):
    """Map ``tasks`` against the single context ``key``."""
    return pool.map([(key, task) for task in tasks], {key: data})


@pytest.fixture(autouse=True)
def _reset_build_calls():
    BUILD_CALLS.clear()
    yield


class TestTrialPoolInProcess:
    def test_runs_tasks_in_order(self):
        with TrialPool(build_ctx, run_task, jobs=1) as pool:
            results = run_on(
                pool, "k1", {"key": "k1", "base": 10},
                [{"x": i} for i in range(5)],
            )
        assert [r["value"] for r in results] == [10, 11, 12, 13, 14]

    def test_context_built_once_per_key(self):
        with TrialPool(build_ctx, run_task, jobs=1) as pool:
            run_on(pool, "k1", {"key": "k1", "base": 0}, [{"x": 1}])
            run_on(pool, "k1", {"key": "k1", "base": 0}, [{"x": 2}])
            run_on(pool, "k2", {"key": "k2", "base": 0}, [{"x": 3}])
        assert BUILD_CALLS == ["k1", "k2"]

    def test_context_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(trials, "CONTEXT_CACHE_SIZE", 2)
        with TrialPool(build_ctx, run_task, jobs=1) as pool:
            for key in ("a", "b", "c"):  # 'a' falls out
                run_on(pool, key, {"key": key, "base": 0}, [{"x": 0}])
            run_on(pool, "b", {"key": "b", "base": 0}, [{"x": 0}])  # hot
            run_on(pool, "a", {"key": "a", "base": 0}, [{"x": 0}])  # rebuilt
        assert BUILD_CALLS == ["a", "b", "c", "a"]

    def test_empty_tasks(self):
        with TrialPool(build_ctx, run_task, jobs=1) as pool:
            assert run_on(pool, "k", {"key": "k", "base": 0}, []) == []

    def test_closed_pool_refuses_work(self):
        for jobs in (1, 2):
            pool = TrialPool(build_ctx, run_task, jobs=jobs)
            pool.close()
            with pytest.raises(RuntimeError, match="closed"):
                run_on(pool, "k", {"key": "k", "base": 0}, [{"x": 1}])

    def test_close_is_idempotent(self):
        pool = TrialPool(build_ctx, run_task, jobs=1)
        pool.close()
        pool.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPool(build_ctx, run_task, jobs=0)
        with pytest.raises(ValueError):
            TrialPool(build_ctx, run_task, jobs=2, chunk_size=0)

    def test_thread_safe_concurrent_runs(self):
        errors = []
        with TrialPool(build_ctx, run_task, jobs=1) as pool:
            def worker(base):
                try:
                    results = run_on(
                        pool, f"k{base}", {"key": f"k{base}", "base": base},
                        [{"x": i} for i in range(20)],
                    )
                    assert [r["value"] for r in results] == [
                        base + i for i in range(20)
                    ]
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [
                threading.Thread(target=worker, args=(b,)) for b in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, errors


class TestTrialPoolMultiprocess:
    def test_pooled_results_match_in_process(self):
        tasks = [{"x": i} for i in range(17)]
        with TrialPool(build_ctx, run_task, jobs=1) as solo:
            expected = run_on(solo, "k", {"key": "k", "base": 5}, tasks)
        with TrialPool(build_ctx, run_task, jobs=2) as pool:
            pooled = run_on(pool, "k", {"key": "k", "base": 5}, tasks)
        assert pooled == expected

    def test_executor_survives_across_runs(self):
        with TrialPool(build_ctx, run_task, jobs=2) as pool:
            run_on(pool, "k", {"key": "k", "base": 0}, [{"x": 1}])
            executor = pool._executor
            assert executor is not None
            run_on(pool, "k", {"key": "k", "base": 0}, [{"x": 2}])
            assert pool._executor is executor  # same processes, reused
        assert pool._executor is None

    def test_no_executor_until_first_pooled_map(self):
        with TrialPool(build_ctx, run_task, jobs=2) as pool:
            assert run_on(pool, "k", {"key": "k", "base": 0}, []) == []
            assert pool._executor is None

    def test_concurrent_maps_share_one_executor(self):
        errors = []
        with TrialPool(build_ctx, run_task, jobs=2) as pool:
            def worker(base):
                try:
                    results = run_on(
                        pool, f"k{base}", {"key": f"k{base}", "base": base},
                        [{"x": i} for i in range(6)],
                    )
                    assert [r["value"] for r in results] == [
                        base + i for i in range(6)
                    ]
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [
                threading.Thread(target=worker, args=(b,)) for b in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, errors

    def test_chunks_span_several_contexts(self):
        tasks = [("a", {"x": 1}), ("a", {"x": 2}), ("b", {"x": 3})]
        contexts = {
            "a": {"key": "a", "base": 10},
            "b": {"key": "b", "base": 20},
        }
        with TrialPool(build_ctx, run_task, jobs=2, chunk_size=2) as pool:
            results = pool.map(tasks, contexts)
        assert [r["value"] for r in results] == [11, 12, 23]


class TestResidentContextLRU:
    def test_eviction_order(self, monkeypatch):
        monkeypatch.setattr(trials, "CONTEXT_CACHE_SIZE", 2)
        cache: OrderedDict = OrderedDict()
        metrics = MetricsRegistry()
        for key in ("a", "b", "c"):
            _cached_context(
                cache, lambda data: data["key"], key, {"key": key}, metrics
            )
        assert list(cache) == ["b", "c"]
        assert metrics.counters["pool.context_evictions"] == 1

    def test_hit_moves_to_end(self, monkeypatch):
        monkeypatch.setattr(trials, "CONTEXT_CACHE_SIZE", 2)
        cache: OrderedDict = OrderedDict()
        metrics = MetricsRegistry()
        for key in ("a", "b", "a", "c"):
            _cached_context(
                cache, lambda data: data["key"], key, {"key": key}, metrics
            )
        assert list(cache) == ["a", "c"]
        assert metrics.counters["pool.context_hits"] == 1
        assert metrics.counters["pool.context_builds"] == 3


class TestContextKey:
    def test_content_addressed(self):
        data = {"modes": [1, 2], "sim": {"duration": 10.0, "seed": 1}}
        reordered = {"sim": {"seed": 1, "duration": 10.0}, "modes": [1, 2]}
        assert context_key(data) == context_key(reordered)
        assert context_key(data) != context_key(dict(data, modes=[2, 1]))


class TestSigintPolicy:
    def test_ignore_sigint_sets_sig_ign(self):
        previous = signal.getsignal(signal.SIGINT)
        try:
            _ignore_sigint()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_ignore_sigint_tolerates_non_main_thread(self):
        failures = []

        def in_thread():
            try:
                _ignore_sigint()  # signal.signal raises ValueError here
            except Exception as exc:
                failures.append(repr(exc))

        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join(timeout=10)
        assert not failures, failures

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="reads thread signal masks from /proc")
    def test_pool_threads_block_stop_signals(self):
        """A pool helper thread that took a process-directed Ctrl-C or
        SIGTERM would leave the main thread blocked on a future, never
        seeing it."""
        def threads():
            return set(os.listdir("/proc/self/task"))

        before = threads()
        with TrialPool(build_ctx, run_task, jobs=2) as pool:
            run_on(pool, "k", {"key": "k", "base": 0}, [{"x": 1}])
            started = threads() - before
            assert started
            for tid in started:
                status = Path(f"/proc/self/task/{tid}/status").read_text()
                blocked = int(re.search(r"SigBlk:\s*(\w+)", status)[1], 16)
                for stop in (signal.SIGINT, signal.SIGTERM):
                    assert blocked >> (stop - 1) & 1, (tid, stop)
        assert not {signal.SIGINT, signal.SIGTERM} & signal.pthread_sigmask(
            signal.SIG_BLOCK, [])


# One script, four ways to be busy in process pools when Ctrl-C hits
# the terminal's whole process group.
_INTERRUPT_SCRIPT = textwrap.dedent('''
    import os
    import signal
    import sys
    import time


    def build(data):
        return data


    def mark_busy():
        # One marker per worker process, in the directory sys.argv[3]
        # names: the test signals once every worker is inside a task.
        open(os.path.join(sys.argv[3], str(os.getpid())), "w").close()


    def slow_task(context, task):
        mark_busy()
        time.sleep(60)
        return {}


    def slow_solve(mode_data, config_data, num_rounds):
        # HiGHS runs in C and only sees Ctrl-C once a solve returns;
        # block SIGINT so this stand-in solve does the same.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        mark_busy()
        time.sleep(60)


    def main(case):
        from repro.core import Mode, SchedulingConfig
        from repro.engine.trials import TrialPool
        from repro.workloads import closed_loop_pipeline

        tasks = [("k", {}) for _ in range(4)]
        if case == "map":
            pool = TrialPool(build, slow_task, jobs=2)
            print("ready", flush=True)
            pool.map(tasks, {"k": {}})
        elif case == "with-map":
            with TrialPool(build, slow_task, jobs=2) as pool:
                print("ready", flush=True)
                pool.map(tasks, {"k": {}})
        elif case == "synthesize-batch":
            import repro.engine.parallel as parallel

            parallel._solve_round_task = slow_solve  # forked workers inherit
            config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                                      max_round_gap=None)
            problems = [
                (Mode(f"m{i}", [closed_loop_pipeline(
                    f"p{i}", period=40, deadline=40, num_hops=2)]), config)
                for i in range(2)
            ]
            print("ready", flush=True)
            parallel.synthesize_batch(problems, jobs=2)
        else:
            import importlib

            from repro.api import Scenario, SimulationSpec
            from repro.dse import Axis, Space, explore

            # The shards' batch evaluator builds its trial pool on this
            # task; forked shards inherit the stand-in.
            dse_explore = importlib.import_module("repro.dse.explore")
            dse_explore.execute_trial_task = slow_task
            base = Scenario(
                name="slow",
                modes=[Mode("m", [closed_loop_pipeline(
                    "a", period=2000.0, deadline=2000.0, num_hops=2)])],
                config=SchedulingConfig(round_length=50.0, slots_per_round=5,
                                        max_round_gap=None, backend="greedy"),
                simulation=SimulationSpec(duration=4000.0, trials=4),
            )
            space = Space(base=base, axes=[Axis("B", "slots", [1, 5])])
            print("ready", flush=True)
            explore(space, shards=2, jobs=2, objectives=["latency"],
                    store=sys.argv[2])


    if __name__ == "__main__":
        try:
            main(sys.argv[1])
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            sys.exit(130)
''')


# Workers every case keeps inside a stand-in task: the two pool
# workers, or, for the sharded exploration, the two trial-pool workers
# of the one shard that claims the two-candidate block.
_BUSY_WORKERS = 2


class TestInterruptedPools:
    """Ctrl-C stops every pool within seconds and leaves no worker."""

    @pytest.mark.parametrize(
        "case", ["map", "with-map", "synthesize-batch", "sharded-explore"]
    )
    def test_process_group_sigint_stops_pool(self, tmp_path, case):
        script = tmp_path / "interrupt.py"
        script.write_text(_INTERRUPT_SCRIPT)
        markers = tmp_path / "busy"
        markers.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, str(script), case, str(tmp_path / "st.jsonl"),
             str(markers)],
            env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        pgid = proc.pid
        try:
            assert proc.stdout.readline().strip() == "ready"
            # Signal only once every worker is inside its task, and so
            # past the initializer that makes it ignore SIGINT.
            deadline = time.monotonic() + 60
            while (len(list(markers.iterdir())) < _BUSY_WORKERS
                   and time.monotonic() < deadline
                   and proc.poll() is None):
                time.sleep(0.05)
            assert proc.poll() is None, "the script finished too early"
            assert len(list(markers.iterdir())) == _BUSY_WORKERS
            os.killpg(pgid, signal.SIGINT)
            signalled = time.monotonic()
            _, err = proc.communicate(timeout=10)
            assert time.monotonic() - signalled < 10
        finally:
            if proc.poll() is None:
                os.killpg(pgid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        with pytest.raises(ProcessLookupError):  # no worker left behind
            os.killpg(pgid, 0)


class TestChunkSizing:
    def test_map_honors_chunk_size(self):
        with TrialPool(build_ctx, run_task, jobs=2, chunk_size=3) as pool:
            results = run_on(
                pool, "k", {"key": "k", "base": 0},
                [{"x": i} for i in range(10)],
            )
        assert [r["value"] for r in results] == list(range(10))

    def test_default_chunk_size_still_covers_all_tasks(self):
        size = default_chunk_size(10, 2)
        assert 1 <= size <= 10
