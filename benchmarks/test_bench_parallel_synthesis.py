"""Engine vs. paper baseline: batch synthesis wall-clock on a mode set.

The paper's Algorithm 1 probes round counts one at a time from
``R_M = 0`` and re-solves every mode of every sweep from scratch.  The
synthesis engine attacks the same workload three ways: demand-bound
warm starts skip the provably-infeasible prefix, speculative parallel
iteration overlaps the remaining ILPs across worker processes, and the
persistent cache makes repeat visits (the common case in parameter
sweeps and mode-graph studies) free.

This bench models one two-pass sweep over a multi-mode workload — the
second pass re-synthesizes the same modes, as a sweep revisiting a
configuration would — and compares the sequential baseline against the
engine.  The engine's results are asserted identical (round count and
total latency) to the sequential ones, and the two-pass engine time must
beat the two-pass baseline.
"""

import os

import pytest

from repro.analysis import format_table
from repro.core import SchedulingConfig, synthesize
from repro.engine import EngineStats, ScheduleCache, run_cached_batch
from repro.workloads import GeneratorConfig, WorkloadGenerator

NUM_MODES = 3
SWEEP_PASSES = 2


def _make_modes():
    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=4, num_nodes=6, period_choices=(20.0, 40.0)),
        seed=3,
    )
    return [generator.mode(f"m{i}", 2) for i in range(NUM_MODES)]


def test_bench_parallel_synthesis(benchmark, tmp_path, capsys, bench_record):
    config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                              max_round_gap=None)
    modes = _make_modes()
    jobs = min(4, os.cpu_count() or 1)

    import time

    def sequential_sweep():
        started = time.monotonic()
        results = {}
        for _ in range(SWEEP_PASSES):
            results = {m.name: synthesize(m, config) for m in modes}
        return results, time.monotonic() - started

    def engine_sweep():
        started = time.monotonic()
        cache = ScheduleCache(tmp_path / "cache")
        stats = EngineStats()
        results = {}
        for _ in range(SWEEP_PASSES):
            schedules = run_cached_batch(
                [(mode, config) for mode in modes],
                jobs=jobs, cache=cache, stats=stats,
            )
            results = {m.name: s for m, s in zip(modes, schedules)}
        return results, stats, time.monotonic() - started

    sequential, t_seq = sequential_sweep()
    (engine_results, stats, t_engine) = benchmark.pedantic(
        engine_sweep, rounds=1, iterations=1
    )

    rows = []
    for mode in modes:
        seq, eng = sequential[mode.name], engine_results[mode.name]
        assert eng.num_rounds == seq.num_rounds
        assert eng.total_latency == pytest.approx(seq.total_latency)
        rows.append((mode.name, seq.num_rounds,
                     round(seq.total_latency, 2)))

    bench_record(
        "parallel_synthesis",
        modes=NUM_MODES,
        sweep_passes=SWEEP_PASSES,
        jobs=jobs,
        effective_workers=jobs,
        sequential_seconds=t_seq,
        engine_seconds=t_engine,
        speedup=t_seq / t_engine if t_engine else None,
    )

    with capsys.disabled():
        print(f"\n=== Engine vs. sequential Algorithm 1 "
              f"({NUM_MODES} modes x {SWEEP_PASSES} sweep passes, "
              f"jobs={jobs}) ===")
        print(format_table(["mode", "rounds", "sum latency"], rows))
        print(f"sequential: {t_seq:.2f}s   engine: {t_engine:.2f}s   "
              f"speedup: {t_seq / t_engine:.2f}x")
        print(f"engine {stats}")

    # The second sweep pass is served from the cache: no solver runs.
    assert stats.cache_hits == NUM_MODES
    assert stats.cache_misses == NUM_MODES
    # Wall-clock: caching + warm starts must beat re-solving everything.
    assert t_engine < t_seq
