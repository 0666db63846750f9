"""Ablation: Algorithm 1 cold start vs. demand-bound warm start.

The paper's Algorithm 1 starts at R_M = 0 and increments; the demand
bound (ceil(instances / B), and one round per hop of every chain
instance) is a provably-safe starting point.  This
bench measures how many ILP iterations and how much wall-clock the
warm start saves on message-heavy modes, while asserting identical
results.
"""

import pytest

from repro.analysis import format_table
from repro.core import Mode, SchedulingConfig, demand_round_bound, synthesize
from repro.workloads import closed_loop_pipeline

SIZES = (2, 4, 6)


def build_mode(num_apps):
    return Mode(
        f"m{num_apps}",
        [
            closed_loop_pipeline(f"p{i}", period=40, deadline=40, num_hops=2)
            for i in range(num_apps)
        ],
    )


def compare():
    config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                              max_round_gap=None)
    rows = []
    for num_apps in SIZES:
        mode = build_mode(num_apps)
        cold = synthesize(mode, config)
        warm = synthesize(mode, config, warm_start=True)
        assert cold.num_rounds == warm.num_rounds
        rows.append(
            (f"{num_apps} apps ({2 * num_apps} msgs)",
             demand_round_bound(mode, config),
             cold.num_rounds,
             len(cold.solve_stats.iterations),
             len(warm.solve_stats.iterations),
             round(cold.solve_stats.total_time, 3),
             round(warm.solve_stats.total_time, 3))
        )
    return rows


def test_bench_ablation_warm_start(benchmark, capsys):
    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n=== Ablation: Algorithm 1 cold vs warm start (B=2) ===")
        print(format_table(
            ["workload", "demand bound", "final R", "iters cold",
             "iters warm", "t cold [s]", "t warm [s]"],
            rows,
        ))
    for row in rows:
        assert row[4] <= row[3]  # warm start never iterates more
