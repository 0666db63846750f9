"""Speculative parallel synthesis must reproduce the sequential results.

The engine only changes *how fast* Algorithm 1 runs, never its output:
round counts and objective values from :func:`run_cached_batch` and its
pool driver :func:`synthesize_batch` must match the sequential loop on
the same inputs, including on randomly generated workloads.
"""

import pytest

from repro.core import (
    InfeasibleError,
    Mode,
    SchedulingConfig,
    synthesize,
    verify_schedule,
)
from repro.engine import run_cached_batch, synthesize_batch
from repro.workloads import GeneratorConfig, WorkloadGenerator, closed_loop_pipeline


@pytest.fixture(scope="module")
def generated_modes():
    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=3, num_nodes=4, period_choices=(20.0, 40.0)),
        seed=11,
    )
    return [generator.mode(f"gen{i}", 2) for i in range(2)]


@pytest.fixture(scope="module")
def fast_config():
    return SchedulingConfig(round_length=1.0, slots_per_round=5, max_round_gap=None)


class TestParallelEqualsSequential:
    def test_generated_workloads(self, generated_modes, fast_config):
        sequential = {
            mode.name: synthesize(mode, fast_config) for mode in generated_modes
        }
        parallel = run_cached_batch(
            [(mode, fast_config) for mode in generated_modes], jobs=2
        )
        for mode, par in zip(generated_modes, parallel):
            seq = sequential[mode.name]
            assert par.num_rounds == seq.num_rounds
            assert par.total_latency == pytest.approx(seq.total_latency)
            assert verify_schedule(mode, par).ok

    def test_single_mode(self, fast_config):
        mode = Mode("single", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=2),
        ])
        seq = synthesize(mode, fast_config)
        par, = synthesize_batch([(mode, fast_config)], jobs=2)
        assert par.num_rounds == seq.num_rounds
        assert par.total_latency == pytest.approx(seq.total_latency)
        assert par.rounds_for_message(seq.rounds[0].messages[0])
        assert verify_schedule(mode, par).ok

    def test_stats_prove_minimality(self, fast_config):
        """Every round count below the result must be recorded infeasible."""
        mode = Mode("stats", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=2),
        ])
        par, = synthesize_batch(
            [(mode, fast_config)], jobs=2, warm_start=False
        )
        below = [
            it
            for it in par.solve_stats.iterations
            if it.num_rounds < par.num_rounds
        ]
        assert below, "speculation must still record the infeasible prefix"
        assert all(not it.feasible for it in below)


class TestFallbacksAndErrors:
    def test_jobs_one_is_sequential(self, generated_modes, fast_config):
        results = run_cached_batch(
            [(mode, fast_config) for mode in generated_modes], jobs=1
        )
        for mode, result in zip(generated_modes, results):
            expected = synthesize(mode, fast_config, warm_start=True)
            assert result.num_rounds == expected.num_rounds
            assert result.total_latency == pytest.approx(
                expected.total_latency
            )

    def test_infeasible_raises(self):
        # 4 message instances per hyperperiod but only 2 rounds x 1 slot
        # fit: the demand bound already exceeds Rmax.
        mode = Mode("doomed", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=4),
        ])
        config = SchedulingConfig(
            round_length=8.0, slots_per_round=1, max_round_gap=None
        )
        with pytest.raises(InfeasibleError):
            run_cached_batch([(mode, config)], jobs=2)

    def test_empty_batch(self):
        assert synthesize_batch([], jobs=2) == []
        assert run_cached_batch([], jobs=2) == []
