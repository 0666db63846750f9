"""Tests of the demand-bound warm start for Algorithm 1."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    InfeasibleError,
    Mode,
    SchedulingConfig,
    demand_round_bound,
    synthesize,
    verify_schedule,
)
from repro.engine.parallel import synthesize_batch
from repro.workloads import (
    GeneratorConfig,
    WorkloadGenerator,
    closed_loop_pipeline,
    fig3_control_app,
)


def many_message_mode(num_apps=4, period=40.0):
    apps = [
        closed_loop_pipeline(f"p{i}", period=period, deadline=period,
                             num_hops=2)
        for i in range(num_apps)
    ]
    return Mode("m", apps)


class TestDemandBound:
    def test_counts_instances(self):
        mode = many_message_mode(num_apps=3)  # 6 messages, 1 inst each
        config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                                  max_round_gap=None)
        assert demand_round_bound(mode, config) == 2  # ceil(6/5)

    def test_respects_capacity(self):
        mode = many_message_mode(num_apps=2)  # 4 messages
        config = SchedulingConfig(round_length=1.0, slots_per_round=1,
                                  max_round_gap=None)
        assert demand_round_bound(mode, config) == 4

    def test_counts_multiple_instances(self):
        fast = closed_loop_pipeline("f", period=10, deadline=10, num_hops=1)
        slow = closed_loop_pipeline("s", period=20, deadline=20, num_hops=1)
        mode = Mode("m", [fast, slow])
        config = SchedulingConfig(round_length=1.0, slots_per_round=1,
                                  max_round_gap=None)
        # hyperperiod 20: f_m x2 + s_m x1 = 3 slots.
        assert demand_round_bound(mode, config) == 3

    def test_counts_chain_hops(self, tight_config):
        # One slot-light 3-hop chain: its hops need 3 distinct rounds
        # although 3 messages fit in one round of B = 5.
        mode = Mode("m", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=3),
        ])
        assert demand_round_bound(mode, tight_config) == 3
        assert synthesize(mode, tight_config).num_rounds == 3

    def test_counts_chain_hops_per_instance(self, tight_config):
        # Hyperperiod 40: the 2-hop chain of period 20 runs twice, in
        # disjoint windows, so it needs 2 x 2 rounds.
        mode = Mode("m", [
            closed_loop_pipeline("f", period=20, deadline=20, num_hops=2),
            closed_loop_pipeline("s", period=40, deadline=40, num_hops=3),
        ])
        assert demand_round_bound(mode, tight_config) == 4
        assert synthesize(mode, tight_config).num_rounds == 4

    def test_longest_chain_sets_the_hops(self, tight_config):
        # fig. 3's control app: chains of 1 and 2 messages.
        app = fig3_control_app(period=20, deadline=20, sense_wcet=1,
                               control_wcet=2, act_wcet=1)
        longest = max(len(chain.messages) for chain in app.chains())
        assert demand_round_bound(Mode("m", [app]), tight_config) == longest

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10**6),
        num_apps=st.integers(1, 2),
        num_tasks=st.integers(2, 5),
        slots=st.integers(1, 5),
    )
    # The draws pinned elsewhere in the suite: solver slack at the
    # verifier (51), at the latency bound (801), at a demand window
    # (11098), and the slowest optimal solve (70, R* = 10).
    @example(seed=51, num_apps=1, num_tasks=5, slots=2)
    @example(seed=801, num_apps=1, num_tasks=4, slots=5)
    @example(seed=11098, num_apps=2, num_tasks=5, slots=1)
    @example(seed=70, num_apps=2, num_tasks=4, slots=1)
    def test_never_exceeds_cold_start_r(self, seed, num_apps, num_tasks,
                                        slots):
        generator = WorkloadGenerator(
            GeneratorConfig(num_tasks=num_tasks, num_nodes=6,
                            period_choices=(20.0, 40.0)),
            seed=seed,
        )
        mode = generator.mode("rand", num_apps)
        # R* does not depend on the objective: search for feasibility
        # only, which keeps the seed-70 mode at seconds, not a minute.
        config = SchedulingConfig(round_length=1.0, slots_per_round=slots,
                                  max_round_gap=None, minimize_latency=False)
        try:
            cold = synthesize(mode, config)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                synthesize(mode, config, warm_start=True)
            return
        assert demand_round_bound(mode, config) <= cold.num_rounds


class TestWarmStart:
    def test_same_result_with_fewer_iterations(self):
        mode = many_message_mode(num_apps=4)
        config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                                  max_round_gap=None)
        cold = synthesize(mode, config)
        warm = synthesize(mode, config, warm_start=True)
        assert warm.num_rounds == cold.num_rounds
        assert warm.total_latency == pytest.approx(cold.total_latency, abs=1e-4)
        assert len(warm.solve_stats.iterations) < len(
            cold.solve_stats.iterations
        )
        assert verify_schedule(mode, warm).ok

    def test_warm_start_first_iteration_at_bound(self):
        mode = many_message_mode(num_apps=4)
        config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                                  max_round_gap=None)
        warm = synthesize(mode, config, warm_start=True)
        bound = demand_round_bound(mode, config)
        assert warm.solve_stats.iterations[0].num_rounds == bound

    def test_warm_start_task_only_mode(self, tight_config):
        from repro.core import Application

        app = Application("a", period=10, deadline=10)
        app.add_task("t", node="n1", wcet=1)
        mode = Mode("m", [app])
        sched = synthesize(mode, tight_config, warm_start=True)
        assert sched.num_rounds == 0

    def test_fig3_warm_equals_cold(self, unit_config):
        app = fig3_control_app(period=20, deadline=20, sense_wcet=1,
                               control_wcet=2, act_wcet=1)
        mode = Mode("m", [app])
        cold = synthesize(mode, unit_config)
        warm = synthesize(mode, unit_config, warm_start=True)
        assert warm.num_rounds == cold.num_rounds


class TestInfeasibleMessage:
    """The error names ``Rmax`` and, when it alone rules the mode out,
    the demand bound, on the sequential and the pooled path."""

    @staticmethod
    def beyond_rmax():
        # 8 messages through 1-slot rounds, but only floor(10 / 4) = 2
        # rounds fit in the hyperperiod.
        mode = Mode("m", [
            closed_loop_pipeline(f"p{i}", period=10, deadline=10, num_hops=2)
            for i in range(4)
        ])
        config = SchedulingConfig(round_length=4.0, slots_per_round=1,
                                  max_round_gap=None)
        return mode, config

    @staticmethod
    def too_tight():
        # Two 5 ms tasks and a 1 ms round cannot meet a 10 ms deadline
        # at any round count; the demand bound (1) is below Rmax (10).
        mode = Mode("m", [
            closed_loop_pipeline("a", period=10, deadline=10, num_hops=1,
                                 wcet=5.0),
        ])
        config = SchedulingConfig(round_length=1.0, slots_per_round=1,
                                  max_round_gap=None)
        return mode, config

    def test_cold_start_names_rmax(self):
        mode, config = self.beyond_rmax()
        with pytest.raises(InfeasibleError) as err:
            synthesize(mode, config)
        assert str(err.value) == (
            "mode 'm': no feasible schedule with up to 2 rounds"
        )

    @pytest.mark.parametrize("solve", [
        lambda mode, config: synthesize(mode, config, warm_start=True),
        lambda mode, config: synthesize_batch([(mode, config)], jobs=1),
        lambda mode, config: synthesize_batch([(mode, config)], jobs=2),
    ], ids=["synthesize", "batch-jobs-1", "batch-jobs-2"])
    def test_bound_above_rmax(self, solve):
        mode, config = self.beyond_rmax()
        assert demand_round_bound(mode, config) == 8
        with pytest.raises(InfeasibleError) as err:
            solve(mode, config)
        assert str(err.value) == (
            "mode 'm': needs at least 8 rounds (demand bound), but only 2 "
            "fit in its hyperperiod"
        )
        assert err.value.stats.iterations == []

    @pytest.mark.parametrize("solve", [
        lambda mode, config: synthesize(mode, config, warm_start=True),
        lambda mode, config: synthesize_batch([(mode, config)], jobs=2),
    ], ids=["synthesize", "batch-jobs-2"])
    def test_warm_start_below_rmax_names_rmax(self, solve):
        mode, config = self.too_tight()
        assert demand_round_bound(mode, config) == 1
        with pytest.raises(InfeasibleError) as err:
            solve(mode, config)
        assert str(err.value) == (
            "mode 'm': no feasible schedule with up to 10 rounds"
        )
        assert [it.num_rounds for it in err.value.stats.iterations] == list(
            range(1, 11)
        )
