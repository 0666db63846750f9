"""Backend conformance suite: every registered solver backend must
produce schedules that pass the independent verifier.

This is the contract a custom backend signs up for when it calls
:func:`repro.milp.register_backend`: whatever it returns as "feasible"
must satisfy every constraint of the paper.  Exact backends must also
agree on the round count and the optimal objective; heuristic backends
may use more rounds / higher latency but never an invalid schedule.
"""

import pytest

from repro.core import Mode, SchedulingConfig, synthesize, verify_schedule
from repro.milp import available_backends, get_backend
from repro.workloads import closed_loop_pipeline, fig3_control_app

BACKENDS = available_backends()
EXACT = tuple(
    name for name in BACKENDS if get_backend(name).info.exact
)


def small_mode() -> Mode:
    return Mode("small", [
        closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        closed_loop_pipeline("b", period=10, deadline=10, num_hops=1),
    ])


def config(backend: str) -> SchedulingConfig:
    return SchedulingConfig(round_length=1.0, slots_per_round=5,
                            max_round_gap=None, backend=backend)


class TestConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schedule_verifies(self, backend):
        mode = small_mode()
        schedule = synthesize(mode, config(backend))
        report = verify_schedule(mode, schedule)
        assert report.ok, f"{backend}: {report.violations}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_recorded_in_schedule(self, backend):
        schedule = synthesize(small_mode(), config(backend))
        assert schedule.config.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fig3_app_verifies(self, backend):
        mode = Mode("fig3", [fig3_control_app(period=100, deadline=100)])
        cfg = SchedulingConfig(round_length=2.0, slots_per_round=5,
                               max_round_gap=None, backend=backend)
        schedule = synthesize(mode, cfg)
        assert verify_schedule(mode, schedule).ok

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_kwarg_overrides_config(self, backend):
        schedule = synthesize(small_mode(), config("highs"), backend=backend)
        assert schedule.config.backend == backend
        assert verify_schedule(small_mode(), schedule).ok


class TestExactAgreement:
    def test_exact_backends_agree(self):
        """All exact backends find the same round count and objective."""
        results = {
            backend: synthesize(small_mode(), config(backend))
            for backend in EXACT
        }
        rounds = {s.num_rounds for s in results.values()}
        assert len(rounds) == 1, f"round counts differ: {results}"
        latencies = [s.total_latency for s in results.values()]
        assert max(latencies) - min(latencies) < 1e-6

    def test_heuristic_never_beats_exact(self):
        """Greedy is round-minimal-or-worse and latency-suboptimal-or-
        equal — never better than a proven optimum."""
        exact = synthesize(small_mode(), config("highs"))
        greedy = synthesize(small_mode(), config("greedy"))
        assert greedy.num_rounds >= exact.num_rounds
        assert greedy.total_latency >= exact.total_latency - 1e-6


class TestRegistry:
    def test_bundled_backends_registered(self):
        assert {"highs", "bnb", "greedy"} <= set(BACKENDS)

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cplex")

    def test_register_custom_backend(self):
        from repro.milp import (
            BackendInfo,
            Model,
            register_backend,
        )
        from repro.milp.backends import _REGISTRY

        class Echo:
            info = BackendInfo(
                name="echo-test", exact=False, supports_time_limit=False,
                supports_warm_start=False, description="test stub",
            )

            def solve(self, model, *, time_limit=None, node_limit=None,
                      tol=1e-6, warm_start=None):
                from repro.milp import Solution, SolveStatus

                return Solution(SolveStatus.INFEASIBLE)

        try:
            register_backend(Echo())
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Echo())
            solution = Model("m").solve(backend="echo-test")
            assert not solution.is_feasible
        finally:
            _REGISTRY.pop("echo-test", None)

    def test_duplicate_registration_needs_replace(self):
        from repro.milp import HighsBackend, register_backend

        with pytest.raises(ValueError, match="already registered"):
            register_backend(HighsBackend())
        register_backend(HighsBackend(), replace=True)  # allowed


class TestCacheKeySeparation:
    def test_backends_never_share_cache_entries(self, tmp_path):
        """Same mode, same config except backend -> different keys."""
        from repro.engine import ScheduleCache

        cache = ScheduleCache(tmp_path)
        mode = small_mode()
        keys = {
            backend: cache.key(mode, config(backend)) for backend in BACKENDS
        }
        assert len(set(keys.values())) == len(BACKENDS), keys

    def test_cached_greedy_schedule_stays_greedy(self, tmp_path):
        from repro.engine import EngineStats, ScheduleCache, run_cached_batch

        cache = ScheduleCache(tmp_path / "cache")
        stats = EngineStats()
        first, = run_cached_batch(
            [(small_mode(), config("greedy"))], cache=cache, stats=stats
        )
        second, = run_cached_batch(
            [(small_mode(), config("greedy"))], cache=cache, stats=stats
        )
        assert stats.cache_hits == 1
        assert second.config.backend == "greedy"
        assert first.rounds == second.rounds


class TestWarmStartRegression:
    def test_bnb_warm_start_with_objective_constant(self):
        """A warm incumbent must not over-prune when the objective has a
        constant term (node bounds exclude it)."""
        from repro.milp import Model, ObjectiveSense

        model = Model("const-obj")
        x = model.add_integer("x", 0, 5)
        model.set_objective(x + 10, ObjectiveSense.MAXIMIZE)
        cold = model.solve(backend="bnb")
        warm = model.solve(backend="bnb", warm_start={x: 0.0})
        assert cold.objective == 15.0
        assert warm.objective == 15.0
        assert warm[x] == 5.0

    def test_partial_warm_start_ignored_not_crashing(self):
        """A warm start missing variables must be ignored, not raise."""
        from repro.milp import Model, ObjectiveSense

        model = Model("partial")
        x = model.add_integer("x", 0, 5)
        y = model.add_integer("y", 0, 5)
        model.add_constr(x + y <= 6)
        model.set_objective(x + y, ObjectiveSense.MAXIMIZE)
        for backend in ("bnb", "greedy"):
            solution = model.solve(backend=backend, warm_start={x: 2.0})
            assert solution.is_feasible
            assert solution.objective == 6.0
