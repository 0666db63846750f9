"""Loss models: statistical sanity, determinism, uniform seeding.

Property tests for the contracts the Monte-Carlo layer depends on:

* **determinism** — equal seeds produce identical reception sequences,
  regardless of node-set construction order (sorted-node iteration);
* **statistical sanity** — Bernoulli hit rates fall inside the Wilson
  interval of their parameter, Gilbert-Elliott burst lengths follow
  the geometric distribution of ``p_bad_to_good``;
* **uniform seeding** — every stochastic model accepts an integer, a
  ``random.Random``, a ``numpy.random.Generator``, or ``None``, and
  rejects anything else with the boundary-style error message.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import derive_seed, make_rng
from repro.mc import wilson_interval
from repro.runtime import (
    BernoulliLoss,
    GilbertElliottLoss,
    GlossyLoss,
    TraceReplayLoss,
    available_loss_kinds,
    build_loss,
    reseeded,
)
from repro.net.topology import line

NODES = {f"n{i}" for i in range(8)}


class TestBernoulliStatistics:
    @given(st.integers(0, 2**32), st.floats(0.05, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_hit_rate_within_wilson_ci_of_p(self, seed, loss_p):
        """The observed miss rate lies in the 95 % Wilson interval of
        the true parameter for all but ~5 % of seeds; with a generous
        z the property is effectively seed-independent."""
        model = BernoulliLoss(beacon_loss=loss_p, seed=seed)
        floods = 400
        missed = 0
        observations = 0
        for _ in range(floods):
            received = model.beacon_receivers("n0", NODES)
            missed += len(NODES) - len(received)
            observations += len(NODES) - 1  # host always receives
        # z = 4 -> far outside any plausible sampling fluctuation.
        low, high = wilson_interval(missed, observations, z=4.0)
        assert low <= loss_p <= high

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_identical_sequence(self, seed):
        a = BernoulliLoss(0.3, 0.3, seed=seed)
        b = BernoulliLoss(0.3, 0.3, seed=seed)
        for _ in range(50):
            assert a.beacon_receivers("n0", NODES) == \
                b.beacon_receivers("n0", NODES)
            assert a.data_receivers("n3", NODES, 16) == \
                b.data_receivers("n3", NODES, 16)

    def test_sequence_independent_of_set_construction_order(self):
        """Sorted-node iteration: the sampled realization must not
        depend on the insertion order of the node set."""
        forward = set([f"n{i}" for i in range(8)])
        backward = set([f"n{i}" for i in reversed(range(8))])
        a = BernoulliLoss(0.4, seed=5)
        b = BernoulliLoss(0.4, seed=5)
        for _ in range(30):
            assert a.beacon_receivers("n0", forward) == \
                b.beacon_receivers("n0", backward)


class TestGilbertElliottStatistics:
    @given(st.integers(0, 2**32), st.floats(0.15, 0.8))
    @settings(max_examples=15, deadline=None)
    def test_burst_length_is_geometric(self, seed, p_recover):
        """BAD-state sojourns are geometric: mean 1 / p_bad_to_good.
        Track one node's channel through many rounds and compare the
        empirical mean burst length (z=4-style generous tolerance)."""
        model = GilbertElliottLoss(
            p_good_to_bad=0.4, p_bad_to_good=p_recover,
            loss_good=0.0, loss_bad=1.0, seed=seed,
        )
        node = "n1"
        nodes = {"n0", node}
        bursts = []
        current = 0
        for _ in range(6000):
            model.beacon_receivers("n0", nodes)
            if model._bad.get(node, False):
                current += 1
            elif current:
                bursts.append(current)
                current = 0
            if len(bursts) >= 400:
                break
        assert len(bursts) >= 50
        expected = 1.0 / p_recover
        observed = sum(bursts) / len(bursts)
        # Geometric std is sqrt(1-p)/p <= expected; 4 sigma of the mean.
        tolerance = 4.0 * expected / (len(bursts) ** 0.5)
        assert abs(observed - expected) <= tolerance

    @given(st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_identical_sequence(self, seed):
        a = GilbertElliottLoss(seed=seed)
        b = GilbertElliottLoss(seed=seed)
        for _ in range(60):
            assert a.beacon_receivers("n0", NODES) == \
                b.beacon_receivers("n0", NODES)

    def test_average_loss_rate_matches_long_run(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.1, p_bad_to_good=0.3,
            loss_good=0.05, loss_bad=0.7, seed=2,
        )
        floods = 4000
        missed = 0
        for _ in range(floods):
            received = model.beacon_receivers("n0", NODES)
            missed += len(NODES) - len(received)
        observed = missed / (floods * (len(NODES) - 1))
        assert observed == pytest.approx(model.average_loss_rate(), abs=0.03)


class TestGlossyDeterminism:
    def test_same_seed_identical_floods(self):
        topo = line(5)
        a = GlossyLoss(topo, link_success=0.7, seed=9)
        b = GlossyLoss(topo, link_success=0.7, seed=9)
        nodes = set(topo.nodes)
        for _ in range(40):
            assert a.beacon_receivers("n0", nodes) == \
                b.beacon_receivers("n0", nodes)


class TestTraceReplay:
    def test_replays_recorded_events(self):
        model = TraceReplayLoss(
            beacon=[["n1", "n2"], ["n1"]],
            data=[["n2"]],
            on_end="wrap",
        )
        nodes = {"n1", "n2", "n3"}
        assert model.beacon_receivers("n0", nodes) == {"n0", "n1", "n2"}
        assert model.beacon_receivers("n0", nodes) == {"n0", "n1"}
        # on_end="wrap" wraps around.
        assert model.beacon_receivers("n0", nodes) == {"n0", "n1", "n2"}
        assert model.data_receivers("n1", nodes, 8) == {"n1", "n2"}
        assert model.data_receivers("n1", nodes, 8) == {"n1", "n2"}

    def test_no_cycle_falls_back_to_perfect(self):
        model = TraceReplayLoss(beacon=[["n1"]], on_end="perfect")
        nodes = {"n1", "n2"}
        model.beacon_receivers("n0", nodes)
        assert model.beacon_receivers("n0", nodes) == nodes

    def test_from_trace_round_trips_the_realization(self, simple_mode):
        """Replaying a recorded trace's losses against the same system
        reproduces the trace exactly."""
        from repro.core import SchedulingConfig, synthesize
        from repro.runtime import TraceReplayLoss, build_deployment
        from repro.runtime.simulator import RuntimeSimulator
        from repro.runtime.trial import summarize_trace

        config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                                  max_round_gap=None)
        schedule = synthesize(simple_mode, config)
        deployment = build_deployment(simple_mode, schedule, 0)

        def simulator(loss):
            return RuntimeSimulator(
                {0: simple_mode}, {0: deployment}, initial_mode=0, loss=loss,
            )

        original = simulator(BernoulliLoss(0.2, 0.2, seed=3)).run(200.0)
        replay = simulator(TraceReplayLoss.from_trace(original)).run(200.0)
        assert summarize_trace(replay) == summarize_trace(original)


class TestUniformSeeding:
    """Satellite fix: int / random.Random / numpy Generator uniformly."""

    @pytest.mark.parametrize("factory", [
        lambda seed: BernoulliLoss(0.3, 0.3, seed=seed),
        lambda seed: GilbertElliottLoss(seed=seed),
        lambda seed: GlossyLoss(line(4), link_success=0.8, seed=seed),
    ])
    def test_accepts_all_seed_forms(self, factory):
        for seed in (7, random.Random(7), np.random.default_rng(7), None):
            model = factory(seed)
            model.beacon_receivers("n0", {"n0", "n1", "n2"})

    def test_int_seed_matches_random_instance(self):
        a = BernoulliLoss(0.5, seed=13)
        b = BernoulliLoss(0.5, seed=random.Random(13))
        for _ in range(20):
            assert a.beacon_receivers("n0", NODES) == \
                b.beacon_receivers("n0", NODES)

    def test_numpy_generator_is_deterministic(self):
        a = BernoulliLoss(0.5, seed=np.random.default_rng(21))
        b = BernoulliLoss(0.5, seed=np.random.default_rng(21))
        for _ in range(20):
            assert a.beacon_receivers("n0", NODES) == \
                b.beacon_receivers("n0", NODES)

    @pytest.mark.parametrize("bad", [1.5, "seven", True])
    def test_rejects_other_types_with_boundary_style_error(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            BernoulliLoss(0.1, seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            GilbertElliottLoss(seed=bad)

    def test_make_rng_error_names_the_parameter(self):
        with pytest.raises(ValueError, match="master_seed must be"):
            make_rng("x", param="master_seed")


class TestJsonBoundary:
    """build_loss is the single validated Scenario JSON boundary."""

    def test_kind_registry_is_complete(self):
        assert available_loss_kinds() == (
            "bernoulli", "gilbert_elliott", "glossy", "interference",
            "matrix_trace", "perfect", "scripted_beacon", "spatial",
            "time_varying", "trace_replay",
        )

    def test_builds_every_kind(self):
        assert isinstance(build_loss("bernoulli", {"beacon_loss": 0.1}),
                          BernoulliLoss)
        # scripted_beacon without params is lossless (legacy scenario
        # files carry the kind with an empty params dict).
        model = build_loss("scripted_beacon", {})
        assert model.beacon_receivers("n0", {"n0", "n1"}) == {"n0", "n1"}
        assert isinstance(build_loss("trace_replay", {"beacon": [["n1"]]}),
                          TraceReplayLoss)
        assert isinstance(
            build_loss("glossy", {"link_success": 0.9}, topology=line(3)),
            GlossyLoss,
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            build_loss("rayleigh")

    def test_unknown_parameter_lists_known_ones(self):
        with pytest.raises(ValueError, match="known: beacon_loss, data_loss, seed"):
            build_loss("bernoulli", {"p": 0.1})
        # trace_replay's former ``cycle`` alias is an unknown name.
        with pytest.raises(
            ValueError,
            match=r"unknown parameter\(s\) 'cycle'; known: beacon, data, on_end",
        ):
            build_loss("trace_replay", {"beacon": [["n1"]], "cycle": True})

    def test_invalid_value_is_not_reported_as_unknown_name(self):
        """A TypeError raised *inside* a constructor (bad value of a
        known parameter) must not produce a self-contradictory
        'unknown parameter' message."""
        from repro.net.topology import build_topology

        with pytest.raises(ValueError, match="invalid parameter value"):
            build_topology("line", {"num_nodes": "5"})
        with pytest.raises(ValueError, match="invalid parameter value"):
            build_loss("glossy", {"link_success": "0.9"},
                       topology=line(3))

    def test_glossy_needs_topology(self):
        with pytest.raises(ValueError, match="needs a topology"):
            build_loss("glossy", {})

    def test_invalid_probability_value(self):
        with pytest.raises(ValueError, match=r"beacon_loss must be in \[0, 1\)"):
            build_loss("bernoulli", {"beacon_loss": 1.2})

    def test_scenario_lossspec_wraps_errors(self):
        from repro.api import LossSpec, ScenarioError

        with pytest.raises(ScenarioError, match="unknown loss kind"):
            LossSpec("rayleigh", {}).build()

    def test_reseeded_only_touches_seedable_kinds(self):
        assert reseeded("bernoulli", {"beacon_loss": 0.1}, 42) == \
            {"beacon_loss": 0.1, "seed": 42}
        assert reseeded("scripted_beacon", {"drops": {}}, 42) == {"drops": {}}
        assert reseeded("perfect", None, 7) == {}


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(3, 0) == derive_seed(3, 0)
        assert derive_seed(3, 0) != derive_seed(3, 1)
        assert derive_seed(3, 0) != derive_seed(4, 0)

    def test_none_master_counts_as_zero(self):
        assert derive_seed(None, 5) == derive_seed(0, 5)

    @given(st.integers(0, 2**31), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_in_63_bit_range(self, master, trial):
        seed = derive_seed(master, trial)
        assert 0 <= seed < 2**63
