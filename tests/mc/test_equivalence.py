"""Statistical equivalence: the vectorized engine vs the exact engines.

The ``vectorized`` engine draws from counter-based streams, so — unlike
``fast`` vs ``reference``, which are bit-identical — its claim is
*distribution equivalence*: same deterministic structure, compatible
sampled statistics.  This suite asserts that with the reusable harness
(:func:`repro.mc.equivalence.assert_distribution_equivalent`) over a
matrix of seeds × node policies × every loss kind the vectorized
kernel supports, against both the ``fast`` and the ``reference``
oracle, and then proves the harness has teeth: campaigns that *should*
be flagged (different loss rates, different trial counts, different
horizons) raise :class:`EquivalenceError`.

Deterministic loss kinds (perfect, scripted, trace replay) admit a
stronger check — with no randomness left, the engines must agree
exactly, not just statistically — and get one, under both node
policies.  The ``LOCAL_BELIEF`` ablation collides; its collision counts
are a sampled quantity there, and a belief scan that never advances
beliefs or drops collisions must be flagged.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    LossSpec,
    RadioSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
)
from repro.api.experiment import synthesize_scenarios
from repro.core import Mode, SchedulingConfig
from repro.core.app_model import Application
from repro.mc import (
    CampaignStats,
    EquivalenceError,
    assert_distribution_equivalent,
    assert_engines_equivalent,
    run_campaign,
)
from repro.mc import vectorized as vectorized_module
from repro.mc.campaign import PointResult, scenario_context
from repro.mc.equivalence import ks_critical_value, ks_statistic
from repro.runtime.trial import TrialResult, build_context, run_trial
from repro.mc.vectorized import run_trials_vectorized


def pipeline(name: str, period: float, nodes) -> Application:
    """A sense→…→act pipeline with tasks mapped to explicit nodes."""
    app = Application(name, period=period, deadline=period)
    previous = None
    for index, node in enumerate(nodes):
        task = f"{name}_t{index}"
        app.add_task(task, node=node, wcet=1.0)
        if previous is not None:
            message = f"{name}_m{index - 1}"
            app.add_message(message)
            app.connect(previous, message)
            app.connect(message, task)
        previous = task
    return app


def switching_scenario(**overrides) -> Scenario:
    """Two modes, runtime mode requests — the fast-path test scenario."""
    normal = Mode("normal", [
        pipeline("a", 20.0, ["n0", "n1", "n2"]),
        pipeline("c", 40.0, ["n2", "n3"]),
    ])
    degraded = Mode("degraded", [pipeline("b", 40.0, ["n3", "n0"])])
    base = dict(
        name="switchy",
        modes=[normal, degraded],
        transitions=[("normal", "degraded"), ("degraded", "normal")],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        backend="greedy",
        simulation=SimulationSpec(
            duration=2000.0,
            mode_requests=((300.0, "degraded"), (900.0, "normal")),
        ),
    )
    base.update(overrides)
    return Scenario(**base)


def campaign_scenario(kind, params, *, trials=160, seed=11, **overrides):
    return switching_scenario(
        loss=LossSpec(kind, dict(params)),
        simulation=SimulationSpec(
            duration=2000.0,
            trials=trials,
            seed=seed,
            mode_requests=((300.0, "degraded"), (900.0, "normal")),
        ),
        **overrides,
    )


def with_policy(scenario: Scenario, policy: str) -> Scenario:
    return dataclasses.replace(
        scenario,
        simulation=dataclasses.replace(scenario.simulation, policy=policy),
    )


def context_for(scenario: Scenario):
    schedules, reports, _ = synthesize_scenarios([scenario])
    assert all(r.ok for r in reports[scenario.name].values())
    return build_context(scenario_context(scenario, schedules[scenario.name]))


#: Every loss kind the vectorized kernel supports: (kind, params,
#: whether the realization is deterministic given the scenario).
VECTOR_LOSS_MATRIX = [
    ("perfect", {}, True),
    ("bernoulli", {"beacon_loss": 0.15, "data_loss": 0.1}, False),
    ("gilbert_elliott",
     {"p_good_to_bad": 0.1, "p_bad_to_good": 0.4,
      "loss_good": 0.02, "loss_bad": 0.8}, False),
    ("scripted_beacon", {"drops": {"3": ["n1"], "10": ["n1", "n2"]}}, True),
    ("trace_replay",
     {"beacon": [["n1"], ["n0", "n1", "n2"], []],
      "data": [["n0", "n1", "n2"], ["n2"]], "on_end": "wrap"}, True),
]

#: Node coordinates for the spatial kind — names match the workload's
#: nodes; 9-14 m links sit on the PDR waterfall at -92 dBm sensitivity.
POSITIONS = {
    "n0": [0.0, 0.0], "n1": [12.0, 0.0], "n2": [12.0, 9.0], "n3": [0.0, 14.0],
}
SPATIAL_TOPOLOGY = TopologySpec(
    "uniform_random", {"positions": POSITIONS, "comm_range": 40.0}
)

#: The connectivity-layer loss kinds: (kind, params, scenario extras).
CONNECTIVITY_MATRIX = [
    ("spatial",
     {"shadowing_db": 3.0, "shadowing_seed": 5, "sensitivity_dbm": -92.0},
     {"topology": SPATIAL_TOPOLOGY}),
    ("matrix_trace",
     {"matrices": [{"pdr": {}, "default": 0.9},
                   {"pdr": {"n0": {"n2": 0.3}}, "default": 0.7}],
      "on_end": "wrap"}, {}),
    ("time_varying",
     {"beacon_loss": 0.05, "data_loss": 0.15, "shape": "periodic",
      "period": 10, "amplitude": 0.8}, {}),
    ("interference",
     {"period": 8, "burst": 3, "jam_loss": 0.9, "base_data_loss": 0.05,
      "affected": ["n1", "n2"]}, {}),
]


class TestVectorizedEquivalence:
    """Vectorized vs fast and vs the reference oracle, per loss kind."""

    def run_pair(self, kind, params, engine, tmp_path, *, seed=11, **overrides):
        vec = run_campaign(
            campaign_scenario(kind, params, seed=seed, **overrides),
            cache_dir=tmp_path / "cache", engine="vectorized",
        )
        other = run_campaign(
            campaign_scenario(kind, params, seed=seed, **overrides),
            cache_dir=tmp_path / "cache", engine=engine,
        )
        assert vec.engines == {"switchy": "vectorized"}
        assert other.engines == {"switchy": engine}
        return vec.points[0], other.points[0]

    @pytest.mark.parametrize(
        "kind,params,deterministic", VECTOR_LOSS_MATRIX,
        ids=[row[0] for row in VECTOR_LOSS_MATRIX],
    )
    @pytest.mark.parametrize("seed", [11, 23])
    def test_equivalent_to_fast(
        self, kind, params, deterministic, seed, tmp_path
    ):
        vec, fast = self.run_pair(kind, params, "fast", tmp_path, seed=seed)
        assert_distribution_equivalent(vec, fast, label=kind)
        # The matrix scenario switches modes twice; the deterministic
        # timeline must reproduce both switch delays exactly.
        assert vec.stats.switch_delay is not None
        assert vec.trials[0].switch_delays == fast.trials[0].switch_delays
        if deterministic:
            # No randomness left: distribution equivalence collapses to
            # exact equality of every trial summary.
            for vec_trial, fast_trial in zip(vec.trials, fast.trials):
                assert vec_trial.to_dict() == fast_trial.to_dict()

    @pytest.mark.parametrize(
        "kind,params,deterministic", VECTOR_LOSS_MATRIX,
        ids=[row[0] for row in VECTOR_LOSS_MATRIX],
    )
    def test_equivalent_to_reference_oracle(
        self, kind, params, deterministic, tmp_path
    ):
        vec, reference = self.run_pair(kind, params, "reference", tmp_path)
        assert_distribution_equivalent(vec, reference, label=kind)

    @pytest.mark.parametrize("policy", ["beacon_gated", "local_belief"])
    def test_both_policies_give_compatible_campaigns(self, policy, tmp_path):
        """Both node policies run the tensor kernel — beacon gating as
        a gather, the local-belief ablation as a belief scan — and
        either way the campaign is distribution-equivalent to the
        reference."""
        def scenario():
            base = campaign_scenario(
                "bernoulli", {"beacon_loss": 0.2, "data_loss": 0.1},
                trials=120,
            )
            return dataclasses.replace(
                base,
                simulation=dataclasses.replace(
                    base.simulation, policy=policy
                ),
            )

        vec = run_campaign(scenario(), cache_dir=tmp_path / "cache",
                           engine="vectorized")
        reference = run_campaign(scenario(), cache_dir=tmp_path / "cache",
                                 engine="reference")
        assert vec.engines == {"switchy": "vectorized"}
        assert_distribution_equivalent(
            vec.points[0], reference.points[0], label=policy
        )

    def test_radio_accounting_equivalent(self, tmp_path):
        """With a radio spec, per-trial radio-on times must agree in
        the mean — radio time is a deterministic function of beacon
        reception, so this pins the reception marginals too."""
        extras = dict(radio=RadioSpec(payload_bytes=16, diameter=3))
        vec, fast = self.run_pair(
            "bernoulli", {"beacon_loss": 0.1, "data_loss": 0.1},
            "fast", tmp_path, **extras,
        )
        assert vec.stats.radio_on is not None
        assert vec.stats.radio_on.mean > 0.0
        assert_distribution_equivalent(vec, fast, label="radio")

    def test_sweep_grid_points_each_equivalent(self, tmp_path):
        sweep = {"data_loss": [0.0, 0.3]}
        vec = run_campaign(
            campaign_scenario("bernoulli", {"beacon_loss": 0.1}, trials=120),
            cache_dir=tmp_path / "cache", engine="vectorized", sweep=sweep,
        )
        fast = run_campaign(
            campaign_scenario("bernoulli", {"beacon_loss": 0.1}, trials=120),
            cache_dir=tmp_path / "cache", engine="fast", sweep=sweep,
        )
        assert len(vec.points) == len(fast.points) == 2
        for vec_point, fast_point in zip(vec.points, fast.points):
            assert_distribution_equivalent(
                vec_point, fast_point, label=repr(vec_point.point)
            )
        # Sweeping the loss rate up must move the vectorized estimate
        # the same way it moves the exact engines' (sanity that the
        # grid point actually reached the sampler).
        assert vec.points[1].stats.miss.rate > vec.points[0].stats.miss.rate

    def test_accepts_bare_stats(self, tmp_path):
        vec, fast = self.run_pair(
            "bernoulli", {"beacon_loss": 0.15, "data_loss": 0.1},
            "fast", tmp_path,
        )
        assert_distribution_equivalent(vec.stats, fast.stats)

    def test_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="CampaignStats or PointResult"):
            assert_distribution_equivalent({"miss": 0.1}, CampaignStats())


class TestConnectivityEquivalence:
    """Every connectivity kind × both policies × seeds × all three
    engines, through the shared :func:`assert_engines_equivalent`
    harness (which also pins where the fallback ladder resolves)."""

    @pytest.mark.parametrize(
        "kind,params,extras", CONNECTIVITY_MATRIX,
        ids=[row[0] for row in CONNECTIVITY_MATRIX],
    )
    @pytest.mark.parametrize("policy", ["beacon_gated", "local_belief"])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_three_engines_equivalent(
        self, kind, params, extras, policy, seed, tmp_path
    ):
        scenario = campaign_scenario(
            kind, params, trials=100, seed=seed, **extras
        )
        scenario = dataclasses.replace(
            scenario,
            simulation=dataclasses.replace(scenario.simulation, policy=policy),
        )
        assert_engines_equivalent(
            scenario,
            ("vectorized", "fast", "reference"),
            cache_dir=tmp_path / "cache",
            expect={"vectorized": "vectorized",
                    "fast": "fast",
                    "reference": "reference"},
            label=f"{kind}/{policy}",
        )


#: Multi-hop Glossy substrates: the scenario's nodes n0..n3 plus, on
#: the ring, two relays that own no task.
GLOSSY_MATRIX = [
    ("line", TopologySpec("line", {"num_nodes": 5}), 0.5),
    ("ring", TopologySpec("ring", {"num_nodes": 6}), 0.4),
    ("line-0.6", TopologySpec("line", {"num_nodes": 4}), 0.6),
]

#: Every built-in kind under the LOCAL_BELIEF ablation not already in
#: the connectivity matrix: (kind, params, extras, deterministic).
#: Bernoulli beacons are lossy enough for both engines to collide — the
#: collision rule compares per-trial means only once both runs collided.
BELIEF_MATRIX = [
    ("perfect", {}, {}, True),
    ("bernoulli", {"beacon_loss": 0.4, "data_loss": 0.1}, {}, False),
    VECTOR_LOSS_MATRIX[2][:2] + ({}, False),
    VECTOR_LOSS_MATRIX[3][:2] + ({}, True),
    VECTOR_LOSS_MATRIX[4][:2] + ({}, True),
    ("glossy", {"link_success": 0.5},
     {"topology": TopologySpec("line", {"num_nodes": 4})}, False),
]


class TestGlossyEquivalence:
    """Hop-by-hop frontier propagation vs the scalar flood simulator,
    with radio accounting on."""

    @pytest.mark.parametrize(
        "topology,link_success", [row[1:] for row in GLOSSY_MATRIX],
        ids=[row[0] for row in GLOSSY_MATRIX],
    )
    @pytest.mark.parametrize("seed", [11, 23])
    def test_three_engines_equivalent(
        self, topology, link_success, seed, tmp_path
    ):
        scenario = campaign_scenario(
            "glossy", {"link_success": link_success}, trials=120, seed=seed,
            topology=topology, radio=RadioSpec(payload_bytes=16, diameter=4),
        )
        results = assert_engines_equivalent(
            scenario,
            ("vectorized", "fast", "reference"),
            cache_dir=tmp_path / "cache",
            expect={"vectorized": "vectorized"},
            label=f"glossy/{topology.kind}",
        )
        stats = results["vectorized"].points[0].stats
        assert stats.radio_on is not None and stats.collisions == 0
        # Multi-hop floods at p <= 0.6 lose beacons on the far nodes.
        assert 0.3 < stats.beacon.rate < 0.95


class TestLocalBeliefEquivalence:
    """The belief scan vs both exact engines, per built-in loss kind
    (the connectivity kinds run under both policies above)."""

    @pytest.mark.parametrize(
        "kind,params,extras,deterministic", BELIEF_MATRIX,
        ids=[row[0] for row in BELIEF_MATRIX],
    )
    @pytest.mark.parametrize("seed", [11, 23])
    def test_three_engines_equivalent(
        self, kind, params, extras, deterministic, seed, tmp_path
    ):
        scenario = with_policy(
            campaign_scenario(kind, params, seed=seed, **extras),
            "local_belief",
        )
        results = assert_engines_equivalent(
            scenario,
            ("vectorized", "fast", "reference"),
            cache_dir=tmp_path / "cache",
            expect={"vectorized": "vectorized"},
            label=f"{kind}/local_belief",
        )
        vec = results["vectorized"].points[0]
        reference = results["reference"].points[0]
        if deterministic:
            for vec_trial, ref_trial in zip(vec.trials, reference.trials):
                assert vec_trial.to_dict() == ref_trial.to_dict()
        else:
            assert vec.stats.collisions > 0  # the ablation is exercised

    def test_radio_accounting_equivalent(self, tmp_path):
        """Nodes that transmit without having heard the beacon keep
        their radio on too — the stray participation must match."""
        scenario = with_policy(
            campaign_scenario(
                "bernoulli", {"beacon_loss": 0.4, "data_loss": 0.1},
                radio=RadioSpec(payload_bytes=16, diameter=3),
            ),
            "local_belief",
        )
        results = assert_engines_equivalent(
            scenario, ("vectorized", "reference"),
            cache_dir=tmp_path / "cache",
            expect={"vectorized": "vectorized"}, label="belief/radio",
        )
        vec = results["vectorized"].points[0].stats
        ref = results["reference"].points[0].stats
        assert vec.radio_on is not None and vec.collisions > 0
        assert vec.radio_on.mean == pytest.approx(ref.radio_on.mean,
                                                  rel=0.01)


class TestBeliefScanHasTeeth:
    """Deliberately broken belief scans must be *flagged* against the
    reference oracle."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return run_campaign(
            self.scenario(), cache_dir=tmp_path_factory.mktemp("cache"),
            engine="reference",
        ).points[0]

    @staticmethod
    def scenario():
        return with_policy(
            campaign_scenario(
                "bernoulli", {"beacon_loss": 0.4, "data_loss": 0.1},
                trials=200,
            ),
            "local_belief",
        )

    def vectorized(self, tmp_path):
        result = run_campaign(self.scenario(), cache_dir=tmp_path / "cache",
                              engine="vectorized")
        assert result.engines == {"switchy": "vectorized"}
        return result.points[0]

    def test_intact_scan_passes(self, reference, tmp_path):
        assert_distribution_equivalent(self.vectorized(tmp_path), reference)

    def test_flags_beliefs_that_never_advance(
        self, reference, tmp_path, monkeypatch
    ):
        """A node that missed the beacon re-predicts its last round
        instead of the next one."""
        original = vectorized_module._belief_tables

        def frozen(program):
            successor, transmits = original(program)
            return np.arange(len(successor)), transmits

        monkeypatch.setattr(vectorized_module, "_belief_tables", frozen)
        with pytest.raises(EquivalenceError, match="collision|incompatible"):
            assert_distribution_equivalent(self.vectorized(tmp_path),
                                           reference)

    def test_flags_dropped_collisions(self, reference, tmp_path, monkeypatch):
        original = vectorized_module.slot_delivery

        def collision_free(program, timeline, beacon):
            delivery = original(program, timeline, beacon)
            return dataclasses.replace(
                delivery, collisions=np.zeros_like(delivery.collisions)
            )

        monkeypatch.setattr(vectorized_module, "slot_delivery",
                            collision_free)
        with pytest.raises(EquivalenceError,
                           match="collision counts differ: 0 vs"):
            assert_distribution_equivalent(self.vectorized(tmp_path),
                                           reference)


def point_with_collisions(counts):
    """A PointResult whose trials differ only in their collisions."""
    trials = [TrialResult(rounds=10, collisions=c, duration=10.0)
              for c in counts]
    return PointResult(scenario="s", point={}, seeds=[None] * len(trials),
                       stats=CampaignStats.aggregate(trials), trials=trials)


class TestCollisionRule:
    """Which collision check applies is decided by the runs' data."""

    def test_collision_free_runs_agree(self):
        assert_distribution_equivalent(point_with_collisions([0] * 50),
                                       point_with_collisions([0] * 50))

    def test_collision_free_run_admits_none_on_the_other_side(self):
        """Beacon gating cannot collide: one collision anywhere fails,
        however noisy a per-trial comparison would call it."""
        with pytest.raises(EquivalenceError,
                           match="collision counts differ: 0 vs 1"):
            assert_distribution_equivalent(
                point_with_collisions([0] * 50),
                point_with_collisions([0] * 49 + [1]),
            )

    def test_colliding_runs_compare_per_trial_means(self):
        """The scratch-run figures: 3 vs 6 collisions over 100 trials
        are compatible draws of one distribution."""
        assert_distribution_equivalent(
            point_with_collisions([1] * 3 + [0] * 97),
            point_with_collisions([2] * 3 + [0] * 97),
        )

    def test_incompatible_collision_means_fail(self):
        with pytest.raises(EquivalenceError,
                           match="per-trial collision means incompatible"):
            assert_distribution_equivalent(
                point_with_collisions([1] * 5 + [0] * 95),
                point_with_collisions([3] * 60 + [0] * 40),
            )

    def test_constant_collisions_must_match_exactly(self):
        """Deterministic runs collide identically in every trial: zero
        spread leaves no tolerance."""
        assert_distribution_equivalent(point_with_collisions([2] * 20),
                                       point_with_collisions([2] * 20))
        with pytest.raises(EquivalenceError, match="incompatible"):
            assert_distribution_equivalent(point_with_collisions([2] * 20),
                                           point_with_collisions([3] * 20))

    def test_bare_stats_compare_exactly(self):
        """Without per-trial samples there is no per-trial statistic;
        the totals must match."""
        a = point_with_collisions([1] * 3 + [0] * 97).stats
        b = point_with_collisions([2] * 3 + [0] * 97).stats
        with pytest.raises(EquivalenceError, match="collision counts differ"):
            assert_distribution_equivalent(a, b)


class TestConnectivityHarnessHasTeeth:
    """Deliberately broken connectivity campaigns must be *flagged*."""

    def spatial_point(self, tmp_path, tag, **params):
        base = {"shadowing_db": 3.0, "shadowing_seed": 5,
                "sensitivity_dbm": -92.0}
        scenario = campaign_scenario(
            "spatial", dict(base, **params), trials=200,
            topology=SPATIAL_TOPOLOGY,
        )
        return run_campaign(
            scenario, cache_dir=tmp_path / f"cache-{tag}",
            engine="vectorized",
        ).points[0]

    def test_flags_mis_scaled_pdr_matrix(self, tmp_path):
        """A 6 dB transmit-power drop rescales every link's PDR — the
        miss-rate compatibility check must notice."""
        nominal = self.spatial_point(tmp_path, "nominal")
        weak = self.spatial_point(tmp_path, "weak", tx_power_dbm=-6.0)
        with pytest.raises(EquivalenceError, match="incompatible"):
            assert_distribution_equivalent(weak, nominal)

    def test_flags_dropped_interference_mask(self, tmp_path):
        """Silently dropping the jammer mask (burst=0) makes the
        channel clean — the harness must flag it against the jammed
        campaign."""
        def point(tag, burst):
            scenario = campaign_scenario(
                "interference",
                {"period": 8, "burst": burst, "jam_loss": 0.9,
                 "base_data_loss": 0.05},
                trials=200,
            )
            return run_campaign(
                scenario, cache_dir=tmp_path / f"cache-{tag}",
                engine="vectorized",
            ).points[0]

        jammed = point("jammed", 3)
        unjammed = point("unjammed", 0)
        with pytest.raises(EquivalenceError, match="incompatible"):
            assert_distribution_equivalent(unjammed, jammed)


class TestHarnessHasTeeth:
    """The negative side: incompatible campaigns must be *flagged*."""

    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        return run_campaign(
            campaign_scenario("bernoulli",
                              {"beacon_loss": 0.05, "data_loss": 0.02},
                              trials=200),
            cache_dir=tmp_path_factory.mktemp("cache"),
            engine="vectorized",
        ).points[0]

    def make_point(self, tmp_path, *, trials=200, duration=2000.0, **params):
        base = dict({"beacon_loss": 0.05, "data_loss": 0.02}, **params)
        scenario = campaign_scenario("bernoulli", base, trials=trials)
        scenario = dataclasses.replace(
            scenario,
            simulation=dataclasses.replace(
                scenario.simulation, duration=duration
            ),
        )
        return run_campaign(
            scenario, cache_dir=tmp_path / "cache", engine="vectorized"
        ).points[0]

    def test_flags_different_loss_rates(self, baseline, tmp_path):
        """A deliberately mismatched campaign — 25x the data loss —
        must fail the miss-rate compatibility check."""
        skewed = self.make_point(tmp_path, data_loss=0.5)
        with pytest.raises(EquivalenceError, match="miss rate incompatible"):
            assert_distribution_equivalent(skewed, baseline)

    def test_flags_different_trial_counts(self, baseline, tmp_path):
        smaller = self.make_point(tmp_path, trials=100)
        with pytest.raises(EquivalenceError, match="trial counts differ"):
            assert_distribution_equivalent(smaller, baseline)

    def test_flags_different_horizons(self, baseline, tmp_path):
        """A different duration changes the deterministic structure —
        caught by the exact totals check, not drowned in CI width."""
        shorter = self.make_point(tmp_path, duration=1000.0)
        with pytest.raises(EquivalenceError,
                           match="rounds differ|totals differ"):
            assert_distribution_equivalent(shorter, baseline)
        # The escape hatch for deliberate cross-scenario comparisons:
        # same loss rates over different horizons are rate-compatible
        # once the structural check is waived.
        assert_distribution_equivalent(
            shorter, baseline, require_same_totals=False
        )

    def test_flags_missing_radio_accounting(self, baseline, tmp_path):
        with_radio = run_campaign(
            campaign_scenario(
                "bernoulli", {"beacon_loss": 0.05, "data_loss": 0.02},
                trials=200, radio=RadioSpec(payload_bytes=16, diameter=3),
            ),
            cache_dir=tmp_path / "cache", engine="vectorized",
        ).points[0]
        with pytest.raises(EquivalenceError, match="radio accounting"):
            assert_distribution_equivalent(with_radio, baseline)

    def test_label_prefixes_failures(self, baseline, tmp_path):
        skewed = self.make_point(tmp_path, data_loss=0.5)
        with pytest.raises(EquivalenceError, match="^mykind: "):
            assert_distribution_equivalent(skewed, baseline, label="mykind")


class TestKolmogorovSmirnov:
    """The KS building blocks behave like the textbook says."""

    def test_identical_samples_have_zero_statistic(self):
        sample = [1.0, 2.0, 5.0, 5.0, 9.0]
        assert ks_statistic(sample, list(sample)) == 0.0

    def test_disjoint_samples_have_unit_statistic(self):
        assert ks_statistic([1.0, 2.0], [10.0, 11.0, 12.0]) == 1.0

    def test_statistic_is_symmetric(self):
        a = [0.1, 0.5, 0.9, 1.3]
        b = [0.2, 0.6, 0.7]
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ks_statistic([], [1.0])

    def test_critical_value_shrinks_with_samples(self):
        assert ks_critical_value(1000, 1000) < ks_critical_value(10, 10)

    def test_shifted_distributions_exceed_threshold(self):
        a = [float(i) for i in range(100)]
        b = [float(i) + 50.0 for i in range(100)]
        assert ks_statistic(a, b) > ks_critical_value(len(a), len(b))


class TestSingleTrialEntryPoints:
    """run_trial / run_trials_vectorized agree with campaign results."""

    def test_run_trial_vectorized_matches_batch_kernel(self):
        context = context_for(switching_scenario(
            loss=LossSpec("bernoulli", {})
        ))
        params = {"beacon_loss": 0.1, "data_loss": 0.1, "seed": 42}
        single = run_trial(context, "bernoulli", params, engine="vectorized")
        batch = run_trials_vectorized(
            context, "bernoulli",
            {"beacon_loss": 0.1, "data_loss": 0.1}, [42],
        )
        assert single.to_dict() == batch.results()[0].to_dict()

    def test_deterministic_quantities_match_reference_exactly(self):
        """Rounds, totals, deadline flags, switch delays — everything
        the timeline decides — must equal the reference, per trial."""
        context = context_for(switching_scenario(loss=None))
        vec = run_trial(context, "bernoulli",
                        {"beacon_loss": 0.2, "seed": 5}, engine="vectorized")
        ref = run_trial(context, "bernoulli",
                        {"beacon_loss": 0.2, "seed": 5}, engine="reference")
        assert vec.rounds == ref.rounds
        assert vec.collisions == ref.collisions == 0
        assert vec.switch_delays == ref.switch_delays
        assert set(vec.messages) == set(ref.messages)
        for name in vec.messages:
            assert vec.messages[name][2] == ref.messages[name][2]
        assert set(vec.chains) == set(ref.chains)
        for app in vec.chains:
            assert vec.chains[app][1] == ref.chains[app][1]
        assert vec.beacon_heard[1] == ref.beacon_heard[1]
