"""Fast-path equivalence: compiled trials == reference simulator, bit for bit.

The compiled round-program engine (``repro.runtime.compiled`` +
``repro.mc.fastpath``) claims *bit-identical* trial summaries to
``summarize_trace`` over the reference :class:`RuntimeSimulator` — not
statistically equal, **equal**: the fast path consumes the very same
``random.Random`` stream in the very same order.  This suite asserts
that over a matrix of seeds × node policies × loss models (including
``TraceReplayLoss`` and topology-backed ``glossy`` floods) × scenarios
with mode changes and radio accounting, plus the automatic fallback to
the reference engine for loss kinds the fast path has no sampler for.
"""

import dataclasses

import pytest

from repro.api import LossSpec, RadioSpec, Scenario, SimulationSpec, TopologySpec
from repro.api.experiment import synthesize_scenarios
from repro.core import Mode, SchedulingConfig
from repro.core.app_model import Application
from repro.mc import run_campaign
from repro.mc.campaign import scenario_context
from repro.mc.fastpath import SAMPLER_BUILDERS
from repro.runtime.compiled import CompileError, compile_program
from repro.runtime.loss import supports_loss_kind
from repro.runtime.simulator import NodePolicy
from repro.runtime.trial import (
    build_context,
    execute_trial,
    execute_trial_batch,
    run_trial,
    trial_engine,
)


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
    """Two modes, runtime mode requests, nodes named for topologies."""
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


def context_for(scenario: Scenario):
    schedules, reports, _ = synthesize_scenarios([scenario])
    assert all(r.ok for r in reports[scenario.name].values())
    return build_context(scenario_context(scenario, schedules[scenario.name]))


def assert_engines_identical(context, kind, params):
    reference = run_trial(context, kind, params, engine="reference")
    fast = run_trial(context, kind, params, engine="fast")
    assert fast.to_dict() == reference.to_dict()
    return reference


#: Coordinates for the spatial kind — names match the workload's nodes,
#: with 9-14 m links sitting on the PDR waterfall at -92 dBm sensitivity.
POSITIONS = {
    "n0": [0.0, 0.0], "n1": [12.0, 0.0], "n2": [12.0, 9.0], "n3": [0.0, 14.0],
}

#: (loss kind, params-per-seed factory, scenario extras) matrix rows.
LOSS_MATRIX = [
    ("perfect", lambda seed: {}, {}),
    ("bernoulli",
     lambda seed: {"beacon_loss": 0.15, "data_loss": 0.1, "seed": seed}, {}),
    ("gilbert_elliott",
     lambda seed: {"p_good_to_bad": 0.1, "p_bad_to_good": 0.4,
                   "loss_good": 0.02, "loss_bad": 0.8, "seed": seed}, {}),
    ("scripted_beacon",
     lambda seed: {"drops": {str(3 + seed): ["n1"], "10": ["n1", "n2"]}}, {}),
    ("trace_replay",
     lambda seed: {"beacon": [["n1"], ["n0", "n1", "n2"], []],
                   "data": [["n0", "n1", "n2"], ["n2"]], "on_end": "wrap"},
     {}),
    ("glossy",
     lambda seed: {"link_success": 0.9, "seed": seed},
     {"topology": TopologySpec("line", {"num_nodes": 4})}),
    ("spatial",
     lambda seed: {"shadowing_db": 3.0, "shadowing_seed": 5,
                   "sensitivity_dbm": -92.0, "seed": seed},
     {"topology": TopologySpec(
         "uniform_random", {"positions": POSITIONS, "comm_range": 40.0})}),
    ("matrix_trace",
     lambda seed: {"matrices": [{"pdr": {}, "default": 0.9},
                                {"pdr": {"n0": {"n2": 0.3}}, "default": 0.7}],
                   "on_end": "wrap", "seed": seed}, {}),
    ("time_varying",
     lambda seed: {"beacon_loss": 0.05, "data_loss": 0.15,
                   "shape": "periodic", "period": 10, "amplitude": 0.8,
                   "seed": seed}, {}),
    ("interference",
     lambda seed: {"period": 8, "burst": 3, "jam_loss": 0.9,
                   "base_data_loss": 0.05, "affected": ["n1", "n2"],
                   "seed": seed}, {}),
]


class TestEquivalenceMatrix:
    """Bit-identical summaries across seeds × policies × loss models."""

    @pytest.fixture(scope="class")
    def contexts(self):
        cache = {}

        def get(policy: str, extras: dict):
            key = (policy, repr(extras))
            if key not in cache:
                scenario = switching_scenario(**extras)
                scenario = dataclasses.replace(
                    scenario,
                    simulation=dataclasses.replace(
                        scenario.simulation, policy=policy
                    ),
                )
                cache[key] = context_for(scenario)
            return cache[key]

        return get

    @pytest.mark.parametrize("policy", ["beacon_gated", "local_belief"])
    @pytest.mark.parametrize(
        "kind,params_of,extras", LOSS_MATRIX,
        ids=[row[0] for row in LOSS_MATRIX],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_across_engines(
        self, contexts, policy, kind, params_of, extras, seed
    ):
        context = contexts(policy, extras)
        assert trial_engine(context, kind) == "fast"
        reference = assert_engines_identical(context, kind, params_of(seed))
        # The matrix scenario switches modes; make sure both switches
        # actually completed so the mode-change path is exercised.
        assert len(reference.switch_delays) == 2

    def test_radio_accounting_identical(self, contexts):
        """Radio-on accumulation must match in floating point exactly."""
        scenario = switching_scenario(
            radio=RadioSpec(payload_bytes=16, diameter=3),
            loss=LossSpec("bernoulli", {}),
        )
        context = context_for(scenario)
        params = {"beacon_loss": 0.1, "data_loss": 0.1, "seed": 7}
        reference = assert_engines_identical(context, "bernoulli", params)
        assert reference.total_radio_on() > 0.0

    def test_local_belief_collisions_identical(self, contexts):
        """The ablation's unsafe collisions are counted identically.

        Heavy beacon loss across mode changes makes stale local beliefs
        collide with the new mode's slots; at least one seed here must
        produce collisions, or the collision path went untested.
        """
        context = contexts("local_belief", {})
        observed = 0
        for seed in range(6):
            params = {"beacon_loss": 0.5, "data_loss": 0.1, "seed": seed}
            reference = assert_engines_identical(context, "bernoulli", params)
            observed += reference.collisions
        assert observed > 0

    def test_beacon_gated_is_collision_free(self, contexts):
        context = contexts("beacon_gated", {})
        params = {"beacon_loss": 0.5, "data_loss": 0.1, "seed": 3}
        reference = assert_engines_identical(context, "bernoulli", params)
        assert reference.collisions == 0


class TestFallback:
    """Unsupported features run the reference engine, transparently."""

    def test_unknown_loss_kind_falls_back(self, monkeypatch):
        """A loss kind that lowers onto no sampling primitive must not
        error — the trial silently runs on the reference simulator."""
        from repro.runtime import loss as loss_module

        class EveryOtherBeacon:
            """Drops every second beacon; declares no primitive."""

            def __init__(self):
                self.count = 0

            def beacon_receivers(self, host, nodes):
                self.count += 1
                return set(nodes) if self.count % 2 else {host}

            def data_receivers(self, sender, nodes, payload_bytes):
                return set(nodes)

        monkeypatch.setitem(
            loss_module._LOSS_KINDS, "every_other", (EveryOtherBeacon, False)
        )
        assert not supports_loss_kind("every_other")
        scenario = switching_scenario(loss=None)
        context = context_for(scenario)
        assert trial_engine(context, "every_other") == "reference"
        fast = run_trial(context, "every_other", {}, engine="fast")
        reference = run_trial(context, "every_other", {}, engine="reference")
        assert fast.to_dict() == reference.to_dict()
        # Roughly half the beacons are heard by everyone, half only by
        # the (implicit) host — evidence the custom model really ran.
        heard, expected = fast.beacon_heard
        assert 0 < heard < expected

    def test_uncompilable_context_falls_back(self, monkeypatch):
        """compile_program raising CompileError routes trials to the
        reference engine and records the reason on the context."""
        import repro.runtime.trial as trial_module

        def refuse(*args, **kwargs):
            raise CompileError("deliberately unsupported")

        monkeypatch.setattr(
            "repro.runtime.compiled.compile_program", refuse
        )
        context = context_for(switching_scenario(loss=None))
        assert context.compiled() is None
        assert context.compile_error == "deliberately unsupported"
        assert trial_module.trial_engine(context, "bernoulli") == "reference"
        fast = run_trial(
            context, "bernoulli", {"beacon_loss": 0.1, "seed": 1},
            engine="fast",
        )
        reference = run_trial(
            context, "bernoulli", {"beacon_loss": 0.1, "seed": 1},
            engine="reference",
        )
        assert fast.to_dict() == reference.to_dict()

    def test_foreign_host_node_falls_back(self):
        """A beacon host outside the deployment's node universe (a
        base station owning no tasks or messages) has no compiled node
        index — the fast engine must step aside, not KeyError."""
        scenario = switching_scenario(
            loss=None,
            simulation=SimulationSpec(duration=500.0,
                                      host_node="base_station"),
        )
        context = context_for(scenario)
        assert context.compiled() is not None  # compiles fine ...
        assert trial_engine(context, "bernoulli") == "reference"  # ... but
        params = {"beacon_loss": 0.2, "data_loss": 0.1, "seed": 4}
        fast = run_trial(context, "bernoulli", params, engine="fast")
        reference = run_trial(context, "bernoulli", params,
                              engine="reference")
        assert fast.to_dict() == reference.to_dict()
        assert fast.rounds > 0

    def test_compile_error_on_bad_inputs(self):
        with pytest.raises(CompileError, match="unknown initial mode"):
            compile_program({}, {}, initial_mode=0)

    def test_engine_validation(self):
        context = context_for(switching_scenario(loss=None))
        with pytest.raises(ValueError, match="engine must be one of"):
            run_trial(context, None, None, engine="bogus")
        with pytest.raises(ValueError, match="engine must be one of"):
            execute_trial_batch(context, {
                "trials": [(0, 1)], "loss": None, "engine": "bogus",
            })
        with pytest.raises(ValueError, match="engine must be one of"):
            run_campaign(switching_scenario(
                loss=LossSpec("bernoulli", {}),
                simulation=SimulationSpec(duration=100.0, trials=1, seed=1),
            ), engine="warp")

    def test_sampler_registry_covers_builtin_kinds(self):
        """Every built-in kind lowers onto a primitive the fast path
        samples, or it silently runs at reference speed."""
        from repro.runtime.loss import (
            PRIMITIVES,
            available_loss_kinds,
            loss_primitive,
        )

        assert set(SAMPLER_BUILDERS) == set(PRIMITIVES)
        for kind in available_loss_kinds():
            assert loss_primitive(kind) in SAMPLER_BUILDERS, (
                f"built-in loss kind {kind!r} lowers onto no primitive"
            )


class TestForeignNodes:
    """Nodes a loss model cannot place never crash a trial."""

    @pytest.mark.parametrize(
        "kind,params_of,extras", LOSS_MATRIX,
        ids=[row[0] for row in LOSS_MATRIX],
    )
    def test_foreign_host_completes(self, kind, params_of, extras):
        """A beacon host outside the deployment (a base station owning
        no tasks or messages) runs on every kind and every engine
        request — except that a Glossy flood refuses an initiator
        outside its topology.  Never a ``KeyError``."""
        scenario = switching_scenario(
            simulation=SimulationSpec(duration=500.0,
                                      host_node="base_station"),
            **extras,
        )
        context = context_for(scenario)
        for engine in ("fast", "vectorized", "reference"):
            if kind == "glossy":
                with pytest.raises(ValueError, match="not in topology"):
                    run_trial(context, kind, params_of(3), engine=engine)
                continue
            result = run_trial(context, kind, params_of(3), engine=engine)
            heard, expected = result.beacon_heard
            assert result.rounds > 0
            assert heard <= expected

    def test_spatial_task_node_without_position(self):
        """A task node the topology gives no position has PDR 0 to and
        from every node: it never hears a beacon, on every engine."""
        positions = {name: POSITIONS[name] for name in ("n0", "n1", "n2")}
        context = context_for(switching_scenario(topology=TopologySpec(
            "uniform_random", {"positions": positions, "comm_range": 40.0},
        )))
        params = {"shadowing_db": 3.0, "shadowing_seed": 5,
                  "sensitivity_dbm": -92.0, "seed": 4}
        assert trial_engine(context, "spatial", "vectorized") == "vectorized"
        results = {
            engine: run_trial(context, "spatial", params, engine=engine)
            for engine in ("fast", "vectorized", "reference")
        }
        assert results["fast"].to_dict() == results["reference"].to_dict()
        for result in results.values():
            heard, expected = result.beacon_heard
            assert 0 < heard <= expected - result.rounds


class TestProgramCompilation:
    """The compiled program itself is sane and reusable."""

    def test_program_cached_on_context(self):
        context = context_for(switching_scenario(loss=None))
        assert context.compiled() is context.compiled()

    def test_program_shape(self):
        context = context_for(switching_scenario(loss=None))
        program = context.compiled()
        assert program.node_names == ("n0", "n1", "n2", "n3")
        assert program.full_mask == 0b1111
        assert set(program.modes) == set(context.deployments)
        for mode_id, mode_program in program.modes.items():
            deployment = context.deployments[mode_id]
            assert mode_program.num_rounds == deployment.num_rounds
            assert len(mode_program.slot_rows) == deployment.num_rounds
            # Flat arrays and per-round rows describe the same slots.
            assert mode_program.slot_offsets[-1] == mode_program.num_slots
            assert sum(len(r) for r in mode_program.slot_rows) == \
                mode_program.num_slots
        # Round uids partition [0, total) in sorted-mode order, exactly
        # like the reference simulator's assignment.
        total = sum(p.num_rounds for p in program.modes.values())
        assert len(program.uid_mode) == total

    def test_policy_recorded(self):
        scenario = switching_scenario(loss=None)
        scenario = dataclasses.replace(
            scenario,
            simulation=dataclasses.replace(
                scenario.simulation, policy="local_belief"
            ),
        )
        context = context_for(scenario)
        assert context.compiled().policy is NodePolicy.LOCAL_BELIEF


class TestCampaignEngines:
    """Engine selection threads through campaigns and the pool."""

    def make_scenario(self, trials=4):
        return switching_scenario(
            loss=LossSpec("bernoulli", {"beacon_loss": 0.1,
                                        "data_loss": 0.1}),
            simulation=SimulationSpec(
                duration=1000.0, trials=trials, seed=11,
                mode_requests=((300.0, "degraded"),),
            ),
        )

    def test_campaign_engines_bit_identical(self, tmp_path):
        kwargs = dict(jobs=1, cache_dir=tmp_path / "cache",
                      sweep={"data_loss": [0.0, 0.2]})
        fast = run_campaign(self.make_scenario(), engine="fast", **kwargs)
        reference = run_campaign(self.make_scenario(), engine="reference",
                                 **kwargs)
        assert len(fast.points) == len(reference.points) == 2
        for fast_point, reference_point in zip(fast.points,
                                               reference.points):
            assert fast_point.stats.to_dict() == \
                reference_point.stats.to_dict()

    def test_default_engine_is_fast(self, tmp_path):
        explicit = run_campaign(self.make_scenario(), jobs=1,
                                cache_dir=tmp_path / "a", engine="fast")
        default = run_campaign(self.make_scenario(), jobs=1,
                               cache_dir=tmp_path / "b")
        assert default.points[0].stats.to_dict() == \
            explicit.points[0].stats.to_dict()

    def test_execute_trial_honors_engine_key(self):
        context = context_for(self.make_scenario())
        task = {"loss": {"kind": "bernoulli",
                         "params": {"beacon_loss": 0.2, "seed": 5}}}
        fast = execute_trial(context, dict(task, engine="fast"))
        reference = execute_trial(context, dict(task, engine="reference"))
        # Payloads now carry the engine that actually ran; the trial
        # numbers themselves must still be bit-identical.
        assert fast.pop("engine_used") == "fast"
        assert reference.pop("engine_used") == "reference"
        assert fast == reference
