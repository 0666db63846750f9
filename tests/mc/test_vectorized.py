"""Determinism, fallback, and plumbing of the vectorized engine.

Three claims beyond distribution equivalence (which
``test_equivalence.py`` owns):

* **Determinism** — equal seeds give byte-identical results however
  the trials are batched: one call vs split calls, tiny tensor chunks,
  ``jobs=1`` vs a process pool, repeated runs.
* **Fallback** — ``engine="vectorized"`` never errors on unsupported
  features; it falls back to the reference simulator and the
  campaign/CLI report what actually ran.  Every built-in loss kind
  (``glossy`` included) and both node policies vectorize, so the tests
  reach the fallback through a beacon host outside the deployment, an
  uncompilable context, or a loss kind that lowers onto no sampling
  primitive.
* **Plumbing** — the batch executor produces exactly the per-trial
  payload shape the aggregator expects, on both the tensor path and
  the scalar-fallback path.
"""

import dataclasses
import json

import pytest

from repro.api import LossSpec, Scenario, SimulationSpec, TopologySpec
from repro.api.experiment import synthesize_scenarios
from repro.cli import main
from repro.core import Mode, SchedulingConfig
from repro.core.app_model import Application
from repro.mc import run_campaign
from repro.mc import vectorized as vectorized_module
from repro.mc.campaign import scenario_context
from repro.mc.vectorized import VectorizeError, run_trials_vectorized
from repro.runtime.loss import build_loss
from repro.runtime.trial import (
    TrialBatch,
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


def context_for(scenario: Scenario):
    schedules, reports, _ = synthesize_scenarios([scenario])
    assert all(r.ok for r in reports[scenario.name].values())
    return build_context(scenario_context(scenario, schedules[scenario.name]))


def with_policy(scenario: Scenario, policy: str) -> Scenario:
    return dataclasses.replace(
        scenario,
        simulation=dataclasses.replace(scenario.simulation, policy=policy),
    )


def foreign_host_scenario(**overrides) -> Scenario:
    """The beacon host owns no task or message: neither compiled
    engine can mask it, so every request resolves to ``reference``."""
    return switching_scenario(
        simulation=SimulationSpec(duration=500.0, host_node="base_station"),
        **overrides,
    )


BERNOULLI = {"beacon_loss": 0.15, "data_loss": 0.1}
#: Heavy beacon loss: nodes miss switch beacons often enough to collide.
BELIEF = {"beacon_loss": 0.5, "data_loss": 0.1}
GLOSSY = {"link_success": 0.5}
LINE = TopologySpec("line", {"num_nodes": 4})


@pytest.fixture(scope="module")
def gated_context():
    return context_for(switching_scenario(loss=None))


@pytest.fixture(scope="module")
def belief_context():
    return context_for(with_policy(switching_scenario(loss=None),
                                   "local_belief"))


@pytest.fixture(scope="module")
def glossy_context():
    return context_for(switching_scenario(loss=None, topology=LINE))


class TestDeterminism:
    def dicts(self, batch):
        return [result.to_dict() for result in batch.results()]

    def test_batch_split_invariance(self, gated_context):
        """One call over all seeds == any split of the seed list —
        the invariant the campaign batching relies on."""
        seeds = list(range(10))
        whole = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds
        )
        split = TrialBatch.concat([
            run_trials_vectorized(
                gated_context, "bernoulli", BERNOULLI, seeds[:3]
            ),
            run_trials_vectorized(
                gated_context, "bernoulli", BERNOULLI, seeds[3:]
            ),
        ])
        assert self.dicts(whole) == self.dicts(split)

    def test_repeated_runs_identical(self, gated_context):
        first = run_trials_vectorized(
            gated_context, "gilbert_elliott", {}, [5, 6, 7]
        )
        second = run_trials_vectorized(
            gated_context, "gilbert_elliott", {}, [5, 6, 7]
        )
        assert self.dicts(first) == self.dicts(second)

    def test_tensor_chunking_cannot_change_results(
        self, gated_context, monkeypatch
    ):
        """A one-trial-per-chunk budget must reproduce the unchunked
        results exactly — each uniform is a pure function of its
        trial's key and draw index."""
        seeds = list(range(6))
        unchunked = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds
        )
        monkeypatch.setattr(vectorized_module, "TENSOR_BUDGET_BYTES", 1)
        chunked = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds
        )
        assert self.dicts(unchunked) == self.dicts(chunked)

    def test_negative_seeds_are_deterministic(self, gated_context):
        """``random.Random`` accepts negative seeds; the kernel must
        fold them into stream keys rather than crash, reproducibly."""
        first = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, [-5, -1]
        )
        second = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, [-5, -1]
        )
        assert self.dicts(first) == self.dicts(second)

    @pytest.mark.parametrize("case", ["glossy", "local_belief"])
    def test_new_paths_split_and_chunk_invariant(
        self, case, glossy_context, belief_context, monkeypatch
    ):
        """Glossy floods and the belief scan keep the batching
        invariant: byte-identical results across trial splits and
        across chunk sizes forced through the tensor budget."""
        if case == "glossy":
            context, kind, params = glossy_context, "glossy", GLOSSY
        else:
            context, kind, params = belief_context, "bernoulli", BELIEF
        seeds = list(range(10))
        whole = self.dicts(run_trials_vectorized(context, kind, params, seeds))
        split = self.dicts(TrialBatch.concat([
            run_trials_vectorized(context, kind, params, seeds[:2]),
            run_trials_vectorized(context, kind, params, seeds[2:]),
        ]))
        assert whole == split
        for budget in (1, 3 * 1024 * 1024):
            monkeypatch.setattr(vectorized_module, "TENSOR_BUDGET_BYTES",
                                budget)
            chunked = run_trials_vectorized(context, kind, params, seeds)
            assert self.dicts(chunked) == whole
        if case == "local_belief":
            # Missed switch beacons make the ablation collide.
            assert any(trial["collisions"] for trial in whole)

    def test_chunk_budget_counts_glossy_draws(self, glossy_context):
        """The glossy uniforms (one float64 per hop step, flood and
        topology node) outgrow the per-cell estimate of the other
        samplers; a chunk of them must still fit the tensor budget."""
        program = glossy_context.compiled()
        timeline = glossy_context.timeline()
        model = build_loss("glossy", GLOSSY, glossy_context.topology)
        sampler = vectorized_module.VECTOR_SAMPLERS["flood"](
            model, program, timeline, program.resolve_host(None),
        )
        floods = timeline.num_rounds + timeline.num_slots
        draws = (8 * model.simulator.num_steps * floods
                 * len(glossy_context.topology.nodes))
        chunk = vectorized_module._chunk_size(program, timeline, sampler)
        assert chunk * draws <= vectorized_module.TENSOR_BUDGET_BYTES

    def test_unseeded_trials_run(self, gated_context):
        results = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, [None, None]
        )
        assert len(results) == 2
        assert all(result.rounds > 0 for result in results.results())

    def make_scenario(self):
        return switching_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
            simulation=SimulationSpec(
                duration=1000.0, trials=12, seed=11,
                mode_requests=((300.0, "degraded"),),
            ),
        )

    def test_campaign_pooled_equals_in_process(self, tmp_path):
        """``jobs=1`` vs a real process pool: byte-identical campaign
        images, both on the vectorized engine."""
        kwargs = dict(cache_dir=tmp_path / "cache", engine="vectorized",
                      sweep={"data_loss": [0.0, 0.2]})
        solo = run_campaign(self.make_scenario(), jobs=1, **kwargs)
        pooled = run_campaign(self.make_scenario(), jobs=3, **kwargs)
        assert solo.engines == pooled.engines == {"switchy": "vectorized"}
        assert solo.to_dict()["points"] == pooled.to_dict()["points"]

    def test_campaign_repeat_identical(self, tmp_path):
        first = run_campaign(self.make_scenario(), jobs=1,
                             cache_dir=tmp_path / "a", engine="vectorized")
        second = run_campaign(self.make_scenario(), jobs=1,
                              cache_dir=tmp_path / "b", engine="vectorized")
        assert first.to_dict()["points"] == second.to_dict()["points"]


class TestFallbackLadder:
    def test_supported_scenario_resolves_vectorized(self, gated_context):
        for kind in (None, "perfect", "bernoulli", "gilbert_elliott",
                     "scripted_beacon", "trace_replay"):
            assert trial_engine(gated_context, kind, "vectorized") == \
                "vectorized"

    def test_glossy_and_local_belief_resolve_vectorized(
        self, glossy_context, belief_context
    ):
        """Neither Glossy floods nor the belief recurrence leave the
        tensor kernel: the local-belief timeline unrolls like the gated
        one, with the round ids the belief scan needs."""
        assert trial_engine(glossy_context, "glossy", "vectorized") == \
            "vectorized"
        timeline = belief_context.timeline()
        assert trial_engine(belief_context, "bernoulli", "vectorized") == \
            "vectorized"
        assert timeline.round_uid.shape == (timeline.num_rounds,)
        assert (timeline.round_reset >= 0).sum() == 2  # two mode switches
        assert timeline.slot_position.shape == (timeline.num_slots,)
        assert timeline.belief_transmits is not None

    def test_local_belief_foreign_host_falls_back_to_reference(self):
        """The ablation with a host outside the deployment: the
        timeline unrolls, but no compiled engine can mask the host, so
        the request falls back to the reference simulator — collisions
        included, bit for bit."""
        context = context_for(with_policy(
            foreign_host_scenario(loss=None), "local_belief"
        ))
        assert context.timeline() is not None
        assert trial_engine(context, "bernoulli", "vectorized") == \
            "reference"
        params = {"beacon_loss": 0.3, "data_loss": 0.1, "seed": 2}
        via_vectorized = run_trial(context, "bernoulli", params,
                                   engine="vectorized")
        reference = run_trial(context, "bernoulli", params,
                              engine="reference")
        assert via_vectorized.to_dict() == reference.to_dict()

    def test_uncompilable_context_falls_back_to_reference(self, monkeypatch):
        from repro.runtime.compiled import CompileError

        def refuse(*args, **kwargs):
            raise CompileError("deliberately unsupported")

        monkeypatch.setattr("repro.runtime.compiled.compile_program", refuse)
        context = context_for(switching_scenario(loss=None))
        assert context.timeline() is None
        assert trial_engine(context, "bernoulli", "vectorized") == "reference"
        params = {"beacon_loss": 0.1, "seed": 1}
        via_vectorized = run_trial(context, "bernoulli", params,
                                   engine="vectorized")
        reference = run_trial(context, "bernoulli", params,
                              engine="reference")
        assert via_vectorized.to_dict() == reference.to_dict()

    def test_foreign_host_falls_back_to_reference(self):
        context = context_for(foreign_host_scenario(loss=None))
        assert context.compiled() is not None  # compiles fine ...
        assert trial_engine(context, "bernoulli", "vectorized") == \
            "reference"  # ... but the host cannot be masked
        params = {"beacon_loss": 0.2, "data_loss": 0.1, "seed": 4}
        via_vectorized = run_trial(context, "bernoulli", params,
                                   engine="vectorized")
        reference = run_trial(context, "bernoulli", params,
                              engine="reference")
        assert via_vectorized.to_dict() == reference.to_dict()

    def test_unknown_loss_kind_falls_back_to_reference(
        self, gated_context, monkeypatch
    ):
        from repro.runtime import loss as loss_module

        class EveryOtherBeacon:
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
        assert trial_engine(gated_context, "every_other", "vectorized") == \
            "reference"

    def test_kernel_refuses_unsupported_inputs(self, gated_context):
        """Called directly (without the engine resolution), the kernel
        raises the typed error the resolution gates on."""
        with pytest.raises(VectorizeError, match="no vectorized sampler"):
            run_trials_vectorized(gated_context, "no_such_kind", {}, [1])
        foreign = context_for(foreign_host_scenario(loss=None))
        with pytest.raises(VectorizeError, match="outside the compiled"):
            run_trials_vectorized(foreign, "bernoulli", BERNOULLI, [1])

    def test_campaign_records_fallback_engine(self, tmp_path):
        """A foreign-host campaign requested as vectorized reports — and
        is bit-identical to — the reference engine."""
        def scenario():
            return switching_scenario(
                loss=LossSpec("bernoulli", dict(BERNOULLI)),
                simulation=SimulationSpec(duration=800.0, trials=6, seed=9,
                                          host_node="base_station"),
            )

        requested = run_campaign(scenario(), cache_dir=tmp_path / "cache",
                                 engine="vectorized")
        reference = run_campaign(scenario(), cache_dir=tmp_path / "cache",
                                 engine="reference")
        assert requested.engines == {"switchy": "reference"}
        assert requested.to_dict()["points"] == \
            reference.to_dict()["points"]


class TestExecutors:
    def make_context(self):
        return context_for(switching_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
        ))

    def test_execute_trial_echoes_engine_used(self):
        context = self.make_context()
        payload = execute_trial(context, {
            "loss": {"kind": "bernoulli", "params": dict(BERNOULLI, seed=5)},
            "engine": "vectorized", "trial": 3, "seed": 5,
            "point": 0, "scenario": "switchy",
        })
        assert payload["engine_used"] == "vectorized"
        assert payload["trial"] == 3 and payload["seed"] == 5
        assert payload["point"] == 0 and payload["scenario"] == "switchy"

    def test_batch_matches_kernel(self):
        context = self.make_context()
        outcome = execute_trial_batch(context, {
            "scenario": "switchy", "point": 1,
            "trials": [(0, 21), (1, 22), (2, 23)],
            "loss": {"kind": "bernoulli", "params": dict(BERNOULLI)},
            "engine": "vectorized",
        })
        assert outcome["engine_used"] == "vectorized"
        direct = run_trials_vectorized(
            context, "bernoulli", dict(BERNOULLI), [21, 22, 23]
        )
        assert set(outcome) == {"scenario", "point", "engine_used", "batch"}
        assert outcome["point"] == 1 and outcome["scenario"] == "switchy"
        assert len(outcome["batch"]) == 3
        assert [r.to_dict() for r in outcome["batch"].results()] == [
            r.to_dict() for r in direct.results()
        ]

    def test_batch_scalar_fallback_is_bit_identical(self):
        """When the request falls back to a scalar engine, the batch path
        must reproduce the per-trial task path bit for bit —
        including the per-trial reseeding."""
        context = context_for(foreign_host_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
        ))
        outcome = execute_trial_batch(context, {
            "scenario": "switchy", "point": 0,
            "trials": [(0, 5), (1, 6)],
            "loss": {"kind": "bernoulli", "params": dict(BERNOULLI)},
            "engine": "vectorized",
        })
        assert outcome["engine_used"] == "reference"
        assert "base_station" in outcome["engine_reason"]
        for result, seed in zip(outcome["batch"].results(), [5, 6]):
            per_trial = execute_trial(context, {
                "loss": {"kind": "bernoulli",
                         "params": dict(BERNOULLI, seed=seed)},
                "engine": "reference",
            })
            assert per_trial["engine_used"] == "reference"
            payload = result.to_dict()
            for key in ("messages", "rounds", "radio_on", "chains"):
                assert payload[key] == per_trial[key]


class TestCliEngineReporting:
    def save_scenario(self, tmp_path, **overrides):
        fields = dict(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
            simulation=SimulationSpec(duration=400.0, trials=3, seed=7),
        )
        fields.update(overrides)
        scenario = switching_scenario(**fields)
        path = tmp_path / "vec.scenario.json"
        scenario.save(path)
        return path

    def test_cli_reports_vectorized_engine(self, tmp_path, capsys):
        path = self.save_scenario(tmp_path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: vectorized" in out
        assert "(requested" not in out

    def test_cli_reports_fallback_with_requested_engine(
        self, tmp_path, capsys
    ):
        """When vectorized falls back, the CLI must say what ran *and*
        what was asked for."""
        scenario = Scenario.load(self.save_scenario(tmp_path))
        scenario = dataclasses.replace(
            scenario,
            simulation=dataclasses.replace(
                scenario.simulation, host_node="base_station"
            ),
        )
        path = tmp_path / "foreign.scenario.json"
        scenario.save(path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: reference (requested vectorized)" in out

    @pytest.mark.parametrize("case", ["glossy", "local_belief"])
    def test_cli_reports_new_paths_vectorized(self, case, tmp_path, capsys):
        overrides = (
            dict(loss=LossSpec("glossy", dict(GLOSSY)), topology=LINE)
            if case == "glossy" else {}
        )
        scenario = Scenario.load(self.save_scenario(tmp_path, **overrides))
        if case == "local_belief":
            scenario = with_policy(scenario, "local_belief")
        path = tmp_path / f"{case}.scenario.json"
        scenario.save(path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: vectorized" in out
        assert "(requested" not in out

    def test_cli_default_engine_unchanged(self, tmp_path, capsys):
        path = self.save_scenario(tmp_path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: fast" in out
        assert "(requested" not in out

    def test_cli_json_records_trial_engines(self, tmp_path, capsys):
        path = self.save_scenario(tmp_path)
        out_json = tmp_path / "stats.json"
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized",
                     "--json", str(out_json)]) == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert payload["trial_engines"] == {"switchy": "vectorized"}
