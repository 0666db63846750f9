"""Committed seed corpus: campaign statistics pinned by digest.

One scenario per built-in loss kind, run on both compiled engines
(``fast`` and ``vectorized``) with fixed seeds, its
:class:`CampaignStats` serialized to canonical JSON and hashed.  The
digests below are part of the repository's contract: any change to
placement, shadowing draws, per-round sampling order, the lowering of
a loss kind onto its sampling primitive, or the seeding scheme shows up
here as a digest mismatch *before* it silently invalidates published
numbers.

If a change is intentional (a new RNG iteration rule, a model
parameter rename), re-pin with::

    PYTHONPATH=src python tests/mc/test_seed_corpus.py
"""

import hashlib
import json

import pytest

from repro.api import LossSpec, Scenario, SimulationSpec, TopologySpec
from repro.core import Mode, SchedulingConfig
from repro.core.app_model import Application
from repro.mc import run_campaign

POSITIONS = {
    "n0": [0.0, 0.0], "n1": [12.0, 0.0], "n2": [12.0, 9.0], "n3": [0.0, 14.0],
}

#: kind -> (loss params, scenario extras)
CORPUS = {
    "perfect": ({}, {}),
    "bernoulli": ({"beacon_loss": 0.15, "data_loss": 0.1}, {}),
    "gilbert_elliott": (
        {"p_good_to_bad": 0.1, "p_bad_to_good": 0.4, "loss_good": 0.02,
         "loss_bad": 0.8},
        {},
    ),
    "scripted_beacon": (
        {"drops": {"3": ["n1"], "10": ["n1", "n2"], "40": ["n0", "n3"]}},
        {},
    ),
    "trace_replay": (
        {"beacon": [["n1"], ["n0", "n1", "n2"], []],
         "data": [["n0", "n1", "n2"], ["n2"]], "on_end": "wrap"},
        {},
    ),
    "glossy": (
        {"link_success": 0.9},
        {"topology": TopologySpec("line", {"num_nodes": 4})},
    ),
    "spatial": (
        {"shadowing_db": 3.0, "shadowing_seed": 5, "sensitivity_dbm": -92.0},
        {"topology": TopologySpec(
            "uniform_random", {"positions": POSITIONS, "comm_range": 40.0})},
    ),
    "matrix_trace": (
        {"matrices": [{"pdr": {}, "default": 0.9},
                      {"pdr": {"n0": {"n2": 0.3}}, "default": 0.7}],
         "on_end": "wrap"},
        {},
    ),
    "time_varying": (
        {"beacon_loss": 0.05, "data_loss": 0.15, "shape": "periodic",
         "period": 10, "amplitude": 0.8},
        {},
    ),
    "interference": (
        {"period": 8, "burst": 3, "jam_loss": 0.9, "base_data_loss": 0.05,
         "affected": ["n1", "n2"]},
        {},
    ),
}

#: Engines every corpus entry is pinned on.
ENGINES = ("fast", "vectorized")

#: Pinned SHA-256 of the canonical stats JSON per (kind, engine) (see
#: the module docstring for the re-pin command).
DIGESTS = {
    ("bernoulli", "fast"):
        "daa4da900b66b5b2da77e0783e66b190d682716fb504b0560db82b588992ec28",
    ("gilbert_elliott", "fast"):
        "47329e26eadab1d43401b45efac95607338b272fefb0461e93645d5f60632f74",
    ("glossy", "fast"):
        "0750cc6ce86b0a14fdbdccd8e5d342bb0347120b0276da256cf9b39dffb24058",
    ("interference", "fast"):
        "92afc65ac80f2aa1edb4840e1297ce0328f9951574aca952dbdda417ad35a6ba",
    ("matrix_trace", "fast"):
        "739e0792de490de69e1f2d8e5d08771af588383eb0fded2ce8476a22f410f1a7",
    ("perfect", "fast"):
        "ec6353a5bac434437faeb253765d0f73c75d9671222fe5e5183ddea1564a366e",
    ("scripted_beacon", "fast"):
        "d509476007ff04b0782b845f476bf27370f6da4c0efbd269033fda55f98ce279",
    ("spatial", "fast"):
        "b4cee76f57ce1565b8ff2ad20d0bd65ebc16a96c3d85488830b6e6ea588eccc8",
    ("time_varying", "fast"):
        "3c9f419c82511a149e44d8f701a1291deb60dab6705a5e85a1aea2ced0727458",
    ("trace_replay", "fast"):
        "7ffb40c92604a050286e2702f8c65c924c1f1bbb8bf9e5ae362d494b13a9f555",
    ("bernoulli", "vectorized"):
        "842b1d5cefa4a9c9d66537fc1baf1e5ebae0c236ce97c9a8fdb543bfe280b01d",
    ("gilbert_elliott", "vectorized"):
        "87bc2a3b08071654e5c83aa7e237171c3c5b4cf3c86c0f7843c0c94f292ddba2",
    ("glossy", "vectorized"):
        "1fd1c05d93b7cdbec1c7c6f749c62cae19cb89dec013713c4a0ad342f6b729ec",
    ("interference", "vectorized"):
        "106dbe0689535aa049d8d1548f8b8b7d35f1c777ddd9c2b914524f814c916acd",
    ("matrix_trace", "vectorized"):
        "98ac898a1d5e6404f3b1d3dd7a0e2db0186dd78442c5e9405029ffdcdfb4c53d",
    ("perfect", "vectorized"):
        "ec6353a5bac434437faeb253765d0f73c75d9671222fe5e5183ddea1564a366e",
    ("scripted_beacon", "vectorized"):
        "d509476007ff04b0782b845f476bf27370f6da4c0efbd269033fda55f98ce279",
    ("spatial", "vectorized"):
        "047c5323272652ed9607587bad9df41d9e3ded1145aa4c5fd9da0deb1e23f8af",
    ("time_varying", "vectorized"):
        "747aea0907dbc809d5b7e726336bf27700eaf61a0ee10bce54af3d1c9ade9428",
    ("trace_replay", "vectorized"):
        "7ffb40c92604a050286e2702f8c65c924c1f1bbb8bf9e5ae362d494b13a9f555",
}


def pipeline(name, period, nodes):
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


def corpus_scenario(kind):
    params, extras = CORPUS[kind]
    normal = Mode("normal", [
        pipeline("a", 20.0, ["n0", "n1", "n2"]),
        pipeline("c", 40.0, ["n2", "n3"]),
    ])
    degraded = Mode("degraded", [pipeline("b", 40.0, ["n3", "n0"])])
    return Scenario(
        name=f"corpus-{kind}",
        modes=[normal, degraded],
        transitions=[("normal", "degraded"), ("degraded", "normal")],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        backend="greedy",
        loss=LossSpec(kind, dict(params)),
        simulation=SimulationSpec(
            duration=1000.0, trials=24, seed=11,
            mode_requests=((300.0, "degraded"), (700.0, "normal")),
        ),
        **extras,
    )


def campaign_digest(kind, engine, cache_dir):
    result = run_campaign(corpus_scenario(kind), cache_dir=cache_dir, jobs=1,
                          engine=engine)
    assert result.engines == {f"corpus-{kind}": engine}
    payload = json.dumps(result.points[0].stats.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kind,engine", [
    # The fast entries keep their bare kind ids.
    pytest.param(kind, engine,
                 id=kind if engine == "fast" else f"{kind}-{engine}")
    for engine in ENGINES for kind in sorted(CORPUS)
])
def test_campaign_digest_pinned(kind, engine, tmp_path):
    digest = campaign_digest(kind, engine, tmp_path / "cache")
    assert digest == DIGESTS[(kind, engine)], (
        f"{kind} on {engine}: campaign stats digest drifted — the "
        f"realized loss sequence changed for fixed seeds.  If "
        f"intentional, re-pin (see module docstring)."
    )


if __name__ == "__main__":  # the re-pin helper
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for engine in ENGINES:
            for kind in sorted(CORPUS):
                digest = campaign_digest(kind, engine, scratch)
                print(f'    ("{kind}", "{engine}"):\n        "{digest}",')
