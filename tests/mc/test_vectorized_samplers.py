"""Property tests for the vectorized loss samplers.

:mod:`repro.mc.vectorized` has one tensor sampler per sampling
primitive of :mod:`repro.runtime.loss`; run on a kind's model, it must
realize the same marginal distributions as the scalar model, drawn
from counter-based streams (:func:`repro.core.rng.uniforms`) instead
of ``random.Random``.  The stochastic primitives (independent draws,
the Gilbert-Elliott chain) are checked with hypothesis-driven
statistical properties at very wide confidence levels plus an exact
replication of their recurrences; the
deterministic script primitive (scripted beacons, trace replay) must
agree with the reference models *exactly*, receiver set by receiver
set.

The samplers only touch a handful of program/timeline attributes, so
these tests drive them with minimal stand-ins — no synthesis needed.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import stream_keys, uniforms
from repro.mc.stats import wilson_interval
from repro.mc.vectorized import (
    VECTOR_SAMPLERS,
    _GilbertElliottVector,
    _GlossyVector,
    _IndependentVector,
    _PerfectVector,
    _ScriptVector,
)
from repro.net.topology import line, ring
from repro.runtime.loss import (
    PRIMITIVES,
    BernoulliLoss,
    GilbertElliottLoss,
    GlossyLoss,
    ScriptedBeaconLoss,
    TraceReplayLoss,
    available_loss_kinds,
    loss_primitive,
    supports_loss_kind,
)
from repro.runtime.simulator import NodePolicy

NODES = ("n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7")
HOST = 2

#: Wide z for CI containment checks — a per-example false-alarm rate
#: around 1e-9, so hypothesis can hammer the property without flakes.
Z_WIDE = 6.0


def fake_program(nodes=NODES):
    return SimpleNamespace(
        node_names=tuple(nodes),
        node_index={name: index for index, name in enumerate(nodes)},
        policy=NodePolicy.BEACON_GATED,
    )


def fake_timeline(rounds, slots, *, seed=0):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        num_rounds=rounds,
        num_slots=slots,
        slot_round=np.sort(
            rng.integers(0, rounds, size=slots)
        ).astype(np.intp),
        slot_sender=rng.integers(0, len(NODES), size=slots).astype(np.intp),
    )


def trial_keys(master, trials):
    return stream_keys(range(master, master + trials))


class TestBernoulliVector:
    @given(
        beacon_loss=st.floats(0.0, 0.9),
        data_loss=st.floats(0.0, 0.9),
        master=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_reception_rates_inside_wilson_ci(
        self, beacon_loss, data_loss, master
    ):
        model = BernoulliLoss(beacon_loss=beacon_loss, data_loss=data_loss)
        timeline = fake_timeline(rounds=60, slots=150)
        sampler = _IndependentVector(model, fake_program(), timeline, HOST)
        beacon, data = sampler.sample(trial_keys(master, 8))

        # The host hears every beacon, the sender its own flood —
        # exactly the reference models' ``always`` node.
        assert beacon[:, :, HOST].all()
        assert data[:, np.arange(timeline.num_slots),
                    timeline.slot_sender].all()

        free = np.delete(beacon, HOST, axis=2)
        low, high = wilson_interval(int(free.sum()), free.size, Z_WIDE)
        assert low <= 1.0 - beacon_loss <= high

        unforced = np.ones((timeline.num_slots, len(NODES)), dtype=bool)
        unforced[np.arange(timeline.num_slots), timeline.slot_sender] = False
        cells = data[:, unforced]
        low, high = wilson_interval(int(cells.sum()), cells.size, Z_WIDE)
        assert low <= 1.0 - data_loss <= high

    def test_zero_loss_is_lossless(self):
        sampler = _IndependentVector(
            BernoulliLoss(), fake_program(), fake_timeline(20, 40), HOST
        )
        beacon, data = sampler.sample(trial_keys(7, 3))
        assert beacon.all() and data.all()

    def test_trial_rows_depend_only_on_their_key(self):
        """Trial ``t``'s rows depend only on ``keys[t]`` — the
        invariant that makes results independent of batch splits."""
        timeline = fake_timeline(30, 60)
        sampler = _IndependentVector(
            BernoulliLoss(beacon_loss=0.3, data_loss=0.3),
            fake_program(), timeline, HOST,
        )
        keys = stream_keys([1, 2])
        together_b, together_d = sampler.sample(keys)
        alone_b, alone_d = sampler.sample(keys[1:])
        np.testing.assert_array_equal(together_b[1], alone_b[0])
        np.testing.assert_array_equal(together_d[1], alone_d[0])


class TestGilbertElliottVector:
    PARAMS = dict(p_good_to_bad=0.15, p_bad_to_good=0.35,
                  loss_good=0.02, loss_bad=0.8)

    def replay_states(self, advance):
        """The scalar-definition Markov walk over the channel-advance
        uniforms ``advance[trial, round, node]``."""
        trials, rounds, nodes = advance.shape
        states = np.zeros((trials, rounds, nodes), dtype=bool)
        for t in range(trials):
            bad = np.zeros(nodes, dtype=bool)
            for r in range(rounds):
                for n in range(nodes):
                    u = advance[t, r, n]
                    bad[n] = (u >= self.PARAMS["p_bad_to_good"]) if bad[n] \
                        else (u < self.PARAMS["p_good_to_bad"])
                states[t, r] = bad
        return states

    @given(master=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_recurrence_matches_scalar_definition_exactly(self, master):
        """The batched ``np.where`` recurrence must realize exactly the
        per-node chain the reference model defines, uniform by
        uniform — replayed here from the same slices of the trials'
        uniforms (advance, beacon, data)."""
        trials, rounds = 4, 40
        model = GilbertElliottLoss(**self.PARAMS)
        timeline = fake_timeline(rounds, 2 * rounds)
        sampler = _GilbertElliottVector(model, fake_program(), timeline, HOST)
        keys = trial_keys(master, trials)
        beacon, _data = sampler.sample(keys)

        u = uniforms(keys, (2 * rounds + timeline.num_slots, len(NODES)))
        states = self.replay_states(u[:, :rounds])
        loss = np.where(states, self.PARAMS["loss_bad"],
                        self.PARAMS["loss_good"])
        for t in range(trials):
            u_beacon = u[t, rounds : 2 * rounds]
            expected = u_beacon >= loss[t]
            expected[:, HOST] = True
            np.testing.assert_array_equal(beacon[t], expected)

    def test_burst_lengths_are_geometric(self):
        """BAD sojourns are geometric(p_bad_to_good): the chance a
        burst continues one more round is ``1 - p_bg``, whatever the
        burst's age — checked on the realized state sequences."""
        trials, rounds, nodes = 12, 400, len(NODES)
        states = self.replay_states(
            uniforms(trial_keys(99, trials), (rounds, nodes)))
        bad_now = states[:, :-1, :]
        bad_next = states[:, 1:, :]
        continued = int((bad_now & bad_next).sum())
        total = int(bad_now.sum())
        assert total > 1000  # enough bursts to judge
        low, high = wilson_interval(continued, total, Z_WIDE)
        assert low <= 1.0 - self.PARAMS["p_bad_to_good"] <= high
        # Memorylessness: continuation from *young* bursts (first bad
        # round after a good one) matches continuation overall.
        young = bad_now & ~np.pad(
            states[:, :-2, :], ((0, 0), (1, 0), (0, 0))
        )
        young_total = int(young.sum())
        young_continued = int((young & bad_next).sum())
        low, high = wilson_interval(young_continued, young_total, Z_WIDE)
        assert low <= 1.0 - self.PARAMS["p_bad_to_good"] <= high

    def test_entry_rate_matches_p_good_to_bad(self):
        trials, rounds, nodes = 12, 400, len(NODES)
        states = self.replay_states(
            uniforms(trial_keys(7, trials), (rounds, nodes)))
        good_now = ~states[:, :-1, :]
        entered = int((good_now & states[:, 1:, :]).sum())
        total = int(good_now.sum())
        low, high = wilson_interval(entered, total, Z_WIDE)
        assert low <= self.PARAMS["p_good_to_bad"] <= high


class TestScriptedBeaconVector:
    DROPS = {"0": ["n1"], "3": ["n1", "n5"], "7": ["n0", "n7"],
             "100": ["n2"]}

    def test_rows_equal_reference_receiver_sets(self):
        """Beacon ``r``'s receiver row must equal a fresh reference
        model's ``beacon_receivers`` on its r-th call, exactly."""
        rounds = 12
        timeline = fake_timeline(rounds, 2 * rounds)
        program = fake_program()
        sampler = _ScriptVector(
            ScriptedBeaconLoss(self.DROPS), program, timeline, HOST
        )
        beacon, data = sampler.sample(trial_keys(0, 3))
        assert data.all()  # scripted loss never touches data floods

        reference = ScriptedBeaconLoss(self.DROPS)
        for r in range(rounds):
            received = reference.beacon_receivers(NODES[HOST], set(NODES))
            expected = np.array([name in received for name in NODES])
            for t in range(3):  # one shared deterministic realization
                np.testing.assert_array_equal(beacon[t, r], expected)

    def test_host_immune_to_scripted_drop(self):
        timeline = fake_timeline(4, 8)
        sampler = _ScriptVector(
            ScriptedBeaconLoss({"1": [NODES[HOST], "n0"]}),
            fake_program(), timeline, HOST,
        )
        beacon, _ = sampler.sample(trial_keys(0, 1))
        assert beacon[0, 1, HOST]          # forced, like the reference
        assert not beacon[0, 1, 0]


class TestTraceReplayVector:
    BEACON = [["n0", "n1", "n2", "n3"], ["n1"], []]
    DATA = [["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"], ["n4"]]

    @pytest.mark.parametrize("wrap", [True, False])
    def test_rows_equal_reference_receiver_sets(self, wrap):
        """Replay the reference model flood by flood: the beacon
        cursor advances every round, the data cursor only when the
        slot's sender heard the beacon (the gating the vectorized
        sampler precomputes)."""
        rounds = 8
        timeline = fake_timeline(rounds, 3 * rounds, seed=3)
        on_end = "wrap" if wrap else "perfect"
        model = TraceReplayLoss(beacon=self.BEACON, data=self.DATA,
                                on_end=on_end)
        sampler = _ScriptVector(model, fake_program(), timeline, HOST)
        beacon, data = sampler.sample(trial_keys(0, 2))

        reference = TraceReplayLoss(beacon=self.BEACON, data=self.DATA,
                                    on_end=on_end)
        nodes = set(NODES)
        for r in range(rounds):
            received = reference.beacon_receivers(NODES[HOST], nodes)
            expected = np.array([name in received for name in NODES])
            np.testing.assert_array_equal(beacon[0, r], expected)
        for slot in range(timeline.num_slots):
            sender = int(timeline.slot_sender[slot])
            if not beacon[0, timeline.slot_round[slot], sender]:
                continue  # gated out: the reference never samples it
            received = reference.data_receivers(
                NODES[sender], nodes, payload_bytes=0
            )
            expected = np.array([name in received for name in NODES])
            np.testing.assert_array_equal(data[0, slot], expected)

    def test_empty_trace_is_perfect(self):
        timeline = fake_timeline(5, 10)
        sampler = _ScriptVector(
            TraceReplayLoss(), fake_program(), timeline, HOST
        )
        beacon, data = sampler.sample(trial_keys(0, 2))
        assert beacon.all() and data.all()


class TestGlossyVector:
    """Frontier propagation against the scalar flood simulator."""

    def beacon_rates(self, topology, link_success, host, floods=3000):
        nodes = tuple(topology.nodes)
        timeline = fake_timeline(floods, 0)
        sampler = _GlossyVector(GlossyLoss(topology, link_success),
                                fake_program(nodes), timeline, host)
        beacon, _ = sampler.sample(trial_keys(0, 1))
        return nodes, beacon[0].sum(axis=0)

    @pytest.mark.parametrize("topology,link_success",
                             [(line(4), 0.5), (ring(6), 0.4)],
                             ids=["line", "ring"])
    def test_reception_rates_match_scalar_floods(self, topology,
                                                 link_success):
        """Per-node reception rates of multi-hop floods: the tensor
        sampler and :class:`GlossyLoss` must agree at every hop
        distance (Wilson intervals at a very wide z)."""
        floods = 3000
        nodes, received = self.beacon_rates(topology, link_success, 0,
                                            floods)
        model = GlossyLoss(topology, link_success, seed=7)
        counts = dict.fromkeys(nodes, 0)
        for _ in range(floods):
            for name in model.beacon_receivers(nodes[0], set(nodes)):
                counts[name] += 1
        for index, name in enumerate(nodes):
            low_a, high_a = wilson_interval(int(received[index]), floods,
                                            Z_WIDE)
            low_b, high_b = wilson_interval(counts[name], floods, Z_WIDE)
            assert low_a <= high_b and low_b <= high_a, name
        # Reception decays with hop distance from the initiator.
        hops = topology.hops_from(nodes[0])
        far, near = max(nodes, key=hops.get), nodes[1]
        assert received[nodes.index(far)] < received[nodes.index(near)]

    def test_ideal_links_reach_everyone(self):
        nodes, received = self.beacon_rates(ring(6), 1.0, 2, floods=50)
        assert (received == 50).all()

    def test_program_nodes_outside_topology_never_receive(self):
        program = fake_program(("n0", "n1", "zz"))
        timeline = fake_timeline(20, 10)
        timeline.slot_sender = np.zeros(10, dtype=np.intp)
        sampler = _GlossyVector(GlossyLoss(line(3), 1.0), program,
                                timeline, 0)
        beacon, data = sampler.sample(trial_keys(0, 2))
        assert beacon[:, :, :2].all() and data[:, :, :2].all()
        assert not beacon[:, :, 2].any() and not data[:, :, 2].any()
        foreign_host = fake_program(("n0", "zz"))
        with pytest.raises(ValueError, match="not in topology"):
            _GlossyVector(GlossyLoss(line(3), 0.9), foreign_host,
                          fake_timeline(3, 0), 1)


class TestPerfectVector:
    def test_all_receive_and_no_stream_consumed(self):
        timeline = fake_timeline(6, 12)
        sampler = _PerfectVector(None, fake_program(), timeline, HOST)
        keys = stream_keys([5])
        beacon, data = sampler.sample(keys)
        assert beacon.all() and data.all()
        assert beacon.shape == (1, 6, len(NODES))
        assert data.shape == (1, 12, len(NODES))
        # Deterministic kinds draw nothing from the trial stream.
        assert sampler.draws == 0
        np.testing.assert_array_equal(keys, stream_keys([5]))


class TestRegistry:
    def test_every_builtin_kind_vectorizes(self):
        """Every built-in kind must lower onto a primitive the kernel
        samples, or campaigns silently lose the speedup."""
        assert set(VECTOR_SAMPLERS) == set(PRIMITIVES)
        for kind in available_loss_kinds():
            assert supports_loss_kind(kind), (
                f"built-in loss kind {kind!r} lowers onto no primitive"
            )
            assert loss_primitive(kind) in VECTOR_SAMPLERS

    def test_none_means_perfect(self):
        assert supports_loss_kind(None)
        assert loss_primitive(None) == loss_primitive("perfect") == "perfect"


class TestConnectivityVectors:
    """The connectivity kinds' tensor twins: forced bits and the
    degenerate (lossless / blackout) channels, without synthesis."""

    def spatial_model(self, spread):
        from repro.net import build_topology
        from repro.runtime.loss import SpatialLoss

        positions = {
            name: [index * spread, 0.0] for index, name in enumerate(NODES)
        }
        topology = build_topology(
            "uniform_random",
            {"positions": positions, "comm_range": max(spread * 10, 1.0)},
        )
        return SpatialLoss(topology, sensitivity_dbm=-92.0)

    def test_spatial_close_positions_lossless(self):

        timeline = fake_timeline(20, 40)
        sampler = _IndependentVector(
            self.spatial_model(0.5), fake_program(), timeline, HOST
        )
        beacon, data = sampler.sample(trial_keys(3, 2))
        assert beacon.all() and data.all()

    def test_spatial_far_positions_only_forced_bits(self):

        timeline = fake_timeline(20, 40)
        sampler = _IndependentVector(
            self.spatial_model(500.0), fake_program(), timeline, HOST
        )
        beacon, data = sampler.sample(trial_keys(3, 2))
        trials = beacon.shape[0]
        assert beacon[:, :, HOST].all()
        assert beacon.sum() == trials * timeline.num_rounds  # host bits only
        assert data[:, np.arange(timeline.num_slots),
                    timeline.slot_sender].all()
        assert data.sum() == trials * timeline.num_slots  # sender bits only

    def test_matrix_trace_degenerate_channels(self):
        from repro.runtime.loss import MatrixTraceLoss

        timeline = fake_timeline(6, 12)
        open_channel = _IndependentVector(
            MatrixTraceLoss(matrices=[{"pdr": {}, "default": 1.0}]),
            fake_program(), timeline, HOST,
        )
        beacon, data = open_channel.sample(trial_keys(5, 2))
        assert beacon.all() and data.all()

        closed = _IndependentVector(
            MatrixTraceLoss(matrices=[{"pdr": {}, "default": 0.0}]),
            fake_program(), timeline, HOST,
        )
        beacon, data = closed.sample(trial_keys(5, 2))
        assert beacon[:, :, HOST].all()
        assert np.delete(beacon, HOST, axis=2).sum() == 0

    def test_time_varying_scaled_to_zero_is_lossless(self):
        from repro.runtime.loss import TimeVaryingLoss

        model = TimeVaryingLoss(
            beacon_loss=0.5, data_loss=0.5, shape="ramp",
            ramp_rounds=5, scale_start=0.0, scale_end=0.0,
        )
        sampler = _IndependentVector(
            model, fake_program(), fake_timeline(10, 20), HOST
        )
        beacon, data = sampler.sample(trial_keys(9, 2))
        assert beacon.all() and data.all()

    def test_interference_blackout_rounds(self):
        from repro.runtime.loss import InterferenceLoss

        timeline = fake_timeline(8, 16)
        model = InterferenceLoss(period=2, burst=1, jam_loss=1.0)
        sampler = _IndependentVector(model, fake_program(), timeline, HOST)
        beacon, data = sampler.sample(trial_keys(13, 2))
        jammed_rounds = np.array([model.jammed(r) for r in range(8)])
        free = np.delete(beacon, HOST, axis=2)
        # Jammed rounds: nothing but the forced host bit gets through.
        assert free[:, jammed_rounds, :].sum() == 0
        # Clear rounds at base loss 0: everyone hears everything.
        assert free[:, ~jammed_rounds, :].all()
        for slot in range(timeline.num_slots):
            cells = data[:, slot, :]
            if jammed_rounds[timeline.slot_round[slot]]:
                # Only the forced sender bit survives a jammed round.
                assert cells[:, timeline.slot_sender[slot]].all()
                assert cells.sum() == cells.shape[0]
            else:
                assert cells.all()
