"""Tests of the packet-loss models."""

import pytest

from repro.net import grid2d, line
from repro.runtime import (
    BernoulliLoss,
    GlossyLoss,
    InterferenceLoss,
    MatrixTraceLoss,
    PerfectLinks,
    SpatialLoss,
    TimeVaryingLoss,
    TraceExhaustedError,
    TraceReplayLoss,
    build_loss,
)
from repro.runtime.loss import ScriptedBeaconLoss

NODES = {"a", "b", "c", "d"}


class TestPerfectLinks:
    def test_everyone_receives(self):
        model = PerfectLinks()
        assert model.beacon_receivers("a", NODES) == NODES
        assert model.data_receivers("b", NODES, 10) == NODES


class TestBernoulliLoss:
    def test_zero_loss(self):
        model = BernoulliLoss(0.0, 0.0, seed=1)
        assert model.beacon_receivers("a", NODES) == NODES
        assert model.data_receivers("a", NODES, 10) == NODES

    def test_sender_always_receives_own_flood(self):
        model = BernoulliLoss(0.9, 0.9, seed=1)
        for _ in range(50):
            assert "a" in model.beacon_receivers("a", NODES)
            assert "b" in model.data_receivers("b", NODES, 10)

    def test_loss_rate_statistics(self):
        model = BernoulliLoss(beacon_loss=0.3, seed=42)
        misses = 0
        trials = 2000
        for _ in range(trials):
            received = model.beacon_receivers("a", NODES)
            misses += len(NODES) - len(received)
        rate = misses / (trials * (len(NODES) - 1))
        assert rate == pytest.approx(0.3, abs=0.03)

    def test_seeded_reproducibility(self):
        m1 = BernoulliLoss(0.5, 0.5, seed=7)
        m2 = BernoulliLoss(0.5, 0.5, seed=7)
        for _ in range(20):
            assert m1.beacon_receivers("a", NODES) == m2.beacon_receivers(
                "a", NODES
            )

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            BernoulliLoss(beacon_loss=1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(data_loss=-0.1)


class TestScriptedBeaconLoss:
    def test_drops_by_sequence_number(self):
        model = ScriptedBeaconLoss({1: {"b", "c"}})
        assert model.beacon_receivers("a", NODES) == NODES  # beacon 0
        assert model.beacon_receivers("a", NODES) == {"a", "d"}  # beacon 1
        assert model.beacon_receivers("a", NODES) == NODES  # beacon 2

    def test_host_never_drops(self):
        model = ScriptedBeaconLoss({0: {"a"}})
        assert "a" in model.beacon_receivers("a", NODES)

    def test_data_is_lossless(self):
        model = ScriptedBeaconLoss({0: {"b"}})
        assert model.data_receivers("b", NODES, 10) == NODES


class TestGlossyLoss:
    def test_ideal_links_reach_all(self):
        topo = line(4)
        model = GlossyLoss(topo, link_success=1.0, seed=1)
        nodes = set(topo.nodes)
        assert model.beacon_receivers("n0", nodes) == nodes
        assert model.data_receivers("n2", nodes, 10) == nodes

    def test_lossy_links_spatially_correlated(self):
        """On a line, a missed node implies everything beyond it is
        missed too (the flood cannot jump)."""
        topo = line(6)
        model = GlossyLoss(topo, link_success=0.6, seed=3)
        nodes = set(topo.nodes)
        for _ in range(30):
            received = model.data_receivers("n0", nodes, 10)
            indices = sorted(int(n[1:]) for n in received)
            assert indices == list(range(len(indices)))

class TestTraceReplayOnEnd:
    """Exhaustion is an explicit, validated policy — not an implicit
    wrap (regression for the cycle -> on_end rework)."""

    def test_wrap_restarts(self):
        model = TraceReplayLoss(beacon=[["a", "b"]], on_end="wrap")
        first = model.beacon_receivers("a", NODES)
        assert model.beacon_receivers("a", NODES) == first == {"a", "b"}

    def test_perfect_falls_open(self):
        model = TraceReplayLoss(beacon=[["a", "b"]], on_end="perfect")
        assert model.beacon_receivers("a", NODES) == {"a", "b"}
        assert model.beacon_receivers("a", NODES) == NODES

    def test_error_raises_at_exhaustion(self):
        model = TraceReplayLoss(beacon=[["a", "b"]], on_end="error")
        model.beacon_receivers("a", NODES)
        with pytest.raises(TraceExhaustedError, match="exhausted after 1"):
            model.beacon_receivers("a", NODES)

    def test_error_on_empty_trace(self):
        model = TraceReplayLoss(on_end="error")
        with pytest.raises(TraceExhaustedError, match="empty beacon trace"):
            model.beacon_receivers("a", NODES)

    def test_invalid_on_end_rejected_early(self):
        with pytest.raises(ValueError, match="on_end"):
            TraceReplayLoss(on_end="loop")
        with pytest.raises(ValueError, match="on_end"):
            build_loss("trace_replay", {"beacon": [["a"]], "on_end": "loop"})


class TestSpatialLoss:
    def test_close_grid_is_lossless(self):
        topo = grid2d(2, 2, spacing=2.0)
        model = SpatialLoss(topo, sensitivity_dbm=-92.0, seed=1)
        nodes = set(topo.nodes)
        assert model.beacon_receivers("n0_0", nodes) == nodes
        assert model.data_receivers("n1_1", nodes, 10) == nodes

    def test_far_nodes_never_receive(self):
        topo = grid2d(1, 2, spacing=500.0)
        model = SpatialLoss(topo, seed=1)
        for _ in range(20):
            assert model.beacon_receivers("n0_0", set(topo.nodes)) == {"n0_0"}

    def test_matrix_diagonal_is_one(self):
        topo = grid2d(2, 2, spacing=10.0)
        matrix = SpatialLoss(topo, seed=1).pdr_matrix()
        for node in topo.nodes:
            assert matrix[node][node] == 1.0

    def test_via_build_loss_with_topology(self):
        topo = grid2d(2, 2, spacing=10.0)
        model = build_loss(
            "spatial", {"sensitivity_dbm": -92.0}, topology=topo
        )
        assert isinstance(model, SpatialLoss)


class TestMatrixTraceLoss:
    MATRICES = [{"pdr": {}, "default": 1.0}, {"pdr": {}, "default": 0.0}]

    def test_round_indexed_matrices(self):
        model = MatrixTraceLoss(matrices=self.MATRICES, seed=1)
        assert model.beacon_receivers("a", NODES) == NODES  # round 0
        assert model.beacon_receivers("a", NODES) == {"a"}  # round 1

    def test_data_uses_current_round(self):
        model = MatrixTraceLoss(matrices=self.MATRICES, seed=1)
        model.beacon_receivers("a", NODES)
        assert model.data_receivers("b", NODES, 10) == NODES  # still round 0
        model.beacon_receivers("a", NODES)
        assert model.data_receivers("b", NODES, 10) == {"b"}  # round 1

    def test_on_end_policies(self):
        wrap = MatrixTraceLoss(matrices=self.MATRICES, on_end="wrap", seed=1)
        for _ in range(2):
            wrap.beacon_receivers("a", NODES)
        assert wrap.beacon_receivers("a", NODES) == NODES  # wrapped to 0

        perfect = MatrixTraceLoss(
            matrices=[{"pdr": {}, "default": 0.0}], on_end="perfect", seed=1
        )
        perfect.beacon_receivers("a", NODES)
        assert perfect.beacon_receivers("a", NODES) == NODES

        strict = MatrixTraceLoss(
            matrices=[{"pdr": {}, "default": 0.0}], on_end="error", seed=1
        )
        strict.beacon_receivers("a", NODES)
        with pytest.raises(TraceExhaustedError, match="exhausted after 1"):
            strict.beacon_receivers("a", NODES)

    def test_per_link_entries_override_default(self):
        model = MatrixTraceLoss(
            matrices=[{"pdr": {"a": {"b": 0.0}}, "default": 1.0}], seed=1
        )
        assert model.beacon_receivers("a", NODES) == NODES - {"b"}

    def test_jsonl_path_loading(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"pdr": {}, "default": 1.0}\n\n{"pdr": {}, "default": 0.0}\n'
        )
        model = MatrixTraceLoss(path=str(path), seed=1)
        assert model.beacon_receivers("a", NODES) == NODES
        assert model.beacon_receivers("a", NODES) == {"a"}

    def test_invalid_jsonl_rejected_at_boundary(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pdr": {}}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            MatrixTraceLoss(path=str(path))

    def test_missing_path_rejected(self):
        with pytest.raises(ValueError, match="cannot read"):
            MatrixTraceLoss(path="/nonexistent/trace.jsonl")

    def test_out_of_range_pdr_rejected_at_boundary(self):
        with pytest.raises(ValueError, match=r"pdr\[a\]\[b\]"):
            MatrixTraceLoss(matrices=[{"a": {"b": 1.5}}])
        with pytest.raises(ValueError, match="exactly one"):
            MatrixTraceLoss()
        with pytest.raises(ValueError, match="at least one"):
            MatrixTraceLoss(matrices=[])


class TestTimeVaryingLoss:
    def test_ramp_degrades(self):
        model = TimeVaryingLoss(
            data_loss=0.5, shape="ramp", ramp_rounds=10,
            scale_start=0.0, scale_end=2.0,
        )
        assert model.loss_at(0, 0.5) == 0.0
        assert model.loss_at(5, 0.5) == pytest.approx(0.5)
        assert model.loss_at(10, 0.5) == 1.0  # clamped
        assert model.loss_at(99, 0.5) == 1.0  # holds past the ramp

    def test_periodic_oscillates_around_base(self):
        model = TimeVaryingLoss(
            beacon_loss=0.2, shape="periodic", period=4, amplitude=1.0
        )
        assert model.loss_at(0, 0.2) == pytest.approx(0.2)
        assert model.loss_at(1, 0.2) == pytest.approx(0.4)
        assert model.loss_at(3, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_effective_loss_is_lossless(self):
        model = TimeVaryingLoss(
            beacon_loss=0.3, shape="ramp", ramp_rounds=5,
            scale_start=0.0, scale_end=0.0, seed=1,
        )
        for _ in range(10):
            assert model.beacon_receivers("a", NODES) == NODES

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="shape"):
            TimeVaryingLoss(shape="sawtooth")
        with pytest.raises(ValueError, match="period"):
            TimeVaryingLoss(period=0)
        with pytest.raises(ValueError, match="beacon_loss"):
            TimeVaryingLoss(beacon_loss=1.0)


class TestInterferenceLoss:
    def test_jam_pattern(self):
        model = InterferenceLoss(period=4, burst=2, offset=1)
        assert [model.jammed(t) for t in range(6)] == [
            False, True, True, False, False, True
        ]

    def test_jammed_rounds_blackout(self):
        model = InterferenceLoss(
            period=2, burst=1, jam_loss=1.0, seed=1
        )
        assert model.beacon_receivers("a", NODES) == {"a"}  # round 0 jammed
        assert model.beacon_receivers("a", NODES) == NODES  # round 1 clear

    def test_affected_subset(self):
        model = InterferenceLoss(
            period=1, burst=1, jam_loss=1.0, affected=["b"], seed=1
        )
        assert model.beacon_receivers("a", NODES) == NODES - {"b"}

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="burst"):
            InterferenceLoss(period=4, burst=5)
        with pytest.raises(ValueError, match="jam_loss"):
            InterferenceLoss(jam_loss=1.5)
        with pytest.raises(ValueError, match="affected"):
            InterferenceLoss(affected="b")
