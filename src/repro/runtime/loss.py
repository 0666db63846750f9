"""Packet-loss models for the runtime simulator.

Loss happens at **flood granularity**: a beacon flood either reaches a
given node or not, and a data flood either reaches a given consumer or
not.  This matches how Glossy-based systems behave in practice — the
flood's constructive interference either locks a receiver in or the
whole flood is lost to that receiver — and it is the granularity at
which the paper argues TTW's safety (beacon gating) and reliability.

Models (all satisfy the :class:`LossModel` protocol and are selectable
by name through :func:`build_loss`, the Scenario JSON boundary):

=================  =============================================================
kind               behaviour
=================  =============================================================
``perfect``        no loss at all (:class:`PerfectLinks`)
``bernoulli``      i.i.d. per-(flood, receiver) losses (:class:`BernoulliLoss`)
``gilbert_elliott``  bursty two-state Markov channel per node
                   (:class:`GilbertElliottLoss`)
``scripted_beacon``  deterministic beacon drops by round index
                   (:class:`ScriptedBeaconLoss`)
``trace_replay``   replay a recorded reception sequence
                   (:class:`TraceReplayLoss`)
``glossy``         per-slot simulated Glossy flood over a topology
                   (:class:`GlossyLoss`)
``spatial``        position-derived per-link PDR matrix (log-distance
                   path loss + waterfall, :class:`SpatialLoss`)
``matrix_trace``   time-indexed per-link PDR matrices replayed round by
                   round (:class:`MatrixTraceLoss`)
``time_varying``   periodic/ramp modulation of base loss rates
                   (:class:`TimeVaryingLoss`)
``interference``   duty-cycled external jammer masking whole rounds
                   (:class:`InterferenceLoss`)
=================  =============================================================

Sampling primitives
-------------------

Every kind is defined once, here, as a description on one of four draw
primitives (its class attribute ``primitive``); the reference models
below, the ``fast`` bitmask samplers (:mod:`repro.mc.fastpath`) and the
``vectorized`` tensor samplers (:mod:`repro.mc.vectorized`) each
implement the primitives, not the kinds:

* ``independent`` (:class:`IndependentLoss`) — every receiver of a
  flood misses it independently; the kind gives the per-receiver miss
  probabilities from the round index, the initiator and the flood type
  (:meth:`IndependentLoss.miss_row`).  ``bernoulli``, ``spatial``,
  ``matrix_trace``, ``time_varying``, ``interference``.
* ``script`` (:class:`ScriptLoss`) — deterministic: the kind gives the
  n-th beacon event and the k-th data event (a receiver set, or ``None``
  for all nodes).  ``scripted_beacon``, ``trace_replay``.
* ``markov`` — the per-node two-state chain of ``gilbert_elliott``.
* ``flood`` — the simulated Glossy flood of ``glossy``.

``perfect`` draws nothing.  :func:`supports_loss_kind` tells whether a
kind lowers onto a primitive; a kind that does not (a custom model
without the attribute) runs on the reference simulator only.

Seeding and determinism
-----------------------

Every stochastic model accepts ``seed`` as an integer, a
:class:`random.Random`, a :class:`numpy.random.Generator`, or ``None``
(see :func:`repro.core.rng.make_rng`).  Given an integer seed, a model
produces the **same reception sequence on every platform and in every
process**: all node iteration happens in sorted name order, so the
random stream is consumed identically regardless of Python's hash
randomization.  This is the property the Monte-Carlo campaign layer
(:mod:`repro.mc`) builds on — trial ``i`` is fully described by
``(scenario, seed_i)`` and can be reproduced bit-identically from
those two values alone.
"""

from __future__ import annotations

import inspect
import json
import math
from typing import (
    AbstractSet, Dict, Iterable, List, Optional, Protocol, Sequence, Set,
)

from ..core.rng import SeedLike, make_rng
from ..net.glossy import GlossySimulator
from ..net.topology import Topology


class TraceExhaustedError(ValueError):
    """A replayed trace ran out of events with ``on_end="error"``.

    Raised by :class:`TraceReplayLoss` and :class:`MatrixTraceLoss`
    when the simulation asks for a flood past the end of the recorded
    sequence and the model was built with the strict exhaustion policy.
    """


#: Accepted values for the trace-exhaustion policy shared by
#: :class:`TraceReplayLoss` and :class:`MatrixTraceLoss`.
ON_END_CHOICES = ("wrap", "perfect", "error")


def _validate_on_end(on_end: str) -> str:
    if on_end not in ON_END_CHOICES:
        raise ValueError(
            f"on_end must be one of {', '.join(ON_END_CHOICES)}, "
            f"got {on_end!r}"
        )
    return on_end


def _replay_position(index: int, count: int, on_end: str, kind: str,
                     label: str) -> Optional[int]:
    """Where the ``index``-th request falls in a recorded sequence of
    ``count`` entries — the exhaustion rule of every replayed trace.

    Past the end (or on an empty trace) ``on_end`` decides: ``"wrap"``
    restarts from the beginning, ``"perfect"`` returns ``None`` (the
    flood is lossless), ``"error"`` raises :class:`TraceExhaustedError`.
    """
    if index < count:
        return index
    if on_end == "error":
        if not count:
            raise TraceExhaustedError(
                f"{kind}: empty {label} trace with on_end='error'"
            )
        raise TraceExhaustedError(
            f"{kind}: {label} trace exhausted after {count} entries "
            f"(entry {index} requested, on_end='error'); provide a longer "
            f"trace or choose on_end='wrap'/'perfect'"
        )
    if on_end == "wrap" and count:
        return index % count
    return None


class LossModel(Protocol):
    """Decides which nodes receive a given flood."""

    def beacon_receivers(self, host: str, nodes: Set[str]) -> Set[str]:
        """Nodes (excluding implicit host) that receive a beacon flood."""
        ...

    def data_receivers(
        self, sender: str, nodes: Set[str], payload_bytes: int
    ) -> Set[str]:
        """Nodes that receive a data flood initiated by ``sender``."""
        ...


class PerfectLinks:
    """No loss at all — every flood reaches every node."""

    primitive = "perfect"

    def beacon_receivers(self, host: str, nodes: Set[str]) -> Set[str]:
        return set(nodes)

    def data_receivers(
        self, sender: str, nodes: Set[str], payload_bytes: int
    ) -> Set[str]:
        return set(nodes)


class IndependentLoss:
    """The ``independent`` primitive: per-receiver independent misses.

    A kind implements one pure method, :meth:`miss_row`.  This base
    holds the rest, which every engine mirrors: a beacon opens the next
    round and data floods belong to the round of the latest beacon;
    receivers are visited in sorted name order, one draw from the
    model's ``random.Random`` stream each; the initiator receives its
    own flood (when it is among ``nodes``) without a draw; and no draw
    is made for a receiver whose miss probability is ``<= 0``.
    """

    primitive = "independent"
    #: Whether :meth:`miss_row` ignores the round index, so an engine
    #: may compute each (initiator, flood type) row once.
    round_invariant = False

    def __init__(self, seed: SeedLike) -> None:
        self._rng = make_rng(seed)
        self._round = 0

    def miss_row(self, round_index: int, initiator: str, beacon: bool,
                 receivers: Sequence[str]) -> List[float]:
        """Miss probability of each of ``receivers`` for the flood that
        ``initiator`` starts in round ``round_index`` (a beacon when
        ``beacon``, else data).  Pure: no state, no draws."""
        raise NotImplementedError

    def _sample(self, round_index: int, initiator: str, nodes: Set[str],
                beacon: bool) -> Set[str]:
        received = {initiator} if initiator in nodes else set()
        receivers = sorted(nodes)
        random = self._rng.random
        row = self.miss_row(round_index, initiator, beacon, receivers)
        for node, loss in zip(receivers, row):
            if node == initiator:
                continue
            if loss <= 0.0 or random() >= loss:
                received.add(node)
        return received

    def beacon_receivers(self, host: str, nodes: Set[str]) -> Set[str]:
        round_index = self._round
        self._round += 1
        return self._sample(round_index, host, nodes, beacon=True)

    def data_receivers(
        self, sender: str, nodes: Set[str], payload_bytes: int
    ) -> Set[str]:
        return self._sample(max(0, self._round - 1), sender, nodes,
                            beacon=False)


class ScriptLoss:
    """The ``script`` primitive: deterministic, scripted receiver sets.

    A kind implements two pure methods: :meth:`beacon_event` gives the
    receivers of the n-th beacon flood (0-based, counted across the
    run) and :meth:`data_event` those of the k-th data flood, each
    either a set of node names or ``None`` for all nodes.  The
    initiator of a flood always receives it, except under ``None``,
    where exactly ``nodes`` do.
    """

    primitive = "script"

    def __init__(self) -> None:
        self._beacons = 0
        self._data = 0

    def beacon_event(self, index: int,
                     nodes: AbstractSet[str]) -> Optional[AbstractSet[str]]:
        """Receivers of beacon flood ``index`` out of ``nodes``."""
        return None

    def data_event(self, index: int,
                   nodes: AbstractSet[str]) -> Optional[AbstractSet[str]]:
        """Receivers of data flood ``index`` out of ``nodes``."""
        return None

    @staticmethod
    def _replay(event: Optional[AbstractSet[str]], initiator: str,
                nodes: Set[str]) -> Set[str]:
        if event is None:
            return set(nodes)
        return (set(event) & set(nodes)) | {initiator}

    def beacon_receivers(self, host: str, nodes: Set[str]) -> Set[str]:
        event = self.beacon_event(self._beacons, nodes)
        self._beacons += 1
        return self._replay(event, host, nodes)

    def data_receivers(
        self, sender: str, nodes: Set[str], payload_bytes: int
    ) -> Set[str]:
        event = self.data_event(self._data, nodes)
        self._data += 1
        return self._replay(event, sender, nodes)


class BernoulliLoss(IndependentLoss):
    """Independent per-receiver flood losses.

    Args:
        beacon_loss: Probability a given node misses a beacon flood.
        data_loss: Probability a given node misses a data flood.
        seed: Integer seed, ``random.Random``, ``numpy.random.Generator``,
            or ``None`` (OS-seeded).
    """

    round_invariant = True

    def __init__(
        self,
        beacon_loss: float = 0.0,
        data_loss: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        for name, p in (("beacon_loss", beacon_loss), ("data_loss", data_loss)):
            if not isinstance(p, (int, float)) or isinstance(p, bool) \
                    or not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p!r}")
        self.beacon_loss = beacon_loss
        self.data_loss = data_loss
        super().__init__(seed)

    def miss_row(self, round_index: int, initiator: str, beacon: bool,
                 receivers: Sequence[str]) -> List[float]:
        loss = self.beacon_loss if beacon else self.data_loss
        return [loss] * len(receivers)


class ScriptedBeaconLoss(ScriptLoss):
    """Deterministic beacon drops for protocol experiments.

    The n-th beacon flood (0-based, counted across the run) is missed
    by exactly the nodes listed in ``drops[n]``.  Data floods are
    lossless.  Used to reproduce targeted failure scenarios, e.g. "node
    X misses the trigger beacon of a mode change".  ``drops=None`` (or
    ``{}``) means no drops at all — scenario files may carry the kind
    without parameters.
    """

    def __init__(self, drops: Optional[dict] = None) -> None:
        super().__init__()
        self.drops = {int(k): set(v) for k, v in (drops or {}).items()}

    def beacon_event(self, index: int,
                     nodes: AbstractSet[str]) -> Optional[AbstractSet[str]]:
        missing = self.drops.get(index)
        return set(nodes) - missing if missing else None


class TraceReplayLoss(ScriptLoss):
    """Replay a recorded reception sequence — losses from a real run.

    Where :class:`BernoulliLoss` and :class:`GilbertElliottLoss` are
    *parametric* channels, this model is *empirical*: it replays the
    exact per-flood receiver sets of an earlier execution (or a
    testbed log converted to the same shape).  Replaying the loss
    realization of a recorded trace against a *different* schedule or
    node policy answers "what would this exact interference have done
    to that design?" — the paired-comparison experiment parametric
    models can only approximate.

    Args:
        beacon: One receiver list per beacon flood, in round order.
        data: One receiver list per data flood, in slot order.
        on_end: What happens when a flood is requested past the end of
            the recorded sequence: ``"wrap"`` (default) restarts from
            the beginning, ``"perfect"`` falls open to lossless links,
            ``"error"`` raises :class:`TraceExhaustedError` — the
            strict mode for experiments where silently recycling a
            trace would invalidate the paired comparison.

    The replay is deterministic and ignores seeding entirely.  Use
    :meth:`from_trace` to lift the events out of a recorded
    :class:`~repro.runtime.trace.Trace`.
    """

    def __init__(
        self,
        beacon: Sequence[Iterable[str]] = (),
        data: Sequence[Iterable[str]] = (),
        on_end: str = "wrap",
    ) -> None:
        super().__init__()
        self.on_end = _validate_on_end(on_end)
        for name, events in (("beacon", beacon), ("data", data)):
            if isinstance(events, (str, bytes)) or not hasattr(
                events, "__iter__"
            ):
                raise ValueError(
                    f"{name} must be a sequence of receiver lists, "
                    f"got {events!r}"
                )
        self.beacon_events: List[Set[str]] = [set(event) for event in beacon]
        self.data_events: List[Set[str]] = [set(event) for event in data]

    @classmethod
    def from_trace(cls, trace, on_end: str = "wrap") -> "TraceReplayLoss":
        """Extract the reception events of a recorded simulation trace."""
        beacon = [sorted(record.beacon_receivers) for record in trace.rounds]
        data = [
            sorted(slot.receivers)
            for record in trace.rounds
            for slot in record.slots
        ]
        return cls(beacon=beacon, data=data, on_end=on_end)

    def _event(self, events: List[Set[str]], index: int,
               label: str) -> Optional[Set[str]]:
        position = _replay_position(index, len(events), self.on_end,
                                    "trace_replay", label)
        return None if position is None else events[position]

    def beacon_event(self, index: int,
                     nodes: AbstractSet[str]) -> Optional[AbstractSet[str]]:
        return self._event(self.beacon_events, index, "beacon")

    def data_event(self, index: int,
                   nodes: AbstractSet[str]) -> Optional[AbstractSet[str]]:
        return self._event(self.data_events, index, "data")


class GilbertElliottLoss:
    """Bursty interference: per-node two-state Gilbert-Elliott channel.

    The paper motivates TTW's reliability mechanisms with
    high-interference environments (the EWSN dependability competition
    [5]); interference there is *bursty*, not i.i.d.  Each node's
    channel alternates between a GOOD state (losses rare) and a BAD
    state (losses dominant) following a two-state Markov chain advanced
    once per beacon (i.e. per round).

    Args:
        p_good_to_bad: Transition probability GOOD -> BAD per round.
        p_bad_to_good: Transition probability BAD -> GOOD per round.
        loss_good: Flood-miss probability while GOOD.
        loss_bad: Flood-miss probability while BAD.
        seed: Integer seed, ``random.Random``, ``numpy.random.Generator``,
            or ``None`` (OS-seeded).

    The stationary average loss rate is
    ``pi_bad * loss_bad + (1 - pi_bad) * loss_good`` with
    ``pi_bad = p_gb / (p_gb + p_bg)`` — exposed as
    :meth:`average_loss_rate` so experiments can compare bursty vs.
    i.i.d. channels at equal average rates.  BAD-state sojourns are
    geometric with mean ``1 / p_bad_to_good`` rounds (the burst
    length).
    """

    primitive = "markov"

    def __init__(
        self,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.3,
        loss_good: float = 0.01,
        loss_bad: float = 0.8,
        seed: SeedLike = None,
    ) -> None:
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not isinstance(p, (int, float)) or isinstance(p, bool) \
                    or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if p_good_to_bad + p_bad_to_good == 0.0:
            raise ValueError("the chain must have at least one transition")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = make_rng(seed)
        self._bad: Dict[str, bool] = {}

    def average_loss_rate(self) -> float:
        """Stationary flood-miss probability of the channel."""
        pi_bad = self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def _advance(self, node: str) -> None:
        bad = self._bad.get(node, False)
        if bad:
            if self._rng.random() < self.p_bad_to_good:
                self._bad[node] = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self._bad[node] = True

    def _loss(self, node: str) -> float:
        return self.loss_bad if self._bad.get(node, False) else self.loss_good

    def beacon_receivers(self, host: str, nodes: Set[str]) -> Set[str]:
        # One channel step per round (the beacon starts the round).
        received = {host}
        for node in sorted(nodes):
            self._advance(node)
            if node == host:
                continue
            if self._rng.random() >= self._loss(node):
                received.add(node)
        return received

    def data_receivers(
        self, sender: str, nodes: Set[str], payload_bytes: int
    ) -> Set[str]:
        received = {sender}
        for node in sorted(nodes):
            if node == sender:
                continue
            if self._rng.random() >= self._loss(node):
                received.add(node)
        return received


class GlossyLoss:
    """Flood-accurate loss: every slot runs a simulated Glossy flood.

    Args:
        topology: The multi-hop network.
        link_success: Per-link, per-hop reception probability.
        beacon_payload: Beacon size in bytes (timing only).
        seed: Integer seed, ``random.Random``, ``numpy.random.Generator``,
            or ``None`` (OS-seeded).
    """

    primitive = "flood"

    def __init__(
        self,
        topology: Topology,
        link_success: float = 0.9,
        beacon_payload: int = 3,
        seed: SeedLike = None,
    ) -> None:
        self.topology = topology
        self.beacon_payload = beacon_payload
        self.simulator = GlossySimulator(
            topology, link_success=link_success, seed=seed
        )

    def beacon_receivers(self, host: str, nodes: Set[str]) -> Set[str]:
        result = self.simulator.flood(host, self.beacon_payload)
        return result.received & set(nodes)

    def data_receivers(
        self, sender: str, nodes: Set[str], payload_bytes: int
    ) -> Set[str]:
        result = self.simulator.flood(sender, payload_bytes)
        return result.received & set(nodes)


def _validate_probability(name: str, p, *, allow_one: bool = True) -> float:
    """Boundary-style check for a probability parameter."""
    upper_ok = (p <= 1.0) if allow_one else (p < 1.0)
    if not isinstance(p, (int, float)) or isinstance(p, bool) \
            or not (0.0 <= p and upper_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"{name} must be in {bound}, got {p!r}")
    return float(p)


class SpatialLoss(IndependentLoss):
    """Position-derived loss: log-distance path loss -> per-link PDR.

    The classic low-power-wireless propagation model ("Pister hack"):
    received signal strength falls off log-linearly with distance,
    optionally perturbed by per-link log-normal shadowing, and the
    packet delivery ratio rises linearly across a waterfall region
    around the radio's sensitivity threshold:

    .. math::

        RSSI(d) = P_{tx} - \\big(PL_0 + 10\\,n\\,\\log_{10}(d/d_0)\\big)
                  + X_{\\sigma}

        PDR = \\mathrm{clip}\\big((RSSI - S) / W,\\ 0,\\ 1\\big)

    The entire PDR matrix is computed **once at construction** from the
    topology's node positions; every flood then samples per-receiver
    Bernoulli losses against the source's PDR row.  A node without a
    position (outside the topology) has PDR 0 to and from every node.  Shadowing draws come
    from a *dedicated* stream (``shadowing_seed``) iterated in sorted
    node-pair order, so the matrix is byte-identical across processes
    and across trials — only the per-flood sampling is re-seeded by the
    campaign layer.

    Args:
        topology: A topology with node ``positions`` (build it with the
            ``grid2d`` or ``uniform_random`` kinds).
        path_loss_exponent: ``n`` — 2.0 free space, 3-4 indoors.
        reference_loss_db: ``PL_0``, path loss at ``reference_distance``.
        reference_distance: ``d_0`` in meters (> 0).
        tx_power_dbm: Transmit power ``P_tx``.
        sensitivity_dbm: Radio sensitivity ``S`` — PDR hits 0 when the
            RSSI falls to it.
        waterfall_width_db: ``W`` — dB span over which PDR climbs 0 -> 1.
        shadowing_db: Log-normal shadowing sigma (0 disables).
        shadowing_seed: Seed of the dedicated shadowing stream.
        symmetric: One shadowing draw per unordered pair (symmetric
            links) vs. independent draws per direction.
        seed: Per-flood sampling stream (re-seeded per MC trial).
    """

    round_invariant = True

    def __init__(
        self,
        topology: Topology,
        path_loss_exponent: float = 3.0,
        reference_loss_db: float = 55.0,
        reference_distance: float = 1.0,
        tx_power_dbm: float = 0.0,
        sensitivity_dbm: float = -90.0,
        waterfall_width_db: float = 10.0,
        shadowing_db: float = 0.0,
        shadowing_seed: int = 0,
        symmetric: bool = True,
        seed: SeedLike = None,
    ) -> None:
        if topology.positions is None:
            raise ValueError(
                "loss kind 'spatial' needs node positions; build the "
                "topology with kind 'grid2d' or 'uniform_random' (or pass "
                "explicit positions)"
            )
        if path_loss_exponent <= 0:
            raise ValueError(
                f"path_loss_exponent must be > 0, got {path_loss_exponent!r}"
            )
        if reference_distance <= 0:
            raise ValueError(
                f"reference_distance must be > 0, got {reference_distance!r}"
            )
        if waterfall_width_db <= 0:
            raise ValueError(
                f"waterfall_width_db must be > 0, got {waterfall_width_db!r}"
            )
        if shadowing_db < 0:
            raise ValueError(
                f"shadowing_db must be >= 0, got {shadowing_db!r}"
            )
        if not isinstance(symmetric, bool):
            raise ValueError(f"symmetric must be a boolean, got {symmetric!r}")
        self.topology = topology
        self.path_loss_exponent = float(path_loss_exponent)
        self.reference_loss_db = float(reference_loss_db)
        self.reference_distance = float(reference_distance)
        self.tx_power_dbm = float(tx_power_dbm)
        self.sensitivity_dbm = float(sensitivity_dbm)
        self.waterfall_width_db = float(waterfall_width_db)
        self.shadowing_db = float(shadowing_db)
        self.shadowing_seed = shadowing_seed
        self.symmetric = symmetric
        super().__init__(seed)
        self._pdr = self._compute_pdr_matrix()

    def pdr_from_distance(self, distance: float, shadow_db: float = 0.0) -> float:
        """The deterministic PDR of a link of length ``distance`` meters."""
        d = max(distance, self.reference_distance)
        path_loss = self.reference_loss_db + 10.0 * self.path_loss_exponent \
            * math.log10(d / self.reference_distance)
        rssi = self.tx_power_dbm - path_loss + shadow_db
        margin = rssi - self.sensitivity_dbm
        return min(1.0, max(0.0, margin / self.waterfall_width_db))

    def _compute_pdr_matrix(self) -> Dict[str, Dict[str, float]]:
        # Shadowing draws iterate sorted node pairs — one draw per
        # unordered pair when symmetric, one per ordered pair otherwise
        # — from a stream independent of the trial seed, so the matrix
        # is identical in every process (the sorted-node RNG rule).
        names = sorted(self.topology.graph.nodes)
        shadow_rng = make_rng(self.shadowing_seed, "shadowing_seed")
        shadows: Dict[tuple, float] = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.shadowing_db > 0.0:
                    draw = shadow_rng.gauss(0.0, self.shadowing_db)
                else:
                    draw = 0.0
                shadows[(a, b)] = draw
                if self.symmetric:
                    shadows[(b, a)] = draw
                elif self.shadowing_db > 0.0:
                    shadows[(b, a)] = shadow_rng.gauss(0.0, self.shadowing_db)
                else:
                    shadows[(b, a)] = 0.0
        matrix: Dict[str, Dict[str, float]] = {}
        for a in names:
            row: Dict[str, float] = {}
            for b in names:
                if a == b:
                    row[b] = 1.0
                    continue
                row[b] = self.pdr_from_distance(
                    self.topology.distance(a, b), shadows[(a, b)]
                )
            matrix[a] = row
        return matrix

    def pdr_matrix(self) -> Dict[str, Dict[str, float]]:
        """A copy of the per-link PDR matrix (``matrix[src][dst]``)."""
        return {src: dict(row) for src, row in self._pdr.items()}

    def miss_row(self, round_index: int, initiator: str, beacon: bool,
                 receivers: Sequence[str]) -> List[float]:
        row = self._pdr.get(initiator, {})
        return [1.0 - row.get(node, 0.0) for node in receivers]


class MatrixTraceLoss(IndependentLoss):
    """Time-indexed per-link PDR matrices replayed round by round.

    The generalization of :class:`TraceReplayLoss` from recorded
    receiver *sets* to recorded link *qualities*: entry ``t`` is a full
    connectivity matrix ``{src: {dst: pdr}}`` describing round ``t``,
    loaded inline or from a JSONL file (one matrix per line, optionally
    wrapped as ``{"pdr": {...}, "default": p}``).  Each beacon advances
    the round cursor; that round's matrix then governs both the beacon
    flood and every data flood of the round.

    Unlike raw trace replay, the matrices are *sampled*, not replayed
    verbatim — the model is stochastic (``seed`` re-seeded per trial)
    with time-varying per-link parameters, matching how testbed
    connectivity datasets (per-link PDR measured per time window) are
    published.

    Args:
        matrices: Inline list of matrices (mutually exclusive with
            ``path``).
        path: JSONL file with one matrix per line.
        on_end: Exhaustion policy past the last matrix: ``"wrap"``
            (default), ``"perfect"``, or ``"error"``
            (:class:`TraceExhaustedError`).
        default_pdr: PDR for links absent from a matrix (file-level
            ``"default"`` overrides per line).
        seed: Per-flood sampling stream (re-seeded per MC trial).
    """

    def __init__(
        self,
        matrices: Optional[Sequence[dict]] = None,
        path: Optional[str] = None,
        on_end: str = "wrap",
        default_pdr: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        self.on_end = _validate_on_end(on_end)
        self.default_pdr = _validate_probability("default_pdr", default_pdr)
        if (matrices is None) == (path is None):
            raise ValueError(
                "matrix_trace needs exactly one of 'matrices' (inline) "
                "or 'path' (JSONL file)"
            )
        if path is not None:
            matrices = self._load_jsonl(path)
        self._entries: List[tuple] = [
            self._normalize(index, entry) for index, entry in
            enumerate(matrices)
        ]
        if not self._entries:
            raise ValueError("matrix_trace needs at least one matrix")
        super().__init__(seed)

    @staticmethod
    def _load_jsonl(path: str) -> List[dict]:
        entries = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entries.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        raise ValueError(
                            f"matrix_trace: invalid JSON on line {line_no} "
                            f"of {path!r}: {exc}"
                        ) from None
        except OSError as exc:
            raise ValueError(
                f"matrix_trace: cannot read path {path!r}: {exc}"
            ) from None
        return entries

    def _normalize(self, index: int, entry) -> tuple:
        """Validate one matrix -> ``(rows, default)``."""
        if not isinstance(entry, dict):
            raise ValueError(
                f"matrix_trace: matrix {index} must be an object, "
                f"got {entry!r}"
            )
        default = self.default_pdr
        rows_in = entry
        if "pdr" in entry and isinstance(entry.get("pdr"), dict):
            rows_in = entry["pdr"]
            if "default" in entry:
                default = _validate_probability(
                    f"matrix {index} default", entry["default"]
                )
        rows: Dict[str, Dict[str, float]] = {}
        for src, row in rows_in.items():
            if not isinstance(row, dict):
                raise ValueError(
                    f"matrix_trace: matrix {index} row {src!r} must map "
                    f"receivers to PDR values, got {row!r}"
                )
            rows[str(src)] = {
                str(dst): _validate_probability(
                    f"matrix {index} pdr[{src}][{dst}]", p
                )
                for dst, p in row.items()
            }
        return rows, default

    def matrix_for_round(self, round_index: int) -> Optional[tuple]:
        """The ``(rows, default)`` entry governing ``round_index``.

        ``None`` means perfect links (the ``"perfect"`` policy past the
        end of the trace).  Raises :class:`TraceExhaustedError` under
        ``on_end="error"``.
        """
        position = _replay_position(round_index, len(self._entries),
                                    self.on_end, "matrix_trace", "matrix")
        return None if position is None else self._entries[position]

    def miss_row(self, round_index: int, initiator: str, beacon: bool,
                 receivers: Sequence[str]) -> List[float]:
        entry = self.matrix_for_round(round_index)
        if entry is None:
            return [0.0] * len(receivers)
        rows, default = entry
        row = rows.get(initiator, {})
        return [1.0 - row.get(node, default) for node in receivers]


class TimeVaryingLoss(IndependentLoss):
    """Base loss rates modulated over time — periodic or ramp.

    Models the slow link-quality dynamics real deployments see
    (day/night cycles, charging equipment, people movement): the
    configured ``beacon_loss``/``data_loss`` rates are scaled by a
    time-dependent factor and clamped to ``[0, 1]``:

    * ``shape="periodic"``: ``factor(t) = 1 + amplitude * sin(2 pi t /
      period)`` — loss oscillates around its base rate;
    * ``shape="ramp"``: factor climbs linearly from ``scale_start`` to
      ``scale_end`` over ``ramp_rounds`` rounds, then holds — a
      degrading (or recovering) channel.

    The round counter advances once per beacon; a round's data floods
    use that round's factor (:meth:`loss_at`).

    Args:
        beacon_loss: Base beacon flood-miss probability.
        data_loss: Base data flood-miss probability.
        shape: ``"periodic"`` or ``"ramp"``.
        period: Oscillation period in rounds (periodic).
        amplitude: Relative oscillation amplitude (periodic).
        ramp_rounds: Rounds to traverse the ramp (ramp).
        scale_start: Factor at round 0 (ramp).
        scale_end: Factor from ``ramp_rounds`` on (ramp).
        seed: Per-flood sampling stream (re-seeded per MC trial).
    """

    SHAPES = ("periodic", "ramp")

    def __init__(
        self,
        beacon_loss: float = 0.0,
        data_loss: float = 0.0,
        shape: str = "periodic",
        period: int = 20,
        amplitude: float = 0.5,
        ramp_rounds: int = 100,
        scale_start: float = 0.0,
        scale_end: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        self.beacon_loss = _validate_probability(
            "beacon_loss", beacon_loss, allow_one=False
        )
        self.data_loss = _validate_probability(
            "data_loss", data_loss, allow_one=False
        )
        if shape not in self.SHAPES:
            raise ValueError(
                f"shape must be one of {', '.join(self.SHAPES)}, "
                f"got {shape!r}"
            )
        if not isinstance(period, int) or isinstance(period, bool) \
                or period < 1:
            raise ValueError(f"period must be an integer >= 1, got {period!r}")
        if not isinstance(amplitude, (int, float)) or isinstance(
                amplitude, bool) or amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude!r}")
        if not isinstance(ramp_rounds, int) or isinstance(ramp_rounds, bool) \
                or ramp_rounds < 1:
            raise ValueError(
                f"ramp_rounds must be an integer >= 1, got {ramp_rounds!r}"
            )
        for name, value in (("scale_start", scale_start),
                            ("scale_end", scale_end)):
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        self.shape = shape
        self.period = period
        self.amplitude = float(amplitude)
        self.ramp_rounds = ramp_rounds
        self.scale_start = float(scale_start)
        self.scale_end = float(scale_end)
        super().__init__(seed)

    def factor(self, round_index: int) -> float:
        """The loss-scaling factor of round ``round_index`` (pure)."""
        if self.shape == "periodic":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * round_index / self.period
            )
        frac = min(1.0, round_index / self.ramp_rounds)
        return self.scale_start + (self.scale_end - self.scale_start) * frac

    def loss_at(self, round_index: int, base: float) -> float:
        """Effective loss probability at ``round_index`` (pure, clamped)."""
        return min(1.0, max(0.0, base * self.factor(round_index)))

    def miss_row(self, round_index: int, initiator: str, beacon: bool,
                 receivers: Sequence[str]) -> List[float]:
        base = self.beacon_loss if beacon else self.data_loss
        return [self.loss_at(round_index, base)] * len(receivers)


class InterferenceLoss(IndependentLoss):
    """Duty-cycled external jammer masking whole rounds.

    A periodic interferer (Wi-Fi beacons, a competing network, the EWSN
    dependability-competition jammer) is active ``burst`` rounds out of
    every ``period``, starting at ``offset``.  While active, every
    affected node suffers ``jam_loss`` on all floods; otherwise the base
    rates apply (:meth:`node_loss`).

    Args:
        period: Jammer duty-cycle period in rounds (>= 1).
        burst: Jammed rounds per period (``0 <= burst <= period``).
        offset: Round index at which the first burst starts.
        jam_loss: Flood-miss probability of affected nodes while jammed.
        base_beacon_loss: Beacon loss outside bursts (and for
            unaffected nodes).
        base_data_loss: Data loss outside bursts (and for unaffected
            nodes).
        affected: Node names in the jammer's footprint; ``None`` means
            every node.
        seed: Per-flood sampling stream (re-seeded per MC trial).
    """

    def __init__(
        self,
        period: int = 10,
        burst: int = 3,
        offset: int = 0,
        jam_loss: float = 1.0,
        base_beacon_loss: float = 0.0,
        base_data_loss: float = 0.0,
        affected: Optional[Iterable[str]] = None,
        seed: SeedLike = None,
    ) -> None:
        if not isinstance(period, int) or isinstance(period, bool) \
                or period < 1:
            raise ValueError(f"period must be an integer >= 1, got {period!r}")
        if not isinstance(burst, int) or isinstance(burst, bool) \
                or not 0 <= burst <= period:
            raise ValueError(
                f"burst must be an integer in [0, period={period}], "
                f"got {burst!r}"
            )
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ValueError(f"offset must be an integer, got {offset!r}")
        self.jam_loss = _validate_probability("jam_loss", jam_loss)
        self.base_beacon_loss = _validate_probability(
            "base_beacon_loss", base_beacon_loss, allow_one=False
        )
        self.base_data_loss = _validate_probability(
            "base_data_loss", base_data_loss, allow_one=False
        )
        if affected is not None and (
            isinstance(affected, (str, bytes))
            or not hasattr(affected, "__iter__")
        ):
            raise ValueError(
                f"affected must be a list of node names or null, "
                f"got {affected!r}"
            )
        self.period = period
        self.burst = burst
        self.offset = offset
        self.affected = None if affected is None else frozenset(
            str(node) for node in affected
        )
        super().__init__(seed)

    def jammed(self, round_index: int) -> bool:
        """Whether the jammer is active in round ``round_index`` (pure)."""
        return ((round_index - self.offset) % self.period) < self.burst

    def node_loss(self, node: str, round_index: int, base: float) -> float:
        """Effective loss of ``node`` in ``round_index`` (pure)."""
        if self.jammed(round_index) and (
            self.affected is None or node in self.affected
        ):
            return self.jam_loss
        return base

    def miss_row(self, round_index: int, initiator: str, beacon: bool,
                 receivers: Sequence[str]) -> List[float]:
        base = self.base_beacon_loss if beacon else self.base_data_loss
        return [self.node_loss(node, round_index, base) for node in receivers]


# -- the Scenario JSON boundary -----------------------------------------------

#: kind -> (constructor, needs_topology)
_LOSS_KINDS = {
    "perfect": (PerfectLinks, False),
    "bernoulli": (BernoulliLoss, False),
    "gilbert_elliott": (GilbertElliottLoss, False),
    "scripted_beacon": (ScriptedBeaconLoss, False),
    "trace_replay": (TraceReplayLoss, False),
    "glossy": (GlossyLoss, True),
    "spatial": (SpatialLoss, True),
    "matrix_trace": (MatrixTraceLoss, False),
    "time_varying": (TimeVaryingLoss, False),
    "interference": (InterferenceLoss, False),
}

#: Loss kinds whose realization is controlled by a ``seed`` parameter
#: (their constructor takes one).  The Monte-Carlo campaign layer
#: re-seeds exactly these per trial; the others are deterministic and
#: replay identically every trial.
SEEDABLE_KINDS = frozenset(
    kind for kind, (constructor, _) in _LOSS_KINDS.items()
    if "seed" in inspect.signature(constructor).parameters
)

#: Loss kinds that need a topology at construction time (``build_loss``
#: refuses them without one; ``Scenario.validate`` enforces it at the
#: JSON boundary).
TOPOLOGY_LOSS_KINDS = frozenset(
    kind for kind, (_, needs_topology) in _LOSS_KINDS.items()
    if needs_topology
)

#: The primitives a loss kind can lower onto: ``perfect`` draws
#: nothing, the other four are the draw primitives every trial engine
#: implements once (see the module docstring).
PRIMITIVES = ("perfect", "independent", "script", "markov", "flood")


def loss_primitive(kind: Optional[str]) -> Optional[str]:
    """The primitive loss ``kind`` lowers onto — ``"perfect"`` for
    ``None`` (no loss model) — or ``None`` when the kind is unknown or
    its class does not lower onto one of :data:`PRIMITIVES`."""
    if kind is None:
        return PerfectLinks.primitive
    entry = _LOSS_KINDS.get(kind)
    primitive = getattr(entry[0], "primitive", None) if entry else None
    return primitive if primitive in PRIMITIVES else None


def supports_loss_kind(kind: Optional[str]) -> bool:
    """Whether loss ``kind`` lowers onto a primitive, so that both
    compiled trial engines (``fast`` and ``vectorized``) run it; other
    kinds run on the reference simulator only."""
    return loss_primitive(kind) is not None


def available_loss_kinds() -> "tuple[str, ...]":
    """The loss-model kind names :func:`build_loss` accepts."""
    return tuple(sorted(_LOSS_KINDS))


def build_loss(
    kind: str,
    params: Optional[dict] = None,
    topology: Optional[Topology] = None,
) -> LossModel:
    """Build a loss model from its JSON description (kind + params).

    This is the single boundary every serialized scenario passes
    through — the API layer's ``LossSpec.build`` and the Monte-Carlo
    trial workers both call it — so validation lives here, in the
    repository's boundary style: name the offending parameter, show
    the value, list what is accepted.

    Args:
        kind: One of :func:`available_loss_kinds`.
        params: Keyword arguments of the model's constructor.  ``seed``
            accepts an integer, a ``random.Random``, a
            ``numpy.random.Generator``, or ``None`` uniformly across
            all stochastic kinds (only integers and ``None`` survive
            JSON serialization, of course).
        topology: Required by kinds flooding a real network
            (``glossy``).

    Raises:
        ValueError: unknown kind, unknown parameter names, or invalid
            parameter values.
    """
    params = dict(params or {})
    try:
        constructor, needs_topology = _LOSS_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown loss kind {kind!r}; known: "
            f"{', '.join(available_loss_kinds())}"
        ) from None
    if needs_topology:
        if topology is None:
            raise ValueError(f"loss kind {kind!r} needs a topology")
        args = (topology,)
    else:
        args = ()
    try:
        return constructor(*args, **params)
    except TypeError as exc:
        from ..core.validation import params_error

        raise params_error(f"loss kind {kind!r}", constructor, params,
                           exc) from None


def reseeded(kind: str, params: Optional[dict], seed: int) -> dict:
    """``params`` with ``seed`` replaced — a no-op for seedless kinds.

    The campaign layer derives one seed per trial and pushes it through
    here, so the *n*-th trial of a scenario is reproducible from the
    scenario file plus the campaign seed alone.
    """
    params = dict(params or {})
    if kind in SEEDABLE_KINDS:
        params["seed"] = seed
    return params
