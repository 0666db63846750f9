"""Glossy flood simulator (paper Sec. II, [11]).

Glossy floods a packet through the whole network by synchronous
per-hop retransmission: the initiator transmits in hop-step 0, every
node that first receives the packet in step ``t`` retransmits in step
``t + 1``, and every node transmits the packet at most ``N`` times.
After ``H + 2N - 1`` steps (eq. 14) the flood terminates.

The simulator models independent per-link reception probabilities and
reproduces Glossy's two key published properties, which the tests
check:

* with ideal links, *every* node receives the packet and the flood
  creates a virtual single-hop network;
* with per-link success ``p ≈ 0.9`` and ``N = 2``, flood-level
  reliability exceeds 99 % (the paper cites > 99.9 % measured).

Radio-on accounting follows the paper's Fig. 5 assumption: each
participating node keeps its radio on for the whole flood.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..core.rng import make_rng
from ..timing import DEFAULT_CONSTANTS, GlossyConstants, hop_time
from .topology import Topology


@dataclass
class FloodResult:
    """Outcome of one simulated Glossy flood.

    Attributes:
        initiator: Node that started the flood.
        received: Nodes that received the packet (includes initiator).
        first_rx_step: Hop-step of first reception per node (0 for the
            initiator); nodes that never received are absent.
        tx_counts: Transmissions performed per node.
        num_steps: Hop-steps the flood lasted (``H + 2N - 1``).
        duration: Flood duration in seconds for the given payload.
        radio_on_per_node: Radio-on seconds per node (whole flood).
    """

    initiator: str
    received: Set[str]
    first_rx_step: Dict[str, int]
    tx_counts: Dict[str, int]
    num_steps: int
    duration: float
    radio_on_per_node: Dict[str, float]

    def delivered_to_all(self, nodes) -> bool:
        return set(nodes) <= self.received

    @property
    def coverage(self) -> float:
        """Fraction of nodes that received the packet."""
        total = len(self.radio_on_per_node)
        return len(self.received) / total if total else 0.0


class GlossySimulator:
    """Simulates Glossy floods over a :class:`Topology`.

    Args:
        topology: The multi-hop network.
        link_success: Per-link, per-step reception probability in
            (0, 1]; 1.0 models ideal links.
        constants: Radio constants; ``constants.n_tx`` is Glossy's N.
        seed: RNG seed for reproducible loss patterns — an integer, a
            ``random.Random``, a ``numpy.random.Generator``, or ``None``
            (see :func:`repro.core.rng.make_rng`).

    Attributes:
        num_steps: Hop-steps every flood lasts, ``H + 2N - 1`` (eq. 14)
            — fixed at construction, since computing the diameter is
            the dominant cost of a flood.
    """

    def __init__(
        self,
        topology: Topology,
        link_success: float = 1.0,
        constants: GlossyConstants = DEFAULT_CONSTANTS,
        seed: "Optional[int | random.Random]" = None,
    ) -> None:
        if not 0.0 < link_success <= 1.0:
            raise ValueError("link_success must be in (0, 1]")
        self.topology = topology
        self.link_success = link_success
        self.constants = constants
        self.num_steps = topology.diameter + 2 * constants.n_tx - 1
        self._rng = make_rng(seed)

    def flood(self, initiator: str, payload_bytes: int) -> FloodResult:
        """Run one flood and return the per-node outcome.

        Args:
            initiator: Node transmitting first (the slot owner).
            payload_bytes: Payload size ``l`` (sets the hop time).
        """
        if initiator not in self.topology.graph:
            raise ValueError(f"initiator {initiator!r} not in topology")
        n_tx = self.constants.n_tx
        num_steps = self.num_steps

        received: Set[str] = {initiator}
        first_rx: Dict[str, int] = {initiator: 0}
        tx_counts: Dict[str, int] = {node: 0 for node in self.topology.nodes}
        # Nodes scheduled to transmit in the current step.
        transmitting: Set[str] = {initiator}

        for step in range(num_steps):
            if not transmitting:
                break
            new_receivers: Set[str] = set()
            # Sorted iteration keeps the RNG consumption order — and so
            # the sampled flood — identical across processes and hash
            # seeds; the Monte-Carlo layer depends on this determinism.
            for sender in sorted(transmitting):
                tx_counts[sender] += 1
                for neighbor in sorted(self.topology.graph.neighbors(sender)):
                    if neighbor in received or neighbor in new_receivers:
                        continue
                    if (
                        self.link_success >= 1.0
                        or self._rng.random() < self.link_success
                    ):
                        new_receivers.add(neighbor)
            for node in new_receivers:
                received.add(node)
                first_rx[node] = step + 1
            # Next step: fresh receivers relay, plus prior transmitters
            # that still have retransmissions left.
            transmitting = {
                node
                for node in (set(transmitting) | new_receivers)
                if tx_counts[node] < n_tx and node in received
            }

        per_hop = hop_time(payload_bytes, self.constants)
        duration = num_steps * per_hop
        radio_on = {node: duration for node in self.topology.nodes}
        return FloodResult(
            initiator=initiator,
            received=received,
            first_rx_step=first_rx,
            tx_counts=tx_counts,
            num_steps=num_steps,
            duration=duration,
            radio_on_per_node=radio_on,
        )

    def flood_reliability(
        self, initiator: str, payload_bytes: int, trials: int = 200
    ) -> float:
        """Monte-Carlo estimate of full-network delivery probability."""
        if trials < 1:
            raise ValueError("trials must be >= 1")
        successes = sum(
            1
            for _ in range(trials)
            if self.flood(initiator, payload_bytes).delivered_to_all(
                self.topology.nodes
            )
        )
        return successes / trials
