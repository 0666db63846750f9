"""Discrete-event execution of TTW schedules (paper Sec. II, Fig. 2).

The simulator executes synthesized mode schedules over a network with
packet loss and reproduces the protocol behaviour the paper argues for:

* the host emits a beacon ``{round id, mode id, SB}`` at the start of
  every round; round ids are globally unique across modes, so one
  received beacon recovers the full system state;
* a node that misses the beacon **does not participate** in that round
  (``BEACON_GATED`` policy) — this is TTW's safety mechanism, and the
  simulator verifies it keeps slots collision-free under arbitrary
  loss and mode changes;
* the ``LOCAL_BELIEF`` policy is an ablation: nodes transmit based on
  their locally predicted schedule phase without hearing the current
  beacon, which is energy-equivalent but *unsafe* across mode changes
  (the tests demonstrate the collisions);
* mode changes follow the paper's two-phase protocol: announce the new
  mode id while old applications drain, then set the trigger bit
  ``SB = 1`` in the first round after the drain deadline; the new mode
  starts directly after that round, and remaining old-mode rounds are
  not executed.

Determinism: the simulator itself contains **no randomness** — all
stochastic behaviour lives in the injected :class:`LossModel`, and all
internal iteration over node sets happens in sorted order where it
feeds the loss model's RNG.  Given a seeded loss model, a run is a
pure function of its inputs, reproducible bit-for-bit in any process;
this is what the Monte-Carlo campaign layer (:mod:`repro.mc`) builds
on.  One simulation is a single sample — statistical evaluation over
many seeds, with confidence intervals, is ``repro.mc``'s job
(entry points: :mod:`repro.runtime.trial`,
``python -m repro.cli scenario mc``).

The full runtime model (rounds, beacons, node policies, loss models,
drift/sync analysis, seeding rules) is documented in
``docs/SIMULATION.md``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.latency import chain_latency
from ..core.modes import Mode
from ..timing import DEFAULT_CONSTANTS, GlossyConstants, slot_on_time
from .beacon import Beacon
from .deployment import ModeDeployment
from .loss import LossModel, PerfectLinks
from .trace import (
    ChainInstanceRecord,
    MessageInstanceRecord,
    ModeSwitchRecord,
    RoundRecord,
    SlotRecord,
    Trace,
)

#: Numeric slack for time comparisons.
EPS = 1e-9


class NodePolicy(enum.Enum):
    """How nodes decide to transmit in a slot."""

    BEACON_GATED = "beacon_gated"  # TTW: transmit only after hearing the beacon
    LOCAL_BELIEF = "local_belief"  # ablation: trust the local schedule phase


@dataclass(frozen=True)
class ModeRequest:
    """A runtime request to switch to another mode."""

    time: float
    target_mode_id: int


@dataclass(frozen=True)
class RadioTiming:
    """Parameters for radio-on accounting (optional)."""

    payload_bytes: int
    diameter: int
    constants: GlossyConstants = DEFAULT_CONSTANTS


class _NodeState:
    """Per-node runtime belief."""

    __slots__ = ("name", "mode_id", "round_uid", "stopped_apps")

    def __init__(self, name: str, mode_id: int) -> None:
        self.name = name
        self.mode_id = mode_id
        #: Last round uid the node believes has executed (None at boot).
        self.round_uid: Optional[int] = None
        #: True once the node learned a transition is in progress.
        self.stopped_apps = False


class RuntimeSimulator:
    """Executes deployments over a lossy network.

    Args:
        modes: Mode objects keyed by mode id (for chain accounting).
        deployments: Compiled deployment tables keyed by mode id.
        initial_mode: Mode id the system boots into.
        loss: Packet-loss model (default: perfect links).
        policy: Node transmission policy (default: TTW's beacon gating).
        radio: Optional radio timing for energy accounting.
    """

    def __init__(
        self,
        modes: Dict[int, Mode],
        deployments: Dict[int, ModeDeployment],
        initial_mode: int,
        loss: Optional[LossModel] = None,
        policy: NodePolicy = NodePolicy.BEACON_GATED,
        radio: Optional[RadioTiming] = None,
    ) -> None:
        if initial_mode not in deployments:
            raise ValueError(f"unknown initial mode id {initial_mode}")
        if set(modes) != set(deployments):
            raise ValueError("modes and deployments must have matching ids")
        self.modes = modes
        self.deployments = deployments
        self.initial_mode = initial_mode
        self.loss: LossModel = loss if loss is not None else PerfectLinks()
        self.policy = policy
        self.radio = radio

        # Globally unique round ids: uid -> (mode_id, round index).
        self._uid_of: Dict[Tuple[int, int], int] = {}
        self._round_of_uid: Dict[int, Tuple[int, int]] = {}
        uid = 0
        for mode_id in sorted(deployments):
            for idx in range(deployments[mode_id].num_rounds):
                self._uid_of[(mode_id, idx)] = uid
                self._round_of_uid[uid] = (mode_id, idx)
                uid += 1

        self.all_nodes: Set[str] = set()
        for deployment in deployments.values():
            self.all_nodes.update(deployment.node_tables)
            self.all_nodes.update(deployment.message_senders.values())
        # The host participates even when it hosts no task.
        self.host = "host" if "host" in self.all_nodes else None

    # ------------------------------------------------------------------
    def run(
        self,
        duration: float,
        mode_requests: Sequence[ModeRequest] = (),
        host_node: Optional[str] = None,
    ) -> Trace:
        """Simulate ``duration`` time units of protocol execution.

        Args:
            duration: Absolute simulation horizon (same unit as the
                schedules, milliseconds by convention).
            mode_requests: Mode-change requests, serviced in time order.
            host_node: Which node acts as host (defaults to a node named
                ``"host"`` or the lexicographically first node).

        Returns:
            A :class:`Trace` with rounds, message instances, chain
            instances, mode switches, and radio-on accounting.
        """
        host = host_node or self.host or sorted(self.all_nodes)[0]
        trace = Trace(duration=duration)
        trace.radio_on = {node: 0.0 for node in self.all_nodes}
        requests = sorted(mode_requests, key=lambda r: r.time)
        request_idx = 0

        current_id = self.initial_mode
        deployment = self.deployments[current_id]
        mode_origin = 0.0
        nodes = {name: _NodeState(name, current_id) for name in self.all_nodes}

        # Host transition state.
        pending_target: Optional[int] = None
        requested_at = 0.0
        announced_at: Optional[float] = None
        drain_deadline: Optional[float] = None
        #: Releases at/after this time do not start (per mode id).
        app_stop_time: Dict[int, float] = {}

        occurrence = 0  # (hyperperiod index, round index) cursor
        round_cursor = 0

        while True:
            if deployment.num_rounds == 0:
                break
            round_time = (
                mode_origin
                + occurrence * deployment.hyperperiod
                + deployment.round_starts[round_cursor]
            )
            if round_time >= duration - EPS:
                break

            # Service mode requests that arrived before this round.
            while (
                request_idx < len(requests)
                and requests[request_idx].time <= round_time + EPS
            ):
                request = requests[request_idx]
                request_idx += 1
                if pending_target is None and request.target_mode_id != current_id:
                    if request.target_mode_id not in self.deployments:
                        raise ValueError(
                            f"mode request for unknown id {request.target_mode_id}"
                        )
                    pending_target = request.target_mode_id
                    requested_at = request.time

            # Host beacon for this round.
            trigger = False
            beacon_mode = current_id
            if pending_target is not None:
                beacon_mode = pending_target
                if announced_at is None:
                    announced_at = round_time
                    drain_deadline = self._drain_deadline(
                        current_id, mode_origin, announced_at
                    )
                    app_stop_time[current_id] = announced_at
                if drain_deadline is not None and round_time >= drain_deadline - EPS:
                    trigger = True
            uid = self._uid_of[(current_id, round_cursor)]
            beacon = Beacon(round_id=uid, mode_id=beacon_mode, trigger=trigger)

            record = self._execute_round(
                trace,
                deployment,
                current_id,
                round_cursor,
                occurrence,
                round_time,
                mode_origin,
                beacon,
                host,
                nodes,
                app_stop_time.get(current_id),
            )
            trace.rounds.append(record)

            if trigger and pending_target is not None:
                # New mode starts directly after this round ends.
                new_origin = round_time + deployment.schedule.config.round_length
                trace.mode_switches.append(
                    ModeSwitchRecord(
                        requested_at=requested_at,
                        announced_at=announced_at or round_time,
                        trigger_round_time=round_time,
                        new_mode_start=new_origin,
                        from_mode=current_id,
                        to_mode=pending_target,
                    )
                )
                current_id = pending_target
                deployment = self.deployments[current_id]
                mode_origin = new_origin
                occurrence = 0
                round_cursor = 0
                pending_target = None
                announced_at = None
                drain_deadline = None
                for state in nodes.values():
                    # Nodes that heard the SB beacon switch; the others
                    # resynchronize on the next beacon they hear.
                    if state.name in record.beacon_receivers:
                        state.mode_id = current_id
                        state.stopped_apps = False
                        # For local-belief prediction: the next round is
                        # round 0 of the new mode, i.e. the successor of
                        # the new mode's last round in its cyclic order.
                        state.round_uid = self._uid_of[
                            (current_id, deployment.num_rounds - 1)
                        ]
                continue

            round_cursor += 1
            if round_cursor >= deployment.num_rounds:
                round_cursor = 0
                occurrence += 1

        self._account_chains(trace, app_stop_time, duration)
        return trace

    # ------------------------------------------------------------------
    def _drain_deadline(
        self, mode_id: int, mode_origin: float, announced_at: float
    ) -> float:
        """When all applications released before the announcement finish.

        For each application: the last release not after the
        announcement completes at ``release + deadline``; the drain is
        the max over applications (the host knows this statically).
        """
        mode = self.modes[mode_id]
        drain = announced_at
        for app in mode.applications:
            elapsed = max(0.0, announced_at - mode_origin)
            last_release = mode_origin + math.floor(elapsed / app.period) * app.period
            drain = max(drain, last_release + app.deadline)
        return drain

    # ------------------------------------------------------------------
    def _execute_round(
        self,
        trace: Trace,
        deployment: ModeDeployment,
        mode_id: int,
        round_index: int,
        occurrence: int,
        round_time: float,
        mode_origin: float,
        beacon: Beacon,
        host: str,
        nodes: Dict[str, _NodeState],
        stop_time: Optional[float],
    ) -> RoundRecord:
        # A host outside the deployment (a base station owning no
        # tasks or messages) is no node of the round.
        receivers = (
            self.loss.beacon_receivers(host, self.all_nodes) & self.all_nodes
        )
        record = RoundRecord(
            time=round_time,
            mode_id=mode_id,
            round_id=beacon.round_id,
            beacon_mode_id=beacon.mode_id,
            trigger=beacon.trigger,
            beacon_receivers=set(receivers),
        )

        # Beacon reception updates node state.
        for name in receivers:
            state = nodes[name]
            state.round_uid = beacon.round_id
            if beacon.mode_id != state.mode_id and not beacon.trigger:
                state.stopped_apps = True

        # Radio-on: every node wakes for the beacon slot.  The timing
        # model works in seconds; the simulation timeline (and the
        # trace's radio_on accounting) is in milliseconds.
        if self.radio is not None:
            beacon_on = 1e3 * slot_on_time(
                self.radio.constants.l_beacon,
                self.radio.diameter,
                self.radio.constants,
            )
            for node in self.all_nodes:
                trace.radio_on[node] += beacon_on

        # Each node resolves "which round is this?" once per round: from
        # the beacon if heard, from its advancing local belief otherwise.
        predicted_rounds: Dict[str, Optional[Tuple[int, int]]] = {}
        if self.policy is NodePolicy.LOCAL_BELIEF:
            for name, state in nodes.items():
                predicted_rounds[name] = self._predict_round(
                    state, name in receivers, beacon
                )

        messages = deployment.round_messages[round_index]
        for slot_index, message in enumerate(messages):
            sender = deployment.message_senders[message]
            slot = SlotRecord(slot_index=slot_index, message=message)

            transmitters = self._slot_transmitters(
                slot_index, beacon, receivers, predicted_rounds
            )
            slot.transmitters = sorted(transmitters)

            if len(transmitters) == 1 and sender in transmitters:
                slot.receivers = self.loss.data_receivers(
                    sender, self.all_nodes, payload_bytes=self._payload()
                )
            # Collisions and silent slots deliver nothing.
            record.slots.append(slot)

            if self.radio is not None and (receivers or transmitters):
                data_on = 1e3 * slot_on_time(
                    self.radio.payload_bytes,
                    self.radio.diameter,
                    self.radio.constants,
                )
                participants = receivers | transmitters
                for node in participants:
                    trace.radio_on[node] += data_on

            self._record_message_instance(
                trace,
                deployment,
                message,
                round_index,
                occurrence,
                round_time,
                mode_origin,
                slot,
                stop_time,
            )
        return record

    # ------------------------------------------------------------------
    def _slot_transmitters(
        self,
        slot_index: int,
        beacon: Beacon,
        beacon_receivers: Set[str],
        predicted_rounds: Dict[str, Optional[Tuple[int, int]]],
    ) -> Set[str]:
        """Which nodes start transmitting in this slot."""
        transmitters: Set[str] = set()
        if self.policy is NodePolicy.BEACON_GATED:
            # A node transmits iff it heard this round's beacon and its
            # deployment table assigns it the slot of the announced round.
            announced_mode, announced_idx = self._round_of_uid[beacon.round_id]
            announced = self.deployments[announced_mode]
            for name in beacon_receivers:
                table = announced.node_tables.get(name)
                if table is None:
                    continue
                for s_idx, _msg in table.slot_for_round(announced_idx):
                    if s_idx == slot_index:
                        transmitters.add(name)
        else:
            # LOCAL_BELIEF ablation: every node acts on its predicted
            # round (resolved once per round by the caller).
            for name, predicted in predicted_rounds.items():
                if predicted is None:
                    continue
                pred_mode, pred_idx = predicted
                table = self.deployments[pred_mode].node_tables.get(name)
                if table is None:
                    continue
                for s_idx, _msg in table.slot_for_round(pred_idx):
                    if s_idx == slot_index:
                        transmitters.add(name)
        return transmitters

    def _predict_round(
        self, state: _NodeState, heard_beacon: bool, beacon: Beacon
    ) -> Optional[Tuple[int, int]]:
        """LOCAL_BELIEF: the round a node thinks is executing."""
        if heard_beacon:
            return self._round_of_uid[beacon.round_id]
        if state.round_uid is None:
            return None
        last_mode, last_idx = self._round_of_uid[state.round_uid]
        num = self.deployments[last_mode].num_rounds
        predicted = (last_mode, (last_idx + 1) % num)
        # The node's belief advances even without the beacon.
        state.round_uid = self._uid_of[predicted]
        return predicted

    def _payload(self) -> int:
        return self.radio.payload_bytes if self.radio is not None else 0

    # ------------------------------------------------------------------
    def _record_message_instance(
        self,
        trace: Trace,
        deployment: ModeDeployment,
        message: str,
        round_index: int,
        occurrence: int,
        round_time: float,
        mode_origin: float,
        slot: SlotRecord,
        stop_time: Optional[float],
    ) -> None:
        schedule = deployment.schedule
        offset = schedule.message_offsets[message]
        deadline = schedule.message_deadlines[message]
        leftover = schedule.leftover.get(message, 0)
        # Pure per (mode, message); hoisted onto the deployment tables.
        period = deployment.message_periods.get(message)
        if period is None:
            return
        allocated = [
            idx
            for idx, msgs in enumerate(deployment.round_messages)
            if message in msgs
        ]
        position = allocated.index(round_index)
        per_hp = len(allocated)
        instance = occurrence * per_hp + position - leftover
        if instance < 0:
            return  # serves an instance from before the mode started
        release = mode_origin + instance * period + offset
        if stop_time is not None:
            # The drain rule stops *application* instances, not messages:
            # a message whose producing application instance started
            # before the announcement is still transmitted (Fig. 2,
            # "running applications finish their execution").
            shift = deployment.message_shifts.get(message, 0)
            app_release = mode_origin + (instance - shift) * period
            if app_release >= stop_time - EPS:
                return
        consumers = set(deployment.message_consumers[message])
        record = MessageInstanceRecord(
            message=message,
            instance=instance,
            release_time=release,
            abs_deadline=release + deadline,
            served_round_time=round_time,
            delivered_to=slot.receivers & consumers,
            consumers=consumers,
        )
        trace.messages.append(record)

    # ------------------------------------------------------------------
    def _account_chains(
        self,
        trace: Trace,
        app_stop_time: Dict[int, float],
        duration: float,
    ) -> None:
        """Derive end-to-end chain instances from message records."""
        delivered: Dict[Tuple[str, int], MessageInstanceRecord] = {
            (m.message, m.instance): m for m in trace.messages
        }
        # Partition the timeline into mode segments.
        segments: List[Tuple[int, float, float]] = []
        start = 0.0
        current = self.initial_mode
        for switch in trace.mode_switches:
            segments.append((current, start, switch.new_mode_start))
            start = switch.new_mode_start
            current = switch.to_mode
        segments.append((current, start, duration))

        for mode_id, seg_start, seg_end in segments:
            mode = self.modes[mode_id]
            schedule = self.deployments[mode_id].schedule
            stop = app_stop_time.get(mode_id, math.inf)
            for app in mode.applications:
                for chain in app.chains():
                    latency = chain_latency(
                        app, chain, schedule.task_offsets, schedule.sigma
                    )
                    first_offset = schedule.task_offsets[chain.first_task]
                    k = 0
                    while True:
                        app_release = seg_start + k * app.period
                        release = app_release + first_offset
                        if app_release >= min(seg_end, stop, duration) - EPS:
                            break
                        completion = release + latency
                        if completion > duration + EPS:
                            # Cannot be judged within the horizon.
                            break
                        complete = True
                        shift = 0
                        for i in range(len(chain.elements) - 1):
                            src = chain.elements[i]
                            dst = chain.elements[i + 1]
                            shift += schedule.sigma.get((src, dst), 0)
                            if dst in app.messages:
                                rec = delivered.get((dst, k + shift))
                                if rec is None or not rec.on_time:
                                    complete = False
                                    break
                        trace.chains.append(
                            ChainInstanceRecord(
                                app=app.name,
                                chain=chain.elements,
                                instance=k,
                                release_time=release,
                                completion_time=completion if complete else None,
                                complete=complete,
                            )
                        )
                        k += 1
