"""Trace-free trial execution over compiled round programs.

This is the dynamic half of the Monte-Carlo fast path (the static half
— :func:`repro.runtime.compiled.compile_program` — lowers a scenario
into arrays once).  :func:`run_program` executes one seeded trial and
accumulates a :class:`~repro.runtime.trial.TrialResult` **directly**:
no ``Trace``, no ``SlotRecord``/``MessageInstanceRecord`` objects, no
post-hoc ``summarize_trace`` pass.  Receiver sets are integer bitmasks,
message/chain statistics are flat counters indexed by compiled ids, and
radio-on time is accumulated per node in chronological order (so the
floating-point sums match the reference's addition order bit for bit).

Bit-identity is the design constraint that shapes the samplers: the
reference loss models consume a scalar ``random.Random`` stream one
draw per (node, flood) in sorted-node order, so the fast path cannot
resample with numpy — instead each sampling primitive of
:mod:`repro.runtime.loss` gets one *sampler* that consumes **the same
stream in the same order** while writing bitmasks instead of building
Python sets: `_IndependentSampler` evaluates the kind's pure miss
probabilities, `_ScriptSampler` its pure scripted events, and
`_GilbertElliottSampler` walks the Markov chains.  ``glossy`` floods
are genuinely topology-dependent and run through the model itself via
`_ModelSampler`.  A loss kind that lowers onto no primitive runs on
the reference simulator instead (see
:func:`repro.runtime.loss.supports_loss_kind`).

Equal seeds therefore give equal summaries across engines, which the
equivalence suite (``tests/mc/test_fastpath.py``) asserts over a
seed × policy × loss-model × mode-change matrix.

This module is what ``engine="fast"`` runs; ``engine="vectorized"``
(:mod:`repro.mc.vectorized`) implements the same primitives as tensor
samplers and never steps down to this engine.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from ..runtime.compiled import SystemProgram, names_to_mask
from ..runtime.loss import (
    GilbertElliottLoss,
    LossModel,
    PerfectLinks,
    loss_primitive,
)
from ..runtime.simulator import EPS, ModeRequest, NodePolicy
from ..runtime.trial import TrialResult


# -- loss samplers -----------------------------------------------------------


class _PerfectSampler:
    """No loss: every flood reaches every node, no stream consumed."""

    def __init__(self, model, program: SystemProgram) -> None:
        self._full = program.full_mask

    def beacon_mask(self, host_index: int) -> int:
        return self._full

    def data_mask(self, sender_index: int) -> int:
        return self._full


class _IndependentSampler:
    """Bitmask form of the ``independent`` primitive.

    Consumes ``model._rng`` exactly like
    :class:`~repro.runtime.loss.IndependentLoss`: per flood, one draw
    per receiver other than the initiator, in node-index (== sorted
    name) order, and **zero** draws for a receiver whose miss
    probability is ``<= 0``.  The rows of round-invariant kinds are
    lowered once per (initiator, flood type).
    """

    def __init__(self, model, program: SystemProgram) -> None:
        self._model = model
        self._random = model._rng.random
        self._names = program.node_names
        self._memoize = model.round_invariant
        #: Lowered rows by initiator index: data rows, then beacon rows.
        self._rows: tuple = ({}, {})
        self._round = 0

    def _lower(self, round_index: int, initiator: int, beacon: bool) -> tuple:
        """``(always-received mask, ((bit, miss), ...) drawn in order)``."""
        names = self._names
        always = 1 << initiator
        drawn = []
        misses = self._model.miss_row(round_index, names[initiator], beacon,
                                      names)
        for index, miss in enumerate(misses):
            if index == initiator:
                continue
            if miss <= 0.0:
                always |= 1 << index
            else:
                drawn.append((1 << index, miss))
        return always, tuple(drawn)

    def _sample(self, round_index: int, initiator: int, beacon: bool) -> int:
        rows = self._rows[beacon]
        row = rows.get(initiator)
        if row is None:
            row = self._lower(round_index, initiator, beacon)
            if self._memoize:
                rows[initiator] = row
        mask, drawn = row
        random = self._random
        for bit, miss in drawn:
            if random() >= miss:
                mask |= bit
        return mask

    def beacon_mask(self, host_index: int) -> int:
        round_index = self._round
        self._round += 1
        return self._sample(round_index, host_index, True)

    def data_mask(self, sender_index: int) -> int:
        return self._sample(max(0, self._round - 1), sender_index, False)


class _ScriptSampler:
    """Bitmask form of the ``script`` primitive (deterministic): the
    n-th beacon and the k-th data flood replay the kind's events."""

    def __init__(self, model, program: SystemProgram) -> None:
        self._model = model
        self._full = program.full_mask
        self._index = program.node_index
        self._nodes = frozenset(program.node_names)
        self._beacons = 0
        self._data = 0

    def _mask(self, event, initiator: int) -> int:
        if event is None:
            return self._full
        return names_to_mask(event, self._index) | (1 << initiator)

    def beacon_mask(self, host_index: int) -> int:
        event = self._model.beacon_event(self._beacons, self._nodes)
        self._beacons += 1
        return self._mask(event, host_index)

    def data_mask(self, sender_index: int) -> int:
        event = self._model.data_event(self._data, self._nodes)
        self._data += 1
        return self._mask(event, sender_index)


class _GilbertElliottSampler:
    """Bitmask form of the ``markov`` primitive
    (:class:`~repro.runtime.loss.GilbertElliottLoss`).

    The per-node Markov channels advance once per beacon, every node
    including the host, in sorted order — one ``random()`` per advance
    plus one per loss decision, exactly the reference's consumption.
    """

    def __init__(
        self, model: GilbertElliottLoss, program: SystemProgram
    ) -> None:
        self._random = model._rng.random
        self._p_gb = model.p_good_to_bad
        self._p_bg = model.p_bad_to_good
        self._loss_good = model.loss_good
        self._loss_bad = model.loss_bad
        self._count = len(program.node_names)
        self._bad = [False] * self._count

    def beacon_mask(self, host_index: int) -> int:
        mask = 1 << host_index
        random = self._random
        bad = self._bad
        for index in range(self._count):
            if bad[index]:
                if random() < self._p_bg:
                    bad[index] = False
            else:
                if random() < self._p_gb:
                    bad[index] = True
            if index == host_index:
                continue
            loss = self._loss_bad if bad[index] else self._loss_good
            if random() >= loss:
                mask |= 1 << index
        return mask

    def data_mask(self, sender_index: int) -> int:
        mask = 1 << sender_index
        random = self._random
        bad = self._bad
        for index in range(self._count):
            if index == sender_index:
                continue
            loss = self._loss_bad if bad[index] else self._loss_good
            if random() >= loss:
                mask |= 1 << index
        return mask


class _ModelSampler:
    """The ``flood`` primitive: drive the loss model itself, convert
    its receiver sets to masks.

    Used for flood-accurate kinds (``glossy``) whose realization
    depends on the topology — the model's own RNG stream is consumed
    by the model, so bit-identity holds by construction.
    """

    def __init__(self, model: LossModel, program: SystemProgram) -> None:
        self._model = model
        self._names = program.node_names
        self._nodes = set(program.node_names)
        self._index = program.node_index
        self._payload = program.payload_bytes

    def beacon_mask(self, host_index: int) -> int:
        received = self._model.beacon_receivers(
            self._names[host_index], self._nodes
        )
        return names_to_mask(received, self._index)

    def data_mask(self, sender_index: int) -> int:
        received = self._model.data_receivers(
            self._names[sender_index], self._nodes,
            payload_bytes=self._payload,
        )
        return names_to_mask(received, self._index)


#: sampling primitive -> sampler builder (see
#: :data:`repro.runtime.loss.PRIMITIVES`).
SAMPLER_BUILDERS: Dict[str, Callable] = {
    "perfect": _PerfectSampler,
    "independent": _IndependentSampler,
    "script": _ScriptSampler,
    "markov": _GilbertElliottSampler,
    "flood": _ModelSampler,
}


def build_sampler(
    kind: Optional[str], model: Optional[LossModel], program: SystemProgram
):
    """Build the bitmask sampler for a freshly built loss model of
    ``kind`` (``None``: no loss model, perfect links).

    Raises:
        KeyError: the kind lowers onto no primitive — callers check
            :func:`~repro.runtime.loss.supports_loss_kind` first and
            fall back.
    """
    if model is None:
        model = PerfectLinks()
    return SAMPLER_BUILDERS[loss_primitive(kind)](model, program)


# -- the executor ------------------------------------------------------------


def run_program(
    program: SystemProgram,
    sampler,
    duration: float,
    mode_requests: Sequence[ModeRequest] = (),
    host_node: Optional[str] = None,
) -> TrialResult:
    """Execute one trial of a compiled program and summarize it.

    Semantically equal to ``summarize_trace(RuntimeSimulator(...).run(
    duration, mode_requests, host_node))`` — bit for bit, including
    the floating-point accumulation order of radio-on time — but
    without constructing any trace objects.
    """
    host_index = program.resolve_host(host_node)
    if host_index is None:
        raise KeyError(
            f"host {host_node!r} is not a compiled node; callers gate on "
            f"trial_engine() and fall back to the reference simulator"
        )
    node_count = len(program.node_names)
    local_belief = program.policy is NodePolicy.LOCAL_BELIEF

    beacon_on = program.radio_beacon_on
    data_on = program.radio_data_on
    radio = [0.0] * node_count if beacon_on is not None else None

    requests = sorted(mode_requests, key=lambda r: r.time)
    request_count = len(requests)
    request_idx = 0

    mode_programs = program.modes
    uid_mode = program.uid_mode
    uid_index = program.uid_index
    drain_rows = program.drain_rows

    current_id = program.initial_mode
    mode_program = mode_programs[current_id]
    mode_origin = 0.0

    pending_target: Optional[int] = None
    requested_at = 0.0
    announced_at: Optional[float] = None
    drain_deadline: Optional[float] = None
    app_stop_time: Dict[int, float] = {}

    occurrence = 0
    round_cursor = 0

    rounds = 0
    heard = 0
    collisions = 0
    switches: List[tuple] = []

    gid_count = len(program.message_names)
    on_time_counts = [0] * gid_count
    delivered_counts = [0] * gid_count
    total_counts = [0] * gid_count
    seen = [False] * gid_count
    seen_order: List[int] = []
    msg_on_time: Dict[tuple, int] = {}

    beliefs = [-1] * node_count if local_belief else None

    while True:
        if mode_program.num_rounds == 0:
            break
        round_time = (
            mode_origin
            + occurrence * mode_program.hyperperiod
            + mode_program.round_starts_list[round_cursor]
        )
        if round_time >= duration - EPS:
            break

        # Service mode requests that arrived before this round.
        while (
            request_idx < request_count
            and requests[request_idx].time <= round_time + EPS
        ):
            request = requests[request_idx]
            request_idx += 1
            if pending_target is None and request.target_mode_id != current_id:
                if request.target_mode_id not in mode_programs:
                    raise ValueError(
                        f"mode request for unknown id {request.target_mode_id}"
                    )
                pending_target = request.target_mode_id
                requested_at = request.time

        # Host transition bookkeeping (announce, drain, trigger).
        trigger = False
        if pending_target is not None:
            if announced_at is None:
                announced_at = round_time
                drain = announced_at
                for period, deadline in drain_rows[current_id]:
                    elapsed = max(0.0, announced_at - mode_origin)
                    last_release = (
                        mode_origin + math.floor(elapsed / period) * period
                    )
                    drain = max(drain, last_release + deadline)
                drain_deadline = drain
                app_stop_time[current_id] = announced_at
            if drain_deadline is not None and round_time >= drain_deadline - EPS:
                trigger = True
        stop_time = app_stop_time.get(current_id)

        # Beacon flood.
        beacon_mask = sampler.beacon_mask(host_index)
        rounds += 1
        heard += beacon_mask.bit_count()

        if radio is not None:
            for index in range(node_count):
                radio[index] += beacon_on

        # LOCAL_BELIEF: resolve each node's predicted round once.
        if local_belief:
            current_uid = mode_program.uid_base + round_cursor
            tx_masks = mode_program.tx_slot_masks
            predicted_masks = []
            for index in range(node_count):
                if beacon_mask >> index & 1:
                    beliefs[index] = current_uid
                    predicted_masks.append(tx_masks[round_cursor][index])
                else:
                    belief = beliefs[index]
                    if belief < 0:
                        predicted_masks.append(0)
                        continue
                    belief_mode = uid_mode[belief]
                    belief_program = mode_programs[belief_mode]
                    next_uid = belief_program.uid_base + (
                        (uid_index[belief] + 1) % belief_program.num_rounds
                    )
                    beliefs[index] = next_uid
                    predicted_masks.append(
                        belief_program.tx_slot_masks[uid_index[next_uid]][index]
                    )

        # Data slots.
        for slot_index, row in enumerate(mode_program.slot_rows[round_cursor]):
            (
                gid,
                sender_index,
                sender_bit,
                consumers_mask,
                record,
                period,
                offset,
                deadline,
                per_hp,
                pos_minus_leftover,
                shift,
            ) = row

            if local_belief:
                tx_mask = 0
                tx_count = 0
                tx_index = -1
                for index, predicted in enumerate(predicted_masks):
                    if predicted >> slot_index & 1:
                        tx_mask |= 1 << index
                        tx_count += 1
                        tx_index = index
                if tx_count > 1:
                    collisions += 1
                delivering = tx_count == 1 and tx_index == sender_index
            else:
                # BEACON_GATED: the only candidate transmitter of a slot
                # is its scheduled sender, gated on this round's beacon.
                delivering = (beacon_mask & sender_bit) != 0
                tx_mask = sender_bit if delivering else 0

            receive_mask = sampler.data_mask(sender_index) if delivering else 0

            if radio is not None and (beacon_mask or tx_mask):
                participants = beacon_mask | tx_mask
                while participants:
                    low = participants & -participants
                    radio[low.bit_length() - 1] += data_on
                    participants ^= low

            if not record:
                continue
            instance = occurrence * per_hp + pos_minus_leftover
            if instance < 0:
                continue  # serves an instance from before the mode started
            if stop_time is not None:
                app_release = mode_origin + (instance - shift) * period
                if app_release >= stop_time - EPS:
                    continue
            release = mode_origin + instance * period + offset
            if (
                delivering
                and consumers_mask
                and receive_mask & consumers_mask == consumers_mask
            ):
                delivered = 1
                abs_deadline = release + deadline
                on_time = 1 if round_time <= abs_deadline + 1e-9 else 0
            else:
                delivered = 0
                on_time = 0
            total_counts[gid] += 1
            delivered_counts[gid] += delivered
            on_time_counts[gid] += on_time
            if not seen[gid]:
                seen[gid] = True
                seen_order.append(gid)
            msg_on_time[(gid, instance)] = on_time

        if trigger and pending_target is not None:
            # New mode starts directly after this round ends.
            new_origin = round_time + mode_program.round_length
            switches.append(
                (requested_at, new_origin, current_id, pending_target)
            )
            current_id = pending_target
            mode_program = mode_programs[current_id]
            mode_origin = new_origin
            occurrence = 0
            round_cursor = 0
            pending_target = None
            announced_at = None
            drain_deadline = None
            if local_belief:
                # Nodes that heard the SB beacon switch; for prediction
                # the next round is round 0 of the new mode, i.e. the
                # successor of its last round in cyclic order.
                last_uid = mode_program.uid_base + mode_program.num_rounds - 1
                for index in range(node_count):
                    if beacon_mask >> index & 1:
                        beliefs[index] = last_uid
            continue

        round_cursor += 1
        if round_cursor >= mode_program.num_rounds:
            round_cursor = 0
            occurrence += 1

    # -- chain accounting (the reference's _account_chains) ---------------
    chains_complete: Dict[str, int] = {}
    chains_total: Dict[str, int] = {}
    segments: List[tuple] = []
    start = 0.0
    segment_mode = program.initial_mode
    for req_at, new_start, _from_mode, to_mode in switches:
        segments.append((segment_mode, start, new_start))
        start = new_start
        segment_mode = to_mode
    segments.append((segment_mode, start, duration))

    for mode_id, seg_start, seg_end in segments:
        stop = app_stop_time.get(mode_id, math.inf)
        horizon = min(seg_end, stop, duration)
        for app_name, period, chains in program.chain_rows[mode_id]:
            for first_offset, latency, checks in chains:
                k = 0
                while True:
                    app_release = seg_start + k * period
                    release = app_release + first_offset
                    if app_release >= horizon - EPS:
                        break
                    completion = release + latency
                    if completion > duration + EPS:
                        # Cannot be judged within the horizon.
                        break
                    complete = True
                    for gid, shift in checks:
                        if not msg_on_time.get((gid, k + shift)):
                            complete = False
                            break
                    chains_total[app_name] = chains_total.get(app_name, 0) + 1
                    if complete:
                        chains_complete[app_name] = (
                            chains_complete.get(app_name, 0) + 1
                        )
                    k += 1

    # -- assemble the summary ---------------------------------------------
    result = TrialResult(duration=duration)
    result.rounds = rounds
    result.collisions = collisions
    result.beacon_heard = (heard, node_count * rounds)
    result.messages = {
        program.message_names[gid]: (
            on_time_counts[gid],
            delivered_counts[gid],
            total_counts[gid],
        )
        for gid in seen_order
    }
    result.chains = {
        app: (chains_complete.get(app, 0), total)
        for app, total in chains_total.items()
    }
    if radio is not None:
        result.radio_on = {
            name: radio[index]
            for index, name in enumerate(program.node_names)
        }
    else:
        result.radio_on = {name: 0.0 for name in program.node_names}
    result.switch_delays = [
        new_start - req_at for req_at, new_start, _f, _t in switches
    ]
    return result
