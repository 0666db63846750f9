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
resample with numpy — instead each supported loss kind gets a
*sampler* that consumes **the same stream in the same order** while
writing bitmasks instead of building Python sets (`_BernoulliSampler`,
`_GilbertElliottSampler`, ...).  ``glossy`` floods are genuinely
topology-dependent and run through the model itself via
`_ModelSampler`.  A loss kind without a registered sampler is reported
unsupported and the caller falls back to the reference simulator —
that is the extension point future loss models hit by default.

Equal seeds therefore give equal summaries across engines, which the
equivalence suite (``tests/mc/test_fastpath.py``) asserts over a
seed × policy × loss-model × mode-change matrix.

This module is what ``engine="fast"`` runs.  ``engine="vectorized"``
does not come here for any built-in loss kind or node policy:
:mod:`repro.mc.vectorized` has tensor twins of every sampler —
``glossy`` floods as hop-by-hop frontier propagation — and resolves
the ``LOCAL_BELIEF`` recurrence with a belief scan over rounds.  Only a
kind with a sampler here but none there steps down to this engine.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from ..runtime.compiled import SystemProgram, names_to_mask
from ..runtime.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    InterferenceLoss,
    LossModel,
    MatrixTraceLoss,
    PerfectLinks,
    ScriptedBeaconLoss,
    SpatialLoss,
    TimeVaryingLoss,
    TraceExhaustedError,
    TraceReplayLoss,
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


class _BernoulliSampler:
    """Bitmask twin of :class:`BernoulliLoss`.

    Consumes ``model._rng`` exactly like ``BernoulliLoss._sample``:
    one draw per non-``always`` node in sorted order, and **zero**
    draws when the loss probability is ``<= 0`` (the reference
    short-circuits before touching the stream).
    """

    def __init__(self, model: BernoulliLoss, program: SystemProgram) -> None:
        self._random = model._rng.random
        self._beacon_loss = model.beacon_loss
        self._data_loss = model.data_loss
        self._full = program.full_mask
        self._count = len(program.node_names)
        # Per ``always`` node: the other nodes' bits in sorted order
        # (so the draw loop needs no index comparison), built lazily —
        # only the host and actual senders ever appear here.
        self._orders: Dict[int, tuple] = {}

    def _order(self, always_index: int) -> tuple:
        order = self._orders.get(always_index)
        if order is None:
            order = tuple(
                1 << index
                for index in range(self._count)
                if index != always_index
            )
            self._orders[always_index] = order
        return order

    def _sample(self, loss: float, always_index: int) -> int:
        if loss <= 0.0:
            return self._full
        mask = 1 << always_index
        random = self._random
        for bit in self._order(always_index):
            if random() >= loss:
                mask |= bit
        return mask

    def beacon_mask(self, host_index: int) -> int:
        return self._sample(self._beacon_loss, host_index)

    def data_mask(self, sender_index: int) -> int:
        return self._sample(self._data_loss, sender_index)


class _GilbertElliottSampler:
    """Bitmask twin of :class:`GilbertElliottLoss`.

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


class _ScriptedBeaconSampler:
    """Bitmask twin of :class:`ScriptedBeaconLoss` (deterministic)."""

    def __init__(
        self, model: ScriptedBeaconLoss, program: SystemProgram
    ) -> None:
        self._full = program.full_mask
        self._drops = {
            index: _mask_of(names, program)
            for index, names in model.drops.items()
        }
        self._counter = model._beacon_counter

    def beacon_mask(self, host_index: int) -> int:
        dropped = self._drops.get(self._counter, 0)
        self._counter += 1
        return (self._full & ~dropped) | (1 << host_index)

    def data_mask(self, sender_index: int) -> int:
        return self._full


class _TraceReplaySampler:
    """Bitmask twin of :class:`TraceReplayLoss` (deterministic)."""

    def __init__(self, model: TraceReplayLoss, program: SystemProgram) -> None:
        self._full = program.full_mask
        self._beacon = [_mask_of(event, program) for event in model.beacon_events]
        self._data = [_mask_of(event, program) for event in model.data_events]
        self._on_end = model.on_end
        self._beacon_cursor = model._beacon_cursor
        self._data_cursor = model._data_cursor

    def _next(self, masks: List[int], cursor: int, label: str):
        if not masks:
            if self._on_end == "error":
                raise TraceExhaustedError(
                    f"trace_replay: empty {label} trace with on_end='error'"
                )
            return None, cursor
        if cursor >= len(masks):
            if self._on_end == "perfect":
                return None, cursor
            if self._on_end == "error":
                raise TraceExhaustedError(
                    f"trace_replay: {label} trace exhausted after "
                    f"{len(masks)} events (on_end='error'); provide a "
                    f"longer trace or choose on_end='wrap'/'perfect'"
                )
            cursor = cursor % len(masks)
        return masks[cursor], cursor + 1

    def beacon_mask(self, host_index: int) -> int:
        event, self._beacon_cursor = self._next(
            self._beacon, self._beacon_cursor, "beacon"
        )
        if event is None:
            return self._full
        return event | (1 << host_index)

    def data_mask(self, sender_index: int) -> int:
        event, self._data_cursor = self._next(
            self._data, self._data_cursor, "data"
        )
        if event is None:
            return self._full
        return event | (1 << sender_index)


class _SpatialSampler:
    """Bitmask twin of :class:`SpatialLoss`.

    The PDR matrix is a construction-time constant; per flood the
    sampler walks the source's precomputed per-receiver loss row in
    node-index order (== sorted name order), consuming ``model._rng``
    exactly like ``SpatialLoss._sample``: one draw per receiver whose
    loss is ``> 0``, zero draws otherwise.
    """

    def __init__(self, model: SpatialLoss, program: SystemProgram) -> None:
        self._random = model._rng.random
        self._count = len(program.node_names)
        pdr = model._pdr
        # loss rows indexed [source][receiver] by compiled node index.
        self._loss = [
            [1.0 - pdr[src][dst] for dst in program.node_names]
            for src in program.node_names
        ]

    def _sample(self, source_index: int) -> int:
        mask = 1 << source_index
        random = self._random
        row = self._loss[source_index]
        for index in range(self._count):
            if index == source_index:
                continue
            loss = row[index]
            if loss <= 0.0 or random() >= loss:
                mask |= 1 << index
        return mask

    def beacon_mask(self, host_index: int) -> int:
        return self._sample(host_index)

    def data_mask(self, sender_index: int) -> int:
        return self._sample(sender_index)


class _MatrixTraceSampler:
    """Bitmask twin of :class:`MatrixTraceLoss`.

    Every trace entry is lowered once into per-source loss rows indexed
    by compiled node index; the round cursor and the exhaustion policy
    (``wrap``/``perfect``/``error``) mirror the model exactly —
    including raising the model's own :class:`TraceExhaustedError`.
    """

    def __init__(self, model: MatrixTraceLoss, program: SystemProgram) -> None:
        self._model = model
        self._random = model._rng.random
        self._full = program.full_mask
        self._count = len(program.node_names)
        self._on_end = model.on_end
        names = program.node_names
        self._losses = [
            [
                [1.0 - rows.get(src, {}).get(dst, default) for dst in names]
                for src in names
            ]
            for rows, default in model._entries
        ]
        self._beacon_count = model._beacon_count

    def _rows_for_round(self, round_index: int):
        count = len(self._losses)
        if round_index < count:
            return self._losses[round_index]
        if self._on_end == "wrap":
            return self._losses[round_index % count]
        if self._on_end == "error":
            self._model.matrix_for_round(round_index)  # raises
        return None

    def _sample(self, source_index: int, round_index: int) -> int:
        rows = self._rows_for_round(round_index)
        if rows is None:
            return self._full
        mask = 1 << source_index
        random = self._random
        row = rows[source_index]
        for index in range(self._count):
            if index == source_index:
                continue
            loss = row[index]
            if loss <= 0.0 or random() >= loss:
                mask |= 1 << index
        return mask

    def beacon_mask(self, host_index: int) -> int:
        round_index = self._beacon_count
        self._beacon_count += 1
        return self._sample(host_index, round_index)

    def data_mask(self, sender_index: int) -> int:
        return self._sample(sender_index, max(0, self._beacon_count - 1))


class _TimeVaryingSampler:
    """Bitmask twin of :class:`TimeVaryingLoss`.

    Keeps its own round counter and calls the model's pure
    ``loss_at`` so the float math — and therefore the draw-skip
    decision at ``loss <= 0`` — is identical to the reference.
    """

    def __init__(self, model: TimeVaryingLoss, program: SystemProgram) -> None:
        self._model = model
        self._random = model._rng.random
        self._count = len(program.node_names)
        self._round = model._round

    def _sample(self, loss: float, always_index: int) -> int:
        mask = 1 << always_index
        random = self._random
        for index in range(self._count):
            if index == always_index:
                continue
            if loss <= 0.0 or random() >= loss:
                mask |= 1 << index
        return mask

    def beacon_mask(self, host_index: int) -> int:
        round_index = self._round
        self._round += 1
        loss = self._model.loss_at(round_index, self._model.beacon_loss)
        return self._sample(loss, host_index)

    def data_mask(self, sender_index: int) -> int:
        round_index = max(0, self._round - 1)
        loss = self._model.loss_at(round_index, self._model.data_loss)
        return self._sample(loss, sender_index)


class _InterferenceSampler:
    """Bitmask twin of :class:`InterferenceLoss`.

    The jammer's duty-cycle state comes from the model's pure
    ``jammed``; the per-node affected set is precomputed as a flag per
    compiled node index.  Draw consumption mirrors the reference: one
    draw per non-``always`` node whose effective loss is ``> 0``.
    """

    def __init__(self, model: InterferenceLoss, program: SystemProgram) -> None:
        self._model = model
        self._random = model._rng.random
        self._count = len(program.node_names)
        self._jam_loss = model.jam_loss
        self._base_beacon = model.base_beacon_loss
        self._base_data = model.base_data_loss
        self._affected = [
            model.affected is None or name in model.affected
            for name in program.node_names
        ]
        self._round = model._round

    def _sample(self, round_index: int, base: float, always_index: int) -> int:
        mask = 1 << always_index
        random = self._random
        jammed = self._model.jammed(round_index)
        affected = self._affected
        jam_loss = self._jam_loss
        for index in range(self._count):
            if index == always_index:
                continue
            loss = jam_loss if jammed and affected[index] else base
            if loss <= 0.0 or random() >= loss:
                mask |= 1 << index
        return mask

    def beacon_mask(self, host_index: int) -> int:
        round_index = self._round
        self._round += 1
        return self._sample(round_index, self._base_beacon, host_index)

    def data_mask(self, sender_index: int) -> int:
        round_index = max(0, self._round - 1)
        return self._sample(round_index, self._base_data, sender_index)


class _ModelSampler:
    """Generic adapter: drive the loss model itself, convert to masks.

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


def _mask_of(names, program: SystemProgram) -> int:
    return names_to_mask(names, program.node_index)


def _perfect_builder(model, program):
    return _PerfectSampler(model, program)


#: loss kind -> sampler builder.  ``None`` (no loss) maps to perfect.
#: A kind absent here is *unsupported*: :func:`supports_loss_kind`
#: returns False and the trial entry point falls back to the
#: reference simulator.
SAMPLER_BUILDERS: Dict[Optional[str], Callable] = {
    None: _perfect_builder,
    "perfect": _perfect_builder,
    "bernoulli": _BernoulliSampler,
    "gilbert_elliott": _GilbertElliottSampler,
    "scripted_beacon": _ScriptedBeaconSampler,
    "trace_replay": _TraceReplaySampler,
    "glossy": _ModelSampler,
    "spatial": _SpatialSampler,
    "matrix_trace": _MatrixTraceSampler,
    "time_varying": _TimeVaryingSampler,
    "interference": _InterferenceSampler,
}


def supports_loss_kind(kind: Optional[str]) -> bool:
    """Whether the fast path has a sampler for this loss kind."""
    return kind in SAMPLER_BUILDERS


def build_sampler(
    kind: Optional[str], model: Optional[LossModel], program: SystemProgram
):
    """Build the bitmask sampler for a freshly built loss model.

    Raises:
        KeyError: unknown kind — callers check
            :func:`supports_loss_kind` first and fall back.
    """
    if model is None:
        model = PerfectLinks()
    return SAMPLER_BUILDERS[kind](model, program)


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
