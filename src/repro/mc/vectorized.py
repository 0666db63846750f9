"""The host timeline and the vectorized campaign kernel.

TTW's host is time-triggered, and this module exploits that: the round
timeline — which round of which mode executes when, when mode changes
trigger, which slot records which message instance against which
deadline — is **fully deterministic** under both node policies.  Loss
only decides who *receives* each flood (and, under ``LOCAL_BELIEF``,
which nodes transmit), never what the host schedules.
:func:`unroll_timeline` is the one compiled definition of the host's
control flow; both compiled engines walk its :class:`Timeline` — the
fast path (:mod:`repro.mc.fastpath`) one trial at a time on the
reference's scalar streams, and this kernel all trials of a grid point
at once.  The kernel factors a grid point into three array-programming
stages:

1. :func:`unroll_timeline` — walk the compiled round program once
   (the reference simulator's control flow: round scheduling,
   mode-request servicing, drain deadlines, instance gating, chain
   accounting) into a :class:`Timeline`: flat arrays over the executed
   rounds and slots, the deterministic per-flow instance totals, the
   chain-check index matrices, the switch delays, and the round ids
   the ``LOCAL_BELIEF`` belief scan needs.  Computed once per scenario
   and cached on the :class:`~repro.runtime.trial.TrialContext`.
2. **Sampling** — the full loss bitmask tensor for every trial up
   front: ``beacon[trials, rounds, nodes]`` and ``data[trials, slots,
   nodes]`` boolean arrays, compared against counter-based uniforms
   (:func:`repro.core.rng.uniforms`).  Draw ``i`` of a trial is a pure
   function of the trial's seed and ``i``, laid out in a fixed
   intra-trial order, so the uniforms of all trials of a chunk are one
   array program with no per-trial generator, and results cannot
   depend on how trials are batched across calls, chunks or pool
   workers.  There is one tensor sampler per sampling primitive of
   :mod:`repro.runtime.loss`, not per loss kind: the ``independent``
   kinds lower into per-round and per-slot miss-probability arrays,
   the ``script`` kinds into one shared realization, the ``markov``
   chain runs as one scan over rounds, and ``glossy`` floods propagate
   hop by hop over the whole topology, every flood of every trial at
   once.
3. :func:`accumulate_trials` — pure array reductions: which slots
   deliver is one :func:`slot_delivery` decision (a gather under
   beacon gating, a round-by-round belief scan under ``LOCAL_BELIEF``),
   delivery is an ``all`` over consumer bits, radio-on time is an
   integer participation count times the slot constants, chain
   completeness is an ``all`` over precomputed check-index matrices.
   The result is a :class:`~repro.runtime.trial.TrialBatch` — one
   column per statistic, filled straight from these arrays, with no
   per-trial object.  All reductions stay in integers until the
   radio-on columns, so no chunking strategy can perturb a
   floating-point sum.

The contract is **distribution equivalence, not bit identity**: the
vectorized samplers draw from counter-based streams, not the reference
models' ``random.Random`` streams, so per-seed results differ from the
``fast``/``reference`` engines while every *deterministic* quantity
(instance totals, rounds, switch delays, deadline flags) matches
exactly and every sampled *distribution* (miss rates, radio-on, burst
structure, collisions) agrees statistically.
:mod:`repro.mc.equivalence` is the harness that makes this claim
testable; ``fast`` stays the bit-exact default engine.

Within one seed the engine is fully deterministic: equal seeds give
byte-identical trial statistics across repeated runs, ``jobs``
settings, and trial-batch splits.

Every loss kind that lowers onto a primitive and both node policies
vectorize.  What is left falls back to ``reference`` (see
:func:`repro.runtime.trial.trial_engine`): loss kinds that lower onto
no primitive (custom registrations), scenarios the compiler rejects,
and beacon hosts outside the deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.rng import SeedLike, stream_keys, uniforms
from ..runtime.compiled import SystemProgram
from ..runtime.loss import (
    GilbertElliottLoss,
    GlossyLoss,
    LossModel,
    PerfectLinks,
    build_loss,
    loss_primitive,
)
from ..runtime.simulator import EPS, ModeRequest, NodePolicy
from ..runtime.trial import TrialBatch


class VectorizeError(Exception):
    """A feature the vectorized kernel does not support.

    Like :class:`~repro.runtime.compiled.CompileError`, raising this is
    not an error condition for campaign callers: the trial entry point
    gates on :func:`repro.runtime.trial.trial_engine` and falls back to
    the reference simulator instead.
    """


#: Approximate per-chunk tensor budget (bytes).  Trials are processed
#: in chunks so the uniform-draw and bitmask tensors of huge campaigns
#: stay bounded; chunking cannot change results because each uniform
#: is a pure function of its trial's key and draw index.
TENSOR_BUDGET_BYTES = 128 * 1024 * 1024


# -- the deterministic timeline ----------------------------------------------


@dataclass(frozen=True)
class Timeline:
    """The host's deterministic schedule, shared by every trial of a
    scenario.

    Everything about a trial that does *not* depend on the loss
    realization, flattened over the executed rounds (``R``) and data
    slots (``S``) of the full horizon.  Both compiled engines read it:
    :func:`repro.mc.fastpath.run_program` walks it one trial at a time,
    :func:`accumulate_trials` reduces over it for a tensor of trials.

    Attributes:
        num_rounds: Executed rounds ``R``.
        num_slots: Executed data slots ``S`` (every slot, recorded or
            not — replay cursors and radio accounting see them all).
        slots_per_round: ``(R,)`` int64 slot count per round — the
            radio-accounting weights.
        slot_round: ``(S,)`` executed-round index of each slot.
        slot_sender: ``(S,)`` transmitting node index of each slot.
        slot_deadline_ok: ``(S,)`` whether a delivery in this slot
            meets its instance's deadline (deterministic).
        flow_slots: ``(gid, slot-index array)`` per recorded flow, in
            first-recorded order (the reference's ``seen_order``); the
            array length is the flow's deterministic instance total.
        consumers: ``(S, N)`` consumer membership per slot.
        has_consumers: ``(S,)`` consumer set non-empty per slot.
        chain_programs: ``(app_name, total, checks)`` per application
            with judged chain instances, in the reference's accounting
            order; ``checks`` is an ``(instances, max_checks)`` index
            matrix into the padded per-slot on-time matrix — index
            ``S`` means a missing instance (never on time), ``S + 1``
            is padding (trivially satisfied).
        switch_delays: Mode-change delays — identical in every trial.
        round_uid: ``(R,)`` globally unique id of each executed round
            (what its beacon announces).
        round_reset: ``(R,)`` the round id the beliefs of the round's
            beacon receivers reset to after it — the new mode's last
            round when the round triggers a mode switch, ``-1``
            otherwise.
        slot_position: ``(S,)`` slot index of each slot within its
            round.
        belief_successor: ``LOCAL_BELIEF`` only (``None`` otherwise):
            ``(U + 1,)`` the round id a node predicts after round id
            ``u`` without a beacon — ``u``'s successor in its mode's
            cyclic round order.  Row ``U`` (the number of round ids)
            stands for "no belief yet" and maps to itself.
        belief_transmits: ``LOCAL_BELIEF`` only: ``(U + 1, N, P)``
            whether node ``n`` transmits in slot position ``p`` when it
            believes round id ``u`` executes (the compiled transmit
            tables); row ``U`` never transmits.
    """

    num_rounds: int
    num_slots: int
    slots_per_round: np.ndarray
    slot_round: np.ndarray
    slot_sender: np.ndarray
    slot_deadline_ok: np.ndarray
    flow_slots: Tuple[Tuple[int, np.ndarray], ...]
    consumers: np.ndarray
    has_consumers: np.ndarray
    chain_programs: Tuple[Tuple[str, int, np.ndarray], ...]
    switch_delays: Tuple[float, ...]
    round_uid: np.ndarray
    round_reset: np.ndarray
    slot_position: np.ndarray
    belief_successor: Optional[np.ndarray]
    belief_transmits: Optional[np.ndarray]


def _belief_tables(program: SystemProgram) -> Tuple[np.ndarray, np.ndarray]:
    """The ``LOCAL_BELIEF`` prediction tables over global round ids.

    ``successor[u]`` is the round a node that believes ``u`` just
    executed predicts next (``uid_base + (uid_index + 1) %
    num_rounds``, the reference simulator's rule), and
    ``transmits[u, n, p]`` unpacks the compiled ``tx_slot_masks``.
    Both get a trailing sentinel row for "no belief yet".  These are
    the only copy of the successor rule; the fast path reads
    ``successor`` too.
    """
    count = len(program.uid_mode)
    nodes = len(program.node_names)
    positions = max(
        [1]
        + [len(rows) for mode in program.modes.values()
           for rows in mode.slot_rows]
        + [mask.bit_length() for mode in program.modes.values()
           for row in mode.tx_slot_masks for mask in row]
    )
    successor = np.full(count + 1, count, dtype=np.intp)
    transmits = np.zeros((count + 1, nodes, positions), dtype=bool)
    for uid, (mode_id, index) in enumerate(
        zip(program.uid_mode, program.uid_index)
    ):
        mode = program.modes[mode_id]
        successor[uid] = mode.uid_base + (index + 1) % mode.num_rounds
        for node, mask in enumerate(mode.tx_slot_masks[index]):
            while mask:
                low = mask & -mask
                transmits[uid, node, low.bit_length() - 1] = True
                mask ^= low
    return successor, transmits


def unroll_timeline(
    program: SystemProgram,
    duration: float,
    mode_requests: Sequence[ModeRequest] = (),
) -> Timeline:
    """Walk the compiled program once into its :class:`Timeline`.

    This is the only compiled definition of the host's control flow —
    round scheduling, mode-request servicing, drain deadlines, the
    instance/stop-time gating of every slot, chain accounting.  It
    mirrors the reference simulator's run loop with identical
    plain-float arithmetic, so the deterministic outputs (instance
    totals, deadline flags, switch delays) equal the reference's
    exactly, and the fast engine, which walks this timeline, stays
    bit-identical to it.

    The host's control flow is the same under both node policies:
    under ``LOCAL_BELIEF`` only *who transmits* depends on the loss
    realization, which :func:`slot_delivery` resolves per trial from
    the recorded round ids.
    """
    requests = sorted(mode_requests, key=lambda r: r.time)
    request_count = len(requests)
    request_idx = 0

    mode_programs = program.modes
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

    slots_per_round: List[int] = []
    round_uid: List[int] = []
    round_reset: List[int] = []
    slot_round: List[int] = []
    slot_position: List[int] = []
    slot_sender: List[int] = []
    slot_deadline_ok: List[bool] = []
    consumer_masks: List[int] = []
    switches: List[tuple] = []

    flow_lists: Dict[int, List[int]] = {}
    seen_order: List[int] = []
    occ_of: Dict[tuple, int] = {}

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

        round_index = len(slots_per_round)
        rows = mode_program.slot_rows[round_cursor]
        slots_per_round.append(len(rows))
        round_uid.append(mode_program.uid_base + round_cursor)
        round_reset.append(-1)

        for position, row in enumerate(rows):
            (
                gid,
                sender_index,
                _sender_bit,
                consumers_mask,
                record,
                period,
                offset,
                deadline,
                per_hp,
                pos_minus_leftover,
                shift,
            ) = row
            slot = len(slot_round)
            slot_round.append(round_index)
            slot_position.append(position)
            slot_sender.append(sender_index)
            consumer_masks.append(consumers_mask)

            deadline_ok = False
            if record:
                instance = occurrence * per_hp + pos_minus_leftover
                if instance >= 0:
                    skip = False
                    if stop_time is not None:
                        app_release = mode_origin + (instance - shift) * period
                        if app_release >= stop_time - EPS:
                            skip = True
                    if not skip:
                        release = mode_origin + instance * period + offset
                        deadline_ok = round_time <= release + deadline + 1e-9
                        occ_of[(gid, instance)] = slot
                        if gid not in flow_lists:
                            flow_lists[gid] = []
                            seen_order.append(gid)
                        flow_lists[gid].append(slot)
            slot_deadline_ok.append(deadline_ok)

        if trigger and pending_target is not None:
            # New mode starts directly after this round ends.
            new_origin = round_time + mode_program.round_length
            switches.append(
                (requested_at, new_origin, current_id, pending_target)
            )
            current_id = pending_target
            mode_program = mode_programs[current_id]
            # Nodes that heard the SB beacon predict round 0 of the new
            # mode next: the successor of its last round.
            round_reset[-1] = (
                mode_program.uid_base + mode_program.num_rounds - 1
            )
            mode_origin = new_origin
            occurrence = 0
            round_cursor = 0
            pending_target = None
            announced_at = None
            drain_deadline = None
            continue

        round_cursor += 1
        if round_cursor >= mode_program.num_rounds:
            round_cursor = 0
            occurrence += 1

    num_slots = len(slot_round)
    node_count = len(program.node_names)

    # Consumer bitmasks -> a (S, N) membership matrix.
    consumers = np.zeros((num_slots, node_count), dtype=bool)
    for slot, mask in enumerate(consumer_masks):
        while mask:
            low = mask & -mask
            consumers[slot, low.bit_length() - 1] = True
            mask ^= low

    # Chain accounting (the reference's _account_chains), indices only:
    # each chain check becomes an index into the padded per-slot
    # on-time matrix.  occ_of is last-write-wins, exactly like the
    # reference's msg_on_time dict.
    chains_rows: Dict[str, List[List[int]]] = {}
    chains_order: List[str] = []
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
                    row = [
                        occ_of.get((gid, k + shift), num_slots)
                        for gid, shift in checks
                    ]
                    if app_name not in chains_rows:
                        chains_rows[app_name] = []
                        chains_order.append(app_name)
                    chains_rows[app_name].append(row)
                    k += 1

    pad_index = num_slots + 1  # the always-on-time padding column
    chain_programs = []
    for app_name in chains_order:
        rows = chains_rows[app_name]
        width = max((len(row) for row in rows), default=0)
        matrix = np.full((len(rows), width), pad_index, dtype=np.intp)
        for i, row in enumerate(rows):
            matrix[i, : len(row)] = row
        chain_programs.append((app_name, len(rows), matrix))

    successor = transmits = None
    if program.policy is NodePolicy.LOCAL_BELIEF:
        successor, transmits = _belief_tables(program)

    return Timeline(
        num_rounds=len(slots_per_round),
        num_slots=num_slots,
        slots_per_round=np.asarray(slots_per_round, dtype=np.int64),
        slot_round=np.asarray(slot_round, dtype=np.intp),
        slot_sender=np.asarray(slot_sender, dtype=np.intp),
        slot_deadline_ok=np.asarray(slot_deadline_ok, dtype=bool),
        flow_slots=tuple(
            (gid, np.asarray(flow_lists[gid], dtype=np.intp))
            for gid in seen_order
        ),
        consumers=consumers,
        has_consumers=consumers.any(axis=1),
        chain_programs=tuple(chain_programs),
        switch_delays=tuple(
            new_start - req_at for req_at, new_start, _f, _t in switches
        ),
        round_uid=np.asarray(round_uid, dtype=np.intp),
        round_reset=np.asarray(round_reset, dtype=np.intp),
        slot_position=np.asarray(slot_position, dtype=np.intp),
        belief_successor=successor,
        belief_transmits=transmits,
    )


# -- which slots deliver ------------------------------------------------------


@dataclass(frozen=True)
class Delivery:
    """Who transmitted in every slot of every trial, reduced.

    Attributes:
        delivering: ``(T, S)`` the slot's scheduled sender is its only
            transmitter, so its data flood runs.
        collisions: ``(T,)`` int64 slots with more than one transmitter.
        stray: ``(T, N)`` int64 slots each node transmits in without
            having heard the round's beacon — radio-on time on top of
            the beacon receivers' participation.  ``None`` under beacon
            gating, where only beacon receivers ever transmit.
    """

    delivering: np.ndarray
    collisions: np.ndarray
    stray: Optional[np.ndarray]


def slot_delivery(
    program: SystemProgram, timeline: Timeline, beacon: np.ndarray
) -> Delivery:
    """Decide, per trial, which slots deliver given who heard which beacon.

    ``beacon`` is the ``(T, R, N)`` reception tensor.  Under beacon
    gating a slot delivers when its sender heard the round's beacon
    (the only candidate transmitter of a slot is its scheduled sender).

    Under ``LOCAL_BELIEF`` every node acts on the round it *believes*
    executes: the announced round when it heard the beacon, otherwise
    the successor of its previous belief (nothing before its first
    beacon), and a node that heard a mode-switch beacon resets to the
    new mode's last round.  That recurrence is sequential in rounds and
    parallel in trials, so it runs as **one** loop over ``R`` on a
    ``(trials, nodes)`` belief matrix (:func:`repro.mc.fastpath.run_program`
    walks the same recurrence one trial at a time).  A slot
    delivers when exactly one node transmits in it and that node is
    the scheduled sender; more than one transmitter is a collision.
    """
    trials = beacon.shape[0]
    if program.policy is not NodePolicy.LOCAL_BELIEF:
        return Delivery(
            delivering=beacon[:, timeline.slot_round, timeline.slot_sender],
            collisions=np.zeros(trials, dtype=np.int64),
            stray=None,
        )

    nodes = beacon.shape[2]
    successor = timeline.belief_successor
    belief = np.full((trials, nodes), len(successor) - 1, dtype=np.intp)
    predicted = np.empty((trials, timeline.num_rounds, nodes), dtype=np.intp)
    for r in range(timeline.num_rounds):
        heard = beacon[:, r, :]
        belief = np.where(heard, timeline.round_uid[r], successor[belief])
        predicted[:, r, :] = belief
        reset = timeline.round_reset[r]
        if reset >= 0:
            belief = np.where(heard, reset, belief)

    # (T, S, N): node n transmits in slot s.
    transmits = timeline.belief_transmits[
        predicted[:, timeline.slot_round, :],
        np.arange(nodes),
        timeline.slot_position[:, None],
    ]
    count = transmits.sum(axis=2)
    sender_transmits = transmits[
        :, np.arange(timeline.num_slots), timeline.slot_sender
    ]
    heard_slots = beacon[:, timeline.slot_round, :]
    return Delivery(
        delivering=(count == 1) & sender_transmits,
        collisions=(count > 1).sum(axis=1, dtype=np.int64),
        stray=(transmits & ~heard_slots).sum(axis=1, dtype=np.int64),
    )


# -- vectorized loss samplers -------------------------------------------------
#
# A vector sampler turns per-trial stream keys (repro.core.rng.stream_keys)
# into the full loss bitmask tensor: sample(keys) -> (beacon, data) with
# beacon of shape (trials, rounds, nodes) and data of shape (trials,
# slots, nodes), both boolean.  The beacon host bit and the data sender
# bit are always set, mirroring the reference models' initiator.  A
# stochastic sampler makes one repro.core.rng.uniforms call over its
# per-trial draw layout (``draws`` uniforms per trial), so trial t's
# rows depend on keys[t] alone — the property that makes results
# invariant to trial batching.  Deterministic primitives draw nothing
# and return broadcast views (one realization, shared by every trial,
# at no memory cost).  There is one sampler per primitive of
# :mod:`repro.runtime.loss`.


class _PerfectVector:
    """No loss: every flood reaches every node, nothing drawn."""

    draws = 0

    def __init__(self, model, program, timeline, host_index) -> None:
        self._shape_b = (timeline.num_rounds, len(program.node_names))
        self._shape_d = (timeline.num_slots, len(program.node_names))

    def sample(self, keys: np.ndarray):
        trials = len(keys)
        beacon = np.broadcast_to(True, (trials,) + self._shape_b)
        data = np.broadcast_to(True, (trials,) + self._shape_d)
        return beacon, data


class _IndependentVector:
    """Tensor form of the ``independent`` primitive: uniform draws
    against the kind's miss probabilities.

    The kind's pure ``miss_row`` is lowered once into a ``(R, N)``
    beacon array (the host's row of every round) and an ``(S, N)`` data
    array (the sender's row of every slot, in the slot's round); rows
    of round-invariant kinds are computed once per (initiator, flood
    type).  Per-trial draw layout: beacon uniforms ``(R, N)`` first,
    then data uniforms ``(S, N)``.  A miss probability of 0 keeps the
    comparison (``u >= 0`` is always true) — same distribution as the
    reference's draw-skipping short-circuit.
    """

    def __init__(
        self,
        model,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        names = program.node_names
        nodes = len(names)
        rows: Dict[tuple, List[float]] = {}

        def row(round_index: int, initiator: int, beacon: bool):
            key = (0 if model.round_invariant else round_index,
                   initiator, beacon)
            if key not in rows:
                rows[key] = model.miss_row(round_index, names[initiator],
                                           beacon, names)
            return rows[key]

        self._beacon_loss = np.array(
            [row(r, host_index, True) for r in range(timeline.num_rounds)],
            dtype=np.float64,
        ).reshape(timeline.num_rounds, nodes)
        self._data_loss = np.array(
            [row(int(r), int(sender), False) for r, sender in
             zip(timeline.slot_round, timeline.slot_sender)],
            dtype=np.float64,
        ).reshape(timeline.num_slots, nodes)
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = nodes
        self._host = host_index
        self._senders = timeline.slot_sender
        self.draws = (self._rounds + self._slots) * nodes

    def sample(self, keys: np.ndarray):
        u = uniforms(keys, (self._rounds + self._slots, self._nodes))
        beacon = u[:, : self._rounds] >= self._beacon_loss
        data = u[:, self._rounds :] >= self._data_loss
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _GilbertElliottVector:
    """Tensor form of the ``markov`` primitive
    (:class:`~repro.runtime.loss.GilbertElliottLoss`).

    Per-trial draw layout: channel-advance uniforms ``(R, N)``,
    beacon-loss uniforms ``(R, N)``, data-loss uniforms ``(S, N)``.
    The two-state Markov recurrence is inherently sequential over
    rounds, so it runs as **one** loop over ``R`` operating on whole
    ``(trials, nodes)`` state matrices — never per trial.  All nodes
    (including the host) advance once per round; data floods reuse the
    round's post-advance state, exactly the reference semantics.
    """

    def __init__(
        self,
        model: GilbertElliottLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        self._p_gb = model.p_good_to_bad
        self._p_bg = model.p_bad_to_good
        self._loss_good = model.loss_good
        self._loss_bad = model.loss_bad
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(program.node_names)
        self._host = host_index
        self._senders = timeline.slot_sender
        self._slot_round = timeline.slot_round
        self.draws = (2 * self._rounds + self._slots) * self._nodes

    def sample(self, keys: np.ndarray):
        trials, rounds = len(keys), self._rounds
        u = uniforms(keys, (2 * rounds + self._slots, self._nodes))
        advance = u[:, :rounds]
        u_beacon = u[:, rounds : 2 * rounds]
        u_data = u[:, 2 * rounds :]

        # Evolve every (trial, node) channel round by round: from BAD,
        # recover when u < p_bg; from GOOD, degrade when u < p_gb.
        bad = np.zeros((trials, self._nodes), dtype=bool)
        bad_rounds = np.empty(advance.shape, dtype=bool)
        for r in range(self._rounds):
            u = advance[:, r, :]
            bad = np.where(bad, u >= self._p_bg, u < self._p_gb)
            bad_rounds[:, r, :] = bad

        loss_r = np.where(bad_rounds, self._loss_bad, self._loss_good)
        beacon = u_beacon >= loss_r
        beacon[:, :, self._host] = True
        loss_s = loss_r[:, self._slot_round, :]
        data = u_data >= loss_s
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


class _ScriptVector:
    """Tensor form of the ``script`` primitive (deterministic).

    The beacon count advances once per round; the data count advances
    only for *delivering* slots — and with a deterministic beacon
    sequence, which slots deliver (:func:`slot_delivery`, under either
    policy) is itself deterministic, so the whole walk over the kind's
    events happens here, once, and one realization is shared by every
    trial as a broadcast view.  Non-delivering slots never read their
    data row (the accumulator masks them out) and are filled
    permissively.  An exhausted trace under ``on_end="error"`` raises
    the model's own :class:`~repro.runtime.loss.TraceExhaustedError` —
    deliberately *not* a :class:`VectorizeError`, so the strict policy
    fails identically on every engine.
    """

    draws = 0

    def __init__(
        self,
        model,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        names = program.node_names
        universe = frozenset(names)

        def receives(event, initiator: int):
            """The event's reception row; ``True`` for all nodes."""
            if event is None:
                return True
            row = np.zeros(len(names), dtype=bool)
            for name in event:
                index = program.node_index.get(name)
                if index is not None:
                    row[index] = True
            row[initiator] = True
            return row

        beacon = np.empty((timeline.num_rounds, len(names)), dtype=bool)
        for r in range(timeline.num_rounds):
            beacon[r] = receives(model.beacon_event(r, universe), host_index)

        delivering = slot_delivery(
            program, timeline, beacon[None]
        ).delivering[0]
        data = np.ones((timeline.num_slots, len(names)), dtype=bool)
        for index, slot in enumerate(np.flatnonzero(delivering)):
            data[slot] = receives(model.data_event(index, universe),
                                  int(timeline.slot_sender[slot]))

        self._beacon = beacon
        self._data = data

    def sample(self, keys: np.ndarray):
        trials = len(keys)
        beacon = np.broadcast_to(self._beacon, (trials,) + self._beacon.shape)
        data = np.broadcast_to(self._data, (trials,) + self._data.shape)
        return beacon, data


class _GlossyVector:
    """Tensor form of the ``flood`` primitive
    (:class:`~repro.runtime.loss.GlossyLoss`): hop-by-hop frontier
    propagation.

    Every beacon and every data slot is one Glossy flood over the whole
    topology, relays included.  The per-trial draw layout is a uniform
    tensor of shape ``(steps, floods, topology nodes)`` with ``steps =
    H + 2N - 1`` and the floods ordered beacons ``(R)`` then data slots
    ``(S)``.  All floods of all trials then advance together, one
    boolean ``(trials, floods, nodes)`` step per hop: a node not yet
    reached receives in step ``t`` with probability ``1 - (1 - p)^k``,
    ``k`` its neighbours transmitting in ``t`` (the reference draws once
    per transmitting neighbour until the first success); a node
    transmits in the ``N`` steps that follow its first reception, the
    initiator in steps ``0 .. N-1``.  The reception sets are finally
    projected onto the program's nodes — a program node outside the
    topology never receives.  The host (beacons) and the sender (data)
    always hold their own packet.
    """

    def __init__(
        self,
        model: GlossyLoss,
        program: SystemProgram,
        timeline: Timeline,
        host_index: int,
    ) -> None:
        simulator = model.simulator
        topology_nodes = model.topology.nodes
        position = {name: i for i, name in enumerate(topology_nodes)}
        names = program.node_names
        if timeline.num_rounds and names[host_index] not in position:
            # The reference floods from the host every round and fails
            # the same way on the first beacon.
            raise ValueError(
                f"initiator {names[host_index]!r} not in topology"
            )
        size = len(topology_nodes)
        adjacency = np.zeros((size, size), dtype=np.float64)
        for a, b in model.topology.graph.edges:
            adjacency[position[a], position[b]] = 1.0
            adjacency[position[b], position[a]] = 1.0
        self._adjacency = adjacency
        degree = int(adjacency.sum(axis=0).max())
        self._reach = 1.0 - (1.0 - simulator.link_success) ** np.arange(
            degree + 1
        )
        self._steps = simulator.num_steps
        self._n_tx = simulator.constants.n_tx

        # Program node -> topology position, -1 outside the topology.
        # A sender outside the topology never hears a beacon, so its
        # data floods never run; its -1 initiator just floods nothing.
        where = np.array([position.get(name, -1) for name in names],
                         dtype=np.intp)
        initiator = np.concatenate([
            np.full(timeline.num_rounds, where[host_index], dtype=np.intp),
            where[timeline.slot_sender],
        ])
        self._flood = np.flatnonzero(initiator >= 0)
        self._initiator = initiator[self._flood]
        self._inside = np.flatnonzero(where >= 0)
        self._inside_at = where[self._inside]
        self._rounds = timeline.num_rounds
        self._slots = timeline.num_slots
        self._nodes = len(names)
        self._host = host_index
        self._senders = timeline.slot_sender
        floods = timeline.num_rounds + timeline.num_slots
        self.draws = self._steps * floods * size

    def sample(self, keys: np.ndarray):
        trials = len(keys)
        steps, n_tx = self._steps, self._n_tx
        floods = self._rounds + self._slots
        size = self._adjacency.shape[0]
        u = uniforms(keys, (steps, floods, size))

        # first[t, f, m]: the step node m starts relaying flood f (its
        # first reception + 1; 0 for the initiator), ``never`` before
        # it is reached.
        never = steps + 1
        first = np.full((trials, floods, size), never, dtype=np.int32)
        first[:, self._flood, self._initiator] = 0
        for step in range(steps):
            sending = (first <= step) & (first + n_tx > step)
            heard_from = sending.reshape(-1, size) @ self._adjacency
            reach = self._reach[heard_from.astype(np.intp)]
            fresh = (first == never) & (
                u[:, step] < reach.reshape(first.shape)
            )
            first[fresh] = step + 1
        received = first != never

        beacon = np.zeros((trials, self._rounds, self._nodes), dtype=bool)
        data = np.zeros((trials, self._slots, self._nodes), dtype=bool)
        beacon[:, :, self._inside] = received[:, : self._rounds,
                                              self._inside_at]
        data[:, :, self._inside] = received[:, self._rounds :,
                                            self._inside_at]
        beacon[:, :, self._host] = True
        data[:, np.arange(self._slots), self._senders] = True
        return beacon, data


#: sampling primitive -> vector sampler builder (see
#: :data:`repro.runtime.loss.PRIMITIVES`).
VECTOR_SAMPLERS: Dict[str, Callable] = {
    "perfect": _PerfectVector,
    "independent": _IndependentVector,
    "script": _ScriptVector,
    "markov": _GilbertElliottVector,
    "flood": _GlossyVector,
}


# -- accumulation and the executor -------------------------------------------


def accumulate_trials(
    program: SystemProgram,
    timeline: Timeline,
    beacon: np.ndarray,
    data: np.ndarray,
    duration: float,
) -> TrialBatch:
    """Reduce the sampled bitmask tensors to the trials' :class:`TrialBatch`.

    All reductions are integer (boolean sums, int64 participation
    counts); floats appear only in the radio-on columns — which is why
    results cannot depend on how trials were chunked into tensors.
    """
    trials = beacon.shape[0]
    node_count = len(program.node_names)

    # A delivering slot (see slot_delivery) counts as delivered when
    # every consumer receives the data flood.
    delivery = slot_delivery(program, timeline, beacon)
    covered = ~np.any(timeline.consumers[None, :, :] & ~data, axis=2)
    delivered = (
        delivery.delivering & covered & timeline.has_consumers[None, :]
    )
    on_time = delivered & timeline.slot_deadline_ok[None, :]

    def per_flow(mask: np.ndarray) -> np.ndarray:
        """``(T, F)`` count of ``mask`` over each flow's slots."""
        columns = np.zeros((trials, len(timeline.flow_slots)), dtype=np.int64)
        for j, (_gid, idx) in enumerate(timeline.flow_slots):
            columns[:, j] = mask[:, idx].sum(axis=1)
        return columns

    # Radio accounting: every node is on for every beacon; during data
    # slots the nodes that heard the round's beacon participate, plus
    # any node transmitting without having heard it (LOCAL_BELIEF).
    if program.radio_beacon_on is not None:
        participation = np.tensordot(
            beacon.astype(np.int64), timeline.slots_per_round, axes=([1], [0])
        )
        if delivery.stray is not None:
            participation += delivery.stray
        radio = (
            timeline.num_rounds * program.radio_beacon_on
            + participation * program.radio_data_on
        )
    else:
        radio = np.zeros((trials, node_count))

    # Chain completeness: gather each instance's check slots from the
    # padded on-time matrix (column S = missing instance, S + 1 = pad).
    pad = np.zeros((trials, 2), dtype=bool)
    pad[:, 1] = True
    padded = np.concatenate([on_time, pad], axis=1)
    chain_complete = np.zeros(
        (trials, len(timeline.chain_programs)), dtype=np.int64
    )
    for j, (_app, _total, matrix) in enumerate(timeline.chain_programs):
        chain_complete[:, j] = padded[:, matrix].all(axis=2).sum(axis=1)

    def every_trial(values, dtype) -> np.ndarray:
        """``(T, len(values))``: the same deterministic row per trial."""
        return np.tile(np.asarray(values, dtype=dtype), (trials, 1))

    return TrialBatch(
        flows=tuple(
            program.message_names[gid] for gid, _idx in timeline.flow_slots
        ),
        apps=tuple(app for app, _total, _m in timeline.chain_programs),
        nodes=program.node_names,
        rounds=np.full(trials, timeline.num_rounds, dtype=np.int64),
        collisions=delivery.collisions,
        beacon_heard=beacon.sum(axis=(1, 2), dtype=np.int64),
        beacon_expected=np.full(
            trials, node_count * timeline.num_rounds, dtype=np.int64
        ),
        flow_on_time=per_flow(on_time),
        flow_delivered=per_flow(delivered),
        flow_total=every_trial(
            [idx.size for _gid, idx in timeline.flow_slots], np.int64
        ),
        chain_complete=chain_complete,
        chain_total=every_trial(
            [total for _app, total, _m in timeline.chain_programs], np.int64
        ),
        radio_on=radio,
        switch_delays=every_trial(timeline.switch_delays, np.float64).ravel(),
        switch_counts=np.full(
            trials, len(timeline.switch_delays), dtype=np.int64
        ),
        duration=np.full(trials, duration, dtype=np.float64),
    )


def _chunk_size(program: SystemProgram, timeline: Timeline, sampler) -> int:
    """Trials per tensor chunk under :data:`TENSOR_BUDGET_BYTES`."""
    cells = (timeline.num_rounds + timeline.num_slots) * max(
        len(program.node_names), 1
    )
    # Bool masks plus float and integer work tensors per cell, rounded
    # up; the LOCAL_BELIEF scan adds a round id and transmit masks per
    # cell.  Every float64 uniform the sampler draws comes on top.
    per_cell = 40 if program.policy is NodePolicy.LOCAL_BELIEF else 24
    per_trial = max(cells * per_cell + 8 * sampler.draws, 1)
    return max(1, TENSOR_BUDGET_BYTES // per_trial)


def run_trials_vectorized(
    context,
    loss_kind: Optional[str],
    loss_params: Optional[dict],
    seeds: Sequence[SeedLike],
) -> TrialBatch:
    """Execute many trials of one scenario as one tensor program.

    Args:
        context: The scenario's :class:`~repro.runtime.trial.TrialContext`.
        loss_kind: Loss model kind, or ``None`` for perfect links.
        loss_params: Loss model parameters **without** a per-trial
            ``seed`` — seeds are the explicit last argument here.
        seeds: One seed per trial, of any type
            :func:`repro.core.rng.make_rng` accepts (``None`` draws OS
            entropy, like the reference models).  Each becomes the
            trial's stream key (:func:`repro.core.rng.stream_keys`),
            and each uniform is a pure function of (key, draw index),
            so the result is byte-identical however the trials are
            split across calls, chunks or processes.

    Returns:
        The :class:`~repro.runtime.trial.TrialBatch` of the trials, in
        ``seeds`` order.

    Raises:
        VectorizeError: when the scenario or loss kind is unsupported —
            callers normally gate on
            :func:`repro.runtime.trial.trial_engine` first.
        ValueError: for a seed :func:`repro.core.rng.make_rng` rejects.
    """
    primitive = loss_primitive(loss_kind)
    if primitive is None:
        raise VectorizeError(
            f"no vectorized sampler for loss kind {loss_kind!r}: it "
            f"lowers onto no sampling primitive"
        )
    program = context.compiled()
    if program is None:
        raise VectorizeError(
            f"scenario does not compile: {context.compile_error}"
        )
    host_index = program.resolve_host(context.host_node)
    if host_index is None:
        raise VectorizeError(
            f"host {context.host_node!r} is outside the compiled node "
            f"universe; the reference simulator handles it"
        )
    timeline = context.timeline()

    # Build the model once for validation and for its pure description
    # (miss probabilities, scripted events, chain parameters); its
    # scalar RNG is never consumed here.
    model: LossModel = (
        build_loss(loss_kind, loss_params, context.topology)
        if loss_kind is not None
        else PerfectLinks()
    )
    sampler = VECTOR_SAMPLERS[primitive](model, program, timeline, host_index)

    keys = stream_keys(seeds)
    batches: List[TrialBatch] = []
    chunk = _chunk_size(program, timeline, sampler)
    for start in range(0, len(keys), chunk):
        beacon, data = sampler.sample(keys[start : start + chunk])
        batches.append(
            accumulate_trials(program, timeline, beacon, data, context.duration)
        )
    return TrialBatch.concat(batches)
