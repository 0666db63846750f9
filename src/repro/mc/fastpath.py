"""Trace-free trial execution over the scenario's host timeline.

TTW's host is time-triggered: which round of which mode runs when,
when a mode change triggers, which slot records which message
instance against which deadline, and which chain instances are judged
are all fixed before the first trial, and loss only decides who hears
each flood.  :func:`repro.mc.vectorized.unroll_timeline` computes that
host timeline once per scenario (cached by
:meth:`~repro.runtime.trial.TrialContext.timeline`), and
:func:`run_program` executes one seeded trial by walking its rounds in
order, doing only the per-trial work: it samples each flood, decides
which slots deliver (beacon gating, or the ``LOCAL_BELIEF`` nodes'
beliefs), adds radio-on time per node in chronological order (so the
floating-point sums match the reference's addition order bit for
bit), and reads the flow counts and chain completeness of a
:class:`~repro.runtime.trial.TrialResult` off the slots' on-time
flags.  No ``Trace``, no ``SlotRecord``/``MessageInstanceRecord``
objects, no post-hoc ``summarize_trace`` pass.

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
(:mod:`repro.mc.vectorized`) walks the same timeline with tensor
samplers, all trials at once, and never steps down to this engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..runtime.compiled import SystemProgram, names_to_mask
from ..runtime.loss import (
    GilbertElliottLoss,
    LossModel,
    PerfectLinks,
    loss_primitive,
)
from ..runtime.simulator import NodePolicy
from ..runtime.trial import TrialResult
from .vectorized import Timeline


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
    timeline: Timeline,
    sampler,
    duration: float,
    host_node: Optional[str] = None,
) -> TrialResult:
    """Execute one trial over ``program``'s host timeline and summarize it.

    ``timeline`` is ``program`` unrolled over ``duration`` (what
    :meth:`~repro.runtime.trial.TrialContext.timeline` returns); it
    fixes every round, slot, deadline flag and chain check, so this
    walk only samples floods and counts.  Semantically equal to
    ``summarize_trace(RuntimeSimulator(...).run(duration,
    mode_requests, host_node))`` — bit for bit, including the
    floating-point accumulation order of radio-on time — but without
    constructing any trace objects.
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
    account_radio = beacon_on is not None
    radio = [0.0] * node_count

    # Slot rows and transmit tables by global round id.
    rounds_by_uid = [
        program.modes[mode_id].slot_rows[index]
        for mode_id, index in zip(program.uid_mode, program.uid_index)
    ]
    if local_belief:
        # Round id U (the last entry) is "no belief yet": it transmits
        # nowhere and is its own successor.
        successor = timeline.belief_successor.tolist()
        transmits = [
            program.modes[mode_id].tx_slot_masks[index]
            for mode_id, index in zip(program.uid_mode, program.uid_index)
        ] + [(0,) * node_count]
        resets = timeline.round_reset.tolist()
        beliefs = [len(successor) - 1] * node_count

    heard = 0
    collisions = 0
    slot_delivered = []  # per executed slot, in timeline order

    for round_index, uid in enumerate(timeline.round_uid.tolist()):
        beacon_mask = sampler.beacon_mask(host_index)
        heard += beacon_mask.bit_count()

        if account_radio:
            for index in range(node_count):
                radio[index] += beacon_on

        if local_belief:
            # Each node acts on the round it believes executes: the
            # announced one when it heard the beacon, else the
            # successor of its previous belief.
            predicted_masks = []
            for index in range(node_count):
                if beacon_mask >> index & 1:
                    belief = uid
                else:
                    belief = successor[beliefs[index]]
                beliefs[index] = belief
                predicted_masks.append(transmits[belief][index])

        for slot_index, row in enumerate(rounds_by_uid[uid]):
            sender_index, sender_bit, consumers_mask = row[1:4]

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
            slot_delivered.append(
                delivering
                and consumers_mask != 0
                and receive_mask & consumers_mask == consumers_mask
            )

            if account_radio and (beacon_mask or tx_mask):
                participants = beacon_mask | tx_mask
                while participants:
                    low = participants & -participants
                    radio[low.bit_length() - 1] += data_on
                    participants ^= low

        if local_belief and resets[round_index] >= 0:
            # Nodes that heard a mode-switch beacon predict round 0 of
            # the new mode next.
            for index in range(node_count):
                if beacon_mask >> index & 1:
                    beliefs[index] = resets[round_index]

    # -- read the counts off the per-slot flags ----------------------------
    delivered = np.array(slot_delivered, dtype=bool)
    on_time = delivered & timeline.slot_deadline_ok
    # Chain checks index S (a missing instance) and S + 1 (padding).
    padded = np.append(on_time, (False, True))

    return TrialResult(
        rounds=timeline.num_rounds,
        collisions=collisions,
        beacon_heard=(heard, node_count * timeline.num_rounds),
        messages={
            program.message_names[gid]: (
                int(np.count_nonzero(on_time[slots])),
                int(np.count_nonzero(delivered[slots])),
                len(slots),
            )
            for gid, slots in timeline.flow_slots
        },
        chains={
            app: (int(np.count_nonzero(padded[checks].all(axis=1))), total)
            for app, total, checks in timeline.chain_programs
        },
        radio_on=dict(zip(program.node_names, radio)),
        switch_delays=list(timeline.switch_delays),
        duration=duration,
    )
