"""Compiled round programs — the static half of both compiled engines.

The reference :class:`~repro.runtime.simulator.RuntimeSimulator` walks
Python objects slot by slot and materializes a full
:class:`~repro.runtime.trace.Trace` that the campaign layer immediately
collapses into a handful of aggregates.  For a campaign of thousands of
trials that is pure interpreter overhead: everything about a round
except the loss realization is known *before the first trial runs*.

:func:`compile_program` lowers a deployment set into an immutable
:class:`SystemProgram` of plain per-round rows, computed **once per
scenario** and reused by every trial:

* node names become dense indices (sorted order, the same order every
  loss model consumes its random stream in), so receiver sets become
  integer bitmasks;
* every slot of every round of every mode becomes one row tuple:
  message id, sender index, consumer bitmask, period/offset/deadline,
  the ``instance = occurrence * per_hp + position - leftover``
  bookkeeping, and the sigma shift of the drain rule — exactly the
  values ``_record_message_instance`` re-derives per slot;
* globally unique round ids, per-node transmit tables (for the
  ``LOCAL_BELIEF`` ablation), per-application drain rows, and
  end-to-end chain programs (latency, first offset, per-message sigma
  shifts) are tabulated the same way;
* the radio-on constants (beacon/data slot on-times) are evaluated
  once instead of per round.

:func:`repro.mc.vectorized.unroll_timeline` walks this program once
into the scenario's deterministic host timeline; both compiled
engines run their trials over that timeline — :mod:`repro.mc.fastpath`
one trial at a time on the reference's scalar random streams,
:mod:`repro.mc.vectorized` all trials at once as tensors.  The
contract binding ``fast`` to the reference: a fast trial is
**bit-identical** to ``summarize_trace`` of the reference simulator
under the same seed (asserted by ``tests/mc/test_fastpath.py`` over a
seed × policy × loss-model matrix).  Anything the compiler cannot
prove it supports raises :class:`CompileError`, and the caller falls
back to the reference simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.latency import chain_latency
from ..core.modes import Mode
from ..timing import slot_on_time
from .deployment import ModeDeployment
from .simulator import NodePolicy, RadioTiming


class CompileError(Exception):
    """A scenario feature the round-program compiler does not support.

    Raising this is not an error condition for the caller: the trial
    entry point catches it and transparently runs the reference
    simulator instead (see ``repro.runtime.trial.run_trial``).
    """


@dataclass(frozen=True)
class ModeProgram:
    """One mode's rounds, lowered to plain Python rows.

    Rows are tuples of plain Python ints and floats: the timeline
    unroll's arithmetic must be plain-float to match the reference
    simulator bit for bit, and tuple access is what a per-round Python
    loop reads fastest.

    Attributes:
        num_rounds: Rounds per hyperperiod.
        hyperperiod: Mode hyperperiod (ms).
        round_length: Round length (ms) — the new-mode origin offset.
        uid_base: Globally unique id of this mode's round 0.
        round_starts_list: ``r.t`` per round index, relative to the
            hyperperiod (ms).
        slot_rows: Per round index, one row per allocated message, in
            slot order: ``(gid, sender_index, sender_bit,
            consumers_mask, record, period, offset, deadline, per_hp,
            position_minus_leftover, shift)``.  ``record`` is False
            only for messages outside every application (their
            ``period`` is NaN).
        tx_slot_masks: Per round-index, per node-index bitmask of slot
            indices the node transmits in — the ``LOCAL_BELIEF``
            transmit tables.
    """

    num_rounds: int
    hyperperiod: float
    round_length: float
    uid_base: int
    round_starts_list: Tuple[float, ...]
    slot_rows: Tuple[Tuple[tuple, ...], ...]
    tx_slot_masks: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class SystemProgram:
    """A full deployment set, compiled for trace-free trial execution.

    Attributes:
        node_names: All nodes, sorted — index ``i`` is bit ``1 << i``
            in every mask.
        node_index: Name → index.
        host_default: The node the simulator hosts beacons on when the
            trial does not override it.
        full_mask: Bitmask with every node bit set.
        initial_mode: Mode id the system boots into.
        policy: Node transmission policy the program was compiled for.
        modes: ``mode_id -> ModeProgram``.
        uid_mode / uid_index: Globally-unique round id → (mode id,
            round index), as flat tuples.
        message_names: Global message id → name (ids are dense; names
            shared across modes share the id, exactly like the
            reference trace keys message records by name).
        drain_rows: ``mode_id -> ((period, deadline), ...)`` per
            application — the host's drain-deadline inputs.
        chain_rows: ``mode_id -> ((app_name, period, chains), ...)``
            with ``chains = ((first_offset, latency, checks), ...)``
            and ``checks = ((gid, sigma_shift), ...)`` per chain
            message — everything ``_account_chains`` needs.
        radio_beacon_on / radio_data_on: Per-flood radio-on time (ms),
            ``None`` when the trial does no radio accounting.
        payload_bytes: Data-flood payload handed to loss models.
    """

    node_names: Tuple[str, ...]
    node_index: Dict[str, int]
    host_default: Optional[str]
    full_mask: int
    initial_mode: int
    policy: NodePolicy
    modes: Dict[int, ModeProgram]
    uid_mode: Tuple[int, ...]
    uid_index: Tuple[int, ...]
    message_names: Tuple[str, ...]
    drain_rows: Dict[int, Tuple[Tuple[float, float], ...]]
    chain_rows: Dict[int, tuple]
    radio_beacon_on: Optional[float]
    radio_data_on: Optional[float]
    payload_bytes: int

    def resolve_host(self, host_node: Optional[str]) -> Optional[int]:
        """Node index of the beacon host, following the simulator's
        rule (explicit override, else a node named ``"host"``, else
        the lexicographically first node) — or ``None`` when the
        resolved host is outside the compiled node universe (e.g. a
        base station owning no tasks or messages), which the fast path
        cannot mask and must hand to the reference simulator."""
        host = host_node or self.host_default or self.node_names[0]
        return self.node_index.get(host)


def names_to_mask(names, node_index: Dict[str, int]) -> int:
    """Node names → bitmask over ``node_index``; unknown names drop out
    (matching the reference simulator, which intersects receiver sets
    with its node universe).  Shared by the compiler and the fast-path
    samplers so unknown-name handling cannot drift between them."""
    mask = 0
    for name in names:
        index = node_index.get(name)
        if index is not None:
            mask |= 1 << index
    return mask


def compile_program(
    modes: Dict[int, Mode],
    deployments: Dict[int, ModeDeployment],
    initial_mode: int,
    policy: NodePolicy = NodePolicy.BEACON_GATED,
    radio: Optional[RadioTiming] = None,
) -> SystemProgram:
    """Lower a deployment set into a :class:`SystemProgram`.

    Mirrors :class:`~repro.runtime.simulator.RuntimeSimulator`'s
    constructor arguments; the result is immutable and shared by every
    trial of a scenario (and across processes via the trial-pool
    context cache).

    Raises:
        CompileError: for inputs the fast path does not support — the
            caller falls back to the reference simulator.
    """
    if initial_mode not in deployments:
        raise CompileError(f"unknown initial mode id {initial_mode}")
    if set(modes) != set(deployments):
        raise CompileError("modes and deployments must have matching ids")
    if not isinstance(policy, NodePolicy):
        raise CompileError(f"unsupported node policy {policy!r}")

    # Node universe and host resolution — same rule as the simulator.
    all_nodes = set()
    for deployment in deployments.values():
        all_nodes.update(deployment.node_tables)
        all_nodes.update(deployment.message_senders.values())
    if not all_nodes:
        raise CompileError("deployments name no nodes")
    node_names = tuple(sorted(all_nodes))
    node_index = {name: i for i, name in enumerate(node_names)}
    host_default = "host" if "host" in node_index else None
    full_mask = (1 << len(node_names)) - 1

    # Global message ids: every message allocated in any round, plus
    # chain messages that are never allocated (their instance lookups
    # must miss, exactly like the reference trace's delivered-dict).
    message_names: List[str] = []
    gid_of: Dict[str, int] = {}

    def gid(name: str) -> int:
        if name not in gid_of:
            gid_of[name] = len(message_names)
            message_names.append(name)
        return gid_of[name]

    # Globally unique round ids, in the simulator's assignment order.
    uid_mode: List[int] = []
    uid_index: List[int] = []
    uid_base: Dict[int, int] = {}
    for mode_id in sorted(deployments):
        uid_base[mode_id] = len(uid_mode)
        for idx in range(deployments[mode_id].num_rounds):
            uid_mode.append(mode_id)
            uid_index.append(idx)

    mode_programs: Dict[int, ModeProgram] = {}
    drain_rows: Dict[int, Tuple[Tuple[float, float], ...]] = {}
    chain_rows: Dict[int, tuple] = {}
    for mode_id in sorted(deployments):
        deployment = deployments[mode_id]
        mode = modes[mode_id]
        mode_programs[mode_id] = _compile_mode(
            deployment, node_index, gid, uid_base[mode_id]
        )
        drain_rows[mode_id] = tuple(
            (app.period, app.deadline) for app in mode.applications
        )
        chain_rows[mode_id] = _compile_chains(mode, deployment, gid)

    if radio is not None:
        # The timing model works in seconds; the trace in milliseconds.
        beacon_on = 1e3 * slot_on_time(
            radio.constants.l_beacon, radio.diameter, radio.constants
        )
        data_on = 1e3 * slot_on_time(
            radio.payload_bytes, radio.diameter, radio.constants
        )
        payload = radio.payload_bytes
    else:
        beacon_on = data_on = None
        payload = 0

    return SystemProgram(
        node_names=node_names,
        node_index=node_index,
        host_default=host_default,
        full_mask=full_mask,
        initial_mode=initial_mode,
        policy=policy,
        modes=mode_programs,
        uid_mode=tuple(uid_mode),
        uid_index=tuple(uid_index),
        message_names=tuple(message_names),
        drain_rows=drain_rows,
        chain_rows=chain_rows,
        radio_beacon_on=beacon_on,
        radio_data_on=data_on,
        payload_bytes=payload,
    )


def _compile_mode(
    deployment: ModeDeployment,
    node_index: Dict[str, int],
    gid,
    uid_base: int,
) -> ModeProgram:
    schedule = deployment.schedule
    num_rounds = deployment.num_rounds

    # Rounds a message is allocated in (the reference recomputes this
    # list — and its `.index()` — per executed slot).
    allocated: Dict[str, List[int]] = {}
    for r_index, messages in enumerate(deployment.round_messages):
        for message in messages:
            allocated.setdefault(message, []).append(r_index)

    slot_rows = []
    for r_index, messages in enumerate(deployment.round_messages):
        rows = []
        for message in messages:
            sender = node_index[deployment.message_senders[message]]
            period = deployment.message_periods.get(message)
            rounds_of = allocated[message]
            rows.append((
                gid(message),
                sender,
                1 << sender,
                names_to_mask(
                    deployment.message_consumers[message], node_index
                ),
                period is not None,
                math.nan if period is None else period,
                schedule.message_offsets[message],
                schedule.message_deadlines[message],
                len(rounds_of),
                rounds_of.index(r_index) - schedule.leftover.get(message, 0),
                deployment.message_shifts.get(message, 0),
            ))
        slot_rows.append(tuple(rows))

    # LOCAL_BELIEF transmit tables: per (round index, node index), the
    # bitmask of slot indices the node's deployment table assigns it.
    tx_slot_masks = []
    for r_index in range(num_rounds):
        row = [0] * len(node_index)
        for name, table in deployment.node_tables.items():
            mask = 0
            for s_index, _msg in table.slot_for_round(r_index):
                mask |= 1 << s_index
            row[node_index[name]] = mask
        tx_slot_masks.append(tuple(row))

    return ModeProgram(
        num_rounds=num_rounds,
        hyperperiod=deployment.hyperperiod,
        round_length=schedule.config.round_length,
        uid_base=uid_base,
        round_starts_list=tuple(
            float(start) for start in deployment.round_starts
        ),
        slot_rows=tuple(slot_rows),
        tx_slot_masks=tuple(tx_slot_masks),
    )


def _compile_chains(mode: Mode, deployment: ModeDeployment, gid) -> tuple:
    schedule = deployment.schedule
    rows = []
    for app in mode.applications:
        chains = []
        for chain in app.chains():
            latency = chain_latency(
                app, chain, schedule.task_offsets, schedule.sigma
            )
            first_offset = schedule.task_offsets[chain.first_task]
            checks = []
            shift = 0
            for i in range(len(chain.elements) - 1):
                src = chain.elements[i]
                dst = chain.elements[i + 1]
                shift += schedule.sigma.get((src, dst), 0)
                if dst in app.messages:
                    checks.append((gid(dst), shift))
            chains.append((first_offset, latency, tuple(checks)))
        rows.append((app.name, app.period, tuple(chains)))
    return tuple(rows)
