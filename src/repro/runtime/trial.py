"""Seedable single-trial execution — the Monte-Carlo worker entry point.

One *trial* is one end-to-end run of the :class:`RuntimeSimulator`
under one loss realization, reduced to the compact statistics the
evaluation layer aggregates.  The module is deliberately shaped for
process pools:

* :func:`build_context` rebuilds everything that is **shared across
  trials** (modes, deployments, radio timing, topology, the simulation
  parameters) from one JSON dict — workers do this once, at pool
  initialization, not per trial;
* :func:`execute_trial` runs **one seeded trial** against a context and
  returns a plain JSON dict, so results cross process boundaries in the
  same stable representation the rest of the engine uses;
* :func:`execute_trial_batch` runs many seeded trials and returns them
  as one :class:`TrialBatch` — per-trial counts as numpy columns,
  which is what the campaign aggregator reduces;
* :func:`summarize_trace` is the trace -> statistics reduction, shared
  with the in-process path so a pooled trial is *bit-identical* to the
  same seed run through ``Experiment.run(simulate=True)``.

Determinism contract: a trial is a pure function of ``(context,
loss-kind, loss-params)``.  All randomness lives in the loss model,
every loss model consumes its random stream in sorted-node order (see
:mod:`repro.runtime.loss`), and schedules round-trip JSON exactly — so
equal seeds give equal traces in any process on any platform.

Trials run on one of :data:`ENGINES`, resolved per scenario by
:func:`trial_engine`.  Both compiled engines (``fast`` and
``vectorized``) implement the sampling primitives every built-in loss
kind lowers onto (see :mod:`repro.runtime.loss`), under both node
policies (the ``LOCAL_BELIEF`` ablation included); a request runs as
asked or falls back to ``reference`` — for loss kinds that lower onto
no primitive, scenarios the compiler rejects, and beacon hosts outside
the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.modes import Mode
from ..net.topology import Topology, build_topology
from .deployment import ModeDeployment, build_deployment
from .loss import SEEDABLE_KINDS, build_loss, reseeded, supports_loss_kind
from .simulator import ModeRequest, NodePolicy, RadioTiming, RuntimeSimulator
from .trace import Trace


@dataclass
class TrialResult:
    """Compact statistics of one simulated trial.

    Everything the campaign aggregator needs, nothing trace-sized: the
    full :class:`~repro.runtime.trace.Trace` of a long run is orders of
    magnitude larger and never crosses the process boundary.

    Attributes:
        rounds: Communication rounds executed.
        collisions: Collided slots (must be 0 under beacon gating).
        beacon_heard: ``(received, expected)`` beacon receptions summed
            over all rounds and nodes.
        messages: Per-flow ``(on_time, delivered, total)`` message
            instance counts.
        chains: Per-application ``(complete, total)`` end-to-end chain
            instance counts.
        radio_on: Radio-on time per node (ms).
        switch_delays: Request-to-new-mode-start delay of every
            completed mode change, in completion order (ms).
        duration: Simulated horizon (ms).
    """

    rounds: int = 0
    collisions: int = 0
    beacon_heard: Tuple[int, int] = (0, 0)
    messages: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    chains: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    radio_on: Dict[str, float] = field(default_factory=dict)
    switch_delays: List[float] = field(default_factory=list)
    duration: float = 0.0

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "collisions": self.collisions,
            "beacon_heard": list(self.beacon_heard),
            "messages": {k: list(v) for k, v in self.messages.items()},
            "chains": {k: list(v) for k, v in self.chains.items()},
            "radio_on": dict(self.radio_on),
            "switch_delays": list(self.switch_delays),
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialResult":
        return cls(
            rounds=data["rounds"],
            collisions=data["collisions"],
            beacon_heard=tuple(data["beacon_heard"]),
            messages={k: tuple(v) for k, v in data["messages"].items()},
            chains={k: tuple(v) for k, v in data["chains"].items()},
            radio_on=dict(data["radio_on"]),
            switch_delays=list(data["switch_delays"]),
            duration=data["duration"],
        )

    # -- derived rates ---------------------------------------------------
    def total_radio_on(self) -> float:
        """Radio-on summed over nodes, left to right in sorted-node order.

        A plain loop, not ``sum``: ``sum`` compensates float rounding on
        Python >= 3.12, and :meth:`~repro.mc.stats.CampaignStats.aggregate`
        adds a :class:`TrialBatch`'s radio columns in exactly this order.
        """
        total = 0.0
        for node in sorted(self.radio_on):
            total += self.radio_on[node]
        return total

    def message_counts(self) -> Tuple[int, int, int]:
        """``(on_time, delivered, total)`` summed over all flows."""
        on_time = delivered = total = 0
        for counts in self.messages.values():
            on_time += counts[0]
            delivered += counts[1]
            total += counts[2]
        return on_time, delivered, total


def _union(key_sets) -> Tuple[str, ...]:
    """Every key of ``key_sets``, in first-seen order."""
    return tuple(dict.fromkeys(key for keys in key_sets for key in keys))


def _widen(columns: np.ndarray, have: Tuple[str, ...],
           want: Tuple[str, ...]) -> np.ndarray:
    """``columns`` keyed by ``have``, re-keyed by ``want`` (missing: 0)."""
    if have == want:
        return columns
    wide = np.zeros((columns.shape[0], len(want)), dtype=columns.dtype)
    wide[:, [want.index(key) for key in have]] = columns
    return wide


@dataclass(eq=False)
class TrialBatch:
    """The statistics of many trials, one numpy column per field.

    The columnar form of a list of :class:`TrialResult`: row ``t`` of
    every per-trial array is trial ``t``.  The vectorized kernel fills
    it straight from its tensors, pool workers return it as plain
    arrays, and :meth:`~repro.mc.stats.CampaignStats.aggregate` reduces
    it column by column; :meth:`results` is the only place that builds
    per-trial objects.

    Attributes:
        flows: Flow names — the columns of the ``flow_*`` arrays.
        apps: Application names — the columns of the ``chain_*`` arrays.
        nodes: Node names, sorted — the columns of ``radio_on``.
        rounds: ``(T,)`` int64 rounds executed.
        collisions: ``(T,)`` int64 collided slots.
        beacon_heard: ``(T,)`` int64 beacon receptions.
        beacon_expected: ``(T,)`` int64 expected beacon receptions.
        flow_on_time: ``(T, F)`` int64 on-time message instances.
        flow_delivered: ``(T, F)`` int64 delivered message instances.
        flow_total: ``(T, F)`` int64 message instances.
        chain_complete: ``(T, A)`` int64 complete chain instances.
        chain_total: ``(T, A)`` int64 chain instances.
        radio_on: ``(T, N)`` float64 radio-on time per node (ms).
        switch_delays: float64, every trial's switch delays back to
            back, in trial order.
        switch_counts: ``(T,)`` int64 how many of ``switch_delays``
            belong to each trial.
        duration: ``(T,)`` float64 simulated horizon (ms).
    """

    flows: Tuple[str, ...]
    apps: Tuple[str, ...]
    nodes: Tuple[str, ...]
    rounds: np.ndarray
    collisions: np.ndarray
    beacon_heard: np.ndarray
    beacon_expected: np.ndarray
    flow_on_time: np.ndarray
    flow_delivered: np.ndarray
    flow_total: np.ndarray
    chain_complete: np.ndarray
    chain_total: np.ndarray
    radio_on: np.ndarray
    switch_delays: np.ndarray
    switch_counts: np.ndarray
    duration: np.ndarray

    def __len__(self) -> int:
        return len(self.rounds)

    @classmethod
    def from_results(cls, results: Sequence[TrialResult]) -> "TrialBatch":
        """The columns of ``results``, over the union of their flow, app
        and node keys; a trial without a key counts 0 there."""
        flows = _union(result.messages for result in results)
        apps = _union(result.chains for result in results)
        nodes = tuple(sorted(_union(result.radio_on for result in results)))
        count = len(results)
        messages = np.array(
            [[result.messages.get(flow, (0, 0, 0)) for flow in flows]
             for result in results],
            dtype=np.int64,
        ).reshape(count, len(flows), 3)
        chains = np.array(
            [[result.chains.get(app, (0, 0)) for app in apps]
             for result in results],
            dtype=np.int64,
        ).reshape(count, len(apps), 2)
        beacon = np.array(
            [result.beacon_heard for result in results], dtype=np.int64
        ).reshape(count, 2)
        return cls(
            flows=flows,
            apps=apps,
            nodes=nodes,
            rounds=np.array([r.rounds for r in results], dtype=np.int64),
            collisions=np.array(
                [r.collisions for r in results], dtype=np.int64
            ),
            beacon_heard=beacon[:, 0],
            beacon_expected=beacon[:, 1],
            flow_on_time=messages[:, :, 0],
            flow_delivered=messages[:, :, 1],
            flow_total=messages[:, :, 2],
            chain_complete=chains[:, :, 0],
            chain_total=chains[:, :, 1],
            radio_on=np.array(
                [[r.radio_on.get(node, 0.0) for node in nodes]
                 for r in results],
                dtype=np.float64,
            ).reshape(count, len(nodes)),
            switch_delays=np.array(
                [delay for r in results for delay in r.switch_delays],
                dtype=np.float64,
            ),
            switch_counts=np.array(
                [len(r.switch_delays) for r in results], dtype=np.int64
            ),
            duration=np.array([r.duration for r in results], dtype=np.float64),
        )

    @classmethod
    def concat(cls, batches: Sequence["TrialBatch"]) -> "TrialBatch":
        """Every trial of ``batches``, in order, over the union of their
        keys (missing columns count 0)."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.from_results([])
        if len(batches) == 1:
            return batches[0]
        keys = {
            "flows": _union(batch.flows for batch in batches),
            "apps": _union(batch.apps for batch in batches),
            "nodes": tuple(sorted(_union(batch.nodes for batch in batches))),
        }

        def stack(name: str, keyed_by: str = "") -> np.ndarray:
            """Column ``name`` of every batch, re-keyed onto the union."""
            return np.concatenate([
                _widen(getattr(batch, name), getattr(batch, keyed_by),
                       keys[keyed_by])
                if keyed_by else getattr(batch, name)
                for batch in batches
            ])

        return cls(
            **keys,
            rounds=stack("rounds"),
            collisions=stack("collisions"),
            beacon_heard=stack("beacon_heard"),
            beacon_expected=stack("beacon_expected"),
            flow_on_time=stack("flow_on_time", "flows"),
            flow_delivered=stack("flow_delivered", "flows"),
            flow_total=stack("flow_total", "flows"),
            chain_complete=stack("chain_complete", "apps"),
            chain_total=stack("chain_total", "apps"),
            radio_on=stack("radio_on", "nodes"),
            switch_delays=stack("switch_delays"),
            switch_counts=stack("switch_counts"),
            duration=stack("duration"),
        )

    def results(self) -> List[TrialResult]:
        """One :class:`TrialResult` per trial, in order."""
        delays = self.switch_delays.tolist()
        ends = np.cumsum(self.switch_counts).tolist()
        rows = zip(
            self.rounds.tolist(),
            self.collisions.tolist(),
            self.beacon_heard.tolist(),
            self.beacon_expected.tolist(),
            self.flow_on_time.tolist(),
            self.flow_delivered.tolist(),
            self.flow_total.tolist(),
            self.chain_complete.tolist(),
            self.chain_total.tolist(),
            self.radio_on.tolist(),
            [0] + ends[:-1],
            ends,
            self.duration.tolist(),
        )
        return [
            TrialResult(
                rounds=rounds,
                collisions=collisions,
                beacon_heard=(heard, expected),
                messages=dict(zip(self.flows, zip(on_time, delivered, total))),
                chains=dict(zip(self.apps, zip(complete, chain_total))),
                radio_on=dict(zip(self.nodes, radio)),
                switch_delays=delays[first:last],
                duration=duration,
            )
            for (rounds, collisions, heard, expected, on_time, delivered,
                 total, complete, chain_total, radio, first, last,
                 duration) in rows
        ]


def summarize_trace(trace: Trace) -> TrialResult:
    """Reduce a simulation trace to its :class:`TrialResult`."""
    result = TrialResult(duration=trace.duration)
    result.rounds = len(trace.rounds)
    # The simulator seeds radio_on with *every* node, so its size is the
    # true per-round audience; falling back to the largest observed
    # receiver set (for hand-built traces) would bias the rate high
    # whenever every round loses at least one node.
    universe = len(trace.radio_on) or max(
        (len(r.beacon_receivers) for r in trace.rounds), default=0
    )
    heard = 0
    for record in trace.rounds:
        result.collisions += len(record.collisions)
        heard += len(record.beacon_receivers)
    result.beacon_heard = (heard, universe * len(trace.rounds))
    for message in trace.messages:
        on_time, delivered, total = result.messages.get(message.message, (0, 0, 0))
        result.messages[message.message] = (
            on_time + (1 if message.on_time else 0),
            delivered + (1 if message.delivered else 0),
            total + 1,
        )
    for chain in trace.chains:
        complete, total = result.chains.get(chain.app, (0, 0))
        result.chains[chain.app] = (
            complete + (1 if chain.complete else 0),
            total + 1,
        )
    result.radio_on = dict(trace.radio_on)
    result.switch_delays = [s.switch_delay for s in trace.mode_switches]
    return result


@dataclass
class TrialContext:
    """Everything shared by the trials of one scenario.

    The compiled round program (see :mod:`repro.runtime.compiled`) and
    its host timeline are part of the shared state: :meth:`compiled`
    lowers the deployments and :meth:`timeline` unrolls the host's
    schedule exactly once per context — i.e. once per worker process,
    through the trial pool's context cache — and every compiled trial
    reuses both.
    """

    modes: Dict[int, Mode]
    deployments: Dict[int, ModeDeployment]
    initial_mode: int
    policy: NodePolicy
    duration: float
    host_node: Optional[str] = None
    mode_requests: List[ModeRequest] = field(default_factory=list)
    radio: Optional[RadioTiming] = None
    topology: Optional[Topology] = None
    _compiled: object = field(default=False, repr=False, compare=False)
    _compile_error: Optional[str] = field(
        default=None, repr=False, compare=False
    )
    _timeline: object = field(default=False, repr=False, compare=False)

    def compiled(self):
        """The compiled :class:`~repro.runtime.compiled.SystemProgram`,
        or ``None`` when the scenario has a feature the compiler does
        not support (:attr:`compile_error` then says which)."""
        if self._compiled is False:
            from .compiled import CompileError, compile_program

            try:
                self._compiled = compile_program(
                    self.modes,
                    self.deployments,
                    self.initial_mode,
                    policy=self.policy,
                    radio=self.radio,
                )
            except CompileError as exc:
                self._compiled = None
                self._compile_error = str(exc)
        return self._compiled

    @property
    def compile_error(self) -> Optional[str]:
        """Why :meth:`compiled` returned ``None`` (``None`` otherwise)."""
        return self._compile_error

    def timeline(self):
        """The scenario's host timeline
        (:class:`~repro.mc.vectorized.Timeline`, under either node
        policy), or ``None`` when the scenario does not compile
        (:attr:`compile_error` then says why).

        The host's schedule does not depend on the loss realization,
        so it is unrolled once per context, like :meth:`compiled`, and
        both compiled engines walk it: ``fast`` one trial at a time,
        ``vectorized`` all trials of a batch at once."""
        if self._timeline is False:
            program = self.compiled()
            if program is None:
                self._timeline = None
            else:
                from ..mc.vectorized import unroll_timeline

                self._timeline = unroll_timeline(
                    program, self.duration, self.mode_requests
                )
        return self._timeline


def build_context(data: dict) -> TrialContext:
    """Rebuild a :class:`TrialContext` from its JSON description.

    ``data`` carries mode dicts (with their mode-graph ids), schedule
    dicts, the simulation parameters, the resolved radio timing, and
    the topology spec — see ``repro.mc.campaign`` for the producer.
    """
    from ..io.serialize import mode_from_dict, schedule_from_dict

    modes = [mode_from_dict(record) for record in data["modes"]]
    schedules = {
        name: schedule_from_dict(record)
        for name, record in data["schedules"].items()
    }
    by_id: Dict[int, Mode] = {}
    deployments: Dict[int, ModeDeployment] = {}
    id_of: Dict[str, int] = {}
    for mode in modes:
        if mode.mode_id is None:
            raise ValueError(f"mode {mode.name!r} carries no mode_id")
        by_id[mode.mode_id] = mode
        id_of[mode.name] = mode.mode_id
        deployments[mode.mode_id] = build_deployment(
            mode, schedules[mode.name], mode.mode_id
        )

    sim = data["sim"]
    initial_name = sim.get("initial_mode")
    initial = id_of[initial_name] if initial_name else min(by_id)
    requests = [
        ModeRequest(float(time), id_of[target])
        for time, target in sim.get("mode_requests", [])
    ]
    radio_data = data.get("radio")
    radio = (
        RadioTiming(
            payload_bytes=radio_data["payload_bytes"],
            diameter=radio_data["diameter"],
        )
        if radio_data is not None
        else None
    )
    topology_data = data.get("topology")
    topology = (
        build_topology(topology_data["kind"], topology_data.get("params"))
        if topology_data is not None
        else None
    )
    return TrialContext(
        modes=by_id,
        deployments=deployments,
        initial_mode=initial,
        policy=NodePolicy(sim.get("policy", "beacon_gated")),
        duration=float(sim["duration"]),
        host_node=sim.get("host_node"),
        mode_requests=requests,
        radio=radio,
        topology=topology,
    )


#: Trial engines ``run_trial`` accepts.  ``fast`` compiles the scenario
#: into a round program and accumulates the summary trace-free.
#: ``vectorized`` additionally replaces the per-trial loop with tensor
#: sampling and reduction (:mod:`repro.mc.vectorized`) —
#: distribution-equivalent, not bit-identical.  Both run exactly the
#: loss kinds that lower onto a sampling primitive and transparently
#: fall back to ``reference`` for anything else they do not support.
#: ``reference`` always walks the full object-level simulator.
#: ``fast`` and ``reference`` produce bit-identical results; ``fast``
#: is the default.
ENGINES = ("fast", "vectorized", "reference")


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(ENGINES)}, got {engine!r}"
        )


def trial_engine(
    context: TrialContext,
    loss_kind: Optional[str],
    engine: str = "fast",
) -> str:
    """Which engine a trial requested with ``engine`` actually executes.

    ``engine="fast"`` and ``engine="vectorized"`` resolve to themselves
    when the loss kind lowers onto a sampling primitive
    (:func:`~repro.runtime.loss.supports_loss_kind` — every built-in
    kind does), the scenario compiles, and the beacon host resolves to
    a compiled node index; to ``"reference"`` otherwise.
    ``engine="reference"`` is always itself.
    """
    if engine == "reference" or not supports_loss_kind(loss_kind):
        return "reference"
    program = context.compiled()
    if program is None or program.resolve_host(context.host_node) is None:
        # A host outside the deployment's node universe (a base
        # station owning no tasks or messages) cannot be masked; the
        # reference simulator handles it.
        return "reference"
    return "vectorized" if engine == "vectorized" else "fast"


def fallback_reason(
    context: TrialContext,
    loss_kind: Optional[str],
    requested: str,
    resolved: str,
) -> Optional[str]:
    """Why a request for ``requested`` resolved to ``resolved`` (the
    reference simulator) — ``None`` when it ran as requested.

    Mirrors :func:`trial_engine`'s rules and surfaces the stored
    diagnostic (:attr:`TrialContext.compile_error`), so observability
    events can say *why* a campaign ran scalar, not merely that it did.
    Only called on the fallback path — costs nothing otherwise.
    """
    if resolved == requested:
        return None
    reasons = []
    if not supports_loss_kind(loss_kind):
        reasons.append(
            f"loss kind {loss_kind!r} lowers onto no sampling primitive"
        )
    program = context.compiled()
    if program is None:
        reasons.append(f"compile: {context.compile_error}")
    elif program.resolve_host(context.host_node) is None:
        reasons.append(f"host {context.host_node!r} not in the program")
    return "; ".join(reasons) or "unsupported scenario feature"


def run_trial(
    context: TrialContext,
    loss_kind: Optional[str],
    loss_params: Optional[dict],
    engine: str = "fast",
) -> TrialResult:
    """Run one trial in-process and summarize it.

    A fresh loss model is built per trial (loss models are stateful:
    RNG position, Markov channel state, replay cursors), so trials
    never contaminate each other.

    Args:
        context: Shared scenario state (see :func:`build_context`).
        loss_kind: Loss model kind, or ``None`` for perfect links.
        loss_params: Loss model parameters.
        engine: ``"fast"`` (compiled round program, trace-free
            accumulation), ``"vectorized"`` (tensor sampling and
            reduction over the unrolled round timeline —
            distribution-equivalent to the other engines, not
            bit-identical), or ``"reference"`` (the object-level
            simulator).  Both compiled engines fall back to the
            reference simulator for unsupported scenario features.
            ``fast`` and ``reference`` are bit-identical wherever the
            fast path runs.
    """
    check_engine(engine)
    resolved = trial_engine(context, loss_kind, engine)
    if resolved == "vectorized":
        from ..mc.vectorized import run_trials_vectorized

        params = dict(loss_params or {})
        seed = params.pop("seed", None) if loss_kind in SEEDABLE_KINDS else None
        return run_trials_vectorized(
            context,
            loss_kind,
            params if loss_kind is not None else None,
            [seed],
        ).results()[0]
    loss = (
        build_loss(loss_kind, loss_params, context.topology)
        if loss_kind is not None
        else None
    )
    if resolved == "fast":
        from ..mc.fastpath import build_sampler, run_program

        program = context.compiled()
        sampler = build_sampler(loss_kind, loss, program)
        return run_program(
            program,
            context.timeline(),
            sampler,
            context.duration,
            host_node=context.host_node,
        )
    simulator = RuntimeSimulator(
        context.modes,
        dict(context.deployments),
        initial_mode=context.initial_mode,
        loss=loss,
        policy=context.policy,
        radio=context.radio,
    )
    trace = simulator.run(
        context.duration,
        mode_requests=context.mode_requests,
        host_node=context.host_node,
    )
    return summarize_trace(trace)


def execute_trial(context: TrialContext, task: dict) -> dict:
    """Pool entry point: run the trial described by ``task``.

    ``task`` carries ``loss`` (``{"kind", "params"}`` or ``None``) and
    optionally ``engine`` (one of :data:`ENGINES`, default fast), plus
    opaque bookkeeping keys (``trial``, ``seed``, ``point``) that are
    echoed into the result so the aggregator can group answers without
    relying on completion order.  ``engine_used`` records the engine
    the request actually resolved to (see :func:`trial_engine`).
    """
    loss = task.get("loss")
    kind = loss["kind"] if loss is not None else None
    engine = task.get("engine", "fast")
    result = run_trial(
        context,
        kind,
        loss.get("params") if loss is not None else None,
        engine=engine,
    )
    payload = result.to_dict()
    resolved = trial_engine(context, kind, engine)
    payload["engine_used"] = resolved
    if resolved != engine:
        payload["engine_reason"] = fallback_reason(
            context, kind, engine, resolved
        )
    for key in ("trial", "seed", "point", "scenario"):
        if key in task:
            payload[key] = task[key]
    return payload


def execute_trial_batch(context: TrialContext, task: dict) -> dict:
    """Pool entry point: run a whole batch of trials in one call.

    The vectorized engine amortizes its tensor setup over many trials,
    so the campaign layer groups the trials of a grid point into batch
    tasks: ``task`` carries ``loss`` (the grid point's **base**
    description, without a per-trial seed), ``engine``, and ``trials``
    — a list of ``(trial_index, seed)`` pairs.  When the request
    resolves to a scalar engine the batch degrades gracefully
    to per-trial execution with the established per-trial reseeding,
    so results are bit-identical to the per-trial task path.

    Returns ``{"scenario", "point", "engine_used", "batch"}`` for every
    engine — ``batch`` is the :class:`TrialBatch` of the trials, in
    input order — plus ``engine_reason`` when the request fell back
    (see :func:`fallback_reason`).

    Raises:
        ValueError: when ``engine`` is not one of :data:`ENGINES`.
    """
    loss = task.get("loss")
    kind = loss["kind"] if loss is not None else None
    base_params = dict(loss.get("params") or {}) if loss is not None else None
    engine = task.get("engine", "fast")
    check_engine(engine)
    seeds = [seed for _trial, seed in task["trials"]]
    resolved = trial_engine(context, kind, engine)

    if resolved == "vectorized":
        from ..mc.vectorized import run_trials_vectorized

        batch = run_trials_vectorized(context, kind, base_params, seeds)
    else:
        results = []
        for seed in seeds:
            params = base_params
            if kind is not None and seed is not None:
                params = reseeded(kind, base_params, seed)
            results.append(run_trial(context, kind, params, engine=resolved))
        batch = TrialBatch.from_results(results)
    outcome = {
        "scenario": task.get("scenario"),
        "point": task.get("point"),
        "engine_used": resolved,
        "batch": batch,
    }
    if resolved != engine:
        outcome["engine_reason"] = fallback_reason(
            context, kind, engine, resolved
        )
    return outcome


def execute_trial_task(context: TrialContext, task: dict) -> dict:
    """Pool entry point routing on the task shape.

    Long-lived executors (:class:`~repro.engine.trials.ResidentPool`)
    fix their ``run_task`` at construction, before anyone knows which
    engine future campaigns will ask for — this dispatcher accepts
    both shapes: batch tasks (a ``trials`` list, vectorized engine)
    go to :func:`execute_trial_batch`, per-trial tasks to
    :func:`execute_trial`.
    """
    if "trials" in task:
        return execute_trial_batch(context, task)
    return execute_trial(context, task)
