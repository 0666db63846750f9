"""Algorithm 1: round-minimal schedule synthesis (paper Sec. IV).

The scheduler solves a sequence of ILPs with a fixed round count
``R_M = 0, 1, 2, ...`` until one is feasible (or ``Rmax``, the number of
rounds that fit in a hyperperiod, is exceeded).  By construction the
first feasible schedule is optimal in the number of rounds; the ILP
objective then minimizes the summed end-to-end latency among all
round-minimal schedules.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Tuple
from .ilp_builder import IlpHandles, build_ilp
from .modes import Mode
from .schedule import (
    IterationStats,
    ModeSchedule,
    RoundSchedule,
    SchedulingConfig,
    SynthesisStats,
)


class InfeasibleError(RuntimeError):
    """Raised when no schedule exists up to ``Rmax`` rounds.

    ``first_round`` is where the search started (0, or the demand bound
    of a warm start) and ``r_max`` is ``Rmax``; a bound above ``Rmax``
    means no round count was even worth probing.
    """

    def __init__(
        self, mode: Mode, stats: SynthesisStats, first_round: int, r_max: int
    ) -> None:
        if first_round > r_max:
            reason = (
                f"needs at least {first_round} rounds (demand bound), but "
                f"only {r_max} fit in its hyperperiod"
            )
        else:
            reason = f"no feasible schedule with up to {r_max} rounds"
        super().__init__(f"mode {mode.name!r}: {reason}")
        self.stats = stats


def max_rounds(mode: Mode, config: SchedulingConfig) -> int:
    """``Rmax``: how many rounds fit into one hyperperiod."""
    return int(math.floor(mode.hyperperiod / config.round_length + 1e-9))


def demand_round_bound(mode: Mode, config: SchedulingConfig) -> int:
    """Lower bound on the number of rounds any feasible schedule needs.

    Two demands, each a lower bound on its own:

    * **Slots.** Every message instance occupies one slot per
      hyperperiod (C4.4) and a round offers at most ``B`` slots (C4.3),
      so at least ``ceil(total_instances / B)`` rounds are required.
    * **Chain hops** (eq. 13 stated in rounds). A chain instance's
      message hops need distinct, time-ordered rounds: a hop is served
      by a round inside its window ``[m.o, m.o + m.d]`` (C4), which
      ends before its consumer task starts, and that task ends before
      the next hop is released (C1.1).  All of them fall inside the
      chain instance's window, which is no longer than the deadline
      ``d`` (C1.2); since :class:`~repro.core.app_model.Application`
      enforces ``d <= p``, the windows of an application's ``H / p``
      instances are disjoint.  So the application needs at least
      ``(H / p) * hops`` rounds, ``hops`` being the message count of
      its longest chain.

    The bound is the larger of the two, which never exceeds the
    round-minimal ``R*``.  Starting Algorithm 1 here skips
    provably-infeasible iterations without losing round-minimality.
    """
    lcm = mode.hyperperiod
    total = 0
    hops = 0
    for app in mode.applications:
        instances = round(lcm / app.period)
        total += len(app.messages) * instances
        longest = max(len(chain.messages) for chain in app.chains())
        hops = max(hops, instances * longest)
    return max(math.ceil(total / config.slots_per_round), hops)


def solve_fixed_rounds(
    mode: Mode, config: SchedulingConfig, num_rounds: int
) -> Tuple[IterationStats, IlpHandles, "object"]:
    """One iteration of Algorithm 1: build and solve the ILP for a fixed
    round count ``R_M = num_rounds``.

    This is the unit of work shared by the sequential loop below and by
    the parallel workers in :mod:`repro.engine`, which run several round
    counts speculatively.

    Returns:
        ``(stats, handles, solution)`` — the iteration record, the model
        handles, and the raw solver solution (meaningful only when
        ``stats.feasible``).
    """
    handles = build_ilp(mode, num_rounds, config)
    solve_start = time.monotonic()
    solution = handles.model.solve(
        backend=config.backend, time_limit=config.time_limit
    )
    solve_time = time.monotonic() - solve_start
    # Heuristic backends report FEASIBLE (a valid point without an
    # optimality proof); Algorithm 1 only needs feasibility here.
    feasible = solution.is_feasible
    stats = IterationStats(
        num_rounds=num_rounds,
        feasible=feasible,
        solve_time=solve_time,
        num_vars=handles.model.num_vars,
        num_constraints=handles.model.num_constraints,
        objective=solution.objective if feasible else None,
        nodes=solution.nodes,
    )
    return stats, handles, solution


def synthesize(
    mode: Mode,
    config: Optional[SchedulingConfig] = None,
    warm_start: bool = False,
    backend: Optional[str] = None,
) -> ModeSchedule:
    """Run Algorithm 1 and return the round-minimal ``Sched(M)``.

    Args:
        mode: The mode to schedule (validated internally).
        config: Scheduling parameters; defaults to
            :class:`SchedulingConfig` defaults.
        warm_start: Start at the demand lower bound
            (:func:`demand_round_bound`: slots per round, and one round
            per message hop of every chain instance, eq. 13) — an
            optimization over the paper's Algorithm 1 that preserves
            round-minimality while skipping provably-infeasible
            iterations.
        backend: Solver backend name overriding ``config.backend`` (see
            :func:`repro.milp.available_backends`).  With a heuristic
            backend the schedule is feasible and verified but may use
            more rounds than the exact round-minimal one.

    Returns:
        The synthesized :class:`ModeSchedule`, including per-iteration
        solver statistics.

    Raises:
        InfeasibleError: if no round count up to ``Rmax`` is feasible.
    """
    config = config or SchedulingConfig()
    if backend is not None and backend != config.backend:
        config = dataclasses.replace(config, backend=backend)
    mode.validate()
    min_rounds = demand_round_bound(mode, config) if warm_start else 0
    stats = SynthesisStats(mode_name=mode.name)
    r_max = max_rounds(mode, config)
    started = time.monotonic()

    for num_rounds in range(min_rounds, r_max + 1):
        iteration, handles, solution = solve_fixed_rounds(mode, config, num_rounds)
        stats.iterations.append(iteration)
        if iteration.feasible:
            stats.total_time = time.monotonic() - started
            return extract_schedule(mode, config, handles, solution, stats)

    stats.total_time = time.monotonic() - started
    raise InfeasibleError(mode, stats, min_rounds, r_max)


def extract_schedule(
    mode: Mode,
    config: SchedulingConfig,
    handles: IlpHandles,
    solution,
    stats: SynthesisStats,
) -> ModeSchedule:
    """Read the solver values back into a :class:`ModeSchedule`."""
    sched = ModeSchedule(
        mode_name=mode.name,
        hyperperiod=mode.hyperperiod,
        config=config,
        solve_stats=stats,
    )
    for name, var in handles.task_offset.items():
        sched.task_offsets[name] = solution[var] + 0.0  # normalize -0.0
    for name, var in handles.msg_offset.items():
        sched.message_offsets[name] = solution[var] + 0.0
    for name, var in handles.msg_deadline.items():
        sched.message_deadlines[name] = solution[var] + 0.0
    for edge, var in handles.sigma.items():
        sched.sigma[edge] = int(round(solution[var]))
    for name, var in handles.leftover.items():
        sched.leftover[name] = int(round(solution[var]))

    rounds = []
    for j, rt_var in enumerate(handles.round_start):
        messages = [
            name
            for (k, name), alloc_var in handles.alloc.items()
            if k == j and solution[alloc_var] > 0.5
        ]
        rounds.append(RoundSchedule(start=solution[rt_var], messages=sorted(messages)))
    rounds.sort(key=lambda r: r.start)
    sched.rounds = rounds

    # Recompute latencies analytically (eq. 47/48) instead of trusting
    # the auxiliary latency variables, which are only lower-bounded when
    # the objective is disabled.
    from .latency import schedule_latencies

    sched.app_latencies = schedule_latencies(sched, mode.applications)
    sched.total_latency = sum(sched.app_latencies.values())
    return sched
