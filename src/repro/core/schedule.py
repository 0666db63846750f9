"""Schedule containers produced by the TTW synthesis (paper's ``Sched(M)``).

A :class:`ModeSchedule` bundles everything the paper distributes to the
nodes at deployment time: task offsets, message offsets/deadlines, the
round starting times, and the per-round slot allocation, together with
the configuration they were synthesized for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SchedulingConfig:
    """Parameters of the scheduling problem (paper Table II constants).

    Attributes:
        round_length: ``Tr`` — time one communication round occupies.
        slots_per_round: ``B`` — data slots per round (the beacon slot
            is accounted inside ``Tr``).
        max_round_gap: ``Tmax`` — upper bound on the time between two
            consecutive round starts (keeps clocks synchronized).  Use
            ``None`` to disable (no bound).
        mm: The paper's small constant for strict inequalities.
        big_m: The paper's big-M; defaults to ``10 * hyperperiod`` when
            ``None``.
        backend: MILP backend, ``"highs"`` or ``"bnb"``.
        time_limit: Per-ILP wall-clock limit in seconds.
        minimize_latency: When True (paper's setting), minimize the sum
            of application latencies; otherwise any feasible schedule.
    """

    round_length: float = 1.0
    slots_per_round: int = 5
    max_round_gap: Optional[float] = 30.0
    mm: float = 1e-4
    big_m: Optional[float] = None
    backend: str = "highs"
    time_limit: Optional[float] = None
    minimize_latency: bool = True

    def __post_init__(self) -> None:
        """Check every field; the ``ValueError`` names the one at fault."""

        def check(name: str, ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(
                    f"{name} must be {what}, got {getattr(self, name)!r}"
                )

        def real(value) -> bool:
            return isinstance(value, Real) and not isinstance(value, bool)

        tr, slots = self.round_length, self.slots_per_round
        gap = self.max_round_gap
        check("round_length", real(tr) and 0 < tr < math.inf,
              "a finite number > 0")
        check("slots_per_round", isinstance(slots, Integral)
              and not isinstance(slots, bool) and slots >= 1,
              "an integer >= 1")
        check("max_round_gap", gap is None or (real(gap) and gap >= tr),
              "a number >= round_length (or None)")
        check("mm", real(self.mm) and self.mm > 0, "a number > 0")
        check("big_m", self.big_m is None
              or (real(self.big_m) and self.big_m > 0),
              "a number > 0 (or None)")
        check("time_limit", self.time_limit is None
              or (real(self.time_limit) and self.time_limit > 0),
              "> 0 seconds (or None for no limit)")
        check("minimize_latency", isinstance(self.minimize_latency, bool),
              "a bool")


@dataclass
class RoundSchedule:
    """One synthesized communication round.

    Attributes:
        start: ``r.t`` — start relative to the hyperperiod origin.
        messages: Names of the messages allocated to the round's slots
            (the paper's allocation vector ``r.[B]``, with empty slots
            omitted; slot order within a round is interchangeable).
    """

    start: float
    messages: List[str] = field(default_factory=list)

    @property
    def num_allocated(self) -> int:
        return len(self.messages)


@dataclass
class ModeSchedule:
    """Complete schedule of one mode — the paper's ``Sched(M)``.

    Attributes:
        mode_name: Name of the scheduled mode.
        hyperperiod: Mode hyperperiod (schedule repeats after this).
        config: The :class:`SchedulingConfig` used.
        task_offsets: ``tau.o`` per task name.
        message_offsets: ``m.o`` per message name.
        message_deadlines: ``m.d`` per message name (relative to offset).
        rounds: Synthesized rounds, ordered by start time.
        sigma: Solver-chosen period-wrap binaries per precedence edge
            ``(source, target)``; 1 means the successor starts in the
            next application period.
        leftover: The ``r0.B_i`` leftover-instance indicator per message.
        app_latencies: End-to-end latency achieved per application.
        total_latency: Objective value (sum of application latencies).
        solve_stats: Per-iteration statistics from Algorithm 1.
    """

    mode_name: str
    hyperperiod: float
    config: SchedulingConfig
    task_offsets: Dict[str, float] = field(default_factory=dict)
    message_offsets: Dict[str, float] = field(default_factory=dict)
    message_deadlines: Dict[str, float] = field(default_factory=dict)
    rounds: List[RoundSchedule] = field(default_factory=list)
    sigma: Dict[Tuple[str, str], int] = field(default_factory=dict)
    leftover: Dict[str, int] = field(default_factory=dict)
    app_latencies: Dict[str, float] = field(default_factory=dict)
    total_latency: float = 0.0
    solve_stats: "SynthesisStats | None" = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def rounds_for_message(self, message: str) -> List[float]:
        """Start times of the rounds serving ``message``."""
        return [r.start for r in self.rounds if message in r.messages]

    def slot_table(self) -> List[Tuple[float, Tuple[str, ...]]]:
        """(start, allocated messages) per round — deployment-time table."""
        return [(r.start, tuple(r.messages)) for r in self.rounds]


@dataclass
class SynthesisStats:
    """Statistics of one Algorithm 1 run."""

    mode_name: str
    iterations: List["IterationStats"] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def final_rounds(self) -> Optional[int]:
        for it in self.iterations:
            if it.feasible:
                return it.num_rounds
        return None


@dataclass
class IterationStats:
    """One ILP solve inside Algorithm 1 (a fixed round count ``R_M``)."""

    num_rounds: int
    feasible: bool
    solve_time: float
    num_vars: int
    num_constraints: int
    objective: Optional[float] = None
    nodes: int = 0
