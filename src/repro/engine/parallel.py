"""Speculative parallel execution of Algorithm 1.

The paper's Algorithm 1 probes round counts ``R_M = 0, 1, 2, ...``
sequentially until the first feasible ILP.  The iterations are
independent solver runs, so this module launches several candidate round
counts concurrently in a process pool and returns the *smallest*
feasible one:

* Round-minimality is preserved **by construction** — a feasible result
  at ``r`` is only accepted once every speculated ``r' < r`` has come
  back infeasible, exactly the evidence the sequential loop gathers.
* Superseded speculation (round counts above an accepted feasible
  one) is cancelled while pending, so the pool moves on to other work —
  in batch runs, to the next mode's iterations.  Once every search is
  done, superseded solves still running are terminated with their
  workers, not awaited: their results would be discarded anyway.
* The demand lower bound (:func:`repro.core.synthesis.demand_round_bound`)
  seeds every search, skipping provably-infeasible iterations; in batch
  mode the bounds are computed up-front for the whole mode set so every
  worker starts warm.

Workers receive the JSON image of the problem (via
:mod:`repro.io.serialize`) rather than pickled objects, rebuild the ILP
locally, and ship the schedule back as a JSON dict — the same stable
representation used on disk, so results are identical across process
boundaries.  The parent loads the solver right before the pool forks,
so the workers inherit it and their first solve imports nothing; the
module itself stays free of scipy at import time.

The pool starts and stops through the same pair as the trial pool
(:mod:`repro.engine.trials`): its workers ignore SIGINT, and Ctrl-C
terminates them instead of waiting for their solves to finish.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.modes import Mode
from ..core.schedule import (
    IterationStats,
    ModeSchedule,
    SchedulingConfig,
    SynthesisStats,
)
from ..core.synthesis import (
    InfeasibleError,
    demand_round_bound,
    extract_schedule,
    max_rounds,
    solve_fixed_rounds,
)
from ..io.serialize import (
    config_from_dict,
    config_to_dict,
    mode_from_dict,
    mode_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from .trials import _spawn_executor, _stop_executor


def _solve_round_task(
    mode_data: dict, config_data: dict, num_rounds: int
) -> Tuple[int, IterationStats, Optional[dict]]:
    """Worker entry point: solve one fixed-round ILP in a subprocess.

    Must stay a module-level function so it is picklable by the
    executor.  Returns the schedule as a JSON dict (``None`` when
    infeasible); the parent reassembles the :class:`ModeSchedule`.
    """
    mode = mode_from_dict(mode_data)
    config = config_from_dict(config_data)
    iteration, handles, solution = solve_fixed_rounds(mode, config, num_rounds)
    schedule_data: Optional[dict] = None
    if iteration.feasible:
        schedule = extract_schedule(
            mode, config, handles, solution, SynthesisStats(mode_name=mode.name)
        )
        schedule_data = schedule_to_dict(schedule)
    return num_rounds, iteration, schedule_data


class _SpeculativeSearch:
    """State of Algorithm 1 for one mode under speculative execution.

    Tracks which round counts are in flight, which verdicts arrived, and
    the smallest feasible round count found so far.  ``done`` becomes
    true only when that round count is *proven* minimal: every smaller
    speculated count has reported infeasible.
    """

    def __init__(
        self,
        mode: Mode,
        config: SchedulingConfig,
        warm_start: bool = True,
    ) -> None:
        mode.validate()
        self.mode = mode
        self.config = config
        self.next_round = demand_round_bound(mode, config) if warm_start else 0
        self.r_max = max_rounds(mode, config)
        self.best_feasible: Optional[int] = None
        self._schedule_data: Optional[dict] = None
        self._iterations: Dict[int, IterationStats] = {}
        self._outstanding: set = set()
        self._started = time.monotonic()
        # Serialize once; every worker submission reuses the payload.
        self.mode_data = mode_to_dict(mode)
        self.config_data = config_to_dict(config)

    # -- submission ------------------------------------------------------
    def next_submission(self) -> Optional[int]:
        """Claim the next round count to speculate on, or ``None``."""
        if self.best_feasible is not None and self.next_round >= self.best_feasible:
            return None
        if self.next_round > self.r_max:
            return None
        num_rounds = self.next_round
        self.next_round += 1
        self._outstanding.add(num_rounds)
        return num_rounds

    # -- result handling -------------------------------------------------
    def record(
        self, num_rounds: int, iteration: IterationStats, schedule_data: Optional[dict]
    ) -> None:
        self._outstanding.discard(num_rounds)
        self._iterations[num_rounds] = iteration
        if iteration.feasible and schedule_data is not None:
            if self.best_feasible is None or num_rounds < self.best_feasible:
                self.best_feasible = num_rounds
                self._schedule_data = schedule_data

    def drop(self, num_rounds: int) -> None:
        """A submission was cancelled before running."""
        self._outstanding.discard(num_rounds)

    def superseded(self) -> List[int]:
        """Outstanding round counts made redundant by the incumbent."""
        if self.best_feasible is None:
            return []
        return [r for r in self._outstanding if r > self.best_feasible]

    @property
    def done(self) -> bool:
        if self.best_feasible is not None:
            # Minimal once all smaller speculations have reported.
            return not any(r < self.best_feasible for r in self._outstanding)
        return self.next_round > self.r_max and not self._outstanding

    # -- results ---------------------------------------------------------
    def stats(self) -> SynthesisStats:
        stats = SynthesisStats(mode_name=self.mode.name)
        stats.iterations = [
            self._iterations[r] for r in sorted(self._iterations)
        ]
        stats.total_time = time.monotonic() - self._started
        return stats

    def result(self) -> ModeSchedule:
        """The round-minimal schedule; raises if the mode is infeasible."""
        if self.best_feasible is None or self._schedule_data is None:
            raise InfeasibleError(self.mode, self.stats())
        schedule = schedule_from_dict(self._schedule_data)
        schedule.solve_stats = self.stats()
        return schedule


def _run_searches(
    searches: Sequence[_SpeculativeSearch], jobs: int
) -> None:
    """Drive every search to completion over one shared process pool.

    Keeps up to ``jobs`` ILPs in flight, topping up round-robin across
    the still-running searches so batch workloads interleave fairly
    instead of finishing mode by mode.
    """
    if not searches:
        return
    # The workers fork from this process: load the solver first, so
    # they inherit it instead of each importing scipy in its first
    # solve.  Loaded here, not at import time, which stays scipy-free.
    from ..milp import scipy_backend  # noqa: F401

    pool = _spawn_executor(jobs)
    terminate = False
    try:
        futures: Dict[object, Tuple[int, int]] = {}
        rr = 0  # round-robin cursor over searches

        def top_up() -> None:
            nonlocal rr
            idle = 0
            while len(futures) < jobs and idle < len(searches):
                idx = rr % len(searches)
                search = searches[idx]
                rr += 1
                num_rounds = search.next_submission()
                if num_rounds is None:
                    idle += 1
                    continue
                idle = 0
                fut = pool.submit(
                    _solve_round_task,
                    search.mode_data,
                    search.config_data,
                    num_rounds,
                )
                futures[fut] = (idx, num_rounds)

        top_up()
        while futures:
            completed, _ = wait(futures, return_when=FIRST_COMPLETED)
            for fut in completed:
                idx, num_rounds = futures.pop(fut)
                search = searches[idx]
                if fut.cancelled():
                    search.drop(num_rounds)
                    continue
                got_rounds, iteration, schedule_data = fut.result()
                search.record(got_rounds, iteration, schedule_data)
                # Cancel speculation above a newly-found incumbent.
                redundant = set(search.superseded())
                if redundant:
                    for other, (oidx, orounds) in list(futures.items()):
                        if oidx == idx and orounds in redundant and other.cancel():
                            del futures[other]
                            search.drop(orounds)
            if all(s.done for s in searches):
                for fut in futures:
                    fut.cancel()
                # What still runs is superseded speculation, whose
                # result would be discarded: stop it, do not await it.
                terminate = any(fut.running() for fut in futures)
                break
            top_up()
    except KeyboardInterrupt:
        terminate = True
        raise
    finally:
        _stop_executor(pool, terminate)


def synthesize_batch(
    problems: Sequence[Tuple[Mode, SchedulingConfig]],
    jobs: int = 2,
    warm_start: bool = True,
) -> List[ModeSchedule]:
    """Schedule heterogeneous ``(mode, config)`` problems over one pool.

    The pool driver behind :func:`repro.engine.api.run_cached_batch`:
    every problem may carry its own :class:`SchedulingConfig` (several
    scenario files in one sweep), and all of them share a single
    process pool so speculative iterations interleave across problems
    and the pool never idles between files.  Each config's ``backend``
    travels to the workers inside the serialized config.

    Args:
        problems: ``(mode, config)`` pairs to schedule.
        jobs: Worker processes shared by the whole batch.  ``1`` runs
            the sequential loop per problem.
        warm_start: Seed each search at its demand lower bound.

    Returns:
        Round-minimal schedules, aligned with ``problems`` — equal to
        running :func:`repro.core.synthesis.synthesize` per pair.

    Raises:
        InfeasibleError: for the first (in input order) infeasible mode.
    """
    if not problems:
        return []
    if jobs <= 1:
        from ..core.synthesis import synthesize

        return [
            synthesize(mode, config, warm_start=warm_start)
            for mode, config in problems
        ]
    searches = [
        _SpeculativeSearch(mode, config, warm_start=warm_start)
        for mode, config in problems
    ]
    _run_searches(searches, jobs)
    return [search.result() for search in searches]
