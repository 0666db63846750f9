"""The job table: plain-dict records, an explicit state machine, indices.

The design follows the dask/distributed scheduler-state notes
(SNIPPETS.md Snippet 3): every job is a **plain Python dict** tracked
in one table, and the table keeps *redundant* reverse indices — by
state and by client — so the hot service questions ("how many jobs
are queued?", "what is client X running?") are O(1) dictionary
lookups, not scans.  (Whether an identical job is already in flight
is the daemon's :class:`~repro.serve.dedup.DedupIndex`'s question.)
Index maintenance is cheap and happens in exactly one place,
:meth:`JobTable.transition`.

The state machine::

    queued ──> synthesizing ──> simulating ──> done
       │             │               │
       └─────────────┴───────────────┴──────> failed / cancelled

with two legal shortcuts: ``queued -> done`` (the answer was already
in the result store — nothing to execute) and ``synthesizing -> done``
(a synthesis-only job with no simulation phase).  Transitions are
validated; anything else raises :class:`StateError`, so an index can
never silently drift from the records.

Every transition (and every progress update) appends one **event** to
the job record — a monotonically numbered ``{"seq", "time", "state",
...}`` dict.  The HTTP layer streams these as NDJSON; because events
are only ever appended under the table lock, a consumer always sees
them in state-machine order.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Set

from ..obs.events import emit

#: All job states, in lifecycle order.
STATES = (
    "queued",
    "synthesizing",
    "simulating",
    "done",
    "failed",
    "cancelled",
)

#: States a job can never leave.
TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Legal ``state -> {next state}`` moves (see the module docstring).
TRANSITIONS: Dict[str, Set[str]] = {
    "queued": {"synthesizing", "simulating", "done", "failed", "cancelled"},
    "synthesizing": {"simulating", "done", "failed", "cancelled"},
    "simulating": {"done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}

#: Position of each state in the lifecycle; streams must never move
#: backwards along this order (asserted by the service tests).
STATE_ORDER = {state: index for index, state in enumerate(STATES)}


class StateError(RuntimeError):
    """Raised on an illegal job state transition."""


def _new_id(counter=itertools.count(1)) -> str:
    return f"job-{next(counter)}"


class JobTable:
    """All jobs the service knows about, with O(1) indices.

    Args:
        history: Terminal jobs retained for inspection.  Once more than
            this many jobs are terminal, the oldest are forgotten —
            a resident daemon must not grow its table unboundedly.
            Active (non-terminal) jobs are never pruned.
    """

    def __init__(self, history: int = 1024) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history!r}")
        self.history = history
        self.jobs: Dict[str, dict] = {}
        # Redundant indices, maintained exclusively by create/transition.
        self.by_state: Dict[str, Set[str]] = {state: set() for state in STATES}
        self.by_client: Dict[str, Set[str]] = {}
        self._terminal_order: List[str] = []
        self.lock = threading.RLock()
        #: Notified on every appended event; event streamers wait here.
        self.changed = threading.Condition(self.lock)

    # -- record lifecycle ------------------------------------------------
    def create(
        self,
        scenario: str,
        key: str,
        client: str = "anonymous",
        trials: int = 0,
        engine: str = "fast",
    ) -> dict:
        """Add one queued job record; returns the (live) record dict."""
        with self.lock:
            job_id = _new_id()
            job = {
                "id": job_id,
                "scenario": scenario,
                "key": key,
                "client": client,
                "state": "queued",
                "trials": trials,
                "trials_done": 0,
                "engine": engine,
                "cached": False,
                "error": None,
                "result": None,
                "created": time.time(),
                "finished": None,
                "events": [],
            }
            self.jobs[job_id] = job
            self.by_state["queued"].add(job_id)
            self.by_client.setdefault(client, set()).add(job_id)
            self._append_event(job, {"state": "queued"})
            return job

    def transition(self, job_id: str, state: str, **detail) -> dict:
        """Move a job to ``state``; validates, reindexes, appends an event.

        ``detail`` keys are merged into the event (and ``error`` /
        ``result`` / ``cached`` / ``trials_done`` also into the record).
        """
        if state not in STATE_ORDER:
            raise StateError(f"unknown state {state!r}")
        with self.lock:
            job = self._get(job_id)
            current = job["state"]
            if state not in TRANSITIONS[current]:
                raise StateError(
                    f"job {job_id}: illegal transition {current!r} -> {state!r}"
                )
            self.by_state[current].discard(job_id)
            self.by_state[state].add(job_id)
            job["state"] = state
            for field in ("error", "cached", "trials_done"):
                if field in detail:
                    job[field] = detail[field]
            if "result" in detail:
                job["result"] = detail.pop("result")
            if state in TERMINAL:
                job["finished"] = time.time()
                self._terminal_order.append(job_id)
            self._append_event(job, {"state": state, **detail})
            if state in TERMINAL:
                self._prune()
            return job

    def progress(self, job_id: str, **detail) -> dict:
        """Append a progress event without changing state.

        Used for per-batch trial progress while ``simulating``; the
        event repeats the current state so streamed event sequences
        stay monotone in :data:`STATE_ORDER`.
        """
        with self.lock:
            job = self._get(job_id)
            if job["state"] in TERMINAL:
                # A batch may complete concurrently with a cancel; the
                # terminal event has already been emitted — drop this.
                return job
            if "trials_done" in detail:
                job["trials_done"] = detail["trials_done"]
            self._append_event(job, {"state": job["state"], **detail})
            return job

    # -- queries ---------------------------------------------------------
    def get(self, job_id: str) -> Optional[dict]:
        with self.lock:
            return self.jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        """``state -> number of jobs`` (every state present)."""
        with self.lock:
            return {state: len(ids) for state, ids in self.by_state.items()}

    def list(
        self,
        state: Optional[str] = None,
        client: Optional[str] = None,
    ) -> List[dict]:
        """Job records, newest first, optionally filtered by index."""
        with self.lock:
            ids = set(self.jobs)
            if state is not None:
                if state not in self.by_state:
                    raise StateError(f"unknown state {state!r}")
                ids &= self.by_state[state]
            if client is not None:
                ids &= self.by_client.get(client, set())
            return sorted(
                (self.jobs[job_id] for job_id in ids),
                key=lambda job: job["created"],
                reverse=True,
            )

    def __len__(self) -> int:
        with self.lock:
            return len(self.jobs)

    # -- event streaming -------------------------------------------------
    def events_since(self, job_id: str, seq: int) -> "tuple[List[dict], bool]":
        """``(events with .seq > seq, job is terminal)`` — one locked read."""
        with self.lock:
            job = self._get(job_id)
            fresh = [e for e in job["events"] if e["seq"] > seq]
            return fresh, job["state"] in TERMINAL

    def wait_for_events(
        self, job_id: str, seq: int, timeout: float = 1.0
    ) -> "tuple[List[dict], bool]":
        """Like :meth:`events_since`, but blocks up to ``timeout`` for news."""
        with self.changed:
            fresh, terminal = self.events_since(job_id, seq)
            if fresh or terminal:
                return fresh, terminal
            self.changed.wait(timeout)
            return self.events_since(job_id, seq)

    # -- internals -------------------------------------------------------
    def _get(self, job_id: str) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _append_event(self, job: dict, event: dict) -> None:
        event = {
            "seq": len(job["events"]),
            "time": time.time(),
            "job": job["id"],
            **event,
        }
        job["events"].append(event)
        # Mirror the per-job event stream into the run log (when one is
        # active) — the service's job history becomes obs events.
        emit("job", **event)
        self.changed.notify_all()

    def _prune(self) -> None:
        while len(self._terminal_order) > self.history:
            job_id = self._terminal_order.pop(0)
            job = self.jobs.pop(job_id, None)
            if job is None:
                continue
            self.by_state[job["state"]].discard(job_id)
            self.by_client.get(job["client"], set()).discard(job_id)


def job_view(job: dict) -> dict:
    """The public JSON image of one job record (no live event list)."""
    return {
        "id": job["id"],
        "scenario": job["scenario"],
        "key": job["key"],
        "client": job["client"],
        "state": job["state"],
        "trials": job["trials"],
        "trials_done": job["trials_done"],
        "engine": job["engine"],
        "cached": job["cached"],
        "error": job["error"],
        "result": job["result"],
        "created": job["created"],
        "finished": job["finished"],
        "events": len(job["events"]),
    }
