"""Sharded exploration: a work-stealing pool of evaluation processes.

``explore(space, ..., shards=N)`` with ``N > 1`` evaluates candidates
over ``N`` shard processes instead of in the calling process; the
design-space study is embarrassingly parallel across *candidates*:

* the parent drives the sampler as usual (any sampler, including the
  iterative surrogate, whose propose/measure rounds it drives), filters
  the candidates the main store already holds, and publishes the rest
  as **candidate blocks** in a shared SQLite **claim table**
  (dict-record task state in the dask-scheduler style, like
  ``repro.serve.jobs``);
* each shard process claims blocks — preferring the ones hinted at it,
  then **stealing** anyone else's unclaimed blocks, so stragglers
  never idle — and evaluates them with the exploration's own
  :class:`~repro.dse.explore.BatchEvaluator`, which holds one
  :class:`~repro.engine.trials.TrialPool` for the shard's lifetime, so
  its workers cache built trial contexts across blocks;
* every shard appends to its own **partitioned store segment**
  (``store.part-<shard>``, same backend as the main store), so shard
  writes never contend; the parent merges segments into the main store
  (newest ``written_at`` wins) at every round barrier and reads the
  evaluations back from it;
* the parent watches shard liveness: a shard that dies (crash,
  SIGKILL) has its claimed blocks reset to ``todo`` for survivors to
  steal, and a replacement shard is spawned if none survive — the
  exploration completes as long as *any* process can make progress.

Durability is the store's, not the claim table's: the claim table is
per-run coordination state, recreated on every call, while evaluated
records live in the segments/main store.  Kill anything — a shard, or
the whole exploration — and ``repro store merge`` + a re-run resumes
from the main store with **zero** re-executed campaigns.

Axis values must be JSON-representable: blocks travel as JSON, and a
persistent store requires this anyway.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.cache import ScheduleCache
from ..obs.events import (
    RunLog,
    emit,
    get_run_log,
    merge_run_log,
    set_run_log,
)
from .explore import (
    BatchEvaluator,
    ExplorationError,
    _Candidate,
    _evaluation_from_record,
    _prepare,
)
from .objectives import Evaluation
from .space import Space
from .store import ResultStore, merge_stores, open_store, part_path

#: Environment knob for tests/CI: a shard whose id is in this
#: comma-separated list SIGKILLs itself after evaluating (but before
#: releasing) its first block — the reproducible "shard died mid-run"
#: scenario (listing every shard id: "all shards died").
KILL_SHARD_ENV = "REPRO_DSE_KILL_SHARD"

#: How long claim-table writers wait on a competing lock (ms).
_BUSY_TIMEOUT_MS = 30_000

#: Parent liveness-poll interval (seconds).
_POLL_SECONDS = 0.05

#: How long a stopped shard may take to shut its pools down (seconds)
#: before the parent kills it.
_STOP_SECONDS = 10.0


# -- claim table --------------------------------------------------------------


def claims_path(store_path: "str | Path") -> Path:
    """The claim-table database coordinating shards of ``store_path``."""
    path = Path(store_path)
    return path.with_name(path.name + ".claims.sqlite")


def _connect(path: "str | Path") -> sqlite3.Connection:
    # isolation_level=None -> autocommit; transactions are explicit
    # (BEGIN IMMEDIATE), which is what a cross-process claim needs.
    conn = sqlite3.connect(
        str(path), timeout=_BUSY_TIMEOUT_MS / 1000.0, isolation_level=None
    )
    conn.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
    conn.execute("PRAGMA journal_mode = WAL")
    return conn


def create_claims(path: "str | Path") -> sqlite3.Connection:
    """Create a fresh claim table (any previous one is discarded)."""
    path = Path(path)
    for side in ("", "-wal", "-shm"):
        Path(str(path) + side).unlink(missing_ok=True)
    conn = _connect(path)
    conn.execute(
        "CREATE TABLE blocks ("
        "  id INTEGER PRIMARY KEY,"
        "  round INTEGER NOT NULL,"
        "  payload TEXT NOT NULL,"          # JSON list of assignments
        "  shard_hint INTEGER NOT NULL,"    # preferred owner
        "  state TEXT NOT NULL DEFAULT 'todo',"  # todo|claimed|done|error
        "  owner INTEGER,"
        "  owner_pid INTEGER,"
        "  executed INTEGER NOT NULL DEFAULT 0,"
        "  error TEXT"
        ")"
    )
    return conn


def publish_blocks(
    conn: sqlite3.Connection,
    round_index: int,
    assignments: Sequence[Dict[str, object]],
    batch_size: int,
    shards: int,
) -> int:
    """Cut ``assignments`` into blocks of ``batch_size`` and publish
    them, hinting shard ``i % shards`` at block ``i`` (round-robin)."""
    blocks = 0
    for start in range(0, len(assignments), batch_size):
        chunk = list(assignments[start:start + batch_size])
        conn.execute(
            "INSERT INTO blocks (round, payload, shard_hint) "
            "VALUES (?, ?, ?)",
            (round_index, json.dumps(chunk), blocks % shards),
        )
        blocks += 1
    return blocks


def claim_block(
    conn: sqlite3.Connection, shard: int
) -> Optional[Tuple[int, List[Dict[str, object]]]]:
    """Atomically claim one block for ``shard`` (or ``None`` if drained).

    Preference order: blocks hinted at this shard first, then — work
    stealing — anyone else's unclaimed blocks, lowest id first.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        row = conn.execute(
            "SELECT id, payload FROM blocks WHERE state = 'todo' "
            "ORDER BY (shard_hint != ?), id LIMIT 1",
            (shard,),
        ).fetchone()
        if row is None:
            conn.execute("COMMIT")
            return None
        conn.execute(
            "UPDATE blocks SET state = 'claimed', owner = ?, owner_pid = ? "
            "WHERE id = ?",
            (shard, os.getpid(), row[0]),
        )
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    return row[0], json.loads(row[1])


def release_block(
    conn: sqlite3.Connection,
    block_id: int,
    state: str,
    executed: int = 0,
    error: Optional[str] = None,
) -> None:
    conn.execute(
        "UPDATE blocks SET state = ?, executed = ?, error = ? WHERE id = ?",
        (state, executed, error, block_id),
    )


def reset_dead_claims(conn: sqlite3.Connection, owner: int) -> int:
    """Requeue the claimed blocks of a dead shard; returns how many."""
    cursor = conn.execute(
        "UPDATE blocks SET state = 'todo', owner = NULL, owner_pid = NULL "
        "WHERE state = 'claimed' AND owner = ?",
        (owner,),
    )
    return cursor.rowcount


# -- shard worker -------------------------------------------------------------


def _stop_shard(signum, frame) -> None:
    """Ctrl-C or the parent's SIGTERM: stop once, as on Ctrl-C.

    The interrupt makes the shard's pools terminate their workers.
    Later signals are swallowed, so that a second one (Ctrl-C reaches
    the parent and the shard alike, and the parent then sends SIGTERM)
    cannot cut that short and orphan the workers.
    """
    for stop in (signal.SIGINT, signal.SIGTERM):
        signal.signal(stop, lambda *_: None)
    raise KeyboardInterrupt


def _shard_main(shard: int, config: dict) -> None:
    """Shard process entry point: claim, evaluate, release, repeat."""
    signal.signal(signal.SIGINT, _stop_shard)
    signal.signal(signal.SIGTERM, _stop_shard)
    space = Space.from_dict(config["space"])
    kill_self = str(shard) in os.environ.get(KILL_SHARD_ENV, "").split(",")
    conn = _connect(config["claims"])
    part = open_store(part_path(config["store"], shard))
    trials, seeds = config["trials"], config["seeds"]
    evaluator = BatchEvaluator(
        part, trials, seeds, config["jobs"],
        ScheduleCache(config["cache_dir"]) if config["cache_dir"] else None,
        config["warm_start"], config["engine"], config["batch_size"],
        shard=shard,
    )
    # Each shard logs to its own segment file (never the parent's log):
    # segment appends are flushed per event, so even a SIGKILLed shard
    # leaves a readable record of the blocks it claimed.
    log: Optional[RunLog] = None
    if config.get("log_dir"):
        log = RunLog(
            config["log_dir"], run_id=config.get("run_id"), worker=shard
        )
        set_run_log(log)
        emit("shard.start", shard=shard, pid=os.getpid())
    try:
        with evaluator:
            while True:
                claimed = claim_block(conn, shard)
                if claimed is None:
                    return
                block_id, assignments = claimed
                if log is not None:
                    hint = conn.execute(
                        "SELECT shard_hint FROM blocks WHERE id = ?",
                        (block_id,),
                    ).fetchone()[0]
                    emit(
                        "shard.claim", shard=shard, block=block_id,
                        candidates=len(assignments), stolen=hint != shard,
                    )
                try:
                    # The parent checked the objectives' requirements
                    # before publishing the block.
                    _, executed = evaluator.evaluate([
                        _prepare(space, assignment, (), trials, seeds, part)
                        for assignment in assignments
                    ])
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    emit("shard.error", shard=shard, block=block_id,
                         error=error)
                    release_block(conn, block_id, "error", error=error)
                    raise
                if kill_self:
                    # Records are durably in the part segment, but the
                    # block is still 'claimed': the parent must notice
                    # the death, requeue it, and a survivor must steal
                    # it.
                    os.kill(os.getpid(), signal.SIGKILL)
                emit("shard.block", shard=shard, block=block_id,
                     executed=executed)
                release_block(conn, block_id, "done", executed=executed)
    except KeyboardInterrupt:
        pass  # stopped: what the shard finished is in its segment
    finally:
        part.close()
        conn.close()
        if log is not None:
            set_run_log(None)
            log.close()


# -- parent driver ------------------------------------------------------------


def _spawn(shard: int, config: dict) -> multiprocessing.Process:
    process = multiprocessing.Process(
        target=_shard_main, args=(shard, config), name=f"repro-shard-{shard}"
    )
    process.start()
    return process


def _drive_round(
    conn: sqlite3.Connection,
    round_index: int,
    config: dict,
    shards: int,
    next_shard: int,
) -> Tuple[int, int]:
    """Run shard processes until every block of ``round_index`` is done.

    Returns ``(executed, next_shard)`` — campaigns the shards report
    for this round, and the next fresh shard id (replacements for dead
    shards get new ids, so a kill knob aimed at one id fires once).
    """
    workers: Dict[int, multiprocessing.Process] = {}
    respawns = 0
    try:
        for _ in range(shards):
            workers[next_shard] = _spawn(next_shard, config)
            next_shard += 1
        while True:
            for shard, process in list(workers.items()):
                if not process.is_alive():
                    process.join()
                    requeued = reset_dead_claims(conn, shard)
                    if requeued:
                        emit(
                            "dse.requeue", shard=shard, blocks=requeued,
                            round=round_index,
                        )
                    del workers[shard]
            failures = conn.execute(
                "SELECT error FROM blocks WHERE round = ? AND "
                "state = 'error'", (round_index,),
            ).fetchall()
            if failures:
                raise ExplorationError(
                    f"shard evaluation failed: {failures[0][0]}"
                )
            remaining = conn.execute(
                "SELECT COUNT(*) FROM blocks WHERE round = ? AND "
                "state IN ('todo', 'claimed')", (round_index,),
            ).fetchone()[0]
            if remaining == 0:
                break
            if not workers:
                # Every shard died with work left.  Spawn replacements
                # (fresh ids) — bounded, so a deterministic crash still
                # surfaces instead of respawning forever.
                if respawns >= shards:
                    raise ExplorationError(
                        f"all {shards} shard(s) died with {remaining} "
                        f"block(s) unfinished; see the part segments for "
                        f"completed work (`repro store merge` recovers it)"
                    )
                emit(
                    "dse.respawn", shard=next_shard, round=round_index,
                    remaining=remaining,
                )
                workers[next_shard] = _spawn(next_shard, config)
                next_shard += 1
                respawns += 1
            time.sleep(_POLL_SECONDS)
        for process in workers.values():
            process.join()
    finally:
        for process in workers.values():
            if process.is_alive():
                process.terminate()
                process.join(_STOP_SECONDS)
                if process.is_alive():  # stuck in a solve that ignores it
                    process.kill()
                    process.join()
    executed = conn.execute(
        "SELECT COALESCE(SUM(executed), 0) FROM blocks WHERE round = ?",
        (round_index,),
    ).fetchone()[0]
    return executed, next_shard


class ShardedEvaluator:
    """What :func:`~repro.dse.explore.explore` evaluates fresh
    candidates with when ``shards > 1``.

    Each :meth:`evaluate` call is one round: publish the candidates as
    claim blocks, run shard processes until the round drains, merge
    their part segments into the main store and read the evaluations
    back from it.  The main ``store`` must be persistent: segments, the
    claim table and crash recovery hang off its path, and leftover
    segments of a crashed run are merged in before anything executes.
    ``batch_size`` is the claim-block size — the work-stealing
    granularity and the durability unit; the other arguments are
    :func:`~repro.dse.explore.explore`'s.  Leaving the ``with`` block
    deletes the claim table and folds the shards' run-log segments
    into the parent's log.
    """

    def __init__(
        self,
        space: Space,
        store: ResultStore,
        shards: int,
        trials: Optional[int],
        seeds: Optional[Sequence[int]],
        jobs: int,
        cache: Optional[ScheduleCache],
        warm_start: bool,
        engine: str,
        batch_size: int,
    ) -> None:
        if store.path is None:
            raise ExplorationError(
                "distributed exploration needs a persistent store (a "
                "path); segments and the claim table are derived from it"
            )
        self.store = store
        self.shards = shards
        self.batch_size = batch_size
        # Shards inherit the parent's run log (when one is active) as
        # per-shard segment files, merged back at every round barrier —
        # the exact protocol the store segments use.
        self.log = get_run_log()
        self.config = {
            "space": space.to_dict(),
            "trials": trials,
            "seeds": list(seeds) if seeds is not None else None,
            "jobs": jobs,
            "cache_dir": str(cache.cache_dir) if cache is not None else None,
            "warm_start": warm_start,
            "store": str(store.path),
            "claims": str(claims_path(store.path)),
            "engine": engine,
            "batch_size": batch_size,
            "log_dir": str(self.log.log_dir) if self.log else None,
            "run_id": self.log.run_id if self.log else None,
        }
        self.round = 0
        self.next_shard = 0
        # Recover whatever a previously killed run's shards persisted.
        merge_stores(store, delete_parts=True)
        self.conn = create_claims(self.config["claims"])

    def __enter__(self) -> "ShardedEvaluator":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.conn.close()
        for side in ("", "-wal", "-shm"):
            Path(self.config["claims"] + side).unlink(missing_ok=True)
        # A round that died mid-flight (ExplorationError, ^C) may have
        # left shard log segments behind; fold them in regardless.
        self._merge_logs()

    def _merge_logs(self) -> None:
        if self.log is not None:
            merge_run_log(self.log.path, delete_parts=True)

    def evaluate(
        self, fresh: Sequence[_Candidate]
    ) -> Tuple[List[Evaluation], int]:
        """Evaluate ``fresh`` over the shards; returns one Evaluation per
        candidate and the campaigns the shards report."""
        blocks = publish_blocks(
            self.conn, self.round,
            [candidate.assignment for candidate in fresh],
            self.batch_size, self.shards,
        )
        emit(
            "dse.publish", round=self.round, blocks=blocks,
            candidates=len(fresh), shards=self.shards,
        )
        executed, self.next_shard = _drive_round(
            self.conn, self.round, self.config, self.shards, self.next_shard
        )
        # Segments write through the open main store, so the merged
        # records are immediately visible below.
        report = merge_stores(self.store, delete_parts=True)
        self._merge_logs()
        emit(
            "dse.merge", round=self.round, executed=executed,
            segments=len(report.parts),
            merged=report.merged, updated=report.updated,
        )
        self.round += 1
        evaluations = []
        for candidate in fresh:
            record = self.store.get(candidate.key)
            if record is None:
                raise ExplorationError(
                    f"candidate {candidate.scenario.name!r} has no record "
                    f"after its round completed (store {self.store.path})"
                )
            evaluation = _evaluation_from_record(
                record, candidate.scenario, candidate.assignment
            )
            # Records the shards just produced are executions of *this*
            # call, not store reuse.
            evaluation.cached = False
            evaluations.append(evaluation)
        return evaluations, executed
