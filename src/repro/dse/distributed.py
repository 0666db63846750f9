"""Sharded exploration: a work-stealing pool of evaluation processes.

:func:`explore` runs one process; on a multi-core box the design-space
study is embarrassingly parallel across *candidates*, so this module
partitions sampler batches over ``N`` shard processes:

* the parent selects candidates (any sampler, including the iterative
  surrogate, whose propose/measure rounds it drives), filters the ones
  the main store already holds, and publishes the rest as **candidate
  blocks** in a shared SQLite **claim table** (dict-record task state
  in the dask-scheduler style, like ``repro.serve.jobs``);
* each shard process claims blocks — preferring the ones hinted at it,
  then **stealing** anyone else's unclaimed blocks, so stragglers
  never idle — and evaluates them through the ordinary
  ``synthesize_scenarios`` -> ``run_campaigns`` path over one
  :class:`~repro.engine.trials.TrialPool` held for the shard's
  lifetime, whose workers cache built trial contexts across blocks;
* every shard appends to its own **partitioned store segment**
  (``store.part-<shard>``, same backend as the main store), so shard
  writes never contend; the parent merges segments into the main store
  (newest ``written_at`` wins) at every round barrier;
* the parent watches shard liveness: a shard that dies (crash,
  SIGKILL) has its claimed blocks reset to ``todo`` for survivors to
  steal, and a replacement shard is spawned if none survive — the
  exploration completes as long as *any* process can make progress.

Durability is the store's, not the claim table's: the claim table is
per-run coordination state, recreated on every call, while evaluated
records live in the segments/main store.  Kill anything — a shard, or
the whole exploration — and ``repro store merge`` + a re-run resumes
from the main store with **zero** re-executed campaigns.

Objectives must be registry-resolvable **names** (shards re-resolve
them in their own process) and axis values JSON-representable (blocks
travel as JSON; a persistent store requires this anyway).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..mc.campaign import _resolve_seeds
from ..obs.events import (
    RunLog,
    emit,
    get_run_log,
    merge_run_log,
    set_run_log,
)
from .explore import (
    DEFAULT_BATCH_SIZE,
    CandidateResult,
    ExplorationError,
    ExplorationResult,
    _candidate_key,
    _evaluation_from_record,
    _measured_vector,
    _score_result,
    explore,
)
from .objectives import DEFAULT_OBJECTIVES, Objective, resolve_objectives
from .samplers import Sampler, get_sampler
from .space import Space
from .store import ResultStore, merge_stores, open_store, part_path

#: Environment knob for tests/CI: a shard whose id matches this value
#: SIGKILLs itself after evaluating (but before releasing) its first
#: block — the reproducible "shard died mid-run" scenario.
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


class _BlockSampler(Sampler):
    """A fixed assignment list — how shards feed blocks to explore()."""

    name = "block"

    def __init__(self, assignments: Sequence[Dict[str, object]]) -> None:
        self.assignments = [dict(a) for a in assignments]

    def select(self, space, objectives):
        return [dict(a) for a in self.assignments]


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
    from ..engine.trials import TrialPool
    from ..runtime.trial import build_context, execute_trial_task

    signal.signal(signal.SIGINT, _stop_shard)
    signal.signal(signal.SIGTERM, _stop_shard)
    space = Space.from_dict(config["space"])
    kill_self = os.environ.get(KILL_SHARD_ENV) == str(shard)
    conn = _connect(config["claims"])
    part = open_store(part_path(config["store"], shard))
    pool = TrialPool(build_context, execute_trial_task, jobs=config["jobs"])
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
                result = explore(
                    space,
                    sampler=_BlockSampler(assignments),
                    objectives=config["objectives"],
                    trials=config["trials"],
                    seeds=config["seeds"],
                    jobs=config["jobs"],
                    cache_dir=config["cache_dir"],
                    warm_start=config["warm_start"],
                    store=part,
                    engine=config["engine"],
                    batch_size=config["batch_size"],
                    pool=pool,
                    shard=shard,
                )
            except Exception as exc:
                emit(
                    "shard.error", shard=shard, block=block_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
                release_block(
                    conn, block_id, "error",
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise
            if kill_self:
                # Records are durably in the part segment, but the
                # block is still 'claimed': the parent must notice the
                # death, requeue it, and a survivor must steal it.
                os.kill(os.getpid(), signal.SIGKILL)
            emit(
                "shard.block", shard=shard, block=block_id,
                executed=result.executed,
            )
            release_block(conn, block_id, "done", executed=result.executed)
    except KeyboardInterrupt:
        pass  # stopped: what the shard finished is in its segment
    finally:
        pool.close()
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


def explore_sharded(
    space: Space,
    shards: int = 2,
    sampler: "Union[str, Sampler]" = "grid",
    objectives: "Sequence[str | Objective]" = DEFAULT_OBJECTIVES,
    trials: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    samples: Optional[int] = None,
    jobs: int = 1,
    cache_dir: "Optional[str | Path]" = None,
    warm_start: bool = True,
    store: "Union[ResultStore, str, Path, None]" = None,
    engine: str = "fast",
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ExplorationResult:
    """Explore a design space over a pool of shard processes.

    The drop-in distributed sibling of :func:`repro.dse.explore`:
    same samplers (iterative ones are driven in rounds), same stores,
    same scoring — but candidate evaluation fans out over ``shards``
    worker processes with work stealing (see the module docstring for
    the mechanics).  Requires a **persistent** store: the segments,
    the claim table, and crash recovery all hang off its path.

    Args:
        space: The parameter space (base scenario + axes); axis values
            must be JSON-representable.
        shards: Shard processes to run (>= 1).
        sampler: Selection strategy (name or instance).
        objectives: Objective *names* (or registered instances) —
            shards re-resolve them from the registry by name.
        trials/seeds/samples/warm_start: As in :func:`explore`.
        jobs: Worker processes *per shard* (synthesis + trials).
        cache_dir: Persistent schedule-cache directory shared by all
            shards.
        store: Path of the main result store (or an open persistent
            store).  Leftover ``.part-<n>`` segments from a previous
            crashed run are merged in before anything executes.
        engine: Trial engine, as in :func:`explore`.
        batch_size: Candidates per claim block — the work-stealing
            granularity *and* the durability unit.

    Returns:
        An :class:`ExplorationResult` scored exactly like a
        single-process exploration; ``result.shards`` records the pool
        width and every executed record carries its shard id.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ExplorationError(
            f"shards must be an integer >= 1, got {shards!r}"
        )
    objectives = resolve_objectives(objectives)
    if isinstance(sampler, str):
        sampler = get_sampler(sampler, samples=samples)
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) \
            or batch_size < 1:
        raise ExplorationError(
            f"batch_size must be an integer >= 1, got {batch_size!r}"
        )
    if space.base.simulation is None:
        raise ExplorationError(
            "exploration evaluates candidates through Monte-Carlo "
            "campaigns; give the base scenario a SimulationSpec"
        )

    own_store = not isinstance(store, ResultStore)
    main = store if isinstance(store, ResultStore) else open_store(store)
    if main.path is None:
        if own_store:
            main.close()
        raise ExplorationError(
            "distributed exploration needs a persistent store (a path); "
            "segments and the claim table are derived from it"
        )
    store_path = Path(main.path)

    # Shards inherit the parent's run log (when one is active) as
    # per-shard segment files, merged back at every round barrier —
    # the exact protocol the store segments use.
    parent_log = get_run_log()
    config = {
        "space": space.to_dict(),
        "objectives": [obj.name for obj in objectives],
        "trials": trials,
        "seeds": list(seeds) if seeds is not None else None,
        "jobs": jobs,
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
        "warm_start": warm_start,
        "store": str(store_path),
        "claims": str(claims_path(store_path)),
        "engine": engine,
        "batch_size": batch_size,
        "log_dir": str(parent_log.log_dir) if parent_log else None,
        "run_id": parent_log.run_id if parent_log else None,
    }

    def merge_shard_logs() -> None:
        if parent_log is not None:
            merge_run_log(parent_log.path, delete_parts=True)

    result = ExplorationResult(
        objectives=objectives,
        sampler=sampler.name,
        space_size=space.size,
        store_path=str(store_path),
        shards=shards,
    )
    started = time.perf_counter()
    conn = create_claims(config["claims"])
    next_shard = 0
    round_index = 0
    try:
        # Recover whatever a previously killed run's shards persisted.
        merge_stores(main, delete_parts=True)

        def run_round(selected) -> List[CandidateResult]:
            nonlocal next_shard, round_index
            keyed: List[Tuple[str, object, Dict[str, object]]] = []
            fresh: List[Dict[str, object]] = []
            fresh_keys = set()
            for assignment in selected:
                scenario = space.candidate(assignment)
                if scenario.simulation is None:
                    raise ExplorationError(
                        f"candidate {scenario.name!r} has no SimulationSpec; "
                        f"exploration evaluates through Monte-Carlo campaigns"
                    )
                for objective in objectives:
                    if objective.requires is not None:
                        objective.requires(scenario)
                try:
                    seed_list = _resolve_seeds(scenario, trials, seeds)
                except ValueError as exc:
                    raise ExplorationError(str(exc)) from None
                key = _candidate_key(main, scenario, assignment, seed_list)
                keyed.append((key, scenario, dict(assignment)))
                if main.get(key) is None:
                    fresh.append(dict(assignment))
                    fresh_keys.add(key)
                else:
                    result.reused += 1
            if fresh:
                blocks = publish_blocks(
                    conn, round_index, fresh, batch_size, shards
                )
                assert blocks > 0
                emit(
                    "dse.publish", round=round_index, blocks=blocks,
                    candidates=len(fresh), shards=shards,
                )
                executed, next_shard = _drive_round(
                    conn, round_index, config, shards, next_shard
                )
                result.executed += executed
                round_index += 1
                # Segments write through the open main store, so the
                # merged records are immediately visible below.
                report = merge_stores(main, delete_parts=True)
                merge_shard_logs()
                emit(
                    "dse.merge", round=round_index - 1, executed=executed,
                    segments=len(report.parts),
                    merged=report.merged, updated=report.updated,
                )
            round_results: List[CandidateResult] = []
            for key, scenario, assignment in keyed:
                record = main.get(key)
                if record is None:
                    raise ExplorationError(
                        f"candidate {scenario.name!r} has no record after "
                        f"its round completed (store {store_path})"
                    )
                evaluation = _evaluation_from_record(
                    record, scenario, assignment
                )
                # Records the shards just produced are executions of
                # *this* call, not store reuse.
                evaluation.cached = key not in fresh_keys
                round_results.append(CandidateResult(
                    assignment=assignment,
                    name=scenario.name,
                    key=key,
                    evaluation=evaluation,
                ))
            return round_results

        if getattr(sampler, "iterative", False):
            measured: List[dict] = []
            while True:
                proposals = sampler.propose(space, objectives, measured)
                if not proposals:
                    break
                round_results = run_round(proposals)
                result.candidates.extend(round_results)
                for candidate in round_results:
                    measured.append({
                        "assignment": dict(candidate.assignment),
                        "vector": _measured_vector(candidate, objectives),
                    })
        else:
            result.candidates = run_round(sampler.select(space, objectives))
    finally:
        result.elapsed = time.perf_counter() - started
        conn.close()
        for side in ("", "-wal", "-shm"):
            Path(config["claims"] + side).unlink(missing_ok=True)
        if own_store:
            main.close()
        # A round that died mid-flight (ExplorationError, ^C) may have
        # left shard log segments behind; fold them in regardless.
        merge_shard_logs()

    _score_result(result)
    return result
