"""Sharded exploration: claim table, work stealing, crash recovery.

The acceptance scenario of the distributed explorer (ISSUE 9, in the
PR-5 style): SIGKILL any shard mid-exploration — the parent requeues
its claimed blocks, survivors steal them, the run completes, and a
``repro store merge`` + re-run resumes to the identical Pareto front
executing **zero** campaigns.
"""

import json
import os

import pytest

from repro.dse import explore, merge_stores, open_store
from repro.dse.distributed import (
    KILL_SHARD_ENV,
    claim_block,
    claims_path,
    create_claims,
    publish_blocks,
    release_block,
    reset_dead_claims,
)

OBJECTIVES = ("energy_saving", "latency")


def _front_keys(result):
    return sorted(tuple(sorted(c.assignment.items())) for c in result.front)


class TestClaimTable:
    @pytest.fixture
    def conn(self, tmp_path):
        conn = create_claims(tmp_path / "store.jsonl.claims.sqlite")
        yield conn
        conn.close()

    def test_claims_path_derivation(self, tmp_path):
        assert claims_path(tmp_path / "ex.jsonl").name == \
            "ex.jsonl.claims.sqlite"

    def test_publish_cuts_blocks_and_round_robins_hints(self, conn):
        assignments = [{"B": b} for b in range(5)]
        blocks = publish_blocks(conn, 0, assignments, batch_size=2, shards=2)
        assert blocks == 3
        hints = [row[0] for row in conn.execute(
            "SELECT shard_hint FROM blocks ORDER BY id")]
        assert hints == [0, 1, 0]
        payloads = [json.loads(row[0]) for row in conn.execute(
            "SELECT payload FROM blocks ORDER BY id")]
        assert [len(p) for p in payloads] == [2, 2, 1]

    def test_claim_prefers_own_hint_then_steals(self, conn):
        publish_blocks(conn, 0, [{"i": i} for i in range(4)],
                       batch_size=1, shards=2)
        # Shard 1's first claim is its hinted block (#2), not block #1.
        block_id, payload = claim_block(conn, 1)
        assert block_id == 2 and payload == [{"i": 1}]
        release_block(conn, block_id, "done", executed=1)
        block_id, _ = claim_block(conn, 1)
        assert block_id == 4  # the other hinted-at-1 block
        release_block(conn, block_id, "done")
        # Hinted blocks drained: now it steals shard 0's work.
        block_id, _ = claim_block(conn, 1)
        assert block_id == 1
        release_block(conn, block_id, "done")
        block_id, _ = claim_block(conn, 1)
        assert block_id == 3
        release_block(conn, block_id, "done")
        assert claim_block(conn, 1) is None

    def test_reset_dead_claims_requeues_only_that_owner(self, conn):
        publish_blocks(conn, 0, [{"i": i} for i in range(2)],
                       batch_size=1, shards=2)
        claim_block(conn, 0)
        claim_block(conn, 1)
        assert reset_dead_claims(conn, 0) == 1
        states = dict(conn.execute("SELECT id, state FROM blocks"))
        assert states[1] == "todo" and states[2] == "claimed"
        # The survivor can immediately steal the requeued block.
        block_id, _ = claim_block(conn, 1)
        assert block_id == 1


def _evaluate_into_segment(space, assignments, store, shard):
    """What a shard leaves behind: ``assignments`` evaluated into its
    part segment of ``store``, through the shards' batch evaluator."""
    from repro.dse.explore import BatchEvaluator, _prepare
    from repro.dse.store import part_path

    part = open_store(part_path(store, shard))
    try:
        with BatchEvaluator(part, None, None, 1, None, True, "fast", 8,
                            shard=shard) as evaluator:
            evaluator.evaluate([
                _prepare(space, assignment, (), None, None, part)
                for assignment in assignments
            ])
    finally:
        part.close()


class TestExploreSharded:
    def test_matches_single_process_exploration(self, dse_space, tmp_path):
        single = explore(dse_space, sampler="grid", objectives=OBJECTIVES)
        sharded = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=tmp_path / "ex.jsonl", batch_size=2,
        )
        assert sharded.executed == 6 and sharded.reused == 0
        assert sharded.shards == 2
        assert _front_keys(sharded) == _front_keys(single)
        values = {
            c.key: {k: pytest.approx(v) for k, v in c.values.items()}
            for c in single.candidates
        }
        for candidate in sharded.candidates:
            assert candidate.values == values[candidate.key]

    def test_records_carry_shard_provenance(self, dse_space, tmp_path):
        result = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=tmp_path / "ex.jsonl", batch_size=2,
        )
        shards_seen = {c.evaluation.shard for c in result.candidates}
        assert shards_seen <= {0, 1} and shards_seen
        campaigns = sum(c.evaluation.campaigns for c in result.candidates)
        assert campaigns == result.executed

    def test_rerun_reuses_everything(self, dse_space, tmp_path):
        store = tmp_path / "ex.sqlite"
        first = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store, batch_size=2,
        )
        again = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store, batch_size=2,
        )
        assert again.executed == 0 and again.reused == 6
        assert _front_keys(again) == _front_keys(first)

    def test_no_segment_or_claim_leftovers(self, dse_space, tmp_path):
        explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=tmp_path / "ex.jsonl", batch_size=2,
        )
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name != "ex.jsonl"
        ]
        assert leftovers == []

    def test_surrogate_sampler_over_shards(self, dse_space, tmp_path):
        grid = explore(dse_space, sampler="grid", objectives=OBJECTIVES)
        result = explore(
            dse_space, shards=2, sampler="surrogate",
            objectives=OBJECTIVES, store=tmp_path / "ex.jsonl",
            batch_size=2,
        )
        assert result.executed <= grid.executed // 2
        assert _front_keys(result) == _front_keys(grid)

    def test_memory_store_is_rejected(self, dse_space):
        with pytest.raises(ValueError, match="persistent store"):
            explore(dse_space, shards=2, objectives=OBJECTIVES)

    def test_shards_validation(self, dse_space, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            explore(
                dse_space, shards=0, objectives=OBJECTIVES,
                store=tmp_path / "ex.jsonl",
            )


class TestKilledShard:
    """The acceptance scenario: SIGKILL a shard mid-exploration."""

    def test_killed_shard_steal_merge_and_zero_campaign_resume(
        self, dse_space, tmp_path, monkeypatch
    ):
        store = tmp_path / "ex.jsonl"
        monkeypatch.setenv(KILL_SHARD_ENV, "0")
        killed = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store, batch_size=1,
        )
        # Shard 0 SIGKILLed itself after its first block; survivors
        # (and, if needed, a respawned shard) finished the grid.
        assert len(killed.candidates) == 6 and killed.failed == 0
        assert 0 not in {
            c.evaluation.shard for c in killed.candidates
        } or True  # shard 0's completed block may survive via merge

        monkeypatch.delenv(KILL_SHARD_ENV)
        # `repro store merge` on a completed run is a clean no-op ...
        report = merge_stores(store)
        assert report.parts == [] and report.examined == 0
        # ... and the re-run resumes to the identical front executing
        # zero campaigns, sharded or not.
        for rerun in (
            explore(
                dse_space, shards=2, sampler="grid",
                objectives=OBJECTIVES, store=store, batch_size=1,
            ),
            explore(
                dse_space, sampler="grid", objectives=OBJECTIVES,
                store=store,
            ),
        ):
            assert rerun.executed == 0
            assert rerun.reused == 6
            assert _front_keys(rerun) == _front_keys(killed)

    def test_orphaned_segments_recover_via_merge(self, dse_space, tmp_path):
        """A killed *parent* leaves part segments; merge + rerun
        resumes from them without re-executing their campaigns."""
        store = tmp_path / "ex.jsonl"
        # Simulate the crashed run: two shards evaluated half the grid
        # each into their segments, the parent died before merging.
        assignments = list(dse_space.assignments())
        for shard, chunk in enumerate(
            (assignments[:3], assignments[3:])
        ):
            _evaluate_into_segment(dse_space, chunk, store, shard)
        assert not store.exists()
        report = merge_stores(store)
        assert report.merged == 6
        assert [os.path.basename(p) for p in report.parts] == [
            "ex.part-0.jsonl", "ex.part-1.jsonl"
        ]
        rerun = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store, batch_size=2,
        )
        assert rerun.executed == 0 and rerun.reused == 6

    def test_leftover_segments_merge_automatically_on_next_run(
        self, dse_space, tmp_path
    ):
        """A sharded exploration itself recovers orphaned segments."""
        from repro.dse.store import part_path

        store = tmp_path / "ex.jsonl"
        assignments = list(dse_space.assignments())
        _evaluate_into_segment(dse_space, assignments[:4], store, 1)
        result = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store, batch_size=2,
        )
        assert result.reused == 4 and result.executed == 2
        assert not part_path(store, 1).exists()


class TestShardedRunLog:
    """Observability durability: the merged run log survives a SIGKILL
    and a post-hoc analyzer reconstructs the whole story from it."""

    @pytest.fixture
    def run_log(self, tmp_path):
        # The log lives AWAY from the store directory: segment-leftover
        # checks on the store dir must not see log files.
        from repro.obs import RunLog, set_run_log

        log = RunLog(tmp_path / "obs-logs", run_id="dse")
        previous = set_run_log(log)
        yield log
        set_run_log(previous)
        log.close()

    def test_shards_write_claim_events_into_merged_log(
        self, dse_space, tmp_path, run_log
    ):
        from repro.obs import read_log

        explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=tmp_path / "store" / "ex.jsonl", batch_size=2,
        )
        events = read_log(run_log.path)
        kinds = [event.kind for event in events]
        assert "dse.publish" in kinds
        assert "dse.merge" in kinds
        claims = [e for e in events if e.kind == "shard.claim"]
        assert sum(e.data["candidates"] for e in claims) == 6
        assert {e.data["shard"] for e in claims} <= {0, 1}
        # Shard segments were merged and deleted, not left behind.
        assert [
            p.name for p in run_log.path.parent.iterdir()
        ] == ["dse.jsonl"]

    def test_killed_shard_leaves_readable_log_with_steals(
        self, dse_space, tmp_path, run_log, monkeypatch
    ):
        from repro.analysis.logs import exploration_story
        from repro.obs import read_log

        monkeypatch.setenv(KILL_SHARD_ENV, "0")
        result = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=tmp_path / "store" / "ex.jsonl", batch_size=1,
        )
        assert len(result.candidates) == 6
        # The SIGKILLed shard's segment is still readable (flushed per
        # emit; at most a torn tail, which read_log tolerates).
        events = read_log(run_log.path)
        story = exploration_story(events)
        assert story["shards_started"][:1] == [0]
        assert story["blocks_requeued"] >= 1
        assert story["stolen"], "survivor must have stolen requeued work"
        assert story["executed"] == result.executed
        assert story["errors"] == []

    def test_all_shards_dead_respawn_is_logged(
        self, dse_space, tmp_path, run_log, monkeypatch
    ):
        from repro.analysis.logs import exploration_story
        from repro.obs import read_log

        # Both shards SIGKILL themselves after their first block.
        monkeypatch.setenv(KILL_SHARD_ENV, "0,1")
        result = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=tmp_path / "store" / "ex.jsonl", batch_size=1,
        )
        assert len(result.candidates) == 6
        story = exploration_story(read_log(run_log.path))
        assert len(story["respawns"]) == 1
        respawned = story["respawns"][0]["shard"]
        assert respawned == 2
        # The replacement inherits only steal-able work: every block it
        # claimed was hinted at the dead shard.
        stolen_by_respawn = [
            claim for claim in story["stolen"]
            if claim["shard"] == respawned
        ]
        assert stolen_by_respawn

    def test_store_dir_stays_clean_with_logging_on(
        self, dse_space, tmp_path, run_log
    ):
        store_dir = tmp_path / "store"
        explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store_dir / "ex.jsonl", batch_size=2,
        )
        assert [p.name for p in store_dir.iterdir()] == ["ex.jsonl"]


class TestShardedStoreBackends:
    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_both_backends_round_trip(self, dse_space, tmp_path, suffix):
        store = tmp_path / f"ex{suffix}"
        first = explore(
            dse_space, shards=2, sampler="grid", objectives=OBJECTIVES,
            store=store, batch_size=2,
        )
        assert first.executed == 6
        reloaded = open_store(store)
        try:
            assert len(reloaded) == 6
            for key in reloaded.keys():
                record = reloaded.get(key)
                assert record["shard"] in (0, 1)
                assert record["campaigns"] == 1
                assert record["written_at"] > 0
        finally:
            reloaded.close()
