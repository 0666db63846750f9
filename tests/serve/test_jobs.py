"""JobTable: the state machine, the indices, the event log."""

import threading

import pytest

from repro.serve.jobs import (
    STATE_ORDER,
    STATES,
    TERMINAL,
    TRANSITIONS,
    JobTable,
    StateError,
    job_view,
)


@pytest.fixture
def table():
    return JobTable()


def make_job(table, key="k1", client="c1"):
    return table.create("scn", key, client=client, trials=4)


class TestStateMachine:
    def test_fresh_job_is_queued(self, table):
        job = make_job(table)
        assert job["state"] == "queued"
        assert job["id"] in table.by_state["queued"]

    def test_happy_path(self, table):
        job = make_job(table)
        for state in ("synthesizing", "simulating", "done"):
            table.transition(job["id"], state)
        assert job["state"] == "done"
        assert job["finished"] is not None

    def test_store_hit_shortcut(self, table):
        job = make_job(table)
        table.transition(job["id"], "done", cached=True)
        assert job["cached"] is True

    def test_synthesis_only_shortcut(self, table):
        job = make_job(table)
        table.transition(job["id"], "synthesizing")
        table.transition(job["id"], "done")
        assert job["state"] == "done"

    @pytest.mark.parametrize("terminal", sorted(TERMINAL))
    def test_terminal_states_are_absorbing(self, table, terminal):
        job = make_job(table)
        table.transition(job["id"], terminal)
        for state in STATES:
            with pytest.raises(StateError):
                table.transition(job["id"], state)

    def test_no_backwards_moves(self, table):
        job = make_job(table)
        table.transition(job["id"], "simulating")
        with pytest.raises(StateError):
            table.transition(job["id"], "synthesizing")
        with pytest.raises(StateError):
            table.transition(job["id"], "queued")

    def test_unknown_state_rejected(self, table):
        job = make_job(table)
        with pytest.raises(StateError):
            table.transition(job["id"], "paused")

    def test_unknown_job_rejected(self, table):
        with pytest.raises(KeyError):
            table.transition("job-9999", "done")

    def test_transition_table_is_forward_only(self):
        for state, nexts in TRANSITIONS.items():
            for nxt in nexts:
                assert STATE_ORDER[nxt] > STATE_ORDER[state]


class TestIndices:
    def test_transition_moves_state_index(self, table):
        job = make_job(table)
        table.transition(job["id"], "synthesizing")
        assert job["id"] not in table.by_state["queued"]
        assert job["id"] in table.by_state["synthesizing"]

    def test_by_client(self, table):
        a = make_job(table, key="k1", client="alice")
        make_job(table, key="k1", client="bob")
        c = make_job(table, key="k2", client="alice")
        assert table.by_client["alice"] == {a["id"], c["id"]}

    def test_counts_cover_every_state(self, table):
        make_job(table)
        counts = table.counts()
        assert set(counts) == set(STATES)
        assert counts["queued"] == 1

    def test_list_filters(self, table):
        a = make_job(table, client="alice")
        make_job(table, client="bob")
        table.transition(a["id"], "done")
        assert [j["id"] for j in table.list(state="done")] == [a["id"]]
        assert [j["id"] for j in table.list(client="alice")] == [a["id"]]
        with pytest.raises(StateError):
            table.list(state="nope")


class TestEvents:
    def test_events_are_sequential_and_ordered(self, table):
        job = make_job(table)
        table.transition(job["id"], "synthesizing")
        table.transition(job["id"], "simulating")
        table.progress(job["id"], trials_done=2)
        table.transition(job["id"], "done")
        seqs = [event["seq"] for event in job["events"]]
        assert seqs == list(range(len(job["events"])))
        orders = [STATE_ORDER[event["state"]] for event in job["events"]]
        assert orders == sorted(orders)

    def test_progress_updates_trials_done(self, table):
        job = make_job(table)
        table.transition(job["id"], "simulating")
        table.progress(job["id"], trials_done=3)
        assert job["trials_done"] == 3

    def test_progress_after_terminal_is_dropped(self, table):
        job = make_job(table)
        table.transition(job["id"], "cancelled")
        before = len(job["events"])
        table.progress(job["id"], trials_done=3)
        assert len(job["events"]) == before
        assert job["trials_done"] == 0

    def test_events_since(self, table):
        job = make_job(table)
        table.transition(job["id"], "synthesizing")
        events, terminal = table.events_since(job["id"], 0)
        assert [e["state"] for e in events] == ["synthesizing"]
        assert terminal is False
        table.transition(job["id"], "failed", error="boom")
        events, terminal = table.events_since(job["id"], 1)
        assert terminal is True
        assert events[-1]["error"] == "boom"

    def test_wait_for_events_wakes_on_transition(self, table):
        job = make_job(table)

        def later():
            table.transition(job["id"], "done")

        thread = threading.Timer(0.05, later)
        thread.start()
        try:
            events, terminal = table.wait_for_events(job["id"], 0, timeout=5.0)
        finally:
            thread.join()
        assert terminal is True
        assert events[-1]["state"] == "done"


class TestPruning:
    def test_terminal_history_is_bounded(self):
        table = JobTable(history=3)
        jobs = [make_job(table, key=f"k{i}") for i in range(5)]
        for job in jobs:
            table.transition(job["id"], "done")
        assert len(table) == 3
        assert table.get(jobs[0]["id"]) is None
        assert table.get(jobs[-1]["id"]) is not None

    def test_active_jobs_never_pruned(self):
        table = JobTable(history=1)
        active = make_job(table, key="live")
        for i in range(4):
            job = make_job(table, key=f"k{i}")
            table.transition(job["id"], "done")
        assert table.get(active["id"]) is not None

    def test_pruned_jobs_leave_no_index_residue(self):
        table = JobTable(history=1)
        a = make_job(table, key="ka", client="ca")
        b = make_job(table, key="kb", client="cb")
        table.transition(a["id"], "done")
        table.transition(b["id"], "done")
        assert a["id"] not in table.by_state["done"]
        assert a["id"] not in table.by_client.get("ca", set())


class TestJobView:
    def test_view_is_json_shaped(self, table):
        job = make_job(table)
        view = job_view(job)
        assert view["id"] == job["id"]
        assert view["state"] == "queued"
        assert isinstance(view["events"], int)

    def test_view_does_not_leak_live_event_list(self, table):
        job = make_job(table)
        view = job_view(job)
        assert "result" in view
        assert view["events"] == len(job["events"])
