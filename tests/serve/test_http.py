"""The HTTP surface: routes, error mapping, NDJSON streaming."""

import json
import urllib.request

import pytest

from repro.serve.client import ServiceClient, ServiceError, ServiceUnavailable

from .conftest import make_scenario


@pytest.fixture
def client(app):
    return ServiceClient(app.url, timeout=30.0)


class TestBasicRoutes:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok"}

    def test_submit_and_get(self, client):
        job = client.submit(make_scenario(), trials=2, client="alice")
        assert job["state"] in ("queued", "synthesizing", "simulating", "done")
        fetched = client.job(job["id"])
        assert fetched["id"] == job["id"]
        assert fetched["client"] == "alice"

    def test_submit_returns_result_inline_on_store_hit(self, client):
        first = client.submit(make_scenario(), trials=2)
        client.wait(first["id"], timeout=60)
        second = client.submit(make_scenario(), trials=2)
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["result"]["stats"]["n_trials"] == 2

    def test_list_jobs_with_filters(self, client):
        job = client.submit(make_scenario(), trials=2, client="bob")
        client.wait(job["id"], timeout=60)
        assert any(j["id"] == job["id"] for j in client.jobs(state="done"))
        assert any(j["id"] == job["id"] for j in client.jobs(client="bob"))
        assert not any(
            j["id"] == job["id"] for j in client.jobs(client="nobody")
        )

    def test_stats_shape(self, client):
        stats = client.stats()
        for section in ("admission", "dedup", "jobs", "engine", "service",
                        "store", "cache"):
            assert section in stats
        assert stats["service"]["draining"] is False

    def test_cancel_route(self, client, app):
        # Cancel something queued behind a held worker? Simpler: cancel
        # a finished job is a no-op flagged in the answer.
        job = client.submit(make_scenario(), trials=2)
        client.wait(job["id"], timeout=60)
        answer = client.cancel(job["id"])
        assert answer["cancelled_now"] is False
        assert answer["state"] == "done"


class TestErrorMapping:
    def test_unknown_routes_404(self, client):
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            with pytest.raises(ServiceError) as err:
                client._request(method, path, {} if method == "POST" else None)
            assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-99999")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.cancel("job-99999")
        assert err.value.status == 404

    def test_malformed_body_400(self, client, app):
        request = urllib.request.Request(
            f"{app.url}/jobs", data=b"not json",
            headers={"Content-Type": "application/json"}, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"] == "bad_request"

    def test_missing_scenario_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", {"trials": 2})
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "scenario", [
            {"kind": "not-a-scenario"}, [], "x", 3,
            # Sent as JSON ``Infinity``: used to simulate forever.
            dict(make_scenario().to_dict(),
                 simulation=dict(make_scenario().simulation.to_dict(),
                                 duration=float("inf"))),
            # Used to raise TypeError: a 500 ``internal``.
            dict(make_scenario().to_dict(), loss={"kind": [], "params": {}}),
        ],
        ids=["wrong-kind", "list", "string", "int", "infinite-duration",
             "list-loss-kind"],
    )
    def test_bad_scenario_400(self, client, scenario):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", {"scenario": scenario})
        assert err.value.status == 400
        assert err.value.error == "bad_request"

    def test_bad_state_filter_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/jobs?state=bogus")
        assert err.value.status == 400

    def test_trial_budget_429(self, tmp_path):
        from repro.serve import ServiceApp, ServiceConfig

        with ServiceApp(ServiceConfig(port=0, max_trials=2)) as app:
            client = ServiceClient(app.url)
            with pytest.raises(ServiceError) as err:
                client.submit(make_scenario(), trials=50)
            assert err.value.status == 429
            assert "budget" in err.value.reason

    def test_unreachable_daemon_raises_service_unavailable(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceUnavailable):
            client.health()


class TestEventStream:
    def test_ndjson_events_in_state_machine_order(self, client):
        from repro.serve.jobs import STATE_ORDER

        job = client.submit(make_scenario(), trials=4)
        events = list(client.events(job["id"]))
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(len(events)))
        orders = [STATE_ORDER[event["state"]] for event in events]
        assert orders == sorted(orders)
        assert events[0]["state"] == "queued"
        assert events[-1]["state"] == "done"

    def test_stream_attaches_mid_flight_without_gaps(self, client):
        job = client.submit(make_scenario("late-attach"), trials=4)
        client.wait(job["id"], timeout=60)
        # Streaming a finished job replays the full event history.
        events = list(client.events(job["id"]))
        assert events[0]["seq"] == 0
        assert events[-1]["state"] == "done"

    def test_stream_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            list(client.events("job-99999"))
        assert err.value.status == 404


class TestShutdownRoute:
    def test_shutdown_drains_and_closes(self, tmp_path):
        from repro.serve import ServiceApp, ServiceConfig

        app = ServiceApp(ServiceConfig(port=0))
        app.start()
        client = ServiceClient(app.url, timeout=10.0)
        job = client.submit(make_scenario(), trials=2)
        answer = client.shutdown()
        assert answer["status"] == "draining"
        app.shutdown()  # join the drain (idempotent)
        # The admitted job was finished, not dropped.
        assert app.table.get(job["id"])["state"] == "done"
        with pytest.raises((ServiceUnavailable, ServiceError)):
            client.health()
